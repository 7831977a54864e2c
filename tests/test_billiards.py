import math
import random

import pytest

from snellfagnano import (Point2, RefractionCoeffs, Triangle, Weights, dist,
                          pedal_triangle, triangle_from_sides)
from snellfagnano.billiards import (BilliardState, HitVertex, RiverInstance,
                                    TotalInternalReflection, billiard_step,
                                    inward_normal, is_periodic,
                                    orbit_start_state, point_on_side,
                                    snell_reflect, solve_river)
from snellfagnano.construction import (coeffs_from_weights,
                                       snell_fagnano_point)
from snellfagnano.geometry import GeometryError, intersect_lines

from conftest import (orthocenter_oracle, sample_acute_triangle,
                      sample_admissible)

UNIT_K = RefractionCoeffs(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the reflection law at a single wall

def test_mirror_thirty_degrees():
    n = Point2(0.0, 1.0)
    d = Point2(0.5, -math.sqrt(3.0) / 2.0)
    out = snell_reflect(d, n, 1.0)
    assert dist(out, Point2(0.5, math.sqrt(3.0) / 2.0)) <= 1e-15


def test_snell_bends_toward_normal():
    # sin(in) = 0.8, kappa = 2 -> sin(out) = 0.4
    d = Point2(0.8, -0.6)
    out = snell_reflect(d, Point2(0.0, 1.0), 2.0)
    assert out.x == pytest.approx(0.4, abs=1e-15)
    assert out.y == pytest.approx(math.sqrt(1 - 0.16), abs=1e-15)


def test_snell_total_internal_reflection():
    d = Point2(0.8, -0.6)
    with pytest.raises(TotalInternalReflection):
        snell_reflect(d, Point2(0.0, 1.0), 0.5)


def test_snell_rejects_outgoing_input():
    with pytest.raises(GeometryError):
        snell_reflect(Point2(0.0, 1.0), Point2(0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        snell_reflect(Point2(0.0, -1.0), Point2(0.0, 1.0), -1.0)


def test_mirror_matches_classical_formula():
    rng = random.Random(81)
    for _ in range(1000):
        th = rng.uniform(0.0, 2 * math.pi)
        n = Point2(math.cos(th), math.sin(th))
        # aim at the wall: negative normal component, either tangential sign
        phi = rng.uniform(0.05, math.pi / 2 - 0.05)
        sgn = rng.choice((-1.0, 1.0))
        tang = n.perp()
        d = Point2(-math.cos(phi) * n.x + sgn * math.sin(phi) * tang.x,
                   -math.cos(phi) * n.y + sgn * math.sin(phi) * tang.y)
        out = snell_reflect(d, n, 1.0)
        classical = d - 2.0 * d.dot(n) * n
        assert dist(out, classical) <= 1e-12


def test_preserves_tangential_sign():
    for sgn in (1.0, -1.0):
        d = Point2(sgn * 0.6, -0.8)
        out = snell_reflect(d, Point2(0.0, 1.0), 1.5)
        assert math.copysign(1.0, out.x) == sgn


# ---------------------------------------------------------------------------
# the step map

def test_orthic_vertex_to_vertex():
    rng = random.Random(82)
    t = sample_acute_triangle(rng)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    s0 = orbit_start_state(t, orbit)
    s1 = billiard_step(s0, t, UNIT_K)
    assert s1.side == "c"
    assert s1.param == pytest.approx(orbit.tC, abs=1e-12)
    s2 = billiard_step(s1, t, UNIT_K)
    assert s2.side == "b"
    assert s2.param == pytest.approx(orbit.tB, abs=1e-12)


def test_equilateral_medial_closes():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    assert all(abs(p - 0.5) < 1e-12 for p in (orbit.tA, orbit.tB, orbit.tC))
    assert is_periodic(orbit_start_state(t, orbit), t, UNIT_K, 3, 1e-12)


def test_flight_lands_on_aimed_foot():
    rng = random.Random(83)
    for _ in range(25):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != "interior":
            continue
        orbit = res.orbit
        s1 = billiard_step(orbit_start_state(t, orbit), t,
                           coeffs_from_weights(w))
        landed = point_on_side(t, s1.side, s1.param)
        assert dist(landed, orbit.pC) <= 1e-9 * t.diameter


def test_hit_vertex_raises():
    t = Triangle(Point2(0, 0), Point2(4, 0), Point2(1, 3))
    p0 = point_on_side(t, "c", 0.3)
    aim = (t.vC - p0).unit()
    with pytest.raises(HitVertex):
        billiard_step(BilliardState("c", 0.3, aim), t, UNIT_K)


def test_is_periodic_basics():
    rng = random.Random(84)
    t = sample_acute_triangle(rng)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    s0 = orbit_start_state(t, orbit)
    assert is_periodic(s0, t, UNIT_K, 3, 1e-10)
    assert not is_periodic(s0, t, UNIT_K, 1, 1e-10)
    with pytest.raises(ValueError):
        is_periodic(s0, t, UNIT_K, 0, 1e-10)


def test_constructed_orbit_is_periodic():
    rng = random.Random(85)
    count = 0
    while count < 25:
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != "interior":
            continue
        count += 1
        assert is_periodic(orbit_start_state(t, res.orbit), t,
                           coeffs_from_weights(w), 3, 1e-8)


def test_step_sine_ratio_matches_coefficient():
    rng = random.Random(86)
    t, w = sample_admissible(rng)
    k = coeffs_from_weights(w)
    res = snell_fagnano_point(t, w)
    state = orbit_start_state(t, res.orbit)
    for _ in range(3):
        nxt = billiard_step(state, t, k)
        n = inward_normal(t, nxt.side)
        sin_in = abs(state.direction.cross(n))
        sin_out = abs(nxt.direction.cross(n))
        kap = {"a": k.kap_a, "b": k.kap_b, "c": k.kap_c}[nxt.side]
        assert sin_in / sin_out == pytest.approx(kap, rel=1e-10)
        state = nxt


def test_time_reversal_with_reciprocal_coefficients():
    """Running the orbit backwards needs 1/kappa at every wall and visits
    the same feet in the opposite order."""
    rng = random.Random(87)
    count = 0
    while count < 10:
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != "interior":
            continue
        count += 1
        k = coeffs_from_weights(w)
        k_rev = RefractionCoeffs(1.0 / k.kap_a, 1.0 / k.kap_b, 1.0 / k.kap_c)
        orbit = res.orbit
        back = BilliardState("a", orbit.tA, (orbit.pB - orbit.pA).unit())
        s1 = billiard_step(back, t, k_rev)
        assert s1.side == "b"
        assert dist(point_on_side(t, "b", s1.param), orbit.pB) \
            <= 1e-8 * t.diameter
        s2 = billiard_step(s1, t, k_rev)
        assert s2.side == "c"
        assert dist(point_on_side(t, "c", s2.param), orbit.pC) \
            <= 1e-8 * t.diameter
        assert is_periodic(back, t, k_rev, 3, 1e-8)


# ---------------------------------------------------------------------------
# the one-wall crossing ("river") problem

X_AXIS = (Point2(0.0, 0.0), Point2(1.0, 0.0))


def _bisect_slope(r, lo, hi):
    e = (Point2(*r.line[1]) - Point2(*r.line[0])).unit()
    q1 = Point2(*r.line[0])
    a, b = Point2(*r.a_pt), Point2(*r.b_pt)

    def slope(u):
        p = q1 + u * e
        va, vb = a - p, b - p
        return -(r.lam1 * va.dot(e) / va.norm()
                 + r.lam2 * vb.dot(e) / vb.norm())

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return q1 + 0.5 * (lo + hi) * e


def test_river_equal_weights_is_mirror():
    rng = random.Random(88)
    for _ in range(50):
        a = Point2(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        b = Point2(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        lam = rng.uniform(0.2, 5.0)
        x, cost, resid = solve_river(RiverInstance(a, b, X_AXIS, lam, lam))
        mirror_b = Point2(b.x, -b.y)
        expect = intersect_lines(a, mirror_b, *X_AXIS)
        assert abs(x.y) <= 1e-12
        assert dist(x, expect) <= 1e-9 * max(1.0, dist(a, b))
        assert cost == pytest.approx(lam * dist(a, mirror_b), rel=1e-12)
        assert resid <= 1e-8


def test_river_coincident_points():
    a = Point2(0.7, 2.0)
    x, cost, resid = solve_river(RiverInstance(a, a, X_AXIS, 1.5, 2.5))
    assert dist(x, Point2(0.7, 0.0)) <= 1e-12
    assert cost == pytest.approx(4.0 * 2.0, rel=1e-12)
    assert resid == 0.0


def test_river_unequal_weights_instance():
    a = Point2(-1.0, 1.0)
    b = Point2(1.0, 1.0)
    r = RiverInstance(a, b, X_AXIS, 1.0, 2.0)
    x, cost, resid = solve_river(r)
    # symmetric geometry, asymmetric weights: the heavier leg to B gets
    # shortened, pulling the crossing toward B's foot
    assert 0.0 < x.x < 1.0
    oracle = _bisect_slope(r, -1.0, 1.0)
    assert dist(x, oracle) <= 1e-9
    assert resid <= 1e-8
    e = Point2(1.0, 0.0)
    va, vb = a - x, b - x
    assert abs(1.0 * va.dot(e) / va.norm()
               + 2.0 * vb.dot(e) / vb.norm()) < 1e-8


def test_river_random_instances_first_order():
    rng = random.Random(89)
    for _ in range(200):
        a = Point2(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        b = Point2(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        l1, l2 = rng.uniform(0.1, 6), rng.uniform(0.1, 6)
        x, cost, resid = solve_river(RiverInstance(a, b, X_AXIS, l1, l2))
        assert resid <= 1e-8
        e = Point2(1.0, 0.0)
        va, vb = a - x, b - x
        assert abs(l1 * va.dot(e) / va.norm()
                   + l2 * vb.dot(e) / vb.norm()) < 1e-8
        # no point on the line beats it
        for du in (-1e-4, 1e-4):
            p = Point2(x.x + du, 0.0)
            assert l1 * dist(a, p) + l2 * dist(b, p) >= cost - 1e-12


def test_river_rigid_motion_equivariance():
    a = Point2(-1.3, 0.9)
    b = Point2(2.1, 2.4)
    x0, c0, _ = solve_river(RiverInstance(a, b, X_AXIS, 1.0, 3.0))
    th, dx, dy = 0.83, -4.0, 2.5

    def mv(p):
        return Point2(math.cos(th) * p.x - math.sin(th) * p.y + dx,
                      math.sin(th) * p.x + math.cos(th) * p.y + dy)

    x1, c1, _ = solve_river(RiverInstance(
        mv(a), mv(b), (mv(X_AXIS[0]), mv(X_AXIS[1])), 1.0, 3.0))
    assert dist(x1, mv(x0)) <= 1e-9
    assert c1 == pytest.approx(c0, rel=1e-12)


def test_river_validation():
    with pytest.raises(ValueError):
        RiverInstance(Point2(0, 1), Point2(0, -1), X_AXIS, 1.0, 1.0)
    with pytest.raises(ValueError):
        RiverInstance(Point2(0, 1), Point2(1, 0), X_AXIS, 1.0, 1.0)
    with pytest.raises(ValueError):
        RiverInstance(Point2(0, 1), Point2(1, 1), X_AXIS, 0.0, 1.0)
