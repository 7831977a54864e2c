import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from snellfagnano import (Point2, Triangle, dist, pedal_triangle,
                          triangle_from_sides)
from snellfagnano.billiards import (VERTEX_EPS, BilliardState, HitVertex,
                                    RiverInstance, TotalInternalReflection,
                                    billiard_step, inward_normal,
                                    orbit_start_state, point_on_side,
                                    snell_reflect, solve_river)
from snellfagnano.construction import (coeffs_from_weights,
                                       snell_fagnano_point)
from snellfagnano.geometry import GeometryError

from conftest import (orthocenter_oracle, rotate, sample_acute_triangle,
                      sample_admissible, sample_random_setup)
from oracles import (first_wall_exact, intersect_lines, is_periodic,
                     river_frame, river_reference)

UNIT_K = (1.0, 1.0, 1.0)


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
    s0 = orbit_start_state(orbit)
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
    assert is_periodic(orbit_start_state(orbit), t, UNIT_K, 3, 1e-12)


def test_flight_lands_on_aimed_foot():
    rng = random.Random(83)
    for _ in range(25):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != "interior":
            continue
        orbit = res.orbit
        s1 = billiard_step(orbit_start_state(orbit), t, coeffs_from_weights(w))
        landed = point_on_side(t, s1.side, s1.param)
        assert dist(landed, orbit.pC) <= 1e-9 * t.diameter


def test_hit_vertex_raises():
    t = Triangle(Point2(0, 0), Point2(4, 0), Point2(1, 3))
    p0 = point_on_side(t, "c", 0.3)
    aim = (t.vC - p0).unit()
    with pytest.raises(HitVertex):
        billiard_step(BilliardState("c", 0.3, aim), t, UNIT_K)


def _inward_start(rng, t, side, param):
    """A state on `side` at `param` whose direction makes an angle
    U(0, pi) with the side's, turning toward the inward normal."""
    q1, q2 = t.side_segment(side)
    return BilliardState(side, param,
                         rotate((q2 - q1).unit(), rng.uniform(0.0, math.pi)))


def _random_setup_starts(rng, n):
    """Starts in random set-up triangles at a parameter U(0, 1)."""
    for _ in range(n):
        t, _ = sample_random_setup(rng)
        yield t, _inward_start(rng, t, rng.choice("abc"), rng.random())


def _thin_starts(rng, n):
    """Starts in A = (U(0, 1), h), B = (0, 0), C = (1, 0) with
    h = e^U(ln 3e-12, 0), on a uniform side at e or 1 - e from its start,
    e = e^U(ln 1e-15, ln 0.5); a refused triangle or a parameter that
    rounds out of (0, 1) is drawn again."""
    count = 0
    while count < n:
        h = math.exp(rng.uniform(math.log(3e-12), 0.0))
        try:
            t = Triangle(Point2(rng.random(), h), Point2(0.0, 0.0),
                         Point2(1.0, 0.0))
        except GeometryError:
            continue
        side = rng.choice("abc")
        e = math.exp(rng.uniform(math.log(1e-15), math.log(0.5)))
        param = e if rng.random() < 0.5 else 1.0 - e
        if 0.0 < param < 1.0:
            count += 1
            yield t, _inward_start(rng, t, side, param)


# Draws whose exact parameter lies this close to a vertex-hit threshold
# are skipped: the step's parameter was at most 3.9e-13 off the exact one
# on 20000 thin draws (and 3.9e-15 on 20000 random set-up draws).
THRESHOLD_MARGIN = 1e-12


@pytest.mark.parametrize("family, seed", [(_random_setup_starts, 2601),
                                          (_thin_starts, 2602)])
def test_step_meets_the_exact_first_wall(family, seed):
    """The step leaves through the wall that the ray from the float p0
    along the float direction meets first in exact arithmetic, or is a
    HitVertex where that wall's parameter lies within VERTEX_EPS of an end.
    A HitVertex is also right where p0 rounds outside the triangle."""
    thresholds = (Fraction(VERTEX_EPS), Fraction(1.0 - VERTEX_EPS))
    checked = 0
    for t, s in family(random.Random(seed), 1500):
        inside, wall, v = first_wall_exact(
            t, point_on_side(t, s.side, s.param), s.direction, s.side)
        if v is not None and min(abs(v - x) for x in thresholds) \
                <= THRESHOLD_MARGIN:
            continue
        try:
            got = billiard_step(s, t, UNIT_K).side
        except HitVertex:
            got = "vertex"
        if not inside and got == "vertex":
            continue
        assert wall is not None, (t, s)
        assert got == (wall if thresholds[0] <= v <= thresholds[1]
                       else "vertex"), (t, s, float(v))
        checked += 1
    assert checked > 1400


def test_is_periodic_basics():
    rng = random.Random(84)
    t = sample_acute_triangle(rng)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    s0 = orbit_start_state(orbit)
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
        assert is_periodic(orbit_start_state(res.orbit), t,
                           coeffs_from_weights(w), 3, 1e-8)


def test_step_sine_ratio_matches_coefficient():
    rng = random.Random(86)
    t, w = sample_admissible(rng)
    k = coeffs_from_weights(w)
    res = snell_fagnano_point(t, w)
    state = orbit_start_state(res.orbit)
    for _ in range(3):
        nxt = billiard_step(state, t, k)
        n = inward_normal(t, nxt.side)
        sin_in = abs(state.direction.cross(n))
        sin_out = abs(nxt.direction.cross(n))
        kap = k["abc".index(nxt.side)]
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
        k_rev = tuple(1.0 / kap for kap in k)
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_river_refuses_a_point_that_is_not_finite(bad):
    """An inf or NaN coordinate of A, B or either point of the line is
    refused before any cross product is taken; the CLI refuses such input
    while parsing it, so only a library caller reaches this check."""
    points = [Point2(0.0, 1.0), Point2(1.0, 2.0), *X_AXIS]
    for i in range(4):
        for j in range(2):
            p = list(points)
            p[i] = Point2(*(bad if m == j else v for m, v in enumerate(p[i])))
            with pytest.raises(GeometryError,
                               match="^points must be finite$"):
                RiverInstance(p[0], p[1], (p[2], p[3]), 1.0, 2.0)


def _sfbench_river(rng, height=None, lams=None, same_foot=False):
    """A river instance drawn as sfbench's river job draws one: scale
    10^U(-3, 3), a rotated line through an offset up to 10 scales from the
    origin, points up to 2 scales along and 0.1-2 scales off the line, and
    weights exp(U(-ln 4, ln 4)).  height, lams and same_foot override the
    draw for the hard cases."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    e = (math.cos(theta), math.sin(theta))
    o = (rng.uniform(-10, 10) * scale, rng.uniform(-10, 10) * scale)
    q2 = (o[0] + scale * e[0], o[1] + scale * e[1])

    def above(u, h):
        return Point2(o[0] + scale * (u * e[0] - h * e[1]),
                      o[1] + scale * (u * e[1] + h * e[0]))

    side = 1.0 if rng.random() < 0.5 else -1.0
    ua = rng.uniform(-2, 2)
    a = above(ua, side * (height or rng.uniform(0.1, 2.0)))
    b = above(ua if same_foot else rng.uniform(-2, 2),
              side * rng.uniform(0.1, 2.0))
    ln4 = math.log(4.0)
    lam1, lam2 = lams or (math.exp(rng.uniform(-ln4, ln4)),
                          math.exp(rng.uniform(-ln4, ln4)))
    return RiverInstance(a, b, (Point2(*o), Point2(*q2)), lam1, lam2)


EPS = 2.0 ** -52
# Twice the worst errors of the 120-halving bisection that solve_river used
# before, measured on the instances of the test below: position 1.72 (a
# point 1e-9 scales off the line), cost 17.1.
RIVER_POSITION_BOUND = 3.45
RIVER_COST_BOUND = 34.3


def _size(r):
    """The largest absolute coordinate of a river instance."""
    return max(abs(c) for p in (r.a_pt, r.b_pt) + tuple(r.line) for c in p)


def _river_error(r):
    """Position error in units of EPS times _size(r), and relative cost
    error in EPS, against the 50-digit reference."""
    x, cost, _ = solve_river(r)
    rx, ry, rcost = river_reference(r)
    pos = math.hypot(float(Decimal(x.x) - rx), float(Decimal(x.y) - ry))
    return (pos / (EPS * _size(r)),
            float(abs(Decimal(cost) - rcost) / rcost) / EPS)


def test_river_matches_50_digit_reference():
    rng = random.Random(4401)
    cases = [_sfbench_river(rng) for _ in range(500)]
    cases += [_sfbench_river(rng, height=1e-9) for _ in range(40)]
    cases += [_sfbench_river(rng, lams=lams) for lams in
              [(1e3, 1e-3), (1e-3, 1e3)] * 20]
    cases += [_sfbench_river(rng, same_foot=True) for _ in range(40)]
    # Feet 4e-11 apart at size 1000: a scale-relative shortcut for
    # coincident feet once returned their midpoint here, 64 EPS off.
    cases.append(RiverInstance(Point2(0.0, 1000.0), Point2(4e-11, 500.0),
                               X_AXIS, 1.0, 3.0))
    worst_pos = worst_cost = 0.0
    for r in cases:
        pos, cost = _river_error(r)
        worst_pos, worst_cost = max(worst_pos, pos), max(worst_cost, cost)
    assert worst_pos <= RIVER_POSITION_BOUND
    assert worst_cost <= RIVER_COST_BOUND


# A lies strictly on B's side by the cross product with q2 - q1, as
# RiverInstance checks it, but its height over the unit direction is below
# EPS times the instance's size, and rounds to 0 on all but three.
ROUNDED_ONTO_THE_LINE = [
    ((-8.952516969259321, -13.681714019970602),
     (-4.917332696578297, -21.242569079637136),
     (0.0771725051131611, 4.101850589387533),
     (-3.1015027088397362, -2.1584063330605185)),
    ((-14.089619794842013, 3.5256371333407226),
     (-9.323453083700823, 6.1088535490405125),
     (-4.763654223680129, -1.134428952385301),
     (-0.7908132079092409, -3.119606952486871)),
    ((7.361400055914579, -6.534896763613994),
     (8.073852934324684, -13.767345812537398),
     (-3.379801652166383, -0.49091382567707953),
     (1.8089004040822596, -3.410552386641025)),
    # The crossing rounds onto A, so a residual measured on the legs A - X
    # and B - X divided by zero on these.
    ((7.270445295712988, 5.78385088367004),
     (8.326907436171037, 5.314509032582835),
     (0.8752171847186077, 1.4788237585620152),
     (-9.737716208221956, -5.665403990723037)),
    ((-9.961241819537971, -0.5652128037632123),
     (-6.929445054298529, 1.7170447917887888),
     (-7.146316444061787, -0.43174777996051894),
     (0.9819067848756937, -0.04636153982254321)),
    ((-5.839403173322197, -3.356656038466992),
     (-7.271491926502806, 6.62201037381773),
     (-5.299623118370458, -3.3346983893901117),
     (2.2751473941393385, -3.026565194719808)),
    ((5.324909406839108, -0.12435527704805738),
     (1.8782655732543274, -7.233919195084517),
     (5.975472342699204, 2.536115370522147),
     (4.422700805839089, -3.8139283661951406)),
    # B's foot is the float next to A's, so no float lies strictly between
    # them, and the search starts on A's foot, where A's leg has length 0.
    ((12.098921421224066, -9.144884134118723),
     (11.929306025535139, -10.37888208131286),
     (-9.396522700583343, -6.19029391902173),
     (2.6807993653972275, -7.850345109335112)),
    ((-3.134148456539562, -1.5504254917191664),
     (-5.0887267350193, -0.17593461748638708),
     (0.008940834708209167, 2.919166974236152),
     (-1.1155551505724208, 1.3200909321387204)),
]


def test_river_point_rounded_onto_the_line():
    for a, b, q1, q2 in ROUNDED_ONTO_THE_LINE:
        a, b, q1, q2 = (Point2(*p) for p in (a, b, q1, q2))
        size = max(abs(c) for p in (a, b, q1, q2) for c in p)
        assert abs((q2 - q1).unit().cross(a - q1)) < EPS * size
        for lams in ((1.0, 2.0), (2.0, 1.0), (1.0, 1.0)):
            pos, cost = _river_error(RiverInstance(a, b, (q1, q2), *lams))
            assert pos <= RIVER_POSITION_BOUND
            assert cost <= RIVER_COST_BOUND
        # A twice: equal feet, both legs of length 0 at them.
        r = RiverInstance(a, a, (q1, q2), 1.0, 3.0)
        assert solve_river(r)[2] == 0.0
        assert _river_error(r)[0] <= RIVER_POSITION_BOUND


def _near_line_river(rng, lams):
    """A and B placed on the line through q1 and q2 as q1 + u (q2 - q1),
    u ~ U(-2, 3), q1 and q2 ~ U(-10, 10)^2: each lies on it to within
    rounding, on either side or exactly on it.  None if they are not
    strictly on one side."""
    q1, q2 = (Point2(rng.uniform(-10, 10), rng.uniform(-10, 10))
              for _ in range(2))
    a, b = (q1 + rng.uniform(-2.0, 3.0) * (q2 - q1) for _ in range(2))
    try:
        return RiverInstance(a, b, (q1, q2), *lams)
    except ValueError:
        return None


# Twice the worst errors on the instances of the test below: position
# 2.89, cost 254.6, cost at equal weights 0.965.  The crossing sits at a
# kink, and where A and B are close against the instance's size, an ulp of
# its position is a large relative error of the cost.
NEAR_LINE_POSITION_BOUND = 5.78
NEAR_LINE_COST_BOUND = 509.0
NEAR_LINE_EQUAL_COST_BOUND = 1.93


def test_river_both_points_rounded_onto_the_line():
    rng = random.Random(4403)
    worst_pos = worst_cost = worst_equal = 0.0
    ln4 = math.log(4.0)
    for _ in range(1000):
        lams = (math.exp(rng.uniform(-ln4, ln4)),
                math.exp(rng.uniform(-ln4, ln4)))
        r = _near_line_river(rng, lams)
        if r is not None:
            pos, cost = _river_error(r)
            worst_pos, worst_cost = max(worst_pos, pos), max(worst_cost, cost)
        # With equal weights every point between the feet is a minimizer.
        r = _near_line_river(rng, (lams[0], lams[0]))
        if r is not None:
            worst_equal = max(worst_equal, _river_error(r)[1])
    assert worst_pos <= NEAR_LINE_POSITION_BOUND
    assert worst_cost <= NEAR_LINE_COST_BOUND
    assert worst_equal <= NEAR_LINE_EQUAL_COST_BOUND


def test_river_feet_near_the_largest_float():
    # Both points round onto the line and their feet lie near 1.5e308, so
    # the search starts at the feet's midpoint, where lo + hi overflows.
    r = RiverInstance(
        Point2(-2.467202049295939e306, 7.743788238004021e307),
        Point2(-2.6191080041843812e306, 8.220574298993058e307),
        (Point2(2.2290970531648038e306, -6.996449904292585e307),
         Point2(1.9106546169984033e306, -5.996957060822216e307)), 1.0, 2.0)
    pos, cost = _river_error(r)
    assert pos <= NEAR_LINE_POSITION_BOUND
    assert cost <= NEAR_LINE_COST_BOUND
    # The optimum is the kink at B, where f' is 1 - 2 on one side.
    assert solve_river(r)[2] == 0.5


def test_river_equal_weights_match_the_mirror_point():
    rng = random.Random(4402)
    for _ in range(60):
        lam = math.exp(rng.uniform(-1.0, 1.0))
        r = _sfbench_river(rng, lams=(lam, lam))
        with localcontext() as ctx:
            ctx.prec = 60
            q1x, q1y, ex, ey, ua, ha, ub, hb = river_frame(r)
            u = (hb * ua + ha * ub) / (ha + hb)
            mx, my = q1x + u * ex, q1y + u * ey
        rx, ry, _ = river_reference(r)
        assert abs(mx - rx) + abs(my - ry) <= Decimal(1e-45) * Decimal(_size(r))
        x, _, _ = solve_river(r)
        pos = math.hypot(float(Decimal(x.x) - mx), float(Decimal(x.y) - my))
        assert pos <= RIVER_POSITION_BOUND * EPS * _size(r)
