import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import snellfagnano as sf
from snellfagnano import (Point2, RefractionCoeffs, Triangle, Weights, dist,
                          pedal_triangle, triangle_from_sides)
from snellfagnano.apollonius import apollonian_common_points, tilde_triangle
from snellfagnano.construction import (STATUS_DEGENERATE, STATUS_INTERIOR,
                                       STATUS_NO_TILDE, TildeDegenerate,
                                       coeffs_from_weights, erect_similar,
                                       interior_conditions,
                                       snell_fagnano_point,
                                       verify_snell_point)
from snellfagnano.geometry import altitudes, inscribed_from_params
from snellfagnano.optimize import minimize_inscribed

from conftest import (altitude_feet_oracle, orthocenter_oracle,
                      sample_acute_triangle, sample_admissible,
                      sample_triangle, sample_weights)
from oracles import cevian_ratio, degenerate_minimizer, eta_concurrency_test

OBTUSE = Triangle(Point2(0.0, 0.0), Point2(6.0, 0.0), Point2(5.2, 1.1))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        Weights(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Weights(1.0, 1.0, -2.0)


def test_records_are_immutable_values():
    w = Weights(1.0, 2.0, 3.0)
    res = snell_fagnano_point(triangle_from_sides(4.0, 5.0, 6.0), w)
    for record, field in ((w, "lam_A"), (res, "status"),
                          (res.orbit, "tA"), (coeffs_from_weights(w), "kap_a")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert w == Weights(1.0, 2.0, 3.0)
    assert w != Weights(1.0, 2.0, 4.0)
    assert res == snell_fagnano_point(triangle_from_sides(4.0, 5.0, 6.0), w)
    with pytest.raises(ValueError):
        Weights(1, 0, 1)


def test_coeffs_examples():
    assert coeffs_from_weights(Weights(1, 1, 1)).triple == (1.0, 1.0, 1.0)
    k = coeffs_from_weights(Weights(2, 1, 1))
    assert k.kap_a == pytest.approx(1.0)
    assert k.kap_b == pytest.approx(0.5)
    assert k.kap_c == pytest.approx(2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_coeff_product_is_one(la, lb, lc):
    k = coeffs_from_weights(Weights(la, lb, lc))
    assert k.kap_a * k.kap_b * k.kap_c == pytest.approx(1.0, rel=1e-12)


def test_coeffs_reject_broken_product():
    with pytest.raises(ValueError):
        RefractionCoeffs(2.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# erected triangles

def test_erect_equilateral_reflection():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    a1, b1, c1 = erect_similar(t, tilde_triangle(t, Weights(1, 1, 1)))
    # A1 is the mirror image of A across BC
    foot = Point2((t.vB.x + t.vC.x) / 2, (t.vB.y + t.vC.y) / 2)
    mirror = Point2(2 * foot.x - t.vA.x, 2 * foot.y - t.vA.y)
    assert dist(a1, mirror) <= 1e-12 * t.diameter


def test_erect_unit_weights_angles():
    rng = random.Random(61)
    t = sample_acute_triangle(rng)
    a1, _, _ = erect_similar(t, tilde_triangle(t, Weights(1, 1, 1)))

    def angle(v, p, q):
        u1, u2 = p - v, q - v
        return math.atan2(abs(u1.cross(u2)), u1.dot(u2))

    assert angle(t.vB, a1, t.vC) == pytest.approx(t.beta, rel=1e-10)
    assert angle(t.vC, a1, t.vB) == pytest.approx(t.gamma, rel=1e-10)
    # outward: across BC from A
    e = t.vC - t.vB
    assert (e.cross(t.vA - t.vB) > 0) != (e.cross(a1 - t.vB) > 0)


def test_erect_distance_identities():
    rng = random.Random(62)
    for _ in range(30):
        t, w = sample_admissible(rng)
        a1, b1, c1 = erect_similar(t, tilde_triangle(t, w))
        assert dist(t.vB, a1) * w.lam_A == pytest.approx(t.c * w.lam_C,
                                                         rel=1e-9)
        assert dist(t.vC, a1) * w.lam_A == pytest.approx(t.b * w.lam_B,
                                                         rel=1e-9)


def test_erect_requires_tilde():
    t = triangle_from_sides(1.0, 1.0, 1.0)
    with pytest.raises(TildeDegenerate):
        erect_similar(t, tilde_triangle(t, Weights(10, 1, 1)))


# ---------------------------------------------------------------------------
# the point itself

def test_unit_weights_acute_gives_orthocenter():
    rng = random.Random(63)
    for _ in range(20):
        t = sample_acute_triangle(rng)
        res = snell_fagnano_point(t, Weights(1, 1, 1))
        assert res.status == STATUS_INTERIOR
        assert dist(res.point, orthocenter_oracle(t)) <= 1e-10 * t.diameter
        for p, q in zip(res.orbit.points, altitude_feet_oracle(t)):
            assert dist(p, q) <= 1e-10 * t.diameter


def test_equilateral_center_and_medial_perimeter():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    res = snell_fagnano_point(t, Weights(1, 1, 1))
    assert res.status == STATUS_INTERIOR
    centroid = Point2((t.vA.x + t.vB.x + t.vC.x) / 3,
                      (t.vA.y + t.vB.y + t.vC.y) / 3)
    assert dist(res.point, centroid) <= 1e-12 * t.diameter
    assert res.weighted_perimeter == pytest.approx(3.0, rel=1e-12)


def test_isogonal_image_proportional_to_weights():
    rng = random.Random(64)
    for _ in range(30):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != STATUS_INTERIOR:
            continue
        conj = sf.from_barycentric(
            sf.isogonal_conjugate(sf.to_barycentric(res.point, t), t), t)
        tp = sf.tripolar_of_point(conj, t)
        ratios = [d / l for d, l in zip(tp, w.triple)]
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)


def test_isogonal_image_is_apollonian_common_point():
    rng = random.Random(65)
    done = 0
    while done < 15:
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != STATUS_INTERIOR:
            continue
        done += 1
        conj = sf.from_barycentric(
            sf.isogonal_conjugate(sf.to_barycentric(res.point, t), t), t)
        pts = apollonian_common_points(t, w)
        assert min(dist(conj, p) for p in pts) <= 1e-8 * t.diameter


def test_weight_scaling_invariance():
    rng = random.Random(66)
    t, w = sample_admissible(rng)
    res1 = snell_fagnano_point(t, w)
    res2 = snell_fagnano_point(
        t, Weights(7.3 * w.lam_A, 7.3 * w.lam_B, 7.3 * w.lam_C))
    assert dist(res1.point, res2.point) <= 1e-10 * t.diameter
    assert res2.weighted_perimeter == pytest.approx(
        7.3 * res1.weighted_perimeter, rel=1e-12)


def test_cevian_concurrency_pairwise():
    rng = random.Random(67)
    from snellfagnano.geometry import intersect_lines
    for _ in range(25):
        t, w = sample_admissible(rng)
        a1, b1, c1 = erect_similar(t, tilde_triangle(t, w))
        p12 = intersect_lines(t.vA, a1, t.vB, b1)
        p23 = intersect_lines(t.vB, b1, t.vC, c1)
        p31 = intersect_lines(t.vC, c1, t.vA, a1)
        assert dist(p12, p23) <= 1e-9 * t.diameter
        assert dist(p23, p31) <= 1e-9 * t.diameter
        # the closed-form point is where the cevians meet
        assert dist(snell_fagnano_point(t, w).point, p12) <= 1e-9 * t.diameter


def test_no_tilde_status():
    t = triangle_from_sides(1.0, 1.0, 1.0)
    res = snell_fagnano_point(t, Weights(10, 1, 1))
    assert res.status == STATUS_NO_TILDE
    assert res.orbit is not None
    assert res.degenerate_info is not None
    # the doubled altitude from A is the constrained minimum here
    assert minimize_inscribed(t, Weights(10, 1, 1)).cost == pytest.approx(
        res.weighted_perimeter, rel=1e-9)


# ---------------------------------------------------------------------------
# interior conditions

def test_conditions_unit_weights():
    rng = random.Random(68)
    t = sample_acute_triangle(rng)
    assert interior_conditions(t, tilde_triangle(t, Weights(1, 1, 1))) == \
        (True, True, True)
    conds = interior_conditions(OBTUSE, tilde_triangle(OBTUSE, Weights(1, 1, 1)))
    # OBTUSE has its blunt angle at C (opposite the long side c)
    assert OBTUSE.gamma > math.pi / 2
    assert conds[2] is False


def test_condition_flip_matches_barycentric_sign():
    """Bisect along a weight path: the angle-sum condition and the sign of
    F's smallest barycentric coordinate must flip at the same spot."""
    rng = random.Random(69)
    t = sample_acute_triangle(rng)
    w0 = Weights(1, 1, 1)
    w1 = None
    while w1 is None:
        cand = sample_weights(rng, spread=1.4)
        tt = tilde_triangle(t, cand)
        if tt.exists and not all(interior_conditions(t, tt, eps_angle=0.0)):
            w1 = cand

    def at(s):
        # linear path: tilde existence is cut out by linear inequalities in
        # the weights, so it cannot be lost between two valid endpoints
        return Weights((1 - s) * w0.lam_A + s * w1.lam_A,
                       (1 - s) * w0.lam_B + s * w1.lam_B,
                       (1 - s) * w0.lam_C + s * w1.lam_C)

    def angle_ok(s):
        tt = tilde_triangle(t, at(s))
        return tt.exists and all(interior_conditions(t, tt, eps_angle=0.0))

    lo, hi = 0.0, 1.0
    assert angle_ok(lo) and not angle_ok(hi)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if angle_ok(mid):
            lo = mid
        else:
            hi = mid
    # F at the flip point sits on the boundary of the triangle
    from snellfagnano.geometry import intersect_lines
    w_star = at(lo)
    a1, b1, c1 = erect_similar(t, tilde_triangle(t, w_star))
    f = intersect_lines(t.vA, a1, t.vB, b1)
    bary = sf.to_barycentric(f, t)
    assert min(bary) == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# cevian ratios

def test_cevian_ratios_equilateral():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    r = cevian_ratio(t, Weights(1, 1, 1), tilde_triangle(t, Weights(1, 1, 1)))
    assert r == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)


def test_cevian_ratio_unit_weights_altitude_form():
    rng = random.Random(71)
    t = sample_acute_triangle(rng)
    w = Weights(1, 1, 1)
    r = cevian_ratio(t, w, tilde_triangle(t, w))
    expect = (t.b ** 2 * math.sin(2 * t.gamma)) / (t.c ** 2 * math.sin(2 * t.beta))
    assert r[0] == pytest.approx(expect, rel=1e-10)
    # altitude-foot reading of the same ratio
    assert r[0] == pytest.approx((t.b * math.cos(t.gamma))
                                 / (t.c * math.cos(t.beta)), rel=1e-10)


def test_cevian_ratio_product_is_one():
    rng = random.Random(72)
    for _ in range(20):
        t, w = sample_admissible(rng)
        r = cevian_ratio(t, w, tilde_triangle(t, w))
        assert r[0] * r[1] * r[2] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sine characterization / eta test

def test_orthocenter_residuals_vanish():
    rng = random.Random(73)
    t = sample_acute_triangle(rng)
    res = verify_snell_point(orthocenter_oracle(t), t,
                             RefractionCoeffs(1, 1, 1))
    assert max(res) <= 1e-9


def test_constructed_point_residuals():
    rng = random.Random(74)
    for _ in range(20):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != STATUS_INTERIOR:
            continue
        k = coeffs_from_weights(w)
        assert max(verify_snell_point(res.point, t, k)) <= 1e-9


def test_off_point_residuals_are_large():
    rng = random.Random(75)
    t, w = sample_admissible(rng)
    k = coeffs_from_weights(w)
    res = snell_fagnano_point(t, w)
    shifted = Point2(res.point.x + 0.11 * t.diameter,
                     res.point.y - 0.07 * t.diameter)
    bary = sf.to_barycentric(shifted, t)
    if min(bary) > 1e-3:  # only meaningful strictly inside
        assert max(verify_snell_point(shifted, t, k)) > 0.01


def test_eta_orthic_concurrent():
    rng = random.Random(76)
    t = sample_acute_triangle(rng)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    etas, ok = eta_concurrency_test(orbit, t)
    assert ok
    assert etas[0] * etas[1] * etas[2] == pytest.approx(1.0, rel=1e-9)


def test_eta_pedal_of_any_interior_point():
    rng = random.Random(77)
    for _ in range(15):
        t = sample_triangle(rng)
        u, v = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.35)
        p = sf.from_barycentric(sf.BarycentricCoords(u, v, 1 - u - v), t)
        etas, ok = eta_concurrency_test(pedal_triangle(p, t), t)
        assert ok


def test_eta_perturbed_not_concurrent():
    rng = random.Random(78)
    t = sample_acute_triangle(rng)
    orbit = pedal_triangle(orthocenter_oracle(t), t)
    bad = inscribed_from_params(t, orbit.tA + 0.06, orbit.tB - 0.04,
                                orbit.tC + 0.05)
    etas, ok = eta_concurrency_test(bad, t)
    assert not ok
    assert abs(etas[0] * etas[1] * etas[2] - 1.0) > 1e-3


# ---------------------------------------------------------------------------
# degenerate fallback

def test_obtuse_unit_weights_doubled_shortest_altitude():
    res = snell_fagnano_point(OBTUSE, Weights(1, 1, 1))
    assert res.status == STATUS_DEGENERATE
    h_min = min(h for _, h in altitudes(OBTUSE))
    assert res.weighted_perimeter == pytest.approx(2.0 * h_min, rel=1e-12)
    assert res.degenerate_info["weighted_argmin"] == \
        res.degenerate_info["shortest_altitude"]


def test_degenerate_candidate_is_argmin():
    rng = random.Random(79)
    from conftest import sample_degenerate
    for _ in range(10):
        t, w = sample_degenerate(rng)
        res = degenerate_minimizer(t, w)
        costs = res.degenerate_info["weighted_costs"]
        assert res.weighted_perimeter <= min(costs.values()) + 1e-12
        assert costs[res.degenerate_info["weighted_argmin"]] == \
            res.weighted_perimeter


def test_degenerate_orbit_cost_consistent():
    res = snell_fagnano_point(OBTUSE, Weights(1, 1, 1))
    d1, d2, d3 = res.orbit.chord_lengths()
    assert d1 + d2 + d3 == pytest.approx(res.weighted_perimeter, rel=1e-12)


def test_interior_point_with_foot_outside_side():
    """Obtuse regime where the point is interior but no closed orbit exists.

    The pedal foot on side c projects beyond a vertex, the result says so
    via orbit_in_sides, and the constrained minimizer (minimize_inscribed)
    is strictly worse than the unconstrained pedal price and sits on the
    parameter-cube boundary without being flat.
    """
    t = Triangle(Point2(-2.215109438014208, 2.818969649065556),
                 Point2(-4.034728786434073, -1.4419054310523558),
                 Point2(3.8558641001898994, 3.442815546106077))
    w = Weights(0.5250328650960183, 0.777545135717788, 1.9512765204699702)
    assert t.alpha > math.pi / 2
    res = snell_fagnano_point(t, w)
    assert res.status == STATUS_INTERIOR
    assert min(sf.to_barycentric(res.point, t)) > 0.1
    assert res.orbit.tC < 0.0
    assert res.orbit_in_sides is False
    assert max(verify_snell_point(res.point, t, coeffs_from_weights(w))) <= 1e-9
    rep = minimize_inscribed(t, w)
    assert rep.cost > res.weighted_perimeter + 1e-6
    edge_gap = min(min(p, 1.0 - p)
                   for p in (rep.best.tA, rep.best.tB, rep.best.tC))
    assert edge_gap <= 1e-6
    assert rep.flatness > 1e-3


def test_realizable_interior_sets_flag_true():
    rng = random.Random(80)
    t, w = sample_admissible(rng)
    res = snell_fagnano_point(t, w)
    assert res.orbit_in_sides is True
    assert minimize_inscribed(t, w).cost == pytest.approx(
        res.weighted_perimeter, rel=1e-9)


# ---------------------------------------------------------------------------
# every (triangle, weights) pair gets a verdict

@st.composite
def needles(draw):
    """A flat needle (one side a hair short of the other two together) or
    a sliver (one side tiny), in a random vertex order."""
    gap = 10.0 ** draw(st.floats(-8.0, -2.0))
    if draw(st.booleans()):
        r = draw(st.floats(0.1, 10.0))
        sides = draw(st.permutations([1.0, r, (1.0 + r) * (1.0 - gap)]))
        return triangle_from_sides(*sides)
    apex = Point2(gap * draw(st.floats(-2.0, 3.0)), 1.0)
    return Triangle(*draw(st.permutations(
        [Point2(0.0, 0.0), Point2(gap, 0.0), apex])))


@st.composite
def near_tilde_boundary(draw, t):
    """Weights whose scaled side triple is 1e-16..1e-4 (relative) inside or
    outside the triangle inequality, at a random vertex."""
    sides = (t.a, t.b, t.c)
    lam = [10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    i = draw(st.sampled_from((0, 1, 2)))
    j, k = (i + 1) % 3, (i + 2) % 3
    shift = draw(st.sampled_from((-1.0, 1.0))) \
        * 10.0 ** draw(st.floats(-16.0, -4.0))
    if draw(st.booleans()):   # lam_i * side_i near the sum of the others
        target = (lam[j] * sides[j] + lam[k] * sides[k]) * (1.0 + shift)
    else:                     # ... or near their difference
        target = abs(lam[j] * sides[j] - lam[k] * sides[k]) * (1.0 + shift)
    if target <= 0.0:
        target = lam[i] * sides[i]
    lam[i] = target / sides[i]
    return Weights(*lam)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_needles_and_tilde_boundary_get_a_verdict(data):
    t = data.draw(needles())
    w = data.draw(near_tilde_boundary(t) if data.draw(st.booleans())
                  else st.builds(Weights, *[st.floats(0.2, 5.0)] * 3))
    res = snell_fagnano_point(t, w)
    assert res.status in (STATUS_INTERIOR, STATUS_DEGENERATE, STATUS_NO_TILDE)
    tt = tilde_triangle(t, w)
    conds_hold = tt.exists and all(interior_conditions(t, tt))
    assert (res.status == STATUS_INTERIOR) == conds_hold
    if res.status == STATUS_INTERIOR:
        assert min(sf.to_barycentric(res.point, t)) > 0.0
