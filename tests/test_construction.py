import math
import random
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import snellfagnano as sf
from snellfagnano import (Point2, Triangle, Weights, dist,
                          pedal_triangle, triangle_from_sides)
from snellfagnano.apollonius import apollonian_common_points, tilde_triangle
from snellfagnano.coordinates import plus_root
from snellfagnano.construction import (STATUS_DEGENERATE, STATUS_INTERIOR,
                                       STATUS_NO_TILDE, coeffs_from_weights,
                                       erect_similar, snell_fagnano_point,
                                       verify_snell_point)
from snellfagnano.geometry import inscribed_from_params
from snellfagnano.optimize import minimize_inscribed

from conftest import (altitude_feet_oracle, angles, orthocenter_oracle,
                      sample_acute_triangle, sample_admissible,
                      sample_boundary, sample_random_setup, sample_triangle,
                      sample_weights, side_angles, tilde_sides)
from oracles import (altitudes, ceva_reference, cevian_ratio,
                     degenerate_minimizer, eta_concurrency_test,
                     exact_verdict, intersect_lines)

OBTUSE = Triangle(Point2(0.0, 0.0), Point2(6.0, 0.0), Point2(5.2, 1.1))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        Weights(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Weights(1.0, 1.0, -2.0)


def test_records_are_immutable_values():
    w = Weights(1.0, 2.0, 3.0)
    res = snell_fagnano_point(triangle_from_sides(4.0, 5.0, 6.0), w)
    for record, field in ((w, "lam_A"), (res, "status"), (res.orbit, "tA")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert w == Weights(1.0, 2.0, 3.0)
    assert w != Weights(1.0, 2.0, 4.0)
    assert res == snell_fagnano_point(triangle_from_sides(4.0, 5.0, 6.0), w)
    with pytest.raises(ValueError):
        Weights(1, 0, 1)


def test_coeffs_examples():
    assert coeffs_from_weights(Weights(1, 1, 1)) == (1.0, 1.0, 1.0)
    assert coeffs_from_weights(Weights(2, 1, 1)) == (1.0, 0.5, 2.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_coeff_product_is_one(la, lb, lc):
    kap_a, kap_b, kap_c = coeffs_from_weights(Weights(la, lb, lc))
    assert kap_a * kap_b * kap_c == pytest.approx(1.0, rel=1e-12)


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

    _, beta, gamma = angles(t)
    assert angle(t.vB, a1, t.vC) == pytest.approx(beta, rel=1e-10)
    assert angle(t.vC, a1, t.vB) == pytest.approx(gamma, rel=1e-10)
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
    tt = tilde_triangle(t, Weights(10, 1, 1))
    assert not tt.exists
    with pytest.raises(sf.GeometryError,
                       match="scaled side triple fails the triangle inequality"):
        erect_similar(t, tt)


# ---------------------------------------------------------------------------
# the point itself

def test_equal_weights_numerators_give_fagnanos_point():
    """With equal weights the tilde triangle is the reference one, so
    sin(V + V~) = sin 2V = 2 K2 d_V / (b^2 c^2) at A, and cyclically.  The
    Ceva triple (a^2 s_B s_C : ...) is then (1/d_A : 1/d_B : 1/d_C), the
    orthocenter: Fagnano's point, outside the triangle where it is
    obtuse."""
    rng = random.Random(60)
    eps = sys.float_info.epsilon
    for _ in range(200):
        t, _ = sample_random_setup(rng)
        lam = math.exp(rng.uniform(-30.0, 30.0))
        res = snell_fagnano_point(t, Weights(lam, lam, lam))
        (ax, ay), (bx, by), (cx, cy) = t.unit_vertices
        k2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        dots = ((bx - ax) * (cx - ax) + (by - ay) * (cy - ay),
                (cx - bx) * (ax - bx) + (cy - by) * (ay - by),
                (ax - cx) * (bx - cx) + (ay - cy) * (by - cy))
        a2, b2, c2 = (side * side for side in t.unit_sides)
        # The sines are exact quotients, the identity's right side is taken
        # in floats: 2.5 epsilon was the worst of 600 vertices.
        for s, d, u, v in zip(res.tilde.sines, dots, (b2, c2, a2),
                              (c2, a2, b2)):
            assert abs(s - 2 * k2 * d / (u * v)) <= 5 * eps
        h = orthocenter_oracle(t)
        assert dist(res.point, h) <= 1e-12 * max(t.diameter, dist(h, t.vA))


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


def _conjugates(res, t):
    """The orbit point's isogonal conjugate, read back from its xy and in
    closed form (s_A / lam_A : s_B / lam_B : s_C / lam_C) from the
    result's sines."""
    read_back = sf.from_barycentric(
        sf.isogonal_conjugate(sf.to_barycentric(res.point, t), t), t)
    closed = sf.from_barycentric(plus_root(res.tilde), t)
    return read_back, closed


def test_isogonal_image_proportional_to_weights():
    rng = random.Random(64)
    for _ in range(30):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        if res.status != STATUS_INTERIOR:
            continue
        for conj in _conjugates(res, t):
            tp = sf.tripolar_of_point(conj, t)
            ratios = [d / l for d, l in zip(tp, w)]
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
        pts = apollonian_common_points(t, w)
        for conj in _conjugates(res, t):
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
    assert tilde_triangle(t, Weights(1, 1, 1)).conditions == \
        (True, True, True)
    conds = tilde_triangle(OBTUSE, Weights(1, 1, 1)).conditions
    # OBTUSE has its blunt angle at C (opposite the long side c)
    assert angles(OBTUSE)[2] > math.pi / 2
    assert conds[2] is False


@pytest.mark.parametrize("needle", [False, True])
def test_verdict_is_the_sign_of_the_numerators(needle):
    """On 3000 boundary-family draws (seed 5), and on as many of its
    needle-tilde variant, the point is interior exactly when its three
    Ceva barycentrics are positive: the verdict is the sign of the gaps
    the point's sines are built from (test_every_verdict_is_exact holds
    it to the exact sign)."""
    rng = random.Random(5)
    for _ in range(3000):
        t, w = sample_boundary(rng, needle)
        res = snell_fagnano_point(t, w)
        if res.barycentric is not None:
            assert (res.status == STATUS_INTERIOR) == \
                (min(res.barycentric) > 0.0), (t, w)


FAMILIES = {"random": (2, sample_random_setup),
            "boundary": (5, sample_boundary),
            "needle": (5, lambda rng: sample_boundary(rng, True))}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_verdict_is_exact(family):
    """On 3000 draws of the random set-up (seed 2), of the boundary family
    and of its needle-tilde variant (seed 5 each), every status and every
    interior condition equals exact_verdict's, decided in rational
    arithmetic on the input floats.  The signs of the float numerators
    N_V = K2 X_V + d_V S that decided it before got 285 needle-tilde
    verdicts wrong."""
    seed, sample = FAMILIES[family]
    rng = random.Random(seed)
    wrong = []
    for _ in range(3000):
        t, w = sample(rng)
        res = snell_fagnano_point(t, w)
        if (res.status, res.conditions) != exact_verdict(t, w):
            wrong.append((t.vertices, w))
    assert wrong == []


# Twice the worst Ceva-triple error, in epsilon relative to its largest
# entry, over the 1000 draws of each family below: 25.9 (random, where
# the Ceva sum can cancel), 1.13 (boundary) and 1.34 (needle-tilde).
CEVA_BOUND = {"random": 51.8, "boundary": 2.26, "needle": 2.68}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ceva_triple_meets_the_60_digit_reference(family):
    """The normalized Ceva triple of every draw with a tilde triangle is
    within CEVA_BOUND[family] epsilon, relative to its largest entry, of
    ceva_reference.  The float numerators N_V = K2 X_V + d_V S that built
    it before read 138, 1.21e3 and 1.05e15 on the same draws."""
    seed, sample = FAMILIES[family]
    rng = random.Random(seed)
    eps = Decimal(sys.float_info.epsilon)
    for _ in range(1000):
        t, w = sample(rng)
        res = snell_fagnano_point(t, w)
        if res.status == STATUS_NO_TILDE:
            continue
        ref, _ = ceva_reference(t, w)
        got = sf.coordinates.normalized(res.barycentric)
        err = max(abs(Decimal(g) - r) for g, r in zip(got, ref))
        assert err <= Decimal(CEVA_BOUND[family]) * eps * max(map(abs, ref)), \
            (t, w)


def near_flat_tilde(rng):
    """(triangle, weights) of the random set-up whose weight at one vertex
    puts that tilde side 0 to 5 ulps (of its weight) below the sum of the
    other two: the largest such weight, stepped down 0 to 5 times."""
    t, w = sample_random_setup(rng)
    i = rng.randrange(3)
    j, k = (i + 1) % 3, (i + 2) % 3
    lam = list(w)

    def gap(lam_i):
        lam[i] = lam_i
        p = tilde_sides(t, lam)
        return p[j] + p[k] - p[i]

    sides = (t.a, t.b, t.c)
    lam_i = (lam[j] * sides[j] + lam[k] * sides[k]) / sides[i]
    while gap(lam_i) < 0.0:
        lam_i = math.nextafter(lam_i, 0.0)
    while gap(math.nextafter(lam_i, math.inf)) >= 0.0:
        lam_i = math.nextafter(lam_i, math.inf)
    for _ in range(rng.randrange(6)):
        lam_i = math.nextafter(lam_i, 0.0)
    gap(lam_i)
    return t, Weights(*lam)


@pytest.mark.parametrize("family", ["near_flat", "needle"])
def test_ceva_sum_stays_clear_of_zero(family):
    """In exact arithmetic the Ceva sum vanishes only with H.  On 3000
    tilde triangles 0 to 5 ulps from flat (seed 11; at least 6.9e-10
    measured) and on 3000 needle-tilde draws (seed 5; at least 0.126) the
    float sum stays above 1e-10 of its largest term, so the point is
    finite; the sliver of the next test comes within 1e-8."""
    rng = random.Random(11 if family == "near_flat" else 5)
    for _ in range(3000):
        t, w = (near_flat_tilde(rng) if family == "near_flat"
                else sample_boundary(rng, True))
        res = snell_fagnano_point(t, w)
        if res.status == STATUS_NO_TILDE:
            continue
        assert math.isfinite(res.point.x) and math.isfinite(res.point.y)
        bary = res.barycentric
        assert abs(sum(bary)) > 1e-10 * max(map(abs, bary)), (t, w)


def test_flat_tilde_over_a_sliver_gets_a_finite_point():
    """A tilde triangle that exists, flat to float rounding, over a 1e-8
    sliver: its exact H and gaps give every sine its sign, so the verdict
    is exact_verdict's and the point is finite.  Its Ceva sum cancels to
    1e-8 of its largest term, so the point carries about 8 fewer digits:
    1.3e-8 from the 60-digit reference, which a bound of 1e-7 keeps."""
    t = Triangle(Point2(0.0, 0.0), Point2(1e-8, 0.0), Point2(2e-8, 1.0))
    w = Weights(1.0, 1.0, 2.2204460492505348e-08)
    res = snell_fagnano_point(t, w)
    assert res.tilde.exists
    assert (res.status, res.conditions) == exact_verdict(t, w) == (
        STATUS_DEGENERATE, (True, False, True))
    ceva, _ = ceva_reference(t, w)
    x, y = (float(sum(u * Decimal(v[i]) for u, v in zip(ceva, t.vertices)))
            for i in (0, 1))
    assert math.hypot(res.point.x - x, res.point.y - y) <= 1e-7


def angle_sums_below_pi(t, w):
    """The tilde triangle's conditions by the angles: every angle plus its
    tilde angle below pi."""
    return all(v + vt < math.pi
               for v, vt in zip(angles(t), side_angles(*tilde_sides(t, w))))


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
        if tt.exists and not angle_sums_below_pi(t, cand):
            w1 = cand

    def at(s):
        # linear path: tilde existence is cut out by linear inequalities in
        # the weights, so it cannot be lost between two valid endpoints
        return Weights((1 - s) * w0.lam_A + s * w1.lam_A,
                       (1 - s) * w0.lam_B + s * w1.lam_B,
                       (1 - s) * w0.lam_C + s * w1.lam_C)

    def angle_ok(s):
        w = at(s)
        return tilde_triangle(t, w).exists and angle_sums_below_pi(t, w)

    lo, hi = 0.0, 1.0
    assert angle_ok(lo) and not angle_ok(hi)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if angle_ok(mid):
            lo = mid
        else:
            hi = mid
    # F at the flip point sits on the boundary of the triangle
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
    _, beta, gamma = angles(t)
    expect = (t.b ** 2 * math.sin(2 * gamma)) / (t.c ** 2 * math.sin(2 * beta))
    assert r[0] == pytest.approx(expect, rel=1e-10)
    # altitude-foot reading of the same ratio
    assert r[0] == pytest.approx((t.b * math.cos(gamma))
                                 / (t.c * math.cos(beta)), rel=1e-10)


def test_cevian_ratio_product_is_one():
    rng = random.Random(72)
    for _ in range(20):
        t, w = sample_admissible(rng)
        r = cevian_ratio(t, w, tilde_triangle(t, w))
        assert r[0] * r[1] * r[2] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# sine characterization / eta test

@pytest.mark.parametrize("k", [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
                               (1.0, math.nan, 1.0)])
def test_verify_refuses_coefficients_that_are_not_positive(k):
    t = triangle_from_sides(4.0, 5.0, 6.0)
    f = snell_fagnano_point(t, Weights(1, 1, 1)).point
    with pytest.raises(sf.GeometryError,
                       match="coefficients must be strictly positive"):
        verify_snell_point(f, t, k)


def test_orthocenter_residuals_vanish():
    rng = random.Random(73)
    t = sample_acute_triangle(rng)
    res = verify_snell_point(orthocenter_oracle(t), t, (1.0, 1.0, 1.0))
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
        p = sf.from_barycentric((u, v, 1 - u - v), t)
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


def test_doubled_altitude_foot_is_the_projection_of_its_vertex():
    # The orbit is the pedal triangle of its vertex: the free parameter is
    # the projection of the vertex itself, not of a foot already rounded to
    # a point, and the other two feet sit at the vertex, at parameters
    # exactly 1 and 0.
    rng = random.Random(24)
    seen = 0
    for _ in range(1200):
        t, w = sample_random_setup(rng)
        res = snell_fagnano_point(t, w)
        if res.degenerate_info is None:
            continue
        seen += 1
        o = res.orbit
        argmin = res.degenerate_info["weighted_argmin"]
        assert o == pedal_triangle(t.vertices["ABC".index(argmin)], t)
        others = {"A": (o.tB, o.tC), "B": (o.tC, o.tA),
                  "C": (o.tA, o.tB)}[argmin]
        assert others == (1.0, 0.0), (t, w, others)
    assert seen > 900


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
    assert angles(t)[0] > math.pi / 2
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
    conds_hold = tt.exists and all(tt.conditions)
    assert (res.status == STATUS_INTERIOR) == conds_hold
    if res.status == STATUS_INTERIOR:
        assert min(sf.to_barycentric(res.point, t)) > 0.0
