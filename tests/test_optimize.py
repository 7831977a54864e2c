import math
import random

import pytest

from snellfagnano import (Point2, Triangle, Weights, dist, pedal_triangle,
                          triangle_from_sides)
from snellfagnano.construction import snell_fagnano_point
from snellfagnano.geometry import altitudes, inscribed_from_params
from snellfagnano.optimize import minimize_inscribed, weighted_perimeter

from conftest import (orthocenter_oracle, sample_acute_triangle,
                      sample_admissible, sample_degenerate)


def test_weighted_perimeter_medial_equilateral():
    t = triangle_from_sides(2.0, 2.0, 2.0)
    medial = inscribed_from_params(t, 0.5, 0.5, 0.5)
    assert weighted_perimeter(medial, Weights(1, 1, 1)) == \
        pytest.approx(3.0, rel=1e-12)


def test_weighted_perimeter_unit_chords():
    # all three chords of length 1: weights (2,1,1) price it at 4
    t = triangle_from_sides(2.0, 2.0, 2.0)
    medial = inscribed_from_params(t, 0.5, 0.5, 0.5)
    assert medial.chord_lengths() == pytest.approx((1.0, 1.0, 1.0))
    assert weighted_perimeter(medial, Weights(2, 1, 1)) == \
        pytest.approx(4.0, rel=1e-12)


def test_weighted_perimeter_doubled_altitude_candidate():
    t = triangle_from_sides(3.0, 4.0, 5.0)
    from snellfagnano.geometry import line_parameter
    (fA, hA), _, _ = altitudes(t)
    # foot on side a, the other two vertices collapsed onto A itself
    cand = inscribed_from_params(t, line_parameter(fA, t.vB, t.vC), 1.0, 0.0)
    assert cand.chord_lengths()[0] <= 1e-14
    assert weighted_perimeter(cand, Weights(2, 3, 4)) == \
        pytest.approx((3 + 4) * hA, rel=1e-12)


def test_report_cost_matches_best():
    rng = random.Random(91)
    t, w = sample_admissible(rng)
    rep = minimize_inscribed(t, w)
    assert rep.cost == pytest.approx(weighted_perimeter(rep.best, w),
                                     rel=1e-12)
    assert rep.converged
    assert rep.iterations >= 1


def test_acute_unit_weights_finds_orthic():
    rng = random.Random(92)
    for _ in range(5):
        t = sample_acute_triangle(rng)
        orthic = pedal_triangle(orthocenter_oracle(t), t)
        target = weighted_perimeter(orthic, Weights(1, 1, 1))
        rep = minimize_inscribed(t, Weights(1, 1, 1))
        assert rep.cost == pytest.approx(target, rel=1e-6)
        for p, q in zip(rep.best.points, orthic.points):
            assert dist(p, q) <= 1e-4 * t.diameter
        assert rep.flatness > 1e-2


def test_matches_construction_generic():
    rng = random.Random(93)
    for _ in range(5):
        t, w = sample_admissible(rng)
        res = snell_fagnano_point(t, w)
        rep = minimize_inscribed(t, w)
        assert rep.cost == pytest.approx(res.weighted_perimeter, rel=1e-6)
        for p, q in zip(rep.best.points, res.orbit.points):
            assert dist(p, q) <= 1e-4 * t.diameter


def test_obtuse_unit_weights_collapses():
    t = Triangle(Point2(0.0, 0.0), Point2(6.0, 0.0), Point2(5.2, 1.1))
    rep = minimize_inscribed(t, Weights(1, 1, 1))
    assert rep.flatness < 1e-3
    h_min = min(h for _, h in altitudes(t))
    assert rep.cost == pytest.approx(2.0 * h_min, rel=1e-4)


def test_degenerate_samples_flatten():
    rng = random.Random(94)
    for _ in range(5):
        t, w = sample_degenerate(rng)
        rep = minimize_inscribed(t, w)
        assert rep.flatness < 1e-3
        # the collapse lands on the cheapest doubled altitude, in value too
        res = snell_fagnano_point(t, w)
        collapsed = min(res.degenerate_info["weighted_costs"].values())
        assert rep.cost == pytest.approx(collapsed, rel=1e-9)


def test_weight_scaling_scales_cost():
    rng = random.Random(95)
    t, w = sample_admissible(rng)
    rep1 = minimize_inscribed(t, w)
    rep2 = minimize_inscribed(
        t, Weights(5.0 * w.lam_A, 5.0 * w.lam_B, 5.0 * w.lam_C))
    assert rep2.cost == pytest.approx(5.0 * rep1.cost, rel=1e-9)
    for p, q in zip(rep1.best.points, rep2.best.points):
        assert dist(p, q) <= 1e-6 * t.diameter


def test_no_inscribed_triangle_beats_reported_cost():
    rng = random.Random(96)
    t, w = sample_admissible(rng)
    rep = minimize_inscribed(t, w)
    for _ in range(300):
        probe = inscribed_from_params(t, rng.random(), rng.random(),
                                      rng.random())
        assert weighted_perimeter(probe, w) >= rep.cost - 1e-12
