import hashlib
import math
import random

import pytest

from snellfagnano import (Point2, Triangle, Weights, dist, optimize,
                          pedal_triangle, triangle_from_sides)
from snellfagnano.construction import snell_fagnano_point
from snellfagnano.geometry import DegenerateTriangle, inscribed_from_params
from snellfagnano.jobs import parse_weights
from snellfagnano.optimize import minimize_inscribed, weighted_perimeter

from conftest import (orthocenter_oracle, sample_acute_triangle,
                      sample_admissible, sample_degenerate,
                      sample_random_setup)
from oracles import altitudes


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
    (fA, hA), _, _ = altitudes(t)
    # foot on side a, the other two vertices collapsed onto A itself
    cand = pedal_triangle(t.vA, t)
    assert cand.pA == fA and cand[4:] == (1.0, 0.0)
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


# ---------------------------------------------------------------------------
# the minimizer's bits

def _report_bits(rep):
    """float.hex of each float of a report, then its step count and verdict."""
    floats = [c for pt in rep.best.points for c in pt]
    floats += [*rep.best[3:], rep.cost, rep.flatness]
    return " ".join(map(float.hex, floats)) + " %d %s" % (rep.iterations,
                                                          rep.converged)


def _near_needle(rng):
    """AB from (0, 0) to (1, 0), C within 1e-6 of its midpoint (redrawn when
    the triangle is refused as collinear); weights e^U(-3, 3)."""
    while True:
        try:
            t = Triangle(Point2(0.0, 0.0), Point2(1.0, 0.0),
                         Point2(0.5 + rng.uniform(-1e-6, 1e-6),
                                rng.uniform(-1e-6, 1e-6)))
        except DegenerateTriangle:
            continue
        return t, Weights(*(math.exp(rng.uniform(-3, 3)) for _ in range(3)))


DIGEST = "f88e6c5a206103be615df399d63bc1c4da8334c019f50d6414817d53ba158f6e"


def test_reports_keep_their_bits():
    """Every bit of 900 reports, 300 from each of three families: the random
    set-up, its triangles with weights e^U(-12, 12), and near-needles.  A
    change to the minimizer's arithmetic that moves any bit of any of them
    changes the digest; the golden corpus makes only a handful of calls."""
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(300):
        t, w = sample_random_setup(rng)
        t2, _ = sample_random_setup(rng)
        w2 = Weights(*(math.exp(rng.uniform(-12, 12)) for _ in range(3)))
        for case in ((t, w), (t2, w2), _near_needle(rng)):
            digest.update(_report_bits(minimize_inscribed(*case)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == DIGEST


def _observe(monkeypatch, t, w):
    """The report of minimize_inscribed(t, w) and the set of branches of the
    projected Newton step it took:
    - "flat": a step's first solve, made before any coordinate is held on
      a bound, has fewer than three rows, so a coordinate had no curvature;
    - "held": some step solved more than once, after holding a coordinate
      on a bound;
    - "pivot": a solve met a vanished pivot and fell back to the diagonal;
    - "failed": the line search found no lower point and the step returned
      its own start.
    """
    seen, solves = set(), []
    solve, step = optimize._solve, optimize._newton_step

    def counted_solve(*args):
        solves[-1].append(len(args[0]))
        x = solve(*args)
        if x is None:
            seen.add("pivot")
        return x

    def watched_step(chords, p, eps2):
        solves.append([])
        q, vanished = step(chords, p, eps2)
        if len(solves[-1]) > 1:
            seen.add("held")
        if q is p and not vanished:
            seen.add("failed")
        return q, vanished

    monkeypatch.setattr(optimize, "_solve", counted_solve)
    monkeypatch.setattr(optimize, "_newton_step", watched_step)
    rep = minimize_inscribed(t, w)
    if any(rows[0] < 3 for rows in solves):
        seen.add("flat")
    return rep, seen


BRANCH_CASES = {
    # acute with unit weights: the orthic triangle, inside the cube
    "plain": (
        (0.0, 0.0, 1.0, 0.0, 0.5, 1.0),
        (1.0, 1.0, 1.0),
        (),
        "0x1.999999999999ap-1 0x1.999999999999ap-2 0x1.999999999999ap-3 "
        "0x1.999999999999ap-2 0x1.0000000000000p-1 0x0.0p+0 "
        "0x1.999999999999ap-2 0x1.3333333333333p-1 0x1.0000000000000p-1 "
        "0x1.999999999999ap+0 0x1.eb851eb851ebap-3 15 True"),
    # obtuse with unit weights: the minimizer collapses onto the
    # shortest altitude, a corner pair the bounds hold
    "held": (
        (0.0, 0.0, 1.0, 0.0, 0.3, 0.2),
        (1.0, 1.0, 1.0),
        ("held",),
        "0x1.3333333333334p-2 0x1.999999999999ap-3 0x1.3333333333333p-2 "
        "0x1.999999999999ap-3 0x1.333333333332fp-2 0x0.0p+0 "
        "0x1.0000000000000p+0 0x0.0p+0 0x1.333333333332fp-2 "
        "0x1.999999999999bp-2 0x1.0000000000000p-54 40 True"),
    # near-needles from seeded scans of _near_needle; on this one the
    # length of the diagonal fallback step shows in the bits
    "pivot": (
        (0.0, 0.0, 1.0, 0.0, 0.49999974194615326, 7.752899551940943e-09),
        (4.153843155715693, 3.559046085272555, 0.1112944321697587),
        ("held", "pivot"),
        "0x1.ffffeeaeab2e0p-2 0x1.0a6339c43ea80p-27 0x1.ffffeeaeab2e0p-2 "
        "0x1.0a6339c43ea80p-27 0x1.ffffeeaeab2e0p-2 0x0.0p+0 "
        "0x1.0000000000000p+0 0x1.5de546e79fd80p-70 0x1.ffffeeaeab2e0p-2 "
        "0x1.00d3c71c542c7p-24 0x0.0p+0 12 True"),
    "failed": (
        (0.0, 0.0, 1.0, 0.0, 0.49999908942976795, 5.2333734033287215e-09),
        (0.05381079159622284, 2.191747576116439, 0.5109083771130991),
        ("failed", "held"),
        "0x1.ffffc2e485c48p-2 0x1.67a27a8255d00p-28 0x1.ffffc2e485c49p-2 "
        "0x1.67a27a8255d00p-28 0x1.3c0da4b4f8db3p-1 0x0.0p+0 "
        "0x1.0000000000000p+0 0x0.0p+0 0x1.3c0da4b4f8db3p-1 "
        "0x1.0db55cf4fbaefp-2 0x1.0000000000000p-54 17 False"),
    # see test_projected_step_reaches_every_branch
    "flat": (
        (0.0, 0.0, 1.0, 0.0, 0.6, 1e-10),
        (1e-150, 1e155, 1e-150),
        ("flat", "held"),
        "0x1.0000000000000p+0 0x0.0p+0 0x1.3333333333333p-1 "
        "0x1.b7cdfd9d7bdbbp-34 0x1.0000000000000p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 "
        "0x1.4f31f8832dd2bp-499 0x0.0p+0 9 True"),
}


@pytest.mark.parametrize("branch", sorted(BRANCH_CASES))
def test_projected_step_reaches_every_branch(monkeypatch, branch):
    """Each branch of the projected Newton step, reached by an input of its
    own, with every branch that input takes and the report's bits pinned.

    A coordinate without curvature needs the Hessian terms of both of its
    chords, each the chord's weight over the largest times its curvature,
    to underflow to 0.  Weights refuse a ratio below the smallest normal
    float, so small weights alone cannot do it: here two weights lie 1e305
    below the third, and the triangle is a needle 1e-10 of AB high, whose
    small cross products shrink the curvature further.  parse_weights
    accepts both, so a job can reach this branch.
    """
    xy, lams, branches, bits = BRANCH_CASES[branch]
    t = Triangle(Point2(*xy[0:2]), Point2(*xy[2:4]), Point2(*xy[4:6]))
    w = parse_weights({"weights": list(lams)}, t)
    rep, seen = _observe(monkeypatch, t, w)
    assert seen == set(branches)
    assert _report_bits(rep) == bits


def test_objective_is_priced_twice_per_call(monkeypatch):
    """minimize_inscribed prices the true objective through the module's
    weighted_perimeter binding exactly twice, once at the smoothed minimizer
    and once at its snap onto the bounds.  The benchmark counts evaluations
    by wrapping that binding; one bound anywhere else would read zero."""
    calls = []

    def counted(*args):
        calls.append(args)
        return weighted_perimeter(*args)

    monkeypatch.setattr(optimize, "weighted_perimeter", counted)
    rng = random.Random(12)
    for n in range(1, 4):
        minimize_inscribed(*sample_random_setup(rng))
        assert len(calls) == 2 * n
