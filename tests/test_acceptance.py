"""End-to-end acceptance gate.

Each test prints (and records for the terminal summary) one verdict line of
the form "criterion N PASS/FAIL -- short description"; the recorded lines
are replayed after the run by the conftest hook.  Failures also fail the
test, so the suite is red whenever a criterion is.
"""

import contextlib
import decimal
import glob
import io
import json
import math
import os
import random
import subprocess
import sys

import conftest
from conftest import (altitude_feet_oracle, circumcenter_oracle,
                      orthocenter_oracle, sample_acute_triangle,
                      sample_admissible, sample_degenerate,
                      sample_random_setup, sample_triangle, sample_weights,
                      tilde_slack)
from oracles import (biquadratic_residual, ceva_reference, intersect_lines,
                     is_periodic)
from snellfagnano import Point2, Weights, cli, dist
from snellfagnano.apollonius import apollonian_common_points, tilde_triangle
from snellfagnano.billiards import (RiverInstance, orbit_start_state,
                                    solve_river)
from snellfagnano.construction import (coeffs_from_weights, erect_similar,
                                       snell_fagnano_point)
from snellfagnano.coordinates import tripolar_of_point, tripolar_to_points
from snellfagnano.optimize import minimize_inscribed

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
EXPECTED = os.path.join(CORPUS, "expected")

_SAMPLES = None


def admissible_samples():
    """The shared 200-sample population for criteria 2-5."""
    global _SAMPLES
    if _SAMPLES is None:
        rng = random.Random(20260823)
        _SAMPLES = [sample_admissible(rng) for _ in range(200)]
    return _SAMPLES


def report(num, name, ok, detail):
    line = "criterion %2d %s -- %s (%s)" % (num, "PASS" if ok else "FAIL",
                                            name, detail)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_classical_recovery():
    rng = random.Random(101)
    worst_f = worst_orbit = 0.0
    n = 100
    for _ in range(n):
        t = sample_acute_triangle(rng, 40.0, 80.0)
        res = snell_fagnano_point(t, Weights(1, 1, 1))
        h = orthocenter_oracle(t)
        worst_f = max(worst_f, dist(res.point, h) / t.diameter)
        for p, q in zip(res.orbit.points, altitude_feet_oracle(t)):
            worst_orbit = max(worst_orbit, dist(p, q) / t.diameter)
    ok = res.status == "interior" and worst_f <= 1e-10 and worst_orbit <= 1e-10
    report(1, "classical recovery on %d acute triangles" % n, ok,
           "point err %.2e, orbit err %.2e vs 1e-10*diam"
           % (worst_f, worst_orbit))


def test_criterion_2_concurrency_and_similarity():
    worst_meet = worst_prop = 0.0
    for t, w in admissible_samples():
        tt = tilde_triangle(t, w)
        a1, b1, c1 = erect_similar(t, tt)
        p12 = intersect_lines(t.vA, a1, t.vB, b1)
        p23 = intersect_lines(t.vB, b1, t.vC, c1)
        p31 = intersect_lines(t.vC, c1, t.vA, a1)
        spread = max(dist(p12, p23), dist(p23, p31), dist(p31, p12))
        worst_meet = max(worst_meet, spread / t.diameter)
        lhs = dist(t.vB, a1) * w.lam_A
        rhs = t.c * w.lam_C
        worst_prop = max(worst_prop, abs(lhs - rhs) / rhs)
    ok = worst_meet <= 1e-9 and worst_prop <= 1e-9
    report(2, "cevian concurrency + erected similarity on 200 samples", ok,
           "meet spread %.2e vs 1e-9*diam, d(B,A1) err %.2e rel"
           % (worst_meet, worst_prop))


def point_report(t, w):
    """The report of `sf point` on t, given by its (counterclockwise)
    vertices, and w."""
    return cli.run_spec("point", {
        "triangle": {"vertices": [list(v) for v in t.vertices]},
        "weights": list(w)})[0]


def test_criterion_3_isogonal_tripolar_ratios():
    """The conjugate `sf point` reports, (s_A/lam_A : s_B/lam_B :
    s_C/lam_C) in closed form, has vertex distances proportional to the
    weights."""
    worst = 0.0
    for t, w in admissible_samples():
        tp = point_report(t, w)["isogonal_conjugate"]["tripolar"]
        ratios = [d / l for d, l in zip(tp, w)]
        worst = max(worst, (max(ratios) - min(ratios)) / max(ratios))
    ok = worst <= 1e-9
    report(3, "isogonal conjugate tripolar ratios on 200 samples", ok,
           "worst ratio spread %.2e vs 1e-9 rel" % worst)


def test_point_report_matches_50_digit_ceva_reference():
    """The reported point's barycentrics and its isogonal conjugate against
    oracles.ceva_reference, on 400 interior cases of the random set-up:
    vertices uniform in [-1, 1]^2, smallest angle at least 0.05 rad and
    weights e^U(-1, 1).  Errors are in eps, relative to the largest entry
    or to the diameter.  Worst measured: barycentric 11.91, conjugate xy
    3.91, conjugate tripolar_normalized 4.44; each bound is about 1.5 to
    2.7 times that."""
    eps = sys.float_info.epsilon
    D = decimal.Decimal

    def rel(got, want):
        return float(max(abs(D(g) - x) for g, x in zip(got, want))
                     / max(abs(x) for x in want)) / eps

    rng = random.Random(2)
    done = 0
    worst_bc = worst_xy = worst_tn = 0.0
    while done < 400:
        t, w = sample_random_setup(rng)
        doc = point_report(t, w)
        if doc["status"] != "interior":
            continue
        done += 1
        ceva, xy = ceva_reference(t, w)
        worst_bc = max(worst_bc, rel(doc["point"]["barycentric"], ceva))
        conj = doc["isogonal_conjugate"]
        off = math.hypot(*(float(D(g) - x) for g, x in zip(conj["xy"], xy)))
        worst_xy = max(worst_xy, off / t.diameter / eps)
        total = sum(D(v) for v in w)
        worst_tn = max(worst_tn, rel(conj["tripolar_normalized"],
                                     [D(v) / total for v in w]))
    assert worst_bc <= 25.0, worst_bc
    assert worst_xy <= 6.0, worst_xy
    assert worst_tn <= 12.0, worst_tn


def test_criterion_4_three_periodicity():
    closed = 0
    total = 0
    for t, w in admissible_samples():
        res = snell_fagnano_point(t, w)
        k = coeffs_from_weights(w)
        total += 1
        if is_periodic(orbit_start_state(res.orbit), t, k, 3, 1e-8):
            closed += 1
    ok = closed == total
    report(4, "3-step closure of launched orbits", ok,
           "%d/%d periodic at 1e-8" % (closed, total))


def test_criterion_5_oracle_equivalence():
    worst_cost = worst_vertex = 0.0
    n = 100
    for t, w in admissible_samples()[:n]:
        res = snell_fagnano_point(t, w)
        rep = minimize_inscribed(t, w)
        worst_cost = max(worst_cost,
                         abs(rep.cost - res.weighted_perimeter)
                         / res.weighted_perimeter)
        for p, q in zip(rep.best.points, res.orbit.points):
            worst_vertex = max(worst_vertex, dist(p, q) / t.diameter)
    ok = worst_cost <= 1e-6 and worst_vertex <= 1e-4
    report(5, "brute-force minimizer agreement on %d samples" % n, ok,
           "cost err %.2e vs 1e-6 rel, vertex err %.2e vs 1e-4*diam"
           % (worst_cost, worst_vertex))


def test_criterion_6_tripolar_roundtrip():
    rng = random.Random(106)
    worst_pos = worst_biq = 0.0
    n_points = 0
    for _ in range(20):
        t = sample_triangle(rng)
        for _ in range(50):
            u = rng.uniform(0.05, 0.9)
            v = rng.uniform(0.05, 0.9 - u)
            p = Point2(t.vA.x + u * (t.vB.x - t.vA.x) + v * (t.vC.x - t.vA.x),
                       t.vA.y + u * (t.vB.y - t.vA.y) + v * (t.vC.y - t.vA.y))
            n_points += 1
            tp = tripolar_of_point(p, t)
            cands = tripolar_to_points(tp, t)
            best = min(dist(q, p) for q, _, _ in cands)
            worst_pos = max(worst_pos, best / t.diameter)
            for _, s, _ in cands:
                r = biquadratic_residual(t, tp[0], tp[1], tp[2], s * s)
                worst_biq = max(worst_biq, r)
    ok = worst_pos <= 1e-8 and worst_biq <= 1e-6
    report(6, "tripolar roundtrip on %d interior points" % n_points, ok,
           "position err %.2e vs 1e-8*diam, scale-equation residual %.2e "
           "vs 1e-6" % (worst_pos, worst_biq))


def test_criterion_7_common_point_equivalence():
    rng = random.Random(107)
    checked = disagreements = pairs = 0
    worst_inv = 0.0
    while checked < 1000:
        t = sample_triangle(rng)
        w = sample_weights(rng, spread=1.2)
        if abs(tilde_slack(t, w)) <= 1e-6:
            continue
        checked += 1
        exists_tilde = tilde_triangle(t, w).exists
        pts = apollonian_common_points(t, w)
        if (len(pts) >= 1) != exists_tilde:
            disagreements += 1
            continue
        if len(pts) == 2:
            pairs += 1
            o = circumcenter_oracle(t)
            r2 = dist(o, t.vA) ** 2
            d1, d2 = dist(pts[0], o), dist(pts[1], o)
            worst_inv = max(worst_inv, abs(d1 * d2 - r2) / r2)
    ok = disagreements == 0 and worst_inv <= 1e-8
    report(7, "common points <-> scaled triple, %d samples" % checked, ok,
           "%d disagreements, %d inverse pairs, inversion err %.2e vs 1e-8"
           % (disagreements, pairs, worst_inv))


def test_criterion_8_river_grid_scan():
    # Near a shallow minimum the scan's cost samples are constant to double
    # precision over many cells, so its argmin lands anywhere on that
    # plateau; one-cell position agreement is then information the scan
    # itself does not contain.  A solver position whose cell cost ties the
    # scan's minimum within a few ulps is accepted as matching.  numpy is
    # imported here, the only place that uses it, so that the rest of the
    # module runs without it.
    import numpy as np

    rng = random.Random(108)
    n = 500
    eps = np.finfo(float).eps
    worst_pos = worst_snell = 0.0
    ties = 0
    pos_ok = True
    line = (Point2(0.0, 0.0), Point2(1.0, 0.0))
    for _ in range(n):
        a = Point2(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        b = Point2(rng.uniform(-4, 4), rng.uniform(0.05, 4))
        l1, l2 = rng.uniform(0.1, 6), rng.uniform(0.1, 6)
        inst = RiverInstance(a, b, line, l1, l2)
        x, cost, resid = solve_river(inst)
        worst_snell = max(worst_snell, resid)
        lo, hi = min(a.x, b.x), max(a.x, b.x)
        pad = 0.1 * max(hi - lo, 1e-6)
        lo, hi = lo - pad, hi + pad
        us = np.linspace(lo, hi, 1_000_001)
        costs = (l1 * np.hypot(us - a.x, a.y) + l2 * np.hypot(us - b.x, b.y))
        j = int(np.argmin(costs))
        err = abs(x.x - us[j]) / (hi - lo)
        if err <= 1e-6:
            worst_pos = max(worst_pos, err)
            continue
        k = min(max(int(round((x.x - lo) / (hi - lo) * 1e6)), 0), 1_000_000)
        if costs[k] - costs[j] <= 8 * eps * abs(costs[j]):
            ties += 1
        else:
            pos_ok = False
    ok = pos_ok and worst_pos <= 1e-6 and worst_snell <= 1e-8
    report(8, "river crossing vs 1e6-point scan, %d instances" % n, ok,
           "position err %.2e vs 1e-6*scan length (%d plateau ties "
           "within 8 ulp), equilibrium residual %.2e vs 1e-8"
           % (worst_pos, ties, worst_snell))


def test_criterion_9_degenerate_regime():
    rng = random.Random(109)
    n = 100
    worst_flat = 0.0
    argmin_agree = 0
    for _ in range(n):
        t, w = sample_degenerate(rng)
        rep = minimize_inscribed(t, w)
        worst_flat = max(worst_flat, rep.flatness)
        res = snell_fagnano_point(t, w)
        info = res.degenerate_info
        if info["weighted_argmin"] == info["shortest_altitude"]:
            argmin_agree += 1
    ok = worst_flat < 1e-3
    # which altitude wins is reported, not asserted
    report(9, "degenerate minimizers flatten, %d samples" % n, ok,
           "worst flatness %.2e vs 1e-3; weighted argmin = shortest "
           "altitude in %d/%d" % (worst_flat, argmin_agree, n))


def _in_process(label, args):
    """The stdout bytes of `cli.main(args)`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(args)
    return buf.getvalue().encode()


def _run_corpus_once(tmp_dir, run=_in_process):
    """One full pass over the corpus; returns {label: output bytes}.

    Runs from tmp_dir with relative SVG names, so no report echoes a path
    that depends on where the pass ran.  Labels are file names under
    EXPECTED.  run(label, args) runs one command line and returns its
    stdout bytes.
    """
    outputs = {}

    def capture(label, args):
        outputs[label] = run(label, args)

    cwd = os.getcwd()
    os.chdir(tmp_dir)
    try:
        for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
            name = os.path.basename(path)
            stem = name[:-len(".json")]
            command = name.split("_")[0]
            args = [command, "--input", path]
            if command == "render":
                args += ["--svg", stem + ".svg"]
            capture(name, args)
            capture(stem + ".compact.json", args + ["--compact"])
            if command == "render":
                with open(stem + ".svg", "rb") as fh:
                    outputs[stem + ".svg"] = fh.read()
        capture("batch.jsonl",
                ["point", "--batch", os.path.join(CORPUS, "batch.jsonl")])
    finally:
        os.chdir(cwd)
    return outputs


def test_criterion_10_determinism(tmp_path):
    first = _run_corpus_once(str(tmp_path))
    second = _run_corpus_once(str(tmp_path))
    diffs = [k for k in first if first[k] != second[k]]
    for name, data in first.items():
        if name.endswith(".json"):
            json.loads(data.decode())  # every report is valid JSON
    ok = not diffs and len(first) == len(second) and len(first) >= 14
    report(10, "byte-identical corpus outputs (%d artifacts)" % len(first),
           ok, "differing: %s" % (", ".join(diffs) if diffs else "none"))


def test_corpus_matches_golden_bytes(tmp_path):
    """Every corpus report and SVG equals its committed bytes.

    A change that moves a report regenerates tests/corpus/expected with
    `PYTHONPATH=src python tests/test_acceptance.py` and explains the diff.
    """
    _assert_golden(_run_corpus_once(str(tmp_path)))


def _assert_golden(outputs):
    assert sorted(outputs) == sorted(os.listdir(EXPECTED))
    for name, data in outputs.items():
        with open(os.path.join(EXPECTED, name), "rb") as fh:
            assert data == fh.read(), name


def test_corpus_through_the_process_entry(tmp_path):
    """Every corpus report and SVG equals its committed bytes when each job
    runs as `python -m snellfagnano.cli` in its own process, as `sf` does,
    under `-X dev` with ResourceWarning an error: exit codes as documented,
    and stderr holds at most the one `sf:` line of a failing single job."""
    results = {}

    def run(label, args):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-m", "snellfagnano.cli"] + args, capture_output=True,
            env=conftest.checkout_env(), timeout=conftest.SUBPROCESS_TIMEOUT)
        results[label] = proc.returncode, proc.stderr.decode()
        return proc.stdout

    _assert_golden(_run_corpus_once(str(tmp_path), run))
    for label, (code, err) in results.items():
        expected = (3 if label.startswith("point_no_tilde.") else
                    2 if label == "batch.jsonl" else 0)
        assert code == expected, (label, err)
        if code and label != "batch.jsonl":
            assert err.startswith("sf: ") and err.count("\n") == 1, (label,
                                                                       err)
        else:
            assert err == "", (label, err)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = _run_corpus_once(tmp)
    os.makedirs(EXPECTED, exist_ok=True)
    for old in os.listdir(EXPECTED):
        os.remove(os.path.join(EXPECTED, old))
    for name, data in golden.items():
        with open(os.path.join(EXPECTED, name), "wb") as fh:
            fh.write(data)
