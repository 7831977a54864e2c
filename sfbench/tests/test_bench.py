"""Tests of the benchmark itself: generator, checker and traced run.

    python3 -m pytest sfbench/tests
"""

import contextlib
import io
import json
import math
import os

import pytest

import cases
import checker
import run
import spec
import workloads
from workloads import JobStream, batch_text


@pytest.mark.parametrize("workload", [n for n, _ in spec.WORKLOADS])
def test_generator_is_deterministic_per_seed(workload):
    def lines(seed):
        stream = JobStream(workload, seed)
        return [j.line for _ in range(3) for j in stream.round()]

    assert lines(5) == lines(5)
    assert lines(5) != lines(6)


def test_labels_come_from_own_arithmetic():
    # Equilateral, unit weights: orthocentre, feet at the midpoints.
    eq = ((0.0, 0.0), (1.0, 0.0), (0.5, 3 ** 0.5 / 2))
    assert cases.classify(eq, (1, 1, 1)) == {cases.INTERIOR_INSIDE}
    # lam_A a >= lam_B b + lam_C c: no tilde triangle.
    assert cases.classify(eq, (3, 1, 1)) == {cases.NO_TILDE}
    # Exactly on the tilde boundary: either regime is accepted.
    assert cases.classify(eq, (2, 1, 1)) == {cases.NO_TILDE, cases.DEGENERATE}


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """One construct-batch round and sf's real reports for it."""
    from snellfagnano import cli
    work = tmp_path_factory.mktemp("batch")
    jobs = JobStream("construct-batch", 3, str(work)).round()
    path = work / "jobs.jsonl"
    path.write_text(batch_text(jobs))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["point", "--batch", str(path)])
    return jobs, buf.getvalue().splitlines(keepends=True), code


def test_checker_passes_real_reports(batch):
    jobs, lines, code = batch
    assert checker.check_batch(jobs, "".join(lines), code) == []


def test_checker_flags_dropped_line(batch):
    jobs, lines, code = batch
    dropped = "".join(lines[:10] + lines[11:])
    failures = checker.check_batch(jobs, dropped, code)
    assert failures
    assert failures[-1].reason == "report line missing"


def test_checker_flags_swapped_lines(batch):
    jobs, lines, code = batch
    swapped = list(lines)
    swapped[4], swapped[5] = swapped[5], swapped[4]
    failures = checker.check_batch(jobs, "".join(swapped), code)
    assert [f.job_id for f in failures] == [jobs[4].id, jobs[5].id]
    assert all(f.reason == "report line out of order" for f in failures)


def _edit(lines, index, change):
    doc = json.loads(lines[index])
    change(doc)
    out = list(lines)
    out[index] = json.dumps(doc) + "\n"
    return "".join(out)


def test_checker_flags_wrong_exit_code(batch):
    jobs, lines, code = batch
    i = next(n for n, j in enumerate(jobs) if j.kind == "simulate/vertex")
    failures = checker.check_batch(
        jobs, _edit(lines, i, lambda d: d.update(exit_code=2)), code)
    assert [f.job_id for f in failures] == [jobs[i].id]
    assert failures[0].reason.startswith("exit 2, expected 4")


def test_checker_flags_residual_out_of_bound(batch):
    jobs, lines, code = batch
    i = next(n for n, j in enumerate(jobs) if j.kind == "point/interior")
    edited = _edit(lines, i, lambda d: d.update(snell_residuals=[0, 2e-8, 0]))
    failures = checker.check_batch(jobs, edited, code)
    assert [f.job_id for f in failures] == [jobs[i].id]
    assert failures[0].wrong_answer
    j = next(n for n, j in enumerate(jobs) if j.kind == "river")
    failures = checker.check_batch(
        jobs, _edit(lines, j, lambda d: d.update(snell_residual=1e-7)), code)
    assert [f.reason for f in failures] == ["river residual 1e-07"]


@pytest.mark.parametrize("workload", ["cli-cold", "construct-batch"])
def test_trace_finds_no_minimizer_calls(workload):
    metrics, tally, _ = run.run_one(workload, 2, 0.01, trace=1)
    assert metrics["optimize.minimize_inscribed.calls"] == 0
    assert metrics["optimize.objective_evals"] == 0
    assert metrics["cli.run_spec.calls"] > 0
    assert tally.attempted > 0


def test_benchmark_json_matches_spec():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_trace_attributes_oracle_batch_to_the_minimizer():
    metrics, _, _ = run.run_one("oracle-batch", 2, 0.01, trace=1)
    assert metrics["optimize.minimize_inscribed.calls"] > 0
    assert metrics["optimize.minimize_inscribed.run_spec_share"] > 0.9
    assert metrics["optimize.evals_per_call"] > 0


def test_workloads_leave_out_known_defect_regions():
    for workload in ("cli-cold", "construct-batch"):
        stream = JobStream(workload, 4)
        jobs = [j for _ in range(20) for j in stream.round()]
        for j in jobs:
            if j.kind.startswith(("render/", "simulate/no-orbit")):
                assert cases.DEGENERATE not in j.regimes
            if j.kind == "convert/tripolar":
                tri = json.loads(j.line)["triangle"]
                sides = tri.get("sides") or cases._sides_of(tri["vertices"])
                assert min(cases._angles_from_sides(*sides)) >= \
                    workloads.MIN_TRIPOLAR_ANGLE
            if j.kind == "render/apollonius":
                la, lb, lc = json.loads(j.line)["weights"]
                assert min(abs(math.log(x / y)) for x, y in
                           ((la, lb), (lb, lc), (lc, la))) >= \
                    workloads.MIN_WEIGHT_LOG_RATIO


def test_known_defect_probe_reports_only_its_own_cases(tmp_path):
    probe = run.probe_defects(str(tmp_path))
    ids = {j.id for j in workloads.known_defects(".")}
    assert {f.job_id for f in probe} <= ids
    assert all(f.kind.startswith("defect/") for f in probe)
