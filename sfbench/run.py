"""Benchmark of the ``sf`` CLI, run from the root of a source checkout.

    python3 sfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 sfbench/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` it runs ``python -m snellfagnano.cli`` (``src`` on the
path) as subprocesses in a closed loop with one client, for ``--seconds``,
checks every report, and prints the end-to-end metrics.  With ``--trace 1``
it imports the package, wraps its public functions in spans (see
``spans.py``) and calls ``snellfagnano.cli.main`` in-process on the same
job files, alternating untraced and traced passes, and prints the
per-layer metrics.  Either way the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: ``failed`` counts
every job the checker flags, and ``correct`` is false when one of them is a
wrong answer rather than a refusal (see ``checker.py``).  Human-readable
lines, every failing job among them, go to stderr.  So do the results of
the known-defect probe (``workloads.known_defects``), one untimed ``sf``
process after the measurement, which the result line does not count.

``--all`` runs every workload both ways, prints every metric by name and
unit, rewrites BENCHMARK.json from ``spec.py`` and writes
``sfbench/out/report.json`` with the environment, sample counts, status
mix, layer map and every failing job.

Job files, SVGs and spans are written inside ``sfbench`` and the scratch
files are removed on exit.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import spec  # noqa: E402
from spans import TRACED, Tracer, self_times  # noqa: E402
from workloads import JobStream, batch_text, known_defects  # noqa: E402

SETUP_REPEATS = 15           # --version processes timed per run, at least
IMPORT_REPEATS = 5           # -X importtime profiles per traced run
# Recipe rounds per batch file, and sf processes per pass.
UNIT_ROUNDS = {"oracle-batch": 1, "construct-batch": 5}
PASS_UNITS = {"cli-cold": 1, "oracle-batch": 8, "construct-batch": 1}
TRACE_UNITS = {"cli-cold": 120, "oracle-batch": 6, "construct-batch": 2}
MAX_TRACE_PAIRS = 5
PROCESS_TIMEOUT = 120.0
DETAIL = "detail "           # stderr prefix of a run's machine-readable detail


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _sf(args):
    return [sys.executable, "-m", "snellfagnano.cli"] + list(args)


def _quantile(values, q):
    """Quantile by linear interpolation (statistics.quantiles' inclusive
    rule); exact for one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Jobs attempted and the checker's failures, over one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.defects = []            # the known-defect probe's failures
        self.mix = collections.Counter()

    def add(self, jobs, failures):
        self.attempted += len(jobs)
        self.failures.extend(failures)
        for j in jobs:
            self.mix["%s [%s]" % (j.kind, j.label)] += 1

    @property
    def correct(self):
        return not any(f.wrong_answer for f in self.failures)


# -- end-to-end (tracing off) ------------------------------------------------

def run_sf(argv, env, work):
    """Run one sf process to its end: (stdout, exit code, wall seconds,
    peak RSS in MB).  The process is reaped with wait4 for its own
    resource usage, and killed after PROCESS_TIMEOUT."""
    with open(os.path.join(work, "stdout"), "w+", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(_sf(argv), env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return out.read(), proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_setup(env, work):
    """Wall time of one ``sf --version`` process, exec to exit."""
    stdout, code, wall, _ = run_sf(["--version"], env, work)
    if code != 0 or not stdout.strip():
        raise RuntimeError("sf --version exited %d" % code)
    return wall


def _passes(workload, seed, work):
    """Endless passes, each a list of units (jobs, argv): one sf process per
    unit.  A run measures whole passes only, so every run of a fixed-shape
    workload times the same cases."""
    stream = JobStream(workload, seed, os.path.join(work, "svg"))
    os.makedirs(os.path.join(work, "svg"), exist_ok=True)
    n = 0
    pending = []
    while True:
        stream.restart()
        units = []
        for _ in range(PASS_UNITS[workload]):
            if workload == "cli-cold":
                pending = pending or stream.round()
                job = pending.pop(0)
                path = os.path.join(work, "job-%d.json" % n)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(job.line)
                units.append(([job], [job.command, "--input", path]))
            else:
                jobs = []
                for _ in range(UNIT_ROUNDS[workload]):
                    jobs.extend(stream.round())
                path = os.path.join(work, "batch-%d.jsonl" % n)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(batch_text(jobs))
                units.append((jobs, ["point", "--batch", path]))
            n += 1
        yield units


def _check(jobs, argv, stdout, code):
    if "--batch" in argv:
        return checker.check_batch(jobs, stdout, code)
    f = checker.check_single(jobs[0], stdout, code)
    return [] if f is None else [f]


def run_e2e(workload, seed, seconds, work):
    env = _env()
    time_setup(env, work)                # warm-up: writes the .pyc files
    setup = []
    tally = Tally()
    walls, per_job, rss = [], [], []
    jobs_done = 0
    start = time.perf_counter()
    deadline = start + seconds
    for units in _passes(workload, seed, work):
        for jobs, argv in units:
            # Spread the set-up samples over the run, between sf processes.
            due = start + len(setup) * seconds / SETUP_REPEATS
            if time.perf_counter() >= due:
                setup.append(time_setup(env, work))
            stdout, code, wall, peak = run_sf(argv, env, work)
            walls.append(wall)
            per_job.append(1e3 * wall / len(jobs))
            rss.append(peak)
            jobs_done += len(jobs)
            tally.add(jobs, _check(jobs, argv, stdout, code))
            _clear_svgs(work)
        if time.perf_counter() >= deadline:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(env, work))
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": jobs_done / sum(walls),
        "job_ms_p50": _quantile(per_job, 50),
        "job_ms_p90": _quantile(per_job, 90),
        "peak_rss_mb": statistics.median(rss),
        "ok_share": 1.0 - len(tally.failures) / tally.attempted,
    }
    samples = {"setup_s": len(setup), "jobs_per_s": len(walls),
               "job_ms_p50": len(per_job), "job_ms_p90": len(per_job),
               "peak_rss_mb": len(rss), "ok_share": tally.attempted}
    return metrics, tally, samples


def _clear_svgs(work):
    svg = os.path.join(work, "svg")
    for name in os.listdir(svg):
        os.remove(os.path.join(svg, name))


# -- per-layer (traced, in-process) ------------------------------------------

def import_profile(env):
    """Median cumulative import times of snellfagnano.cli and numpy, in ms."""
    sf_ms, np_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import snellfagnano.cli"], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("import failed: %s" % proc.stderr[-400:])
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in ("snellfagnano.cli", "numpy") and name not in cum:
                    cum[name] = int(parts[1].strip()) / 1e3
        sf_ms.append(cum.get("snellfagnano.cli", 0.0))
        np_ms.append(cum.get("numpy", 0.0))
    return statistics.median(sf_ms), statistics.median(np_ms)


def _run_inprocess(cli, units):
    """Call cli.main on each unit; returns wall seconds and the outputs."""
    outs = []
    t0 = time.perf_counter()
    for jobs, argv in units:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        outs.append((buf.getvalue(), code))
    return time.perf_counter() - t0, outs


SPAN_STATS = ("calls", "self_ms", "p50_ms", "p90_ms", "p50_us", "p90_us")


def _span_stat(stat, spans, n):
    """``calls``, ``self_ms`` or a ``pNN_ms``/``pNN_us`` duration quantile
    of one traced function's (span, self time) pairs, per pass."""
    if stat == "calls":
        return len(spans) / n
    if stat == "self_ms":
        return sum(x for _, x in spans) * 1e3 / n
    q, unit = int(stat[1:3]), stat[4:]
    d = [(s.end - s.start) * (1e3 if unit == "ms" else 1e6) for s, _ in spans]
    return _quantile(d, q) if d else 0.0


def layer_metrics(tracers, exit_codes):
    """Per-layer metrics from the spans of the traced passes, per pass.

    Metrics named ``<module>.<function>.<stat>`` after a traced function
    are computed by ``_span_stat``; the rest are spelled out below.
    """
    n = len(tracers)
    by_name = collections.defaultdict(list)      # name -> [(span, self)]
    raised = 0
    for tr in tracers:
        selfs = self_times(tr.spans)
        names = {s.id: s.name for s in tr.spans}
        for s in tr.spans:
            by_name[s.name].append((s, selfs[s.id]))
            caller = names.get(s.parent, "")
            if (s.name.startswith("construction.") and s.error is not None
                    and not caller.startswith("construction.")):
                raised += 1
    traced = {mod + "." + fn for mod, fns in TRACED.items() for fn in fns}
    m = {}
    for name, _, _, _ in spec.PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn in traced and stat in SPAN_STATS:
            m[name] = _span_stat(stat, by_name[fn], n)

    run_spec = [s for s, _ in by_name["cli.run_spec"]]
    wall = sum(s.end - s.start for s in run_spec)
    mini = by_name["optimize.minimize_inscribed"]
    evals = sum(tr.evals for tr in tracers) / n
    m["cli.run_spec.cpu_share"] = (sum(s.cpu for s in run_spec) / wall
                                   if wall else 0.0)
    for code in (2, 3, 4, 5):
        m["cli.errors_by_exit_code.%d" % code] = exit_codes[code]
    m["construction.raised"] = raised / n
    m["coordinates.self_ms"] = sum(
        _span_stat("self_ms", by_name["coordinates." + fn], n)
        for fn in TRACED["coordinates"] if fn != "tripolar_to_points")
    m["optimize.minimize_inscribed.run_spec_share"] = (
        sum(s.end - s.start for s, _ in mini) / wall if wall else 0.0)
    m["optimize.objective_evals"] = evals
    m["optimize.evals_per_call"] = evals / (len(mini) / n) if mini else 0.0
    m["serialize.dumps.bytes_out"] = sum(
        s.out or 0 for s, _ in by_name["serialize.dumps"]) / n
    return m


def _exit_codes(units, outs):
    """Exit codes per job, read from the reports (batch) or main's return."""
    codes = collections.Counter()
    for (jobs, argv), (stdout, code) in zip(units, outs):
        if "--batch" in argv:
            for line in stdout.splitlines():
                try:
                    codes[json.loads(line).get("exit_code")] += 1
                except ValueError:
                    pass
        else:
            codes[code] += 1
    return codes


def run_traced(workload, seed, seconds, work):
    env = _env()
    sf_ms, np_ms = import_profile(env)
    sys.path.insert(0, SRC)
    from snellfagnano import cli

    units = []
    for p in _passes(workload, seed, work):
        units.extend(p)
        if len(units) >= TRACE_UNITS[workload]:
            break
    units = units[:TRACE_UNITS[workload]]
    njobs = sum(len(j) for j, _ in units)
    tally = Tally()

    def one_pass(tracer=None):
        """Jobs per second of one pass over the units, outputs checked."""
        if tracer:
            tracer.install()
        try:
            wall, outs = _run_inprocess(cli, units)
        finally:
            if tracer:
                tracer.uninstall()
        for (jobs, argv), (stdout, code) in zip(units, outs):
            tally.add(jobs, _check(jobs, argv, stdout, code))
        _clear_svgs(work)
        return njobs / wall, outs

    plain, traced, tracers = [], [], []
    _run_inprocess(cli, units[:1])       # warm-up: first calls, caches
    _clear_svgs(work)
    deadline = time.perf_counter() + seconds
    while len(tracers) < MAX_TRACE_PAIRS:
        plain.append(one_pass()[0])
        tracers.append(Tracer())
        jps, outs = one_pass(tracers[-1])
        traced.append(jps)
        if len(tracers) == 1:
            codes = _exit_codes(units, outs)
        if time.perf_counter() >= deadline:
            break
    metrics = {"import.snellfagnano_ms": sf_ms, "import.numpy_ms": np_ms}
    metrics.update(layer_metrics(tracers, codes))
    metrics["trace.overhead_share"] = (statistics.median(plain)
                                       / statistics.median(traced) - 1.0)
    metrics = {name: metrics[name] for name, _, _, _ in spec.PER_LAYER}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "spans-%s.jsonl" % workload), "w",
              encoding="utf-8") as fh:
        for i, tr in enumerate(tracers):
            for s in tr.spans:
                d = dict(vars(s))
                d["pass"] = i
                fh.write(json.dumps(d) + "\n")
    samples = {"passes": len(tracers), "jobs_per_pass": njobs}
    return metrics, tally, samples


def probe_defects(work):
    """Failures of one sf process over the known-defect cases."""
    svg = os.path.join(work, "svg")
    os.makedirs(svg, exist_ok=True)
    jobs = known_defects(svg)
    path = os.path.join(work, "defects.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(batch_text(jobs))
    stdout, code, _, _ = run_sf(["point", "--batch", path], _env(), work)
    _clear_svgs(work)
    return checker.check_batch(jobs, stdout, code)


# -- entry point -------------------------------------------------------------

def _print_metrics(workload, metrics, out):
    for k, v in metrics.items():
        print("%-16s %-46s %16.6g %s" % (workload, k, v, spec.UNITS[k]),
              file=out)


def run_one(workload, seed, seconds, trace):
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        run = run_traced if trace else run_e2e
        metrics, tally, samples = run(workload, seed, seconds, work)
        tally.defects = probe_defects(work)
        return metrics, tally, samples
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(seed, seconds):
    """Every workload with and without tracing, each in a fresh process so
    that peak RSS counts only that run's sf processes."""
    import numpy
    report = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seed": seed,
        "run_seconds": seconds,
        "layer_map": spec.layer_map(),
        "workloads": {},
    }
    for name, _ in spec.WORKLOADS:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True,
                text=True)
            print("== %s, trace %d" % (name, trace))
            print(proc.stderr, end="")
            if proc.returncode != 0:
                raise RuntimeError("%s, trace %d: exit %d"
                                   % (name, trace, proc.returncode))
            detail = [json.loads(line[len(DETAIL):])
                      for line in proc.stderr.splitlines()
                      if line.startswith(DETAIL)][0]
            detail["result"] = json.loads(proc.stdout.splitlines()[-1])
            entry["trace%d" % trace] = detail
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.benchmark_json(), fh, indent=2)
        fh.write("\n")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print("wrote BENCHMARK.json and %s" % os.path.relpath(
        os.path.join(OUT, "report.json"), ROOT))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with and without tracing")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "snellfagnano", "cli.py")):
        print("sfbench: no snellfagnano sources under %s" % SRC,
              file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    if not args.workload:
        ap.error("--workload is required without --all")
    metrics, tally, samples = run_one(args.workload, args.seed, args.seconds,
                                      args.trace)
    failed = len(tally.failures)
    _print_metrics(args.workload, metrics, sys.stderr)
    print("failed_share %.6g (%d of %d jobs)" % (
        failed / tally.attempted, failed, tally.attempted), file=sys.stderr)
    for f in tally.failures:
        print("  FAILED " + f.line(), file=sys.stderr)
    print("known-defect probe, not counted: %d of %d jobs fail" % (
        len(tally.defects), len(known_defects("."))), file=sys.stderr)
    for f in tally.defects:
        print("  DEFECT " + f.line(), file=sys.stderr)
    print(DETAIL + json.dumps({
        "samples": samples,
        "failed_share": failed / tally.attempted,
        "failures": [f.line() for f in tally.failures],
        "known_defects": [f.line() for f in tally.defects],
        "status_mix": dict(sorted(tally.mix.items())),
    }), file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": spec.UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
