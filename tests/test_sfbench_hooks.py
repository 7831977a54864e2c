"""The benchmark's span tracer finds every function it wraps, and its
checker passes sf's reports.

`sfbench/spans.py` `Tracer.install` looks each traced module up in
`sys.modules` after `from snellfagnano import cli` and swaps the functions
named in `TRACED` and `COUNTED`.  A renamed or deleted one breaks
`sfbench/run.py --trace 1`, so one test runs that import in a fresh
interpreter, as `run_traced` does, and checks every name.

`sfbench/checker.py` judges every report the benchmark times, so the other
test runs job streams of each workload through `cli.main` in process, as
`run_traced` does, and asks `check_batch` about the output.

Both run in a fresh `python -B` interpreter, so they change nothing under
`sfbench/`.
"""

import os
import subprocess
import sys

from conftest import SUBPROCESS_TIMEOUT, checkout_env

SFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "sfbench")

CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import spans
from snellfagnano import cli
wanted = [(m, n) for m, names in spans.TRACED.items() for n in names]
wanted.append(spans.COUNTED)
missing = [m + "." + n for m, n in wanted
           if "snellfagnano." + m not in sys.modules
           or not callable(getattr(sys.modules["snellfagnano." + m], n, None))]
print(len(wanted), " ".join(missing))
"""


def test_every_traced_name_resolves_after_importing_cli():
    # -B: importing spans.py leaves no bytecode under sfbench/.
    out = subprocess.run(
        [sys.executable, "-B", "-c", CHECK, SFBENCH], env=checkout_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    assert out.returncode == 0, out.stderr
    count, _, missing = out.stdout.strip().partition(" ")
    assert int(count) > 0
    assert missing == ""


STREAMS = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import checker
from workloads import JobStream, batch_text
from snellfagnano import cli
work = sys.argv[2]
svg = os.path.join(work, "svg")
os.makedirs(svg)
for workload, count in (("construct-batch", 1000), ("oracle-batch", 200),
                        ("cli-cold", 200)):
    stream = JobStream(workload, 7, svg)
    jobs = []
    while len(jobs) < count:
        jobs.extend(stream.round())
    jobs = jobs[:count]
    path = os.path.join(work, workload + ".jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(batch_text(jobs))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["point", "--batch", path])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    print(workload, len(jobs))
    for failure in checker.check_batch(jobs, out.getvalue(), code):
        print("FAIL", workload, failure.line())
"""


def test_benchmark_checker_passes_seed_7_streams(tmp_path):
    out = subprocess.run(
        [sys.executable, "-B", "-c", STREAMS, SFBENCH, str(tmp_path)],
        env=checkout_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:3] == ["construct-batch 1000", "oracle-batch 200",
                         "cli-cold 200"], out.stdout
    assert lines[3:] == []
