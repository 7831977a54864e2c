"""The benchmark's span tracer finds every function it wraps.

`sfbench/spans.py` `Tracer.install` looks each traced module up in
`sys.modules` after `from snellfagnano import cli` and swaps the functions
named in `TRACED` and `COUNTED`.  A renamed or deleted one breaks
`sfbench/run.py --trace 1`, so this test runs that import in a fresh
interpreter, as `run_traced` does, and checks every name.  It reads
`spans.py` and changes nothing under `sfbench/`.
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
