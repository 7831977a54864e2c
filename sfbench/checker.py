"""Output checker: one report line per job, in order, each consistent with
the job's label and within the numeric bounds of acceptance criteria 4, 5
and 8.

A job fails when its report line is missing, out of order or not JSON, when
its exit code is not one the job allows, or when its report disagrees with
the label or misses a bound.  A missing line and an unexpected exit code
are *refusals* (sf did not answer); the rest are *wrong answers*.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from cases import STATUS_OF

# Bounds from the acceptance criteria; a default-start simulate must also
# report periodic: true, at sf's own 1e-8 closure tolerance (criterion 4).
MAX_SNELL_RESIDUAL = 1e-8      # interior point's sine-ratio residuals
MAX_GAP = 1e-6                 # minimize against the construction (5)
MAX_RIVER_RESIDUAL = 1e-8      # river equilibrium residual (8)


@dataclass(frozen=True)
class Failure:
    job_id: str
    kind: str          # the job's recipe entry
    label: str         # the generator's regime label
    reason: str
    wrong_answer: bool

    def line(self) -> str:
        return "%s %s [%s] %s" % (self.job_id, self.kind, self.label,
                                  self.reason)


def _fail(job, reason, wrong_answer=True) -> Failure:
    return Failure(job.id, job.kind, job.label, reason, wrong_answer)


def _status_ok(job, status, in_sides=None) -> bool:
    for regime in job.regimes:
        want_status, want_sides = STATUS_OF[regime]
        if status == want_status and (in_sides is None or want_sides is None
                                      or in_sides == want_sides):
            return True
    return False


def check_report(job, doc, code: int) -> Optional[Failure]:
    """Check one parsed report against its job; None when it passes."""
    if code not in job.exits:
        msg = doc.get("message", "") if isinstance(doc, dict) else ""
        reason = "exit %d, expected %s %s" % (
            code, "/".join(map(str, sorted(job.exits))), msg[:120])
        return _fail(job, reason.rstrip(), wrong_answer=False)
    if not isinstance(doc, dict):
        return _fail(job, "report is not a JSON object")
    if doc.get("status") == "error":
        return None if code != 0 else _fail(job, "error report with exit 0")
    c = job.checks
    if job.command == "point":
        orbit = doc.get("orbit") or {}
        if not _status_ok(job, doc.get("status"), orbit.get("in_sides")):
            return _fail(job, "status %s in_sides %s" % (
                doc.get("status"), orbit.get("in_sides")))
        if doc.get("status") == "interior":
            res = max(doc["snell_residuals"])
            if not res <= MAX_SNELL_RESIDUAL:
                return _fail(job, "snell residual %.3g" % res)
    elif job.command == "minimize":
        built = doc["constructed"]
        gap = built["relative_gap"]
        if built["status"] != "interior":
            return _fail(job, "constructed status %s" % built["status"])
        if not abs(gap) <= MAX_GAP:
            return _fail(job, "relative gap %.3g" % gap)
    elif job.command == "simulate":
        if c.get("periodic") and doc.get("periodic") is not True:
            return _fail(job, "default-start orbit not periodic (closure %s)"
                         % json.dumps(doc.get("closure")))
    elif job.command == "convert" and "point_xy" in c:
        px, py = c["point_xy"]
        errs = [math.hypot(p["xy"][0] - px, p["xy"][1] - py)
                for p in doc.get("points", [])]
        if not errs or min(errs) > c["tol"]:
            return _fail(job, "no converted point within %.3g of the "
                         "source point (nearest %s)"
                         % (c["tol"], min(errs, default=None)))
    elif job.command == "river":
        res = doc["snell_residual"]
        if not res <= MAX_RIVER_RESIDUAL:
            return _fail(job, "river residual %.3g" % res)
    elif job.command == "render":
        status = doc.get("construction_status")
        if not _status_ok(job, status):
            return _fail(job, "construction status %s" % status)
        path = doc.get("svg_path", "")
        if (not os.path.isfile(path)
                or os.path.getsize(path) != doc.get("svg_bytes")):
            return _fail(job, "svg missing or of the wrong size")
    return None


def _echo_matches(job, doc) -> bool:
    """Whether a report echoes this job's input (its id, or the raw line
    for inputs sf cannot read as an object)."""
    if not isinstance(doc, dict):
        return False
    echoed = doc.get("input")
    if isinstance(echoed, dict) and "id" in echoed:
        return echoed["id"] == job.id
    try:
        sent = json.loads(job.line)
    except ValueError:
        return echoed == {}
    return echoed == {"_raw": sent}


def check_batch(jobs: Sequence, stdout: str, code: int) -> List[Failure]:
    """Check the stdout and exit code of one ``sf --batch`` run over
    ``jobs``; the process must exit with the worst job's code."""
    lines = stdout.splitlines()
    failures = []
    worst = 0
    for i, job in enumerate(jobs):
        if i >= len(lines):
            failures.append(_fail(job, "report line missing",
                                  wrong_answer=False))
            continue
        try:
            doc = json.loads(lines[i])
        except ValueError:
            failures.append(_fail(job, "report line is not JSON"))
            continue
        if not _echo_matches(job, doc):
            failures.append(_fail(job, "report line out of order"))
            continue
        worst = max(worst, doc.get("exit_code", 0))
        f = check_report(job, doc, doc.get("exit_code", -1))
        if f is not None:
            failures.append(f)
    for extra in lines[len(jobs):]:
        failures.append(Failure("-", "-", "-",
                                "extra report line %r" % extra[:80], True))
    if not failures and code != worst:
        failures.append(Failure("-", "batch", "-", "batch exit %d, worst job "
                                "exit %d" % (code, worst), False))
    return failures


def check_single(job, stdout: str, code: int) -> Optional[Failure]:
    """Check the stdout and exit code of one single-job ``sf`` process."""
    if not stdout.strip():
        return _fail(job, "no report (exit %d)" % code, wrong_answer=False)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return _fail(job, "report is not JSON")
    if not _echo_matches(job, doc):
        return _fail(job, "report belongs to another job")
    return check_report(job, doc, code)
