"""Span tracing of snellfagnano from outside the package.

``Tracer.install`` swaps each traced public function for a wrapper under
every name a caller looks it up by (the defining module and every
snellfagnano module that imported it, e.g. both
``snellfagnano.optimize.minimize_inscribed`` and
``snellfagnano.cli.minimize_inscribed``); ``uninstall`` restores them.
Each call becomes a span with its name, start, end, parent span, job id
and thread CPU time, kept in memory.  ``optimize.weighted_perimeter`` gets
a count-only wrapper, and ``geometry`` none: its helpers run once per
objective evaluation, so their time stays in the caller's self time.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# Traced public functions, by module.
TRACED = {
    "cli": ("run_spec",),
    "construction": ("snell_fagnano_point", "verify_snell_point"),
    "apollonius": ("tilde_triangle", "apollonian_common_points"),
    "coordinates": ("tripolar_to_points", "to_barycentric", "from_barycentric",
                    "trilinear_to_barycentric", "barycentric_to_trilinear",
                    "tripolar_of_point", "isogonal_conjugate"),
    "optimize": ("minimize_inscribed",),
    "billiards": ("billiard_step", "solve_river"),
    "render": ("render_scene",),
    "serialize": ("dumps",),
}
COUNTED = ("optimize", "weighted_perimeter")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    cpu: float
    error: Optional[str] = None
    out: Optional[int] = None      # run_spec: exit code; dumps: bytes out


def _job_of(name: str, args) -> Optional[str]:
    """Job id carried by a root call: run_spec's spec or dumps' report."""
    if name == "cli.run_spec" and len(args) > 1 and isinstance(args[1], dict):
        return args[1].get("id")
    if name == "serialize.dumps" and args and isinstance(args[0], dict):
        echoed = args[0].get("input")
        if isinstance(echoed, dict):
            return echoed.get("id")
    return None


class Tracer:
    """Spans of every traced call made between install and uninstall."""

    def __init__(self):
        self.spans: List[Span] = []
        self.evals = 0
        self._eval_counter = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else (None, None)
            job = _job_of(name, args) or parent[1]
            sid = next(ids)
            stack.append((sid, job))
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                t1 = time.perf_counter()
                spans.append(Span(sid, name, t0, t1, parent[0], job,
                                  time.thread_time() - c0, type(e).__name__))
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            out = None
            if name == "cli.run_spec":
                out = result[1]
            elif name == "serialize.dumps":
                out = len(result.encode("utf-8"))
            spans.append(Span(sid, name, t0, t1, parent[0], job, cpu,
                              None, out))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        counter = self._eval_counter

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "snellfagnano" or n.startswith("snellfagnano.")]
        swaps = {}
        for mod_name, names in TRACED.items():
            mod = sys.modules["snellfagnano." + mod_name]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                wrapped = self._wrap(mod_name + "." + fn_name, orig)
                swaps[id(orig)] = (orig, wrapped)
        orig = getattr(sys.modules["snellfagnano." + COUNTED[0]], COUNTED[1])
        swaps[id(orig)] = (orig, self._counted(orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        # The counter started at 0, so its next value is the count so far.
        self.evals = next(self._eval_counter)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
