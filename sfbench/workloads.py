"""Job streams of the three workloads, each job with its expected outcome.

A workload is a fixed recipe of job kinds per round; the cases that fill
each kind come from ``cases.draw_case`` in seed order, taken only when the
generator's own label fits the kind.  Rounds repeat with fresh cases until
the run's time is up, so a run's status mix is the recipe's mix.

* ``cli-cold``: one fresh ``sf`` process per job, over the cheap commands
  (interior point with feet inside, the three conversions, river and
  default-start simulate).  Start-up and import are most of each job and
  the minimizer never runs.
* ``oracle-batch``: ``sf --batch`` processes of one round each, over jobs
  that reach the minimizer: degenerate, no-tilde and feet-outside point
  jobs and ``minimize`` on interior cases, one of each.  Its shapes repeat
  in every pass (see ``FIXED_SHAPES``).
* ``construct-batch``: ``sf --batch`` processes over many cheap jobs of
  every command but ``minimize``, render jobs writing SVGs, and a fixed
  share of invalid jobs expecting exit codes 2, 3 and 4.  Nothing in it
  reaches the minimizer.

Three regions of the case distribution are left out of the workloads,
because sf answers a few of their cases wrongly and a timed run must not
fail by chance.  Each cut uses the generator's own arithmetic:

* tripolar conversions of needles, any angle below ``MIN_TRIPOLAR_ANGLE``:
  the distance re-validation of ``tripolar_to_points`` rejects some
  realizable triples there (its error grows about as 1/angle**2; above
  0.01 rad it stayed below 1e-4 of the tolerance on 1e5 cases);
* render and no-orbit simulate jobs on degenerate cases: the cevian
  concurrency check raises ``ConcurrencyViolation`` (exit 2) for a few
  valid degenerate cases in 10**4, needles or not.  Degenerate ``point`` jobs
  stay in oracle-batch, whose fixed shapes stay below 1e-2 of that
  tolerance under every placement tried;
* Apollonius-layer renders with a weight ratio within
  ``MIN_WEIGHT_LOG_RATIO`` of 1 in log: the standing assertion in
  ``apollonian_common_points`` fails on about 1 in 10**4 Apollonius
  renders drawn without this cut (a near-1 ratio makes a huge circle), and
  the ``AssertionError`` ends the whole ``sf --batch`` process.  Beyond
  0.01 the residual stayed below 1e-3 of the tolerance on 2e5 cases.

``known_defects`` lists cases that hit each defect.  Every run sends them
to sf once, outside the timed loop, and reports how many still fail.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional

import cases
from cases import (DEGENERATE, INTERIOR_INSIDE, INTERIOR_OUTSIDE, NO_TILDE,
                   Case)


@dataclass
class Job:
    """One job: the spec line sf receives and what its report must show."""

    id: str
    command: str
    kind: str                       # recipe entry, e.g. "point/interior"
    line: str                       # JSON line as written to the job file
    exits: FrozenSet[int]           # acceptable exit codes
    regimes: Optional[FrozenSet[str]] = None
    checks: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "-" if self.regimes is None else cases.label_of(self.regimes)


def _exits_for(regimes) -> FrozenSet[int]:
    """sf point exits 3 for a missing tilde triangle and 0 otherwise."""
    return frozenset(3 if g == NO_TILDE else 0 for g in regimes)


MIN_TRIPOLAR_ANGLE = 0.01         # radians
MIN_WEIGHT_LOG_RATIO = 0.01       # |ln(lam_i / lam_j)|, Apollonius renders


def _only(*allowed):
    allowed = frozenset(allowed)
    return lambda case: case.regimes <= allowed


def _near(regime, *neighbours):
    """Cases of one regime, including those on its boundary with the given
    neighbours."""
    allowed = frozenset((regime,) + neighbours)
    return lambda case: regime in case.regimes and case.regimes <= allowed


def _no_needle(case) -> bool:
    return cases.min_angle(case) >= MIN_TRIPOLAR_ANGLE


def _distinct_weights(case) -> bool:
    la, lb, lc = case.weights
    return min(abs(math.log(x / y)) for x, y in ((la, lb), (lb, lc), (lc, la))
               ) >= MIN_WEIGHT_LOG_RATIO


def _spec_job(jid, command, kind, spec, exits, regimes=None, **checks) -> Job:
    body = {"id": jid, "command": command}
    body.update(spec)
    return Job(jid, command, kind, json.dumps(body), frozenset(exits),
               regimes, dict(checks))


def _bary_point(case: Case, bary):
    s = sum(bary)
    return tuple(sum(w * v[i] for w, v in zip(bary, case.vertices)) / s
                 for i in range(2))


def _diameter(case: Case) -> float:
    return max(case.sides)


# -- job kinds ---------------------------------------------------------------

def point(r, jid, accept, kind):
    c = cases.draw_matching(r.shape, accept, r.place)
    return _spec_job(jid, "point", kind, c.spec, _exits_for(c.regimes),
                     c.regimes)


def minimize(r, jid):
    c = cases.draw_matching(r.shape, _only(INTERIOR_INSIDE), r.place)
    return _spec_job(jid, "minimize", "minimize/interior", c.spec, {0},
                     c.regimes)


def simulate_default(r, jid):
    c = cases.draw_matching(r.shape, _only(INTERIOR_INSIDE), r.place)
    return _spec_job(jid, "simulate", "simulate/interior", c.spec, {0},
                     c.regimes, periodic=True)


def simulate_no_orbit(r, jid):
    """Default start where no tilde triangle, so no interior orbit, exists:
    exit 3."""
    c = cases.draw_matching(r.shape, _only(NO_TILDE), r.place)
    return _spec_job(jid, "simulate", "simulate/no-orbit", c.spec, {3},
                     c.regimes)


def simulate_vertex(r, jid):
    """Explicit start aimed exactly at vertex A: the first flight ends in a
    corner, exit 4."""
    c = cases.draw_case(r.shape, r.place)
    (ax, ay), (bx, by), (cx, cy) = c.vertices
    u = r.place.uniform(0.2, 0.8)
    px, py = bx + u * (cx - bx), by + u * (cy - by)
    spec = {"triangle": {"vertices": [list(v) for v in c.vertices]},
            "weights": list(c.weights),
            "start": {"side": "a", "param": u,
                      "direction": [ax - px, ay - py]}}
    return _spec_job(jid, "simulate", "simulate/vertex", spec, {4})


def convert_affine(r, jid, kind):
    """Barycentric or trilinear values of a point inside the triangle."""
    c = cases.draw_case(r.shape, r.place)
    bary = [r.place.uniform(0.05, 1.0) for _ in range(3)]
    values = bary if kind == "barycentric" else [
        w / s for w, s in zip(bary, c.sides)]
    spec = {"triangle": c.spec["triangle"],
            "coords": {"kind": kind, "values": values}}
    return _spec_job(jid, "convert", "convert/" + kind, spec, {0},
                     point_xy=_bary_point(c, bary), tol=1e-8 * _diameter(c))


def convert_tripolar(r, jid):
    """Vertex distances of a point inside the triangle, scaled by a random
    factor.  The triple is realizable unless its tilde triangle is within
    MARGIN of flat, where NoSuchPoint (exit 3) is accepted too."""
    c = cases.draw_matching(r.shape, _no_needle, r.place)
    bary = [r.place.uniform(0.05, 1.0) for _ in range(3)]
    p = _bary_point(c, bary)
    dists = [math.dist(p, v) for v in c.vertices]
    scale = 10.0 ** r.place.uniform(-2.0, 2.0)
    values = [d * scale for d in dists]
    x, y, z = (d * s for d, s in zip(dists, c.sides))
    slack = min(y + z - x, z + x - y, x + y - z) / (x + y + z)
    exits = {0} if slack > cases.MARGIN else {0, 3}
    spec = {"triangle": c.spec["triangle"],
            "coords": {"kind": "tripolar", "values": values}}
    return _spec_job(jid, "convert", "convert/tripolar", spec, exits,
                     point_xy=p, tol=1e-6 * _diameter(c))


def convert_unrealizable(r, jid):
    """Tripolar triple whose tilde triangle fails the triangle inequality
    by a factor of three: exit 3."""
    c = cases.draw_case(r.shape, r.place)
    a, b, cc = c.sides
    values = [3.0 * (b + cc) / a, 1.0, 1.0]
    spec = {"triangle": c.spec["triangle"],
            "coords": {"kind": "tripolar", "values": values}}
    return _spec_job(jid, "convert", "convert/unrealizable", spec, {3})


def river(r, jid):
    """Two points on one side of a random line, legs weighted by
    exp(U(-ln 4, ln 4))."""
    rng = r.place
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    e = (math.cos(theta), math.sin(theta))
    n = (-e[1], e[0])
    o = (rng.uniform(-10, 10) * scale, rng.uniform(-10, 10) * scale)
    q2 = (o[0] + scale * e[0], o[1] + scale * e[1])

    def above(u, h):
        return [o[0] + scale * (u * e[0] + h * n[0]),
                o[1] + scale * (u * e[1] + h * n[1])]

    side = 1.0 if rng.random() < 0.5 else -1.0
    a = above(rng.uniform(-2, 2), side * rng.uniform(0.1, 2.0))
    b = above(rng.uniform(-2, 2), side * rng.uniform(0.1, 2.0))
    ln4 = math.log(4.0)
    spec = {"river": {"a": a, "b": b, "line": [list(o), list(q2)],
                      "lam1": math.exp(rng.uniform(-ln4, ln4)),
                      "lam2": math.exp(rng.uniform(-ln4, ln4))}}
    return _spec_job(jid, "river", "river", spec, {0})


def render(r, jid, svg_dir, apollonius):
    allowed = _only(INTERIOR_INSIDE, INTERIOR_OUTSIDE, NO_TILDE)
    c = cases.draw_matching(
        r.shape, lambda case: allowed(case) and (
            not apollonius or _distinct_weights(case)), r.place)
    spec = dict(c.spec)
    spec["svg_path"] = os.path.join(svg_dir, jid + ".svg")
    if apollonius:
        spec["layers"] = {"apollonius": True}
    return _spec_job(jid, "render", "render/apollonius" if apollonius
                     else "render/plain", spec, {0}, c.regimes)


_INVALID_LINES = (
    ('{"triangle": {"sides": [3, 4, 5]}, "weights": [1, 1,', "bad-json"),
    ('[1, 2, 3]', "not-object"),
)


def invalid(r, jid, variant):
    """Inputs sf must refuse with exit 2."""
    c = cases.draw_case(r.shape, r.place)
    if variant in ("bad-json", "not-object"):
        text = dict((v, t) for t, v in _INVALID_LINES)[variant]
        return Job(jid, "point", "invalid/" + variant, text, frozenset({2}))
    spec = dict(c.spec)
    command = "point"
    if variant == "unknown-command":
        command = "orbit"
    elif variant == "negative-weight":
        spec["weights"] = [-w for w in c.weights]
    elif variant == "collinear":
        (ax, ay), (bx, by), _ = c.vertices
        spec["triangle"] = {"vertices": [[ax, ay], [bx, by],
                                         [2 * bx - ax, 2 * by - ay]]}
    elif variant == "bad-sides":
        a, b, cc = c.sides
        spec["triangle"] = {"sides": [b + cc + a, b, cc]}
    elif variant == "missing-triangle":
        del spec["triangle"]
    return _spec_job(jid, command, "invalid/" + variant, spec, {2})


def known_defects(svg_dir: str) -> List[Job]:
    """Cases from the regions the workloads leave out, on which sf fails
    today; each job expects what a correct sf would answer."""
    needle = ((1.1883541646654383e-06, 0.022229017803980802,
               0.02222880556815606),
              (0.02117751591768509, 0.014009530069013608,
               0.014009866036274793))
    sliver = ((0.6595322558449519, 5.440659001432983e-06, 0.6595362667903908),
              (0.024439890587565873, 0.04787645348532656,
               0.024439450798186397))
    jobs = []
    for n, (sides, values) in enumerate((needle, sliver)):
        spec = {"triangle": {"sides": list(sides)},
                "coords": {"kind": "tripolar", "values": list(values)}}
        jobs.append(_spec_job("k%d" % n, "convert", "defect/tripolar", spec,
                              {0}))
    # ConcurrencyViolation: a flat needle with unit weights, and a
    # degenerate case whose smallest angle is 0.59 rad.
    flat = cases.from_sides((1.0, 1.0, 1.9999999), (1.0, 1.0, 1.0))
    jobs.append(_spec_job("k2", "point", "defect/concurrency", flat.spec,
                          _exits_for(flat.regimes), flat.regimes))
    deg = cases.from_sides(
        (0.8003992096069602, 1.0460364118068857, 1.4122399549943752),
        (1.411076837272, 0.568738545055, 1.220996211775))
    spec = dict(deg.spec, svg_path=os.path.join(svg_dir, "k3.svg"),
                layers={"apollonius": True})
    jobs.append(_spec_job("k3", "render", "defect/concurrency", spec, {0},
                          deg.regimes))
    # AssertionError in apollonian_common_points (lam_A / lam_B = 1.00003).
    # It ends the batch, so it comes last.
    near = cases.from_sides(
        (0.13515914118725295, 0.11016365232450137, 0.09094664997977844),
        (0.806206498245, 0.806184505322, 0.653781270011))
    spec = dict(near.spec, svg_path=os.path.join(svg_dir, "k4.svg"),
                layers={"apollonius": True})
    jobs.append(_spec_job("k4", "render", "defect/apollonius", spec, {0},
                          near.regimes))
    return jobs


# -- recipes -----------------------------------------------------------------

def _recipe(workload: str, svg_dir: str):
    """Job makers of one round, in a fixed order."""
    if workload == "cli-cold":
        return [
            lambda r, j: point(r, j, _only(INTERIOR_INSIDE), "point/interior"),
            lambda r, j: convert_affine(r, j, "barycentric"),
            lambda r, j: convert_affine(r, j, "trilinear"),
            convert_tripolar,
            river,
            simulate_default,
        ]
    if workload == "oracle-batch":
        return [
            lambda r, j: point(r, j, _near(DEGENERATE, NO_TILDE),
                               "point/degenerate"),
            lambda r, j: point(r, j, _near(NO_TILDE, DEGENERATE),
                               "point/no-tilde"),
            lambda r, j: point(r, j, _near(INTERIOR_OUTSIDE, DEGENERATE),
                               "point/feet-outside"),
            minimize,
        ]
    if workload == "construct-batch":
        makers = []
        makers += [lambda r, j: point(r, j, _only(INTERIOR_INSIDE),
                                      "point/interior")] * 20
        makers += [lambda r, j: convert_affine(r, j, "barycentric")] * 5
        makers += [lambda r, j: convert_affine(r, j, "trilinear")] * 5
        makers += [convert_tripolar] * 5
        makers += [river] * 15
        makers += [simulate_default] * 15
        makers += [lambda r, j: render(r, j, svg_dir, False)] * 5
        makers += [lambda r, j: render(r, j, svg_dir, True)] * 5
        for variant in ("bad-json", "not-object", "unknown-command",
                        "negative-weight", "collinear", "bad-sides",
                        "missing-triangle"):
            makers.append(lambda r, j, v=variant: invalid(r, j, v))
        makers += [convert_unrealizable] * 3
        makers += [simulate_no_orbit] * 3
        makers += [simulate_vertex] * 4
        return makers
    raise ValueError("unknown workload %r" % workload)


class Draws(NamedTuple):
    """Generators of one job: shapes, scales and weights, and the rest."""

    shape: random.Random
    place: random.Random


# Workloads whose shapes, scales and weights repeat in every pass, the seed
# drawing only placement, form and job order.  The minimizer's cost per case
# is heavy-tailed (a few cases in a hundred take 5-15 times the median), so
# ~100 freshly drawn cases per run swing its throughput by 15-19 % from seed
# to seed; with the shapes fixed the spread is that of the machine.
FIXED_SHAPES = ("oracle-batch",)


class JobStream:
    """Rounds of a workload's recipe, drawn from seeded generators."""

    def __init__(self, workload: str, seed: int, svg_dir: str = "."):
        self.workload = workload
        self.place = random.Random("%s/%d" % (workload, seed))
        self.recipe = _recipe(workload, svg_dir)
        self.count = 0
        self.restart()

    def restart(self) -> None:
        """Start a pass: fixed-shape workloads replay their shapes."""
        shape = (random.Random(self.workload + "/shapes")
                 if self.workload in FIXED_SHAPES else self.place)
        self.draws = Draws(shape, self.place)

    def round(self) -> List[Job]:
        jobs = []
        for make in self.recipe:
            jid = "j%05d" % self.count
            self.count += 1
            jobs.append(make(self.draws, jid))
        self.place.shuffle(jobs)
        return jobs


def batch_text(jobs: List[Job]) -> str:
    return "".join(j.line + "\n" for j in jobs)
