import ast
import collections
import gc
import importlib.metadata
import inspect
import io
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

import snellfagnano
from conftest import (SUBPROCESS_TIMEOUT, checkout_env, sample_boundary,
                      sample_random_setup, sample_thin)
from oracles import exact_verdict
from snellfagnano import (cli, cmd_simulate, geometry, jobs, optimize,
                          triangle_from_sides)

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def run(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_doc(capsys, args):
    code, out = run(capsys, args)
    return code, json.loads(out)


def corpus_path(name):
    return os.path.join(CORPUS, name)


def corpus_spec(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def write_spec(tmp_path, spec):
    p = tmp_path / "job.json"
    p.write_text(json.dumps(spec))
    return str(p)


T456 = {"triangle": {"sides": [4, 5, 6]}, "weights": [1, 1, 1]}
EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# point

def test_point_456_unit_weights(capsys, tmp_path):
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, T456)])
    assert code == 0
    assert doc["command"] == "point"
    assert doc["status"] == "interior"
    assert doc["refraction_coefficients"] == [1.0, 1.0, 1.0]
    # orthocenter of the canonical (4,5,6) placement
    x, y = doc["point"]["xy"]
    assert x == pytest.approx(3.375, abs=1e-12)
    assert y == pytest.approx(0.42521003213546586, abs=1e-9)
    assert doc["orbit"]["in_sides"] is True
    assert max(doc["snell_residuals"]) < 1e-9
    conj = doc["isogonal_conjugate"]
    tn = conj["tripolar_normalized"]
    assert max(tn) - min(tn) < 1e-9  # circumcenter: equidistant
    assert doc["tolerances"] == jobs.TOLERANCES


def test_point_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T456)))
    code, doc = run_doc(capsys, ["point"])
    assert code == 0
    assert doc["status"] == "interior"


def test_point_equilateral_centroid(capsys, tmp_path):
    spec = {"triangle": {"sides": [2, 2, 2]}, "weights": [3, 3, 3]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    for v in doc["point"]["barycentric"]:
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert doc["orbit"]["weighted_perimeter"] == pytest.approx(9.0, rel=1e-12)
    assert doc["weights_normalized"] == [pytest.approx(1 / 3)] * 3


def test_point_degenerate(capsys):
    code, doc = run_doc(capsys, ["point", "--input",
                                 corpus_path("point_degenerate.json")])
    assert code == 0
    assert doc["status"] == "degenerate"
    info = doc["degenerate_info"]
    assert info["weighted_argmin"] == info["shortest_altitude"]
    assert set(info["weighted_costs"]) == {"A", "B", "C"}
    # The doubled altitude's foot lies on its side, so the orbit is the
    # construction's, which the oracle matches.
    assert "brute_force_cost" not in doc and "iterations" not in doc["orbit"]
    assert doc["orbit"]["weighted_perimeter"] == \
        info["weighted_costs"][info["weighted_argmin"]]
    minimized, _ = cli.run_spec("minimize",
                                corpus_spec("point_degenerate.json"))
    assert minimized["report"]["cost"] == pytest.approx(
        doc["orbit"]["weighted_perimeter"], rel=1e-3)
    assert doc["interior_conditions"].count(False) >= 1


def test_point_no_tilde(capsys):
    code, doc = run_doc(capsys, ["point", "--input",
                                 corpus_path("point_no_tilde.json")])
    assert code == 3
    assert doc["status"] == "no_tilde_triangle"
    assert ">=" in doc["message"]
    # The doubled altitude from A, whose foot is side a's midpoint.
    assert doc["orbit"]["params"] == [0.5, 1, 0]
    assert doc["orbit"]["weighted_perimeter"] == \
        doc["degenerate_info"]["weighted_costs"]["A"]
    assert "brute_force_cost" not in doc and "iterations" not in doc["orbit"]


def test_point_on_a_thin_no_tilde_triangle_reports_the_doubled_altitude(
        capsys, tmp_path):
    """Every foot of the doubled altitude lies on its side, so `point`
    reports its cost, 1.7e-12, and runs no oracle, which has stopped at the
    corner (0, 1, 1) of the parameter cube with a cost of 0.0567."""
    spec = {"triangle": {"vertices": [
        [0, 0], [0.05087798727929526, 0],
        [-0.0013261870348365895, 1.1731545622667445e-12]]},
        "weights": [0.6548666745347462, 1.0318258525028317,
                    0.4597087190637227]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["status"]) == (3, "no_tilde_triangle")
    assert doc["orbit"]["weighted_perimeter"] == 1.7053489150492149e-12
    assert "brute_force_cost" not in doc and "iterations" not in doc["orbit"]
    minimized, _ = cli.run_spec("minimize", spec)
    assert doc["orbit"]["weighted_perimeter"] <= \
        minimized["report"]["cost"] * (1 + 1e-9)


def test_no_tilde_message_names_the_long_side_at_small_scales(capsys,
                                                              tmp_path):
    """The failing inequality is picked on the exact squared tilde sides,
    so it is the one the verdict was taken on, and named with the raw
    products.
    Weights so small that those products underflow to 0 are refused first:
    min(weights) * area / diameter, below each product, must be normal."""
    spec = {"triangle": {"sides": [1e-150] * 3},
            "weights": [1e-150, 1e-150, 1e-140]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["status"]) == (3, "no_tilde_triangle")
    assert doc["message"] == \
        "lam_C*c >= lam_A*a + lam_B*b (1e-290 >= 1e-300 + 1e-300)"
    spec["weights"] = [1e-200, 1e-200, 1e-190]
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2
    assert doc["message"].startswith("smallest weight times area / diameter")


def test_no_tilde_verdict_is_exact_on_the_input_vertices(capsys, tmp_path):
    """The rounded sides of these vertices are exactly 5 and 6, so the
    rounded tilde sides (4e-20, 30, 30) form a triangle; the exact ones,
    5 - 9.7e-17 and 6 - 8.1e-17 times the weights, do not:
    lam_C |AB| - lam_B |CA| = 1.8e-16 exceeds lam_A |BC| = 4e-20.  The
    verdict and the named inequality follow the exact sides."""
    spec = {"triangle": {"vertices": [[3.375, 4.960783708246107], [0, 0],
                                      [4, 0]]},
            "weights": [1e-20, 6, 5]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["status"]) == (3, "no_tilde_triangle")
    assert doc["message"].startswith("lam_C*c >= lam_A*a + lam_B*b ")
    t = snellfagnano.Triangle(*spec["triangle"]["vertices"])
    assert exact_verdict(t, snellfagnano.Weights(*spec["weights"])) == (
        "no_tilde_triangle", None)


def _reads_true(message):
    """Assert that the numbers a no-tilde message prints satisfy the
    inequality it names: the products r >= p + q, taken as exact decimals,
    or a relative gap (r - p - q) / r of at least 0.  Return that gap, or
    None where the message prints the products."""
    numbers = message[:-1].split(" (")[1]
    if " = " in numbers:
        gap = float(numbers.split(" = ")[1].split()[0])
        assert gap >= 0.0, message
        return gap
    r, rest = numbers.split(" >= ")
    p, q = rest.split(" + ")
    assert Fraction(r) >= Fraction(p) + Fraction(q), message
    return None


def _tilde_gap_reference(vertices, weights, long):
    """(r - p - q) / r for the tilde sides lam_V |opposite side| of the
    input floats, r the one at index long, in 60-digit decimals."""
    vs = [(Fraction(x), Fraction(y)) for x, y in vertices]
    with localcontext() as ctx:
        ctx.prec = 60
        sides = []
        for i in range(3):
            (ux, uy), (vx, vy) = vs[(i + 1) % 3], vs[(i + 2) % 3]
            sq = (ux - vx) ** 2 + (uy - vy) ** 2
            sides.append(Decimal(weights[i]) * (
                Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt())
        r = sides.pop(long)
        return float((r - sum(sides)) / r)


def test_no_tilde_message_reads_true():
    """The numbers a no-tilde message prints satisfy the inequality it
    names.  Where the products lam_V * side would round onto a sum their
    12 digits cannot tell from the long side (the input of
    test_no_tilde_verdict_is_exact_on_the_input_vertices: 30 >= 4e-20 +
    30), the message prints the relative gap, taken of the exact squared
    sides, within 1e-9 of its 60-digit value; and on sides [4, 5, 6] with
    lam_C c short of lam_A a + lam_B b by 10^-k, the gap is printed for
    the narrow k and the products for the wide ones."""
    vertices = [[3.375, 4.960783708246107], [0, 0], [4, 0]]
    cases = [(vertices, [1e-20, 6, 5])]
    t = triangle_from_sides(4, 5, 6)
    placed = [list(v) for v in t.vertices]
    for k in range(1, 16):
        cases.append((placed, [1, 1, (t.a + t.b) * (1 + 10.0 ** -k) / t.c]))
    gaps = []
    for vs, weights in cases:
        spec = {"triangle": {"vertices": vs}, "weights": weights}
        doc, code = cli.run_spec("point", spec)
        if doc["status"] != "no_tilde_triangle":
            continue
        assert code == 3
        gaps.append(_reads_true(doc["message"]))
        if gaps[-1] is not None:
            long = ["lam_A*a", "lam_B*b", "lam_C*c"].index(
                doc["message"].split()[0])
            assert gaps[-1] == pytest.approx(
                _tilde_gap_reference(vs, weights, long), rel=1e-9, abs=0.0)
    assert gaps[0] is not None and None in gaps


def test_point_needle_is_degenerate(capsys, tmp_path):
    spec = {"triangle": {"sides": [1, 1, 1.9999999]}, "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["status"] == "degenerate"


def _flat_family(rng):
    """A (triangle, weights) spec near a flat triangle: sides (1, 1, 2 -
    10^U(-16, -4)) or vertices (U(-2, 3), 10^U(-10, -3)), (0, 0), (1, 0),
    each weight e^U(-1, 1) or, with probability 0.3, 1."""
    if rng.random() < 0.5:
        triangle = {"sides": [1.0, 1.0, 2.0 - 10.0 ** rng.uniform(-16, -4)]}
    else:
        triangle = {"vertices": [[rng.uniform(-2, 3),
                                  10.0 ** rng.uniform(-10, -3)],
                                 [0.0, 0.0], [1.0, 0.0]]}
    return {"triangle": triangle,
            "weights": [1.0 if rng.random() < 0.3
                        else math.exp(rng.uniform(-1, 1)) for _ in "abc"]}


def test_degenerate_point_at_infinity_has_no_point_block(tmp_path):
    """The equal-weight orbit point of an obtuse needle is its orthocenter,
    far out, and its Ceva triple can sum to rounding noise: a point at
    infinity.  The verdict stays degenerate, with no point: point,
    minimize and render exit 0, and simulate has no orbit to launch from.
    Over 20000 draws of the flat family, no construction raises
    IdealPoint."""
    spec = {"triangle": {"sides": [1, 1, 1.9999999999999998]},
            "weights": [1, 1, 1]}
    doc, code = cli.run_spec("point", spec)
    assert (code, doc["status"]) == (0, "degenerate")
    assert doc["interior_conditions"] == [True, True, False]
    assert "point" not in doc and "orbit" in doc
    doc, code = cli.run_spec("minimize", spec)
    assert (code, doc["status"]) == (0, "ok")
    doc, code = cli.run_spec("render", dict(
        spec, svg_path=str(tmp_path / "needle.svg")))
    assert (code, doc["construction_status"]) == (0, "degenerate")
    doc, code = cli.run_spec("simulate", spec)
    assert code == 3
    assert doc["message"].startswith("no interior orbit to launch from "
                                     "(status degenerate)")
    rng = random.Random(7)
    statuses = set()
    for _ in range(20000):
        node = _flat_family(rng)
        try:
            t = jobs.parse_triangle(node)
        except snellfagnano.GeometryError:
            continue
        w = snellfagnano.Weights(*node["weights"])
        statuses.add(snellfagnano.snell_fagnano_point(t, w).status)
    assert statuses == {"degenerate", "no_tilde_triangle"}


def test_point_sliver_sides_are_placed(capsys, tmp_path):
    # a sliver's height comes from its area, not from c^2 - x^2
    spec = {"triangle": {"sides": [1, 1e-8, 1]}, "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    # an acute isosceles needle: the unit-weight orbit is the orthic one
    spec = {"triangle": {"sides": [1e-8, 1, 1]}, "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["status"] == "interior"


def test_point_tilde_angle_near_zero(capsys, tmp_path):
    # the tilde angle opposite lam_A*a rounds to 0: the scaled triple is a
    # hair from flat, and the apexes must not divide by its sine
    spec = {"triangle": {"sides": [3.1716704906982103, 4.05907688353185,
                                   5.48586012990923]},
            "weights": [0.9457662585096261, 1.4912505559222313,
                        1.6501987615314522]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["status"] == "degenerate"
    minimized, _ = cli.run_spec("minimize", spec)
    assert minimized["report"]["cost"] == pytest.approx(
        doc["orbit"]["weighted_perimeter"], rel=1e-9)


@pytest.mark.parametrize("k", [40, 300, 500, 540, 700, 1000])
def test_needle_point_keeps_every_barycentric(capsys, tmp_path, k):
    """On the isosceles triangle with |CA| = |AB| = 5 and weights
    (2^-k, 1, 1), barycentric_A is lam_A sqrt(5)/10 for every k: a Ceva
    product whose factors underflow together must not make it 0."""
    lam = 2.0 ** -k
    spec = {"triangle": {"vertices": [[0, 0], [5, 0], [3, 4]]},
            "weights": [lam, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["status"]) == (0, "interior")
    bary = doc["point"]["barycentric"]
    assert min(bary) > 0.0
    assert abs(bary[0] / lam / (math.sqrt(5) / 10) - 1.0) <= 4 * EPS


def test_point_in_the_former_angle_band_is_interior(capsys, tmp_path):
    """A boundary-family case with A + A~ = pi - 4.77e-11: the verdict is
    the sign of the numerators, so it reads interior, with three positive
    barycentrics, as the exact sign says; a margin of 1e-10 on the angle
    sum would read it degenerate."""
    spec = {"triangle": {"vertices": [
        [0.24323240694650194, 0.30124788574405037],
        [-0.017588627788451827, 0.37439014765873213],
        [-0.650383126785198, -0.7223846477998832]]},
        "weights": [0.7130767313100207, 0.3890058048813151,
                    1.9908286858623536]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["status"]) == (0, "interior")
    assert doc["interior_conditions"] == [True, True, True]
    assert min(doc["point"]["barycentric"]) > 0.0
    t = snellfagnano.Triangle(*spec["triangle"]["vertices"])
    assert exact_verdict(t, snellfagnano.Weights(*spec["weights"])) == (
        "interior", (True, True, True))


def near_needle_specs(rng, draws):
    """`point` specs whose scaled tilde sides are (p, 1, 1 + U(-0.99, 0.99) p)
    in random order, p = e^U(-35, 0), on triangles with vertices in
    [-1, 1]^2 and |cross| > 0.05: a point within about p of a side line."""
    for _ in range(draws):
        while True:
            (ax, ay), (bx, by), (cx, cy) = [
                (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            if abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) > 0.05:
                break
        p = math.exp(rng.uniform(-35.0, 0.0))
        tilde = [p, 1.0, 1.0 + rng.uniform(-0.99, 0.99) * p]
        rng.shuffle(tilde)
        t = snellfagnano.Triangle(snellfagnano.Point2(ax, ay),
                                  snellfagnano.Point2(bx, by),
                                  snellfagnano.Point2(cx, cy))
        yield t, {"triangle": {"vertices": [list(v) for v in t.vertices]},
                  "weights": [s / side
                              for s, side in zip(tilde, (t.a, t.b, t.c))]}


def test_no_verdict_is_lost_near_a_side_line():
    """Every interior construction keeps its verdict in `sf point`, exit 0,
    however near a side line its point lies; where its xy rounds onto one,
    snell_residuals is null."""
    interior = [spec for t, spec in near_needle_specs(random.Random(3), 3000)
                if snellfagnano.snell_fagnano_point(
                    t, snellfagnano.Weights(*spec["weights"])).status
                == "interior"]
    assert len(interior) >= 1000
    on_line = {"triangle": {"vertices": [
        [-0.3979036444918598, 0.20235861760644092],
        [0.7903109941124875, 0.6221380579417004],
        [0.8471846144940389, 0.7344038786744758]]},
        "weights": [7.945967245912888, 7.273884381728949e-16,
                    0.79353364014532]}
    fixed = {"triangle": {"sides": [4, 5, 6]}, "weights": [1e-11, 6, 5]}
    for spec in interior + [fixed, on_line]:
        doc, code = cli.run_spec("point", spec)
        assert (code, doc["status"]) == (0, "interior"), spec
    assert doc["snell_residuals"] is None
    assert cli.run_spec("point", fixed)[0]["snell_residuals"] is not None


def test_snell_residuals_are_relative():
    """Each of snell_residuals is |sine ratio / kappa - 1| at the reported
    xy, whatever the coefficient's size: on sides [4, 5, 6] with weights
    [1e-11, 6, 5], where kappa_b = 5e11, every one agrees within 1e-15
    with that quantity taken in 50-digit decimals."""
    spec = {"triangle": {"sides": [4, 5, 6]}, "weights": [1e-11, 6, 5]}
    doc, code = cli.run_spec("point", spec)
    assert (code, doc["status"]) == (0, "interior")
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, f = ([Decimal(x) for x in p] for p in (
            *triangle_from_sides(4, 5, 6).vertices, doc["point"]["xy"]))

        def sine(v, p, q):
            x1, y1, x2, y2 = p[0] - v[0], p[1] - v[1], q[0] - v[0], q[1] - v[1]
            return abs(x1 * y2 - y1 * x2) / ((x1 * x1 + y1 * y1).sqrt()
                                             * (x2 * x2 + y2 * y2).sqrt())

        # sin(FCA)/sin(FBA), sin(FAB)/sin(FCB), sin(FBC)/sin(FAC)
        exact = [abs(sine(v, f, p) / sine(w, f, p) / Decimal(kap) - 1)
                 for (v, w, p), kap in zip(((c, b, a), (a, c, b), (b, a, c)),
                                           doc["refraction_coefficients"])]
    for got, want in zip(doc["snell_residuals"], exact):
        assert abs(Decimal(got) - want) <= Decimal("1e-15"), (got, want)


def test_needle_tilde_point_meets_its_sine_ratios():
    """Sides [4, 5, 6] with weights [1e-11, 6, 5] make a needle tilde
    triangle (4e-11, 30, 30), whose numerator X_B = r^2 + p^2 - q^2 is
    p^2 = 1.6e-21: a sum of the three rounded squares rounds it to 0.
    Taken exactly in integers it is kept, and the point meets all three
    sine ratios to 4 epsilon; from angles with the rounded numerator it
    missed two of them by 1.65e-12."""
    doc, code = cli.run_spec("point", {"triangle": {"sides": [4, 5, 6]},
                                       "weights": [1e-11, 6, 5]})
    assert (code, doc["status"]) == (0, "interior")
    assert max(doc["snell_residuals"]) <= 4 * sys.float_info.epsilon


def test_point_takes_the_oracle_orbit_only_where_a_foot_falls_outside(
        capsys, tmp_path):
    """The orbit is the construction's unless one of its feet lies off its
    side, as for the pedal triangle of an interior point past a vertex and
    for a doubled altitude whose foot is off its side; there it is the
    oracle's minimizer, with its steps and verdict, on the closed sides.
    in_sides still says whether a closed billiard orbit exists."""
    feet_outside = {"triangle": {"vertices": [
        [-2.215109438014208, 2.818969649065556],
        [-4.034728786434073, -1.4419054310523558],
        [3.8558641001898994, 3.442815546106077]]},
        "weights": [0.5250328650960183, 0.777545135717788, 1.9512765204699702]}
    altitude_outside = {"triangle": {"vertices": [
        [-0.766959022779762, -0.7835290958528278],
        [-0.5764282375880505, -0.8936868516201333],
        [-0.5695660020950997, -0.24173664544908702]]},
        "weights": [1.2781015041261583, 2.048712262571575, 2.2442461302750414]}
    cases = ((corpus_spec("point_no_tilde.json"), "no_tilde_triangle", None,
              False),
             (corpus_spec("point_degenerate.json"), "degenerate", None, False),
             (feet_outside, "interior", False, True),
             (altitude_outside, "degenerate", None, True),
             (T456, "interior", True, False))
    for spec, status, in_sides, oracle in cases:
        _, doc = run_doc(capsys, ["point", "--input",
                                  write_spec(tmp_path, spec)])
        orbit = doc["orbit"]
        assert doc["status"] == status
        assert orbit.get("in_sides") == in_sides
        assert "brute_force_cost" not in doc
        assert ("iterations" in orbit) == ("converged" in orbit) == oracle
        if oracle:
            minimized, _ = cli.run_spec("minimize", spec)
            report = minimized["report"]
            assert orbit["params"] == report["params"]
            assert orbit["vertices"] == report["vertices"]
            assert orbit["weighted_perimeter"] == report["cost"]
            assert orbit["iterations"] == report["iterations"]
            assert orbit["converged"] is report["converged"] is True
            # The construction's pedal triangle undercuts it off the sides.
            built = minimized["constructed"]["weighted_perimeter"]
            assert built < report["cost"]
            assert all(0.0 <= p <= 1.0 for p in orbit["params"])


def _no_orbit_families():
    """(two_sided, [(triangle, weights)]) of the random set-up and the
    boundary family (two-sided: the oracle's cost is the minimum), then of
    the needle-tilde family and the thin-triangle family's bands from
    10^U(-11, -9) to 10^U(-5, -4), on which the oracle may stop above it."""
    rng = random.Random(2)
    yield True, [sample_random_setup(rng) for _ in range(1500)]
    rng = random.Random(2)
    yield True, [sample_boundary(rng) for _ in range(1500)]
    rng = random.Random(2)
    yield False, [sample_boundary(rng, needle=True) for _ in range(1500)]
    for lo, hi in ((-11, -9), (-9, -6), (-7, -6), (-6, -5), (-5, -4)):
        rng = random.Random(78)
        yield False, [sample_thin(rng, lo, hi) for _ in range(300)]


def test_point_orbit_is_the_constrained_minimum_without_a_closed_orbit(
        monkeypatch):
    """Beside every `point` job without a closed orbit the oracle runs
    here: on the random set-up and the boundary family the report's orbit
    lies on the closed sides and its cost is the oracle's within 1e-9
    relative; on needle-tilde and thin triangles it never exceeds the
    oracle's by more than that.  `point` itself calls the oracle exactly on
    the jobs whose construction puts a foot off its side."""
    oracle = optimize.minimize_inscribed
    calls = []
    monkeypatch.setattr(optimize, "minimize_inscribed",
                        lambda t, w: calls.append(None) or oracle(t, w))
    for two_sided, cases in _no_orbit_families():
        for t, w in cases:
            spec = {"triangle": {"vertices": [list(v) for v in t.vertices]},
                    "weights": list(w)}
            before = len(calls)
            doc, _ = cli.run_spec("point", spec)
            orbit = doc["orbit"]
            if orbit.get("in_sides"):
                assert len(calls) == before
                continue
            feet = snellfagnano.snell_fagnano_point(t, w).orbit[3:]
            outside = not all(0.0 <= p <= 1.0 for p in feet)
            assert len(calls) - before == outside, spec
            cost = oracle(t, w).cost
            gap = (orbit["weighted_perimeter"] - cost) / cost
            assert gap <= 1e-9, spec
            if two_sided:
                assert all(0.0 <= p <= 1.0 for p in orbit["params"]), spec
                assert gap >= -1e-9, spec


def test_point_internal_error_gets_a_report(capsys, monkeypatch):
    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "point", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T456)))
    code = cli.main(["point"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("{\n")  # indented, as any single job
    doc = json.loads(captured.out)
    assert doc["status"] == "error"
    assert doc["message"] == "internal error: RuntimeError: boom"
    assert "exit_code" not in doc
    assert "sf: internal error: RuntimeError: boom" in captured.err
    assert "Traceback" in captured.err


def test_weight_ratio_limit_is_the_same_for_every_command(capsys, tmp_path):
    # Weights whose ratios leave the normal float range are refused alike by
    # every command that takes weights, and never reach an internal error.
    for k in range(140, 171):
        for weights in ([10.0 ** k, 1, 10.0 ** -k], [10.0 ** k, 10.0 ** -k, 1]):
            spec = {"triangle": {"sides": [4, 5, 6]}, "weights": weights}
            codes = [cli.main([command, "--input", write_spec(tmp_path, spec)])
                     for command in ("point", "simulate", "minimize")]
            codes.append(cli.main(["render", "--input", write_spec(
                tmp_path, dict(spec, svg_path=str(tmp_path / "w.svg")))]))
            capsys.readouterr()
            assert 1 not in codes, (k, weights, codes)
            assert codes.count(2) in (0, 4), (k, weights, codes)
            assert (codes[0] == 2) == (min(weights) / max(weights)
                                       < sys.float_info.min), (k, weights)


def test_weights_times_perimeter_must_stay_finite(capsys, tmp_path):
    # max(weights) * perimeter bounds every cost a report prices; where it
    # overflows, each command that takes weights refuses the job.
    svg = str(tmp_path / "w.svg")
    for weights, expect in (([1e308] * 3, [2, 2, 2, 2]),
                            ([1e300, 1e300, 1e308], [2, 2, 2, 2]),
                            ([1e307] * 3, [0, 0, 0, 0]),
                            ([1e300, 1e300, 1.1e307], [3, 3, 0, 0])):
        spec = {"triangle": {"sides": [4, 5, 6]}, "weights": weights}
        codes = []
        for command in ("point", "simulate", "minimize", "render"):
            job = dict(spec, svg_path=svg) if command == "render" else spec
            codes.append(cli.main([command, "--input",
                                   write_spec(tmp_path, job)]))
            err = capsys.readouterr().err
            if codes[-1] == 2:
                assert "largest weight times the perimeter overflows" in err
        assert codes == expect, (weights, codes)


def test_smallest_weight_times_area_over_diameter_must_stay_normal(
        capsys, tmp_path):
    # min(weights) * area / diameter bounds every cost a report prices from
    # below; where it is not a normal float, a cost could read 0, and each
    # command that takes weights refuses the job.
    svg = str(tmp_path / "w.svg")
    sides = [4e-150, 5e-150, 6e-150]
    for weights, expect in (([1e-200, 2e-200, 1.5e-200], [2, 2, 2, 2]),
                            ([1e-150, 2e-150, 1.5e-150], [0, 0, 0, 0])):
        spec = {"triangle": {"sides": sides}, "weights": weights}
        codes = []
        for command in ("point", "simulate", "minimize", "render"):
            job = dict(spec, svg_path=svg) if command == "render" else spec
            codes.append(cli.main([command, "--input",
                                   write_spec(tmp_path, job)]))
            captured = capsys.readouterr()
            if codes[-1] == 2:
                assert ("smallest weight times area / diameter is 0, below "
                        "2.2250738585072014e-308") in captured.err
            elif command == "point":
                cost = json.loads(captured.out)["orbit"]["weighted_perimeter"]
                assert cost == pytest.approx(9.56e-300, rel=1e-3, abs=0.0)
        assert codes == expect, (weights, codes)


def test_uniformly_scaled_weights_give_the_same_answer(capsys, tmp_path):
    # Only the weight ratios matter.  A power-of-two scale changes no bit of
    # the orbit; a power of ten moves it by rounding alone, out to 1e+-300.
    scales = [(2.0 ** k, True) for k in (1, 100, 500, 996)]
    scales += [(10.0 ** k, False) for k in (1, 100, 200, 300)]
    scales += [(1.0 / s, exact) for s, exact in scales]
    for triangle in ({"sides": [4, 5, 6]},
                     {"vertices": [[0, 0], [5, 0], [1.5, 2]]}):  # obtuse

        def reports(s):
            spec = {"triangle": triangle,
                    "weights": [1.2 * s, 1.0 * s, 0.9 * s]}
            path = write_spec(tmp_path, spec)
            return {command: run_doc(capsys, [command, "--input", path])
                    for command in ("point", "simulate", "minimize")}

        base = reports(1.0)
        assert base["point"][1]["status"] == "interior"
        assert base["simulate"][1]["periodic"] is True
        for s, exact in scales:
            got = reports(s)
            for command in got:
                assert got[command][0] == base[command][0], (s, command)
            point, ref = got["point"][1], base["point"][1]
            assert point["status"] == ref["status"], s
            params = point["orbit"]["params"]
            if exact:
                assert params == ref["orbit"]["params"], s
            else:
                assert params == pytest.approx(ref["orbit"]["params"],
                                               rel=1e-12), s
            assert got["simulate"][1]["periodic"] is True, s
            gap = got["minimize"][1]["constructed"]["relative_gap"]
            assert gap == pytest.approx(
                base["minimize"][1]["constructed"]["relative_gap"],
                abs=1e-9), s


def test_point_rejects_nan(tmp_path, capsys):
    p = tmp_path / "bad.json"
    for number in ("NaN", "1e400", "-1e400"):  # 1e400 overflows to inf
        p.write_text('{"triangle": {"sides": [3, 4, 5]}, '
                     '"weights": [1, 1, %s]}' % number)
        code = cli.main(["point", "--input", str(p)])
        captured = capsys.readouterr()
        assert code == 2, number
        assert captured.out == ""  # rejected before a report exists
        assert "non-finite" in captured.err


def test_point_rejects_huge_integer(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text('{"triangle": {"sides": [1%s, 1, 1]}, "weights": [1, 1, 1]}'
                 % ("0" * 400))
    code = cli.main(["point", "--input", str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["status"] == "error"
    assert "out of range" in captured.err


def test_deeply_nested_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000))
    code = cli.main(["point"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid JSON" in captured.err


def test_deep_input_is_echoed_in_its_report(capsys, tmp_path):
    # The serializer takes one frame per level, as the JSON decoder does, so
    # any input that parses can be echoed by its error report.
    spec = dict(T456, weights=json.loads("[" * 700 + "]" * 700))
    code, doc = run_doc(capsys, ["point", "--input", write_spec(tmp_path, spec)])
    assert code == 2
    assert doc["message"] == "weights must be a list of three numbers"


def test_bad_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{nope"))
    code = cli.main(["point"])
    capsys.readouterr()
    assert code == 2
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + json.dumps(T456)))
    assert cli.main(["point"]) == 2
    assert capsys.readouterr().err == (
        "sf: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)\n")


def test_triangle_spec_validation(capsys, tmp_path):
    both = {"triangle": {"sides": [3, 4, 5], "vertices": [[0, 0], [1, 0], [0, 1]]},
            "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input", write_spec(tmp_path, both)])
    assert code == 2
    flat = {"triangle": {"vertices": [[0, 0], [1, 0], [2, 0]]},
            "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input", write_spec(tmp_path, flat)])
    assert code == 2


# ---------------------------------------------------------------------------
# convert

def test_convert_trilinear_incenter(capsys):
    code, doc = run_doc(capsys, ["convert", "--input",
                                 corpus_path("convert_trilinear_incenter.json")])
    assert code == 0
    assert doc["count"] == 1
    bary = doc["points"][0]["barycentric"]
    # incenter: barycentric proportional to the side lengths (3,4,5)
    assert bary[1] / bary[0] == pytest.approx(4 / 3, rel=1e-12)
    assert bary[2] / bary[0] == pytest.approx(5 / 3, rel=1e-12)


def test_convert_far_point_keeps_its_barycentrics(capsys, tmp_path):
    """A barycentric or trilinear triple is reported as itself, normalized,
    not read back from the point's xy: for a point 1e13 out, the read-back
    lost most of its digits ([10001537079900.955, -10001537079900.955, 0]).
    The trilinear triple is 60 times the barycentric one over the sides."""
    for kind, values in (("barycentric", [1, -1, 1e-13]),
                         ("trilinear", [15, -12, 1e-12])):
        spec = {"triangle": {"sides": [4, 5, 6]},
                "coords": {"kind": kind, "values": values}}
        code, doc = run_doc(capsys, ["convert", "--input",
                                     write_spec(tmp_path, spec)])
        assert code == 0
        assert doc["points"][0]["barycentric"] == [1e13, -1e13, 1], kind


def test_convert_tripolar_two_points(capsys):
    code, doc = run_doc(capsys, ["convert", "--input",
                                 corpus_path("convert_tripolar_two.json")])
    assert code == 0
    assert doc["count"] == 2
    s0 = doc["points"][0]["scale"]
    s1 = doc["points"][1]["scale"]
    assert 0 < s0 < s1


def test_convert_tripolar_circumcenter_single(capsys, tmp_path):
    spec = {"triangle": {"vertices": [[0, 0], [3, 0], [0, 4]]},
            "coords": {"kind": "tripolar", "values": [1, 1, 1]}}
    code, doc = run_doc(capsys, ["convert", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["count"] == 1
    assert doc["points"][0]["xy"] == [pytest.approx(1.5), pytest.approx(2.0)]
    assert doc["points"][0]["scale"] == pytest.approx(2.5, rel=1e-12)


def test_convert_unrealizable_tripolar(capsys, tmp_path):
    spec = {"triangle": {"sides": [2, 2, 2]},
            "coords": {"kind": "tripolar", "values": [10, 1, 1]}}
    code, doc = run_doc(capsys, ["convert", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 3
    assert doc["status"] == "error"


def test_convert_tripolar_needle_and_sliver(capsys, tmp_path):
    # realizable triples a distance re-validation used to reject (exit 3)
    cases = (((1.1883541646654383e-06, 0.022229017803980802,
               0.02222880556815606),
              (0.02117751591768509, 0.014009530069013608,
               0.014009866036274793)),
             ((0.6595322558449519, 5.440659001432983e-06, 0.6595362667903908),
              (0.024439890587565873, 0.04787645348532656,
               0.024439450798186397)))
    for sides, values in cases:
        spec = {"triangle": {"sides": list(sides)},
                "coords": {"kind": "tripolar", "values": list(values)}}
        code, doc = run_doc(capsys, ["convert", "--input",
                                     write_spec(tmp_path, spec)])
        assert code == 0
        assert doc["count"] >= 1
        want = [v / sum(values) for v in values]
        for point in doc["points"]:
            tp = point["tripolar"]
            assert [v / sum(tp) for v in tp] == pytest.approx(want, rel=1e-6)


def test_convert_bad_kind(capsys, tmp_path):
    spec = {"triangle": {"sides": [3, 4, 5]},
            "coords": {"kind": "polar", "values": [1, 1, 1]}}
    code, doc = run_doc(capsys, ["convert", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2


def test_convert_vertex_distances_give_the_vertex(capsys, tmp_path):
    """The distances of each vertex convert back to that vertex with scale
    1; a ratio off by 1e-6 names no point (exit 3)."""
    vertices = [[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]
    for i, v in enumerate(vertices):
        values = [math.dist(v, w) for w in vertices]
        spec = {"triangle": {"vertices": vertices},
                "coords": {"kind": "tripolar", "values": values}}
        code, doc = run_doc(capsys, ["convert", "--input",
                                     write_spec(tmp_path, spec)])
        assert code == 0
        assert [(p["xy"], p["scale"]) for p in doc["points"]] == [(v, 1)]
        values[(i + 1) % 3] *= 1.0 + 1e-6
        code, doc = run_doc(capsys, ["convert", "--input",
                                     write_spec(tmp_path, spec)])
        assert (code, doc["message"]) == (
            3, "distance ratios are inconsistent with a vertex")


def test_convert_tripolar_refusals_exit_2(capsys, tmp_path):
    """An all-zero triple, and a scale to the vertex distances that
    overflows: on a vertex (one zero) and off it."""
    overflow = "the scale from the tripolar triple to the vertex distances " \
        "overflows"
    for sides, values, message in (
            ([4, 5, 6], [0, 0, 0], "tripolar distances must not all be zero"),
            ([4, 5, 6], [0, 6e-310, 5e-310], overflow),
            ([4e12, 5e12, 6e12], [1e-301, 1e-301, 1e-301], overflow)):
        spec = {"triangle": {"sides": sides},
                "coords": {"kind": "tripolar", "values": values}}
        code, doc = run_doc(capsys, ["convert", "--input",
                                     write_spec(tmp_path, spec)])
        assert (code, doc["message"]) == (2, message)


def test_homogeneous_triples_are_scale_free(capsys, tmp_path):
    """A triple is summed or inverted only after it is scaled by the power
    of two that puts its largest magnitude in [1, 2), so its scale changes
    no point, and a power of two changes no bit."""
    def run_ok(command, spec):
        code, doc = run_doc(capsys, [command, "--input",
                                     write_spec(tmp_path, spec)])
        assert code == 0, doc.get("message")
        return doc

    def convert(kind, values):
        return run_ok("convert", {"triangle": {"sides": [4, 5, 6]},
                                  "coords": {"kind": kind, "values": values}})

    doc = convert("barycentric", [1e308, 1e308, 1])
    assert doc["points"][0]["xy"] == [1.6875, 2.4803918541230536]
    assert doc["values_normalized"][:2] == [0.5, 0.5]
    assert (convert("barycentric", [1e308] * 3)["points"]
            == convert("barycentric", [1, 1, 1])["points"])
    doc = convert("trilinear", [1e308, 1e308, 1])
    assert doc["points"][0]["xy"] == [1.5, 2.2047927592204921]
    assert (convert("barycentric", [1, -1, 1e-13])["values_normalized"]
            == pytest.approx([1e13, -1e13, 1], rel=1e-15))

    for kind, values in (("barycentric", [0.25, -0.5, 0.875]),
                         ("trilinear", [0.3, 0.7, -0.1]),
                         ("tripolar", [1.0, 1.2, 0.9])):
        base = convert(kind, values)
        for j in (-1000, -40, 1, 900):
            doc = convert(kind, [math.ldexp(v, j) for v in values])
            assert doc["values_normalized"] == base["values_normalized"]
            for p in doc["points"]:
                if kind == "tripolar":
                    p["scale"] = math.ldexp(p["scale"], j)
            assert doc["points"] == base["points"]

    for k in (1.0, 5e153, 1.1e154):
        doc = run_ok("point", {"triangle": {"vertices": [
            [0, 0], [k, 0], [k / 2, 0.8660254037844386 * k]]},
            "weights": [1, 1, 1]})
        assert doc["status"] == "interior"
        assert doc["point"]["xy"] == pytest.approx(
            [0.5 * k, 0.28867513459481287 * k], rel=1e-14)
    doc = run_ok("point", {"triangle": {"sides": [1e-10] * 3},
                           "weights": [1e308] * 3})
    assert doc["weights_normalized"] == [1 / 3] * 3


def test_verdicts_keep_over_triangle_scales(capsys, tmp_path):
    """A triangle, given by its vertices or its sides, scaled by 10^k,
    |k| <= 150, gets the same exit code, status and point count from every
    command that takes one, and the same points up to the scale."""
    rng = random.Random(1901)
    svg = str(tmp_path / "scaled.svg")
    for command in ("point", "minimize", "simulate", "convert", "render"):
        for i in range(6):
            vertices = [[rng.uniform(-1, 1), rng.uniform(-1, 1)]
                        for _ in "ABC"]
            sides = [math.dist(vertices[j - 2], vertices[j - 1])
                     for j in range(3)]
            spec = {"weights": [10.0 ** rng.uniform(-1, 1) for _ in "abc"]}
            if command == "convert":
                spec = {"coords": {
                    "kind": rng.choice(("barycentric", "trilinear",
                                        "tripolar")),
                    "values": [rng.uniform(0.1, 1.0) for _ in "abc"]}}
            elif command == "render":
                spec.update(svg_path=svg, layers={"apollonius": True})
            verdicts = set()
            for k in (1.0, 1e-150, 1e-100, 1e100, 1e150):
                spec["triangle"] = (
                    {"vertices": [[x * k, y * k] for x, y in vertices]}
                    if i % 2 else {"sides": [v * k for v in sides]})
                code, doc = run_doc(capsys, [command, "--input",
                                             write_spec(tmp_path, spec)])
                points = [p["xy"] for p in doc.get("points", [])]
                if "point" in doc:
                    points.append(doc["point"]["xy"])
                verdicts.add((code, doc["status"], len(points)))
                if k == 1.0:
                    unit = points
                for p, q in zip(points, unit):
                    assert [v / k for v in p] == pytest.approx(q, rel=1e-9,
                                                               abs=1e-9)
            assert len(verdicts) == 1, (command, vertices, spec, verdicts)


# Report keys whose floats are points, other lengths and inverse lengths
# (a trilinear triple is a barycentric one over the sides), and the one
# whose floats are unit directions; a float under none of them, nor under
# a key of one, is dimensionless.
KEY_KINDS = {
    **dict.fromkeys(("xy", "vertices", "erected_apexes", "x"), "point"),
    **dict.fromkeys(("weighted_perimeter", "cost", "altitude_lengths",
                     "weighted_costs", "tripolar", "scale"), "length"),
    "trilinear": "inverse", "direction": "direction"}


def assert_scaled(unit, doc, f, turn=False, kind=None, path="report"):
    """doc is unit with each point p mapped to f p, turned a quarter first
    when turn is set, each direction turned likewise, each other length
    times f, each inverse length over f and every other leaf equal, bit
    for bit; messages, which print lengths, are skipped."""
    if isinstance(unit, dict):
        assert list(doc) == list(unit), path
        for key in unit:
            if key != "message":
                assert_scaled(unit[key], doc[key], f, turn,
                              KEY_KINDS.get(key, kind), path + "." + key)
    elif (turn and kind in ("point", "direction")
          and isinstance(unit[0], float)):
        g = f if kind == "point" else 1.0
        assert doc == [-unit[1] * g, unit[0] * g], (path, unit, doc)
    elif isinstance(unit, list):
        assert len(doc) == len(unit), path
        for i, (u, d) in enumerate(zip(unit, doc)):
            assert_scaled(u, d, f, turn, kind, "%s[%d]" % (path, i))
    elif isinstance(unit, float):
        factor = {"point": f, "length": f, "inverse": 1.0 / f}.get(kind, 1.0)
        assert doc == unit * factor, (path, unit, doc, factor)
    else:
        assert doc == unit, (path, unit, doc)


def _sin_at(v, p, q):
    """|sin| of the angle at v between the rays to p and to q."""
    (x1, y1), (x2, y2) = (p[0] - v[0], p[1] - v[1]), (q[0] - v[0], q[1] - v[1])
    return abs(x1 * y2 - y1 * x2) / math.hypot(x1, y1) / math.hypot(x2, y2)


def test_short_side_family_keeps_its_report_at_both_ends_of_the_range(
        tmp_path):
    """The short-side family A = (0, 0), B = (r, 0), C = (u r, 1), r =
    10^U(-11.5, -4), u = U(-0.5, 1.5), weights e^U(-2, 2), scaled by 2^k
    for k in {-510, -492, 400, 500}, near both ends of the accepted
    diameters: every command that takes a triangle gives the unit-scale
    exit code and report, each length times 2^k and each dimensionless
    field equal, and render the same SVG.  Those weights leave no closed
    orbit, so 100 more draws take the weights that make a random interior
    point F the orbit point (the sine ratios at F), and simulate launches
    from the orbit.  Each draw is given by its vertices and, as a second
    input form, by its three side lengths, each form against its own
    unit-scale report.  A side's square in world units, about 1e-330 at
    2^-510, would underflow; every foot, area and height is taken at unit
    size, and triangle_from_sides places A by quotients of exact ints,
    which no scale over- or underflows."""
    rng = random.Random(1)
    svg = tmp_path / "scaled.svg"
    for i in range(400):
        r, u = 10.0 ** rng.uniform(-11.5, -4), rng.uniform(-0.5, 1.5)
        A, B, C = vertices = [(0.0, 0.0), (r, 0.0), (u * r, 1.0)]
        weights = [math.exp(rng.uniform(-2, 2)) for _ in "abc"]
        side = rng.choice("abc")
        q1, q2 = {"a": (B, C), "b": (C, A), "c": (A, B)}[side]
        turn = rng.uniform(-1.2, 1.2)
        nx, ny = q1[1] - q2[1], q2[0] - q1[0]    # inward: CCW vertices
        simulate = {"weights": weights, "steps": 6, "start": {
            "side": side, "param": rng.uniform(0.05, 0.95),
            "direction": [nx * math.cos(turn) - ny * math.sin(turn),
                          nx * math.sin(turn) + ny * math.cos(turn)]}}
        if i >= 300:
            g = [rng.expovariate(1.0) for _ in "abc"]
            F = [sum(gi * v[j] for gi, v in zip(g, vertices)) / sum(g)
                 for j in (0, 1)]
            kap_c = _sin_at(B, F, C) / _sin_at(A, F, C)
            kap_a = _sin_at(C, F, A) / _sin_at(B, F, A)
            weights = [1.0, 1.0 / kap_c, 1.0 / kap_c / kap_a]
            simulate = {"weights": weights, "steps": 6}
        jobs = (
            ("point", {"weights": weights}),
            ("minimize", {"weights": weights}),
            ("simulate", simulate),
            ("convert", {"coords": {
                "kind": rng.choice(("barycentric", "trilinear", "tripolar")),
                "values": [rng.uniform(0.1, 1.0) for _ in "abc"]}}),
            ("render", {"weights": weights, "svg_path": str(svg),
                        "layers": {"apollonius": True}}))
        sides = [math.dist(B, C), math.dist(C, A), math.dist(A, B)]
        for (command, spec), form in itertools.product(jobs, ("vertices",
                                                              "sides")):
            reports = []
            for k in (0, -510, -492, 400, 500):
                f = math.ldexp(1.0, k)
                triangle = (
                    {"vertices": [[x * f, y * f] for x, y in vertices]}
                    if form == "vertices"
                    else {"sides": [v * f for v in sides]})
                doc, code = cli.run_spec(command,
                                         dict(spec, triangle=triangle))
                doc.pop("input")
                reports.append((f, code, doc, svg.read_bytes()
                                if command == "render" and code == 0
                                else None))
            _, code, unit, picture = reports[0]
            for f, *scaled in reports[1:]:
                assert (scaled[0], scaled[2]) == (code, picture), (
                    command, form, vertices, weights, f, scaled[1])
                assert_scaled(unit, scaled[1], f)


def _similarity(k, turn):
    """The map p -> 2^k J p, J the quarter turn, where turn is set, and p
    -> 2^k p otherwise; a direction (length=False) is only turned."""
    f = math.ldexp(1.0, k)

    def apply(p, length=True):
        g = f if length else 1.0
        return [-p[1] * g, p[0] * g] if turn else [p[0] * g, p[1] * g]
    return apply


def _map_points(spec, m):
    """spec with every input point mapped by m: the triangle's vertices,
    the river's points and, as a direction, a simulate start's."""
    if "triangle" in spec:
        spec = dict(spec, triangle={
            "vertices": [m(v) for v in spec["triangle"]["vertices"]]})
    if "start" in spec:
        spec = dict(spec, start=dict(
            spec["start"], direction=m(spec["start"]["direction"], False)))
    if "river" in spec:
        r = spec["river"]
        spec = dict(spec, river=dict(r, a=m(r["a"]), b=m(r["b"]),
                                     line=[m(q) for q in r["line"]]))
    return spec


def _symmetry_jobs(rng, draws):
    """(command, spec) pairs, draws of each kind that takes points: point,
    minimize, simulate from the orbit and from an inward start, convert of
    each kind (tripolar also with a zero coordinate, a vertex's distances)
    and river.  Vertices are uniform in [-1, 1]^2, half of them clockwise;
    on odd draws the weights are the sine ratios of a random interior
    point, which makes it the orbit point."""
    def square():
        return [rng.uniform(-1, 1), rng.uniform(-1, 1)]

    def inside(t):
        g = [rng.expovariate(1.0) for _ in "ABC"]
        return [sum(gi * v[j] for gi, v in zip(g, t.vertices)) / sum(g)
                for j in (0, 1)]

    for i in range(draws):
        vertices = [square() for _ in "ABC"]
        t = geometry.Triangle(*vertices)
        A, B, C = t.vertices
        weights = [math.exp(rng.uniform(-1, 1)) for _ in "abc"]
        if i % 2:
            F = inside(t)
            kap_c = _sin_at(B, F, C) / _sin_at(A, F, C)
            kap_a = _sin_at(C, F, A) / _sin_at(B, F, A)
            weights = [1.0, 1.0 / kap_c, 1.0 / kap_c / kap_a]
        side, param = rng.choice("abc"), rng.uniform(0.05, 0.95)
        q1, q2 = t.side_segment(side)
        start = {"side": side, "param": param,
                 "direction": [v - (p + param * (q - p))
                               for v, p, q in zip(inside(t), q1, q2)]}
        kind = ("barycentric", "trilinear", "tripolar", "vertex")[i % 4]
        values = [rng.uniform(-1, 1) for _ in "abc"]
        if kind in ("tripolar", "vertex"):
            j = rng.randrange(3)
            p = t.vertices[j] if kind == "vertex" else square()
            factor = math.exp(rng.uniform(-1, 1))
            values = [factor * math.dist(p, v) for v in t.vertices]
            if kind == "vertex":
                values[j] = rng.choice((0.0, 1e-14, 1e-13)) * max(values)
            kind = "tripolar"
        a, b, q1, q2 = square(), square(), square(), square()

        def side_of(p):
            return ((q2[0] - q1[0]) * (p[1] - q1[1])
                    - (q2[1] - q1[1]) * (p[0] - q1[0]) > 0)
        while side_of(b) != side_of(a):
            b = square()
        lam = [math.exp(rng.uniform(-1, 1)) for _ in "12"]
        job = {"triangle": {"vertices": vertices}, "weights": weights,
               "steps": rng.randint(1, 6)}
        yield from (
            ("point", {"triangle": job["triangle"], "weights": weights}),
            ("minimize", {"triangle": job["triangle"], "weights": weights}),
            ("simulate", job),
            ("simulate", dict(job, start=start)),
            ("convert", {"triangle": job["triangle"],
                         "coords": {"kind": kind, "values": values}}),
            ("river", {"river": {"a": a, "b": b, "line": [q1, q2],
                                 "lam1": lam[0], "lam2": lam[1]}}))


def test_reports_map_bit_for_bit_under_quarter_turns_and_power_of_two_scales():
    """Each job that takes points, rerun with every input point mapped by
    (x, y) -> 2^k (-y, x) and by (x, y) -> 2^k (x, y), k = U{-300..300},
    gets the same exit code and status, and the same report with each
    point mapped alike, each direction turned, each length times 2^k and
    each raw trilinear over 2^k, bit for bit: the triangle's scale is a
    power of two, and its orientation, area and tilde numerators come from
    an exact cross product, which a quarter turn keeps.  render is left
    out: a quarter turn turns its picture, and
    test_render_is_the_same_at_every_power_of_two_scale pins its 2^k."""
    rng = random.Random(12)
    answered = collections.Counter()
    for command, spec in _symmetry_jobs(rng, 400):
        doc, code = cli.run_spec(command, spec)
        doc.pop("input")
        answered[command] += code == 0
        k = rng.randint(-300, 300)
        for turn in (True, False):
            mapped, mapped_code = cli.run_spec(
                command, _map_points(spec, _similarity(k, turn)))
            mapped.pop("input")
            assert mapped_code == code, (command, k, turn, doc, mapped)
            assert_scaled(doc, mapped, math.ldexp(1.0, k), turn)
    # Most draws get a report, not a refusal, from every command.
    assert min(answered.values()) > 200, answered


def test_verdicts_keep_over_translations():
    """500 `point` jobs of the random set-up, shifted by (1, -0.7) times
    1e3, 1e6 and 1e9 diameters, keep their exit code, status and
    `orbit.in_sides`: the triangle's scale does not depend on where it
    sits."""
    rng = random.Random(2201)
    for _ in range(500):
        t, w = sample_random_setup(rng)
        verdicts = set()
        for shift in (0.0, 1e3, 1e6, 1e9):
            dx, dy = shift * t.diameter, -0.7 * shift * t.diameter
            doc, code = cli.run_spec("point", {
                "triangle": {"vertices": [[x + dx, y + dy]
                                          for x, y in t.vertices]},
                "weights": list(w)})
            verdicts.add((code, doc["status"],
                          doc.get("orbit", {}).get("in_sides")))
        assert len(verdicts) == 1, (t, w, verdicts)


def test_sides_get_the_verdict_of_the_vertices_placed_for_them(tmp_path):
    """A triangle given by its sides and the same triangle given by the
    vertices triangle_from_sides places for it get the same report from
    `point`, `minimize`, `simulate` (explicit start), `convert` (tripolar)
    and `render`, and the same SVG, none of them exit 1.  Half the triples
    are slivers, relative slack (a + b - c) / (a + b) = 10^U(-15.5, -11):
    Triangle's area rule alone decides whether they are degenerate."""
    rng = random.Random(2202)
    svg = tmp_path / "form.svg"
    for i in range(200):
        if i % 2:
            a, b = math.exp(rng.uniform(-1, 1)), math.exp(rng.uniform(-1, 1))
            sides = [a, b, (a + b) * (1.0 - 10.0 ** rng.uniform(-15.5, -11))]
            rng.shuffle(sides)
        else:
            t = sample_random_setup(rng)[0]
            sides = [t.a, t.b, t.c]
        vertices = [list(v) for v in triangle_from_sides(*sides).vertices]
        weights = [math.exp(rng.uniform(-1, 1)) for _ in "abc"]
        values = [math.exp(rng.uniform(-1, 1)) for _ in "abc"]
        for command, spec in (
                ("point", {"weights": weights}),
                ("minimize", {"weights": weights}),
                ("simulate", {"weights": weights, "steps": 6, "start": {
                    "side": "a", "param": 0.5, "direction": [0, 1]}}),
                ("convert", {"coords": {"kind": "tripolar",
                                        "values": values}}),
                ("render", {"weights": weights, "svg_path": str(svg),
                            "layers": {"apollonius": True}})):
            reports = []
            for triangle in ({"sides": sides}, {"vertices": vertices}):
                doc, code = cli.run_spec(command, dict(spec,
                                                       triangle=triangle))
                assert code != 1, (command, sides, doc)
                doc.pop("input")
                reports.append((code, doc, svg.read_bytes()
                                if command == "render" and code == 0 else None))
            assert reports[0] == reports[1], (command, sides, reports)


def test_render_is_the_same_at_every_power_of_two_scale(tmp_path):
    """The corpus renders, with the triangle scaled by 2^k down to 2^-500,
    write the SVG that k = 0 writes: the canvas fits any accepted
    triangle's box, whose width and height are never 0."""
    for name in ("render_plain.json", "render_apollonius.json"):
        spec = corpus_spec(name)
        svgs = set()
        for k in (0, -500, -70, 70, 400):
            triangle = {key: [[v * 2.0 ** k for v in p] if isinstance(p, list)
                              else p * 2.0 ** k for p in value]
                        for key, value in spec["triangle"].items()}
            path = tmp_path / ("%s.%d.svg" % (name, k))
            doc, code = cli.run_spec("render", dict(
                spec, triangle=triangle, svg_path=str(path)))
            assert code == 0, (name, k, doc)
            svgs.add(path.read_bytes())
        assert len(svgs) == 1, name


# ---------------------------------------------------------------------------
# simulate

def test_simulate_default_orbit(capsys):
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 corpus_path("simulate_default.json")])
    assert code == 0
    assert doc["periodic"] is True
    assert len(doc["trajectory"]) == 4
    assert doc["closure"]["side_match"] is True
    assert doc["closure"]["param_error"] < 1e-8
    assert doc["closure"]["direction_error"] < 1e-8
    for state in doc["trajectory"]:
        assert state["side"] in "abc"
        assert 0.0 < state["param"] < 1.0
        dx, dy = state["direction"]
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-12)


def test_simulate_explicit_start(capsys):
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 corpus_path("simulate_explicit.json")])
    assert code == 0
    assert doc["steps"] == 4
    assert len(doc["trajectory"]) == 5


def test_simulate_direction_length_is_irrelevant(capsys, tmp_path):
    """A start direction gives the same trajectory at any length, one whose
    norm overflows `math.hypot` too."""
    runs = []
    for d in ([1e-300, 1e-300], [1, 1], [1e300, 1e300], [1.7e308, 1.7e308]):
        spec = dict(T456, start={"side": "a", "param": 0.5, "direction": d})
        runs.append(run_doc(capsys, ["simulate", "--input",
                                     write_spec(tmp_path, spec)]))
    ref_code, ref = runs[1]
    assert ref_code == 0
    for code, doc in runs:
        assert code == ref_code
        assert doc["periodic"] == ref["periodic"]
        assert ([s["side"] for s in doc["trajectory"]]
                == [s["side"] for s in ref["trajectory"]])
        for s, r in zip(doc["trajectory"], ref["trajectory"]):
            for got, want in zip(s["direction"], r["direction"]):
                assert abs(got - want) <= 4 * EPS, (got, want)


def test_simulate_step_cap(capsys, tmp_path):
    spec = dict(T456, steps=cmd_simulate.MAX_SIMULATE_STEPS + 1)
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2
    assert doc["message"] == "steps must be at most 10000"
    spec["steps"] = 12
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert len(doc["trajectory"]) == 13


def test_simulate_vertex_hit(capsys, tmp_path):
    t = {"vertices": [[0, 0], [4, 0], [1, 3]]}
    # from the midpoint of AB straight at C
    spec = {"triangle": t, "weights": [1, 1, 1],
            "start": {"side": "c", "param": 0.5, "direction": [-1, 3]}}
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 4
    assert doc["status"] == "error"
    assert doc["message"].startswith("step 1:")


ESCAPED = "ray escaped the triangle (not an inward direction?)"


def _first_step(vertices, param, direction):
    doc, code = cli.run_spec("simulate", {
        "triangle": {"vertices": vertices}, "weights": [1, 1, 1], "steps": 1,
        "start": {"side": "a", "param": param, "direction": direction}})
    if code:
        return code, doc["message"]
    return code, doc["trajectory"][1]["side"], doc["trajectory"][1]["param"]


def test_simulate_step_leaves_through_the_wall_it_faces():
    """A start 5e-13 up side a of a thin triangle, aimed at (-1, 1), meets
    side c near A, and one 5.25e-13 up a needle meets it three quarters
    along; a direction along side a runs into its end, and one that points
    out of the triangle, by however little, is refused."""
    thin = [[0, 1e-3], [0, 0], [1, 0]]
    needle = [[0, 2.1e-12], [0, 0], [1, 0]]
    assert _first_step(thin, 5e-13, [-1, 1]) == (0, "c", 0.9999999995000001)
    assert _first_step(thin, 5e-12, [-1, 1]) == (0, "c", 0.9999999949999999)
    assert _first_step(needle, 5.25e-13, [-1, 1]) == (0, "c", 0.75)
    t = [[1, 3], [0, 0], [4, 0]]
    for direction, want in (
            ([1, 0], (4, "step 1: trajectory hit an endpoint of side b")),
            ([-1, 0], (4, "step 1: trajectory hit an endpoint of side c")),
            ([0, -1], (2, ESCAPED)),
            ([1, -1e-20], (2, ESCAPED))):
        assert _first_step(t, 0.25, direction) == want, direction


def test_errors_raised_in_the_core_map_to_exit_codes(capsys, tmp_path):
    # IdealPoint reaches run_spec; TotalInternalReflection is caught per step
    cases = (
        ("convert", {"triangle": {"sides": [3, 4, 5]},
                     "coords": {"kind": "barycentric", "values": [1, -1, 0]}},
         3, "coordinate sum is zero: point at infinity"),
        ("simulate", {"triangle": {"sides": [4, 5, 6]}, "weights": [1, 3, 1],
                      "steps": 20,
                      "start": {"side": "a", "param": 0.5,
                                "direction": [math.cos(0.1), math.sin(0.1)]}},
         4, "step 3: required departure sine 1.7857 exceeds 1"),
    )
    for command, spec, exit_code, message in cases:
        code, doc = run_doc(capsys, [command, "--input",
                                     write_spec(tmp_path, spec)])
        assert code == exit_code
        assert doc["status"] == "error"
        assert doc["message"] == message


def test_simulate_degenerate_needs_start(capsys, tmp_path):
    spec = {"triangle": {"vertices": [[0, 0], [6, 0], [5.2, 1.1]]},
            "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 3
    assert "explicit start" in doc["message"]


def test_simulate_needs_start_when_a_foot_is_outside(capsys, tmp_path):
    # The orbit point is interior but one pedal foot lies beyond a side
    # (tA = 1.034; tB = -0.034 on its mirror image): no closed orbit.
    for c in ([3, 2], [7, 2]):
        spec = {"triangle": {"vertices": [[0, 0], [10, 0], c]},
                "weights": [2, 2, 1]}
        path = write_spec(tmp_path, spec)
        code, doc = run_doc(capsys, ["point", "--input", path])
        assert (code, doc["status"], doc["orbit"]["in_sides"]) == (
            0, "interior", False)
        code, doc = run_doc(capsys, ["simulate", "--input", path])
        assert code == 3, c
        assert doc["message"] == (
            "no closed orbit to launch from (a foot of the interior point "
            "lies outside its side); provide an explicit start state")


def test_simulate_bad_start(capsys, tmp_path):
    spec = {"triangle": {"sides": [4, 5, 6]}, "weights": [1, 1, 1],
            "start": {"side": "d", "param": 0.5, "direction": [1, 0]}}
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2


# ---------------------------------------------------------------------------
# minimize

def test_relative_gap_is_the_same_at_every_scale():
    # Both costs scale by the same power of two, so their relative gap
    # keeps every bit; a floor under the divisor would move it.
    sides = [3.7138938812756743, 4.632687675887856, 4.109865499644238]
    weights = [1.1019600192980974, 1.112860152054027, 0.8327644296199066]
    gaps = []
    for side_exp, weight_exp in ((0, 0), (-500, -515)):
        doc, code = cli.run_spec("minimize", {
            "triangle": {"sides": [math.ldexp(s, side_exp) for s in sides]},
            "weights": [math.ldexp(w, weight_exp) for w in weights]})
        assert code == 0
        gaps.append(doc["constructed"]["relative_gap"])
    assert gaps[0] != 0.0
    assert gaps[1] == gaps[0]


def test_minimize_agrees_with_construction(capsys):
    code, doc = run_doc(capsys, ["minimize", "--input",
                                 corpus_path("minimize_interior.json")])
    assert code == 0
    assert doc["report"]["converged"] is True
    assert doc["constructed"]["status"] == "interior"
    assert abs(doc["constructed"]["relative_gap"]) < 1e-5
    assert doc["report"]["cost"] == pytest.approx(
        doc["constructed"]["weighted_perimeter"], rel=1e-5)


# ---------------------------------------------------------------------------
# river

def test_river_basic(capsys):
    code, doc = run_doc(capsys, ["river", "--input",
                                 corpus_path("river_basic.json")])
    assert code == 0
    assert 0.0 < doc["x"][0] < 1.0
    assert doc["x"][1] == pytest.approx(0.0, abs=1e-12)
    assert doc["snell_residual"] <= 1e-8


def test_river_opposite_sides(capsys, tmp_path):
    spec = {"river": {"a": [0, 1], "b": [0, -1],
                      "line": [[0, 0], [1, 0]], "lam1": 1, "lam2": 1}}
    code, doc = run_doc(capsys, ["river", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2


def test_river_side_test_is_exact(capsys, tmp_path):
    """A lies 8.3e-10 (in cross product units) on the far side of the
    line, against +9.2e7 for B: the side test is the exact sign of each
    cross product on the input floats, so the points straddle the line and
    the job is exit 2.  The rounded cross products put both on one side,
    and the job read exit 0 with snell_residual 0.0505."""
    spec = {"river": {
        "a": [1467.0780077894767, -4396.342012091518],
        "b": [8924.620290203851, 3170.270262139071],
        "line": [[-86.09692429383054, -48.9567763695413],
                 [3133.1301142147818, -9059.673990867223]],
        "lam1": 1, "lam2": 2}}
    code, doc = run_doc(capsys, ["river", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2
    assert doc["message"] == ("both points must lie strictly on one side "
                              "of the line")


# A lies on the line in floating point, so the optimum is a kink at A.
RIVER_ON_THE_LINE = {"river": {
    "a": [5.324909406839108, -0.12435527704805738],
    "b": [1.8782655732543274, -7.233919195084517],
    "line": [[5.975472342699204, 2.536115370522147],
             [4.422700805839089, -3.8139283661951406]],
    "lam1": 1, "lam2": 1}}


def test_river_point_rounded_onto_the_line_exits_0(capsys, tmp_path):
    code, doc = run_doc(capsys, ["river", "--input",
                                 write_spec(tmp_path, RIVER_ON_THE_LINE)])
    assert code == 0
    assert doc["x"] == RIVER_ON_THE_LINE["river"]["a"]
    assert 0.0 < doc["snell_residual"] < 0.05


def test_river_overflow_exits_2(capsys, tmp_path):
    # A is 1e300 off the line and lam1 about 1e10: the cost overflows.
    spec = {"river": {
        "a": [-749.850587273934, 1e300],
        "b": [-261.9105148140824, 3.4080332050127966],
        "line": [[-847560.9449275407, -515737.66429744],
                 [1e-300, 1.0302370488521454e-05]],
        "lam1": 9613336323.75734, "lam2": 4.685008855662574}}
    assert cli.main(["river", "--input", write_spec(tmp_path, spec)]) == 2
    assert "overflow" in capsys.readouterr().err
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(spec) + "\n")
    code, doc = run_doc(capsys, ["river", "--batch", str(batch)])
    assert code == doc["exit_code"] == 2
    assert doc["message"] == "the crossing's cost or coordinates overflow"


def test_river_verdict_is_scale_invariant(capsys, tmp_path):
    """`river_basic` scaled by 2**k gives the k = 0 crossing and cost, each
    scaled by 2**k exactly.  The side test compares the signs of the two
    cross products; their product underflows to 0 below about 2**-268."""
    base = corpus_spec("river_basic.json")["river"]
    results = {}
    for k in (-500, -330, 0, 330, 1000):
        def scaled(p):
            return [math.ldexp(v, k) for v in p]
        spec = {"river": dict(base, a=scaled(base["a"]), b=scaled(base["b"]),
                              line=[scaled(q) for q in base["line"]])}
        code, doc = run_doc(capsys, ["river", "--input",
                                     write_spec(tmp_path, spec)])
        assert code == 0, (k, doc.get("message"))
        results[k] = ([math.ldexp(v, -k) for v in doc["x"]],
                      math.ldexp(doc["cost"], -k))
    assert all(r == results[0] for r in results.values()), results


# ---------------------------------------------------------------------------
# render

def test_render_writes_svg(capsys, tmp_path):
    out = tmp_path / "scene.svg"
    code, doc = run_doc(capsys, ["render", "--input",
                                 corpus_path("render_plain.json"),
                                 "--svg", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"<?xml")
    assert b"svg" in data
    assert doc["svg_bytes"] == len(data)
    assert doc["construction_status"] == "interior"


def test_render_apollonius_layer(capsys, tmp_path):
    plain = tmp_path / "plain.svg"
    fancy = tmp_path / "fancy.svg"
    run(capsys, ["render", "--input", corpus_path("render_plain.json"),
                 "--svg", str(plain)])
    code, doc = run_doc(capsys, ["render", "--input",
                                 corpus_path("render_apollonius.json"),
                                 "--svg", str(fancy)])
    assert code == 0
    assert b"apollonius" in fancy.read_bytes()
    assert b"apollonius" not in plain.read_bytes()


def test_render_apollonius_near_equal_weights(capsys, tmp_path):
    # lam_A / lam_B = 1.00003 makes one ratio circle huge
    out = tmp_path / "near.svg"
    spec = {"triangle": {"sides": [0.13515914118725295, 0.11016365232450137,
                                   0.09094664997977844]},
            "weights": [0.806206498245, 0.806184505322, 0.653781270011],
            "layers": {"apollonius": True}}
    code, doc = run_doc(capsys, ["render", "--input",
                                 write_spec(tmp_path, spec),
                                 "--svg", str(out)])
    assert code == 0
    assert doc["svg_bytes"] == len(out.read_bytes())


def test_render_apollonius_equal_weights_draws_bisectors(capsys, tmp_path):
    """With equal weights each Apollonius locus is a side's perpendicular
    bisector, drawn as a line across the figure."""
    out = tmp_path / "bisectors.svg"
    spec = dict(T456, layers={"apollonius": True})
    code, doc = run_doc(capsys, ["render", "--input",
                                 write_spec(tmp_path, spec),
                                 "--svg", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert doc["svg_bytes"] == len(data)
    layer = data.split(b'<g id="apollonius">')[1].split(b"</g>")[0]
    assert layer.count(b"<line ") == 3
    assert b"<circle" in layer  # the circumcenter, their common point


def test_render_requires_path(capsys, tmp_path):
    """A render job needs a path that a file can have: none, or one that
    holds a NUL character, is invalid input, alone and as a batch line."""
    code, doc = run_doc(capsys, ["render", "--input",
                                 corpus_path("render_plain.json")])
    assert code == 2
    spec = dict(corpus_spec("render_plain.json"), svg_path="x\u0000.svg")
    message = "output path 'x\\x00.svg' holds a NUL character"
    code, doc = run_doc(capsys, ["render", "--input",
                                 write_spec(tmp_path, spec)])
    assert (code, doc["message"]) == (2, message)
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(dict(spec, command="render")) + "\n")
    code, doc = run_doc(capsys, ["point", "--batch", str(batch)])
    assert (code, doc["exit_code"], doc["message"]) == (2, 2, message)


def test_render_unwritable_path(capsys, tmp_path):
    out = tmp_path / "missing-dir" / "scene.svg"
    code, doc = run_doc(capsys, ["render", "--input",
                                 corpus_path("render_plain.json"),
                                 "--svg", str(out)])
    assert code == 5


def test_inputs_that_would_be_ignored_exit_2(capsys, tmp_path):
    out = str(tmp_path / "scene.svg")
    render = dict(corpus_spec("render_plain.json"), svg_path=out)
    cases = [(["render"], dict(render, layers=layers)) for layers in (
        {"apollonius": "no"}, {"apollonius": 1}, {"apollonius": None},
        {"apolonius": True}, ["apollonius"], "apollonius", None)]
    cases += [([command, "--svg", out], T456)
              for command in ("point", "simulate", "minimize")]
    cases.append((["render", "--svg", out, "--batch",
                   write_spec(tmp_path, render)], None))
    for args, spec in cases:
        if spec is not None:
            args = args + ["--input", write_spec(tmp_path, spec)]
        assert cli.main(args) == 2, args
        assert not os.path.exists(out), args
        capsys.readouterr()
    for layers in ({}, {"apollonius": False}, {"apollonius": True}):
        assert cli.main(["render", "--input", write_spec(
            tmp_path, dict(render, layers=layers))]) == 0


def test_unknown_spec_keys_exit_2(capsys, tmp_path):
    # A misspelled or retired key would otherwise be ignored silently.
    cases = [("simulate", dict(T456, step=12), "step"),
             ("point", dict(T456, coords={"kind": "barycentric",
                                          "values": [1, 1, 1]}), "coords"),
             ("minimize", dict(T456, grid=8, refine_iters=0), "grid"),
             ("river", dict(corpus_spec("river_basic.json"), weights=[1, 1, 1]),
              "weights"),
             ("convert", dict(corpus_spec("convert_trilinear_incenter.json"),
                              steps=3), "steps")]
    for command, spec, key in cases:
        code = cli.main([command, "--input", write_spec(tmp_path, spec)])
        assert code == 2, command
        assert "unknown key %r" % key in capsys.readouterr().err
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(dict(spec, command=command, id=i))
                             + "\n" for i, (command, spec, _) in
                             enumerate(cases)))
    code, out = run(capsys, ["point", "--batch", str(batch)])
    docs = [json.loads(ln) for ln in out.splitlines()]
    assert code == 2
    assert [d["exit_code"] for d in docs] == [2] * len(cases)
    assert [d["message"] for d in docs] == [
        "unknown key %r in job spec" % key for _, _, key in cases]
    # "id" and "command" are accepted on every command, alone or batched.
    code, doc = run_doc(capsys, ["minimize", "--input", write_spec(
        tmp_path, dict(T456, id="j1", command="minimize"))])
    assert code == 0 and doc["status"] == "ok"


# ---------------------------------------------------------------------------
# tolerances, batch

def test_tolerances_are_constants(capsys, tmp_path):
    # The regime verdict is a sign and needs no tolerance.
    assert jobs.TOLERANCES == {"periodicity": 1e-8}
    for flag in (["--tol", "periodicity=0.01"], ["--config", "c.json"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["point", "--input", write_spec(tmp_path, T456)] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_closure_is_billiards_closure(capsys, monkeypatch, tmp_path):
    def state(block):
        return snellfagnano.BilliardState(block["side"], block["param"],
                                          snellfagnano.Point2(
                                              *block["direction"]))

    # a zero threshold must flip the verdict of the closed default orbit
    for tol in (jobs.TOLERANCES["periodicity"], 0.0):
        monkeypatch.setitem(jobs.TOLERANCES, "periodicity", tol)
        for spec in (T456, corpus_spec("simulate_explicit.json")):
            _, doc = run_doc(capsys, ["simulate", "--input",
                                      write_spec(tmp_path, spec)])
            closure = doc["closure"]
            got = (closure["side_match"], closure["param_error"],
                   closure["direction_error"], doc["periodic"])
            assert got == snellfagnano.billiards.closure(
                state(doc["trajectory"][0]), state(doc["trajectory"][-1]),
                tol)
            if spec is T456:
                assert doc["periodic"] is (tol > 0.0)
            assert doc["tolerances"]["periodicity"] == tol


def test_batch_preserves_order_and_codes(capsys):
    code, out = run(capsys, ["point", "--batch", corpus_path("batch.jsonl")])
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [d["command"] for d in lines] == \
        ["point", "river", "convert", "point", "point"]
    assert [d["exit_code"] for d in lines] == [0, 0, 0, 2, 2]
    assert code == 2
    assert lines[0]["status"] == "interior"
    assert lines[3]["message"] == "unknown command 'nope'"


def test_batch_survives_an_internal_error(capsys, monkeypatch, tmp_path):
    def broken(spec):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "river", broken)
    lines = [json.dumps(dict(T456, id=1)),
             json.dumps({"command": "river", "id": 2}),
             json.dumps(dict(T456, id=3))]
    batch = tmp_path / "batch.jsonl"
    batch.write_text("\n".join(lines) + "\n")
    code = cli.main(["point", "--batch", str(batch)])
    captured = capsys.readouterr()
    docs = [json.loads(ln) for ln in captured.out.splitlines()]
    assert [d["input"]["id"] for d in docs] == [1, 2, 3]
    assert [d["exit_code"] for d in docs] == [0, 1, 0]
    assert code == 1
    assert docs[1]["command"] == "river"
    assert docs[1]["status"] == "error"
    assert "RuntimeError" in docs[1]["message"]
    assert "Traceback" in captured.err and "boom" in captured.err


def test_a_handler_defect_is_exit_1_whatever_it_raises(capsys, monkeypatch,
                                                      tmp_path):
    """Only a CliError and the library's GeometryError family map to exit
    codes 2 to 5.  Any other exception out of a handler, KeyError, TypeError,
    ValueError and OSError among them, is a defect in sf: exit 1, one
    traceback and an internal-error report, and a batch goes on."""
    from snellfagnano import construction
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(spec) + "\n" for spec in (
        dict(T456, id=1),
        dict(corpus_spec("river_basic.json"), command="river", id=2),
        dict(T456, id=3))))
    for error in (KeyError, TypeError, ValueError, OSError):
        def broken(t, w):
            raise error("boom")

        monkeypatch.setattr(construction, "snell_fagnano_point", broken)
        message = "internal error: %s: %s" % (error.__name__, error("boom"))
        code = cli.main(["point", "--input", write_spec(tmp_path, T456)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["message"] == message
        assert captured.err.count("Traceback (most recent call last)") == 1
        assert captured.err.endswith("sf: %s\n" % message)

        code = cli.main(["point", "--batch", str(batch)])
        captured = capsys.readouterr()
        docs = [json.loads(ln) for ln in captured.out.splitlines()]
        assert code == 1
        assert [d["input"]["id"] for d in docs] == [1, 2, 3]
        assert [d["exit_code"] for d in docs] == [1, 0, 1]
        assert [d.get("message") for d in docs] == [message, None, message]
        assert captured.err.count("Traceback (most recent call last)") == 2


def test_invalid_triangles_exit_2_with_their_reason(capsys):
    for triangle, message in (
            ({"vertices": [[0, 0], [1, 1], [2, 2]]},
             "vertices are collinear within tolerance (area 0)"),
            ({"sides": [1, 2, 10]},
             "sides (1, 2, 10) violate the strict triangle inequality"),
            ({"sides": [1, 1, 2.0000000001]},
             "sides (1, 1, 2.0000000001) violate the strict triangle "
             "inequality"),
            # 1 + 1e-200 > 1 in exact arithmetic, so these needles are
            # degenerate, not impossible: the exact H of their sides is
            # positive, and their areas stay in the normal range.
            ({"sides": [1, 1, 1e-160]},
             "vertices are collinear within tolerance (area 5e-161)"),
            ({"sides": [1, 1, 1e-200]},
             "vertices are collinear within tolerance (area 5e-201)"),
            ({"sides": [0, 1, 1]}, "side lengths must be positive"),
            ({"vertices": [[0, 0], [1e200, 0], [0, 1e200]]},
             "triangle is too large: its diameter squared overflows"),
            ({"sides": [1e-160, 1e-160, 1e-160]},
             "triangle is too small: its diameter squared underflows")):
        doc, code = cli.run_spec("point", {"triangle": triangle,
                                           "weights": [1, 1, 1]})
        assert (code, doc["message"]) == (2, message)


S456 = {"sides": [4, 5, 6]}
RIVER = {"a": [0, 1], "b": [1, 1], "line": [[0, 0], [1, 0]],
         "lam1": 1, "lam2": 1}

# (command, spec, exit code, message) of refusals, spec checks and library
# refusals alike, each to be reported the same way alone and in a batch.
REFUSALS = (
    ("point", {"triangle": S456, "weights": [1, "x", 1]},
     2, "weights must be a number"),
    ("point", {"triangle": {"vertices": [[0, 0], [1], [0, 1]]},
               "weights": [1, 1, 1]},
     2, "vertex must be an [x, y] pair"),
    ("point", {"triangle": {"vertices": [[0, 0], [1, 0]]},
               "weights": [1, 1, 1]},
     2, "vertices must list three points"),
    ("point", {"triangle": S456, "weights": [1, 0, 1]},
     2, "weights must be strictly positive"),
    ("minimize", {"triangle": S456, "weights": [1, 1, -2]},
     2, "weights must be strictly positive"),
    ("convert", {"triangle": S456}, 2, "spec needs a \"coords\" object"),
    ("convert", {"triangle": S456,
                 "coords": {"kind": "tripolar", "values": [1, -1, 1]}},
     2, "tripolar distances must be >= 0"),
    ("river", {"river": [1, 2]}, 2, "spec needs a \"river\" object"),
    ("river", {"river": dict(RIVER, line=[[0, 0]])},
     2, "river.line must list two points"),
    ("river", {"river": dict(RIVER, lam1=0)},
     2, "leg weights must be positive"),
    ("river", {"river": dict(RIVER, lam2=-1)},
     2, "leg weights must be positive"),
    ("simulate", {"triangle": S456, "weights": [1, 1, 1], "steps": 0},
     2, "steps must be a positive integer"),
    ("simulate", {"triangle": S456, "weights": [1, 1, 1], "start": "a"},
     2, "start must be an object"),
    ("simulate", {"triangle": S456, "weights": [1, 1, 1], "start": {
        "side": "a", "param": 1.5, "direction": [0, 1]}},
     2, "start.param must lie in (0, 1)"),
    ("simulate", {"triangle": S456, "weights": [1, 1, 1], "start": {
        "side": "a", "param": 0.5, "direction": [0, 0]}},
     2, "start.direction must be nonzero"),
    ("simulate", {"triangle": S456, "weights": [1, 1, 1], "start": {
        "side": "a", "param": 0.5, "direction": [0, -1]}},
     2, ESCAPED),
)


def test_refusals_keep_their_exit_code_and_message(capsys, tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(dict(spec, command=command)) + "\n"
                             for command, spec, _, _ in REFUSALS))
    code, out = run(capsys, ["point", "--batch", str(batch)])
    docs = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [(d["exit_code"], d["message"]) for d in docs] == [
        (c, m) for _, _, c, m in REFUSALS]
    for command, spec, exit_code, message in REFUSALS:
        assert cli.main([command, "--input", write_spec(tmp_path, spec)]) \
            == exit_code, (command, spec)
        assert capsys.readouterr().err == "sf: %s\n" % message
    # JSON cannot hold a non-finite number: the decoder refuses it first.
    doc, code = cli.run_spec("point", {"triangle": {"sides": [4, 5, math.inf]},
                                       "weights": [1, 1, 1]})
    assert (code, doc["message"]) == (2, "sides must be finite")
    assert cli.main(["point", "--batch", str(tmp_path / "missing")]) == 5
    assert capsys.readouterr().err.startswith("sf: cannot read batch file:")


def _fuzz_spec(rng, svg_path):
    """A random job of any command, a render writing to svg_path: sides,
    vertices and river coordinates at scales 10^U(-12, 12), weights and leg
    weights 10^U(-6, 6), river points placed on the line as q1 + u (q2 -
    q1), and now and then one river coordinate up to 1e300.  Now and then
    the triangle is the equilateral one at a scale 10^U(-170, 170), a
    convert triple is all zero or has one zero (a vertex's distances, for a
    tripolar triple on vertices), a weight or a leg weight is zero or
    negative, the smallest/largest weight ratio is 10^-U(290, 330), about
    the smallest normal float, and a convert triple or the weights are
    multiplied by 10^k, |k| <= 300."""
    command = rng.choice(("point", "convert", "simulate", "minimize", "river",
                          "render"))
    scale = 10.0 ** rng.uniform(-12.0, 12.0)
    if command == "river":
        q1, q2 = ([rng.uniform(-10, 10) * scale for _ in "xy"] for _ in "12")

        def on_line():
            u = rng.uniform(-2.0, 3.0)
            return [q1[i] + u * (q2[i] - q1[i]) for i in (0, 1)]

        a = on_line()
        b = on_line() if rng.random() < 0.5 else [
            rng.uniform(-10, 10) * scale for _ in "xy"]
        if rng.random() < 0.1:
            rng.choice((a, b, q1, q2))[rng.randrange(2)] = (
                rng.choice((-1, 1)) * 10.0 ** rng.uniform(0.0, 300.0))
        lams = [10.0 ** rng.uniform(-6.0, 6.0) for _ in "12"]
        if rng.random() < 0.1:
            lams[rng.randrange(2)] *= rng.choice((0.0, -1.0))
        return command, {"river": {
            "a": a, "b": b, "line": [q1, q2], "lam1": lams[0],
            "lam2": lams[1]}}
    shape = rng.random()
    if shape < 0.1:
        k = 10.0 ** rng.uniform(-170.0, 170.0)
        triangle = {"vertices": [[0.0, 0.0], [k, 0.0],
                                 [k / 2, 0.8660254037844386 * k]]}
    elif shape < 0.55:
        triangle = {"sides": [scale * rng.uniform(0.1, 1.0) for _ in "abc"]}
    else:
        triangle = {"vertices": [[scale * rng.uniform(-1, 1) for _ in "xy"]
                                 for _ in "ABC"]}
    spec = {"triangle": triangle}
    if command == "convert":
        kind = rng.choice(("barycentric", "trilinear", "tripolar"))
        values = [rng.uniform(-0.5, 1.0) * (scale if kind == "tripolar"
                                            else 1.0) for _ in "abc"]
        zeros = rng.random()
        if zeros < 0.05:
            values = [0.0, 0.0, 0.0]
        elif zeros < 0.2:
            i = rng.randrange(3)
            if kind == "tripolar" and "vertices" in triangle:
                vs = triangle["vertices"]
                values = [math.dist(vs[i], v) for v in vs]
            else:
                values[i] = 0.0
        spec["coords"] = {"kind": kind, "values": values}
    else:
        # Independent weights, or a common scale with bounded ratios.
        w = 10.0 ** rng.uniform(-6.0, 6.0)
        values = [(w * rng.uniform(0.5, 2.0) if rng.random() < 0.5
                   else 10.0 ** rng.uniform(-6.0, 6.0)) for _ in "abc"]
        odd = rng.random()
        if odd < 0.05:
            values[rng.randrange(3)] *= rng.choice((0.0, -1.0))
        elif odd < 0.1:
            ratio = 10.0 ** -rng.uniform(145.0, 165.0)
            values = rng.sample([w / ratio, w, w * ratio], 3)
        spec["weights"] = values
    if rng.random() < 0.2:
        factor = 10.0 ** rng.randint(-300, 300)
        values[:] = [v * factor for v in values]
    if command == "simulate":
        spec["steps"] = rng.randint(1, 12)
    elif command == "render":
        spec["svg_path"] = svg_path
        spec["layers"] = {"apollonius": rng.random() < 0.5}
    return command, spec


def test_random_jobs_never_exit_1(capsys, tmp_path):
    """Exit 1 marks a defect in sf; no valid or invalid job may reach it."""
    rng = random.Random(1501)
    svg_path = str(tmp_path / "fuzz.svg")
    internal = []
    for _ in range(3000):
        command, spec = _fuzz_spec(rng, svg_path)
        if cli._run_job(command, json.dumps(spec), batch=True) == 1:
            internal.append((command, spec))
        capsys.readouterr()
    assert internal == []


def test_only_a_missing_tilde_triangle_exits_3(tmp_path):
    """A point job exits 3 only with status no_tilde_triangle, and a
    minimize or render job never does: over random jobs of every command
    and over the flat family, whose equal-weight needles put the orbit
    point at infinity."""
    svg_path = str(tmp_path / "fuzz.svg")
    rng = random.Random(1502)
    jobs_run = [_fuzz_spec(rng, svg_path) for _ in range(1500)]
    rng = random.Random(7)
    for _ in range(600):
        spec = _flat_family(rng)
        jobs_run += [("point", spec), ("minimize", spec),
                     ("render", dict(spec, svg_path=svg_path))]
    for command, spec in jobs_run:
        doc, code = cli.run_spec(command, spec)
        if command == "point":
            assert code != 3 or doc["status"] == "no_tilde_triangle", spec
        elif command in ("minimize", "render"):
            assert code != 3, (command, spec, doc["message"])


def test_batch_rejects_unhashable_command(capsys, tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(dict(T456, command=["point"])) + "\n")
    code, doc = run_doc(capsys, ["point", "--batch", str(batch)])
    assert code == 2
    assert doc["message"] == "unknown command ['point']"


def test_batch_lines_split_on_newline_only(capsys, tmp_path):
    """A batch is JSON Lines: only "\n" ends a line, so a line separator
    inside a JSON string stays in its line, and "\r\n" endings work."""
    spec = dict(T456, id="a\u2028b\u2029c\x85d")
    line = json.dumps(spec, ensure_ascii=False)
    batch = tmp_path / "batch.jsonl"
    batch.write_bytes((line + "\r\n" + json.dumps(T456) + "\r\n")
                      .encode("utf-8"))
    code, out = run(capsys, ["point", "--batch", str(batch)])
    docs = [json.loads(ln) for ln in out.split("\n")[:-1]]
    assert code == 0
    assert [d["exit_code"] for d in docs] == [0, 0]
    assert docs[0]["input"]["id"] == spec["id"]
    single = tmp_path / "job.json"
    single.write_bytes(line.encode("utf-8"))
    code, doc = run_doc(capsys, ["point", "--input", str(single)])
    assert code == 0 and doc["input"]["id"] == spec["id"]


def test_input_that_is_not_utf8_exits_2(capsys, monkeypatch, tmp_path):
    """Every input is decoded as UTF-8.  An undecodable batch line gets an
    exit-2 report and the other lines run; an undecodable --input file or
    stdin exits 2 with one `sf:` line."""
    bad = b"\xff\xfe" + json.dumps(T456).encode("utf-8")
    reason = ("invalid JSON: 'utf-8' codec can't decode byte 0xff in "
              "position 0: invalid start byte")
    batch = tmp_path / "batch.jsonl"
    batch.write_bytes(bad + b"\n" + json.dumps(T456).encode("utf-8") + b"\n")
    code, out = run(capsys, ["point", "--batch", str(batch)])
    docs = [json.loads(ln) for ln in out.splitlines()]
    assert code == 2
    assert [d["exit_code"] for d in docs] == [2, 0]
    assert docs[0]["message"] == reason
    single = tmp_path / "job.json"
    single.write_bytes(bad)
    assert cli.main(["point", "--input", str(single)]) == 2
    assert capsys.readouterr() == ("", "sf: %s\n" % reason)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad)))
    assert cli.main(["point"]) == 2
    assert capsys.readouterr() == ("", "sf: %s\n" % reason)


def test_compact_single_line(capsys, tmp_path):
    code, out = run(capsys, ["point", "--input", write_spec(tmp_path, T456),
                             "--compact"])
    assert code == 0
    assert out.count("\n") == 1
    json.loads(out)


def test_repeat_runs_byte_identical(capsys, tmp_path):
    args = ["point", "--input", write_spec(tmp_path, T456)]
    _, out1 = run(capsys, args)
    _, out2 = run(capsys, args)
    assert out1 == out2


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def declared_script(name):
    """The console-script entry point `name` from `[project.scripts]`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
        import tomli as tomllib
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert name in scripts, "pyproject.toml declares no %r script" % name
    return importlib.metadata.EntryPoint(name=name, value=scripts[name],
                                         group="console_scripts")


def main_block_call():
    """The name of the function that the `__main__` block of cli.py calls,
    the block's one statement."""
    for node in ast.parse(inspect.getsource(cli)).body:
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            [stmt] = node.body
            assert isinstance(stmt, ast.Expr) and not stmt.value.args
            return stmt.value.func.id
    raise AssertionError("cli.py has no __main__ block")


def test_entry_point_wiring(tmp_path):
    """The declared `sf` entry point is the function `python -m
    snellfagnano.cli` calls, and it runs `sf point` as its own process.

    The child is launched the way a console-script wrapper does it, so the
    test needs no install: it runs from a checkout on PYTHONPATH."""
    ep = declared_script("sf")
    assert (ep.module, ep.attr) == ("snellfagnano.cli", main_block_call())
    assert ep.load() is cli.console
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
        ep.module, ep.attr, ep.attr)
    proc = subprocess.run([sys.executable, "-c", wrapper,
                           "point", "--input", write_spec(tmp_path, T456)],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "interior"


# Runs `python -m snellfagnano.cli` the way runpy does, on the command line
# given to it, with an atexit hook that writes the collector's freeze count
# to stderr as the process ends; the count at start goes to stderr first.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
sys.stderr.write("freeze count %d\\n" % gc.get_freeze_count())
atexit.register(lambda: sys.stderr.write(
    "freeze count %d\\n" % gc.get_freeze_count()))
sys.argv[0] = "sf"
runpy.run_module("snellfagnano.cli", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_heap_at_exit():
    """The process entry leaves every tracked object frozen at exit, so the
    interpreter's final collections skip them, whether `main()` returns, a
    flag exits, or a usage error raises SystemExit(2).  The count at exit
    must exceed the count at start, which is not 0 on every CPython (3.12.1
    starts at 375)."""
    for argv, code in ((["--version"], 0), (["bogus"], 2),
                       (["point", "--input", corpus_path("point_interior.json")],
                        0)):
        proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE] + argv,
                              capture_output=True, text=True,
                              env=checkout_env(), timeout=SUBPROCESS_TIMEOUT)
        assert proc.returncode == code, (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        first, last = lines[0].split(), lines[-1].split()
        assert first[:2] == last[:2] == ["freeze", "count"], argv
        assert int(last[2]) > int(first[2]), argv


def test_main_does_not_freeze(capsys, tmp_path):
    """`main()` is the in-process API: the caller's garbage stays
    collectable after a job, a flag and a usage error."""
    before = gc.get_freeze_count()
    assert run(capsys, ["point", "--input", write_spec(tmp_path, T456)])[0] == 0
    for argv in (["--version"], ["bogus"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_process_entry_broken_pipe_exits_5():
    """A write to stdout that fails because its reader has gone is output
    I/O failure: exit 5 and one `sf:` line on stderr, never a traceback
    or exit 1.  With stdout buffered the write fails only at the flush
    before exit, unbuffered at once; a batch stops at its first failed
    write either way."""
    for buffered in (True, False):
        env = checkout_env()
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        for argv in (["--version"],
                     ["river", "--compact", "--input",
                      corpus_path("river_basic.json")],
                     ["point", "--batch", corpus_path("batch.jsonl")]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "snellfagnano.cli"] + argv,
                    stdout=write_end, stderr=subprocess.PIPE, text=True,
                    env=env, timeout=SUBPROCESS_TIMEOUT)
            finally:
                os.close(write_end)
            assert proc.returncode == 5, (buffered, argv, proc.stderr)
            assert proc.stderr == \
                "sf: cannot write output: [Errno 32] Broken pipe\n", argv


CORPUS_COMMANDS = ("point", "convert", "simulate", "minimize", "river",
                   "render")


def split_batch():
    """A batch that the process entry splits in two: eleven rounds of every
    corpus spec under its command, with distinct ids and relative SVG
    paths, and invalid lines.  One line exits 3, in the first half; one
    exits 4, in the second, ahead of the point line with id "victim"; the
    point line with id "early" is in the first half."""
    corpus = sorted(name[:-len(".json")] for name in os.listdir(CORPUS)
                    if name.endswith(".json"))
    lines = []
    for r in range(11):
        for name in corpus:
            spec = dict(corpus_spec(name + ".json"), id="%d-%s" % (r, name),
                        command=name.split("_")[0])
            if spec["command"] == "render":
                spec["svg_path"] = "%d-%s.svg" % (r, name)
            lines.append(json.dumps(spec).encode("utf-8"))
    missing = {"command": "convert", "id": "missing",
               "triangle": {"sides": [2, 2, 2]},
               "coords": {"kind": "tripolar", "values": [10, 1, 1]}}
    vertex_hit = {"command": "simulate", "id": "vertex-hit",
                  "triangle": {"vertices": [[0, 0], [4, 0], [1, 3]]},
                  "weights": [1, 1, 1],
                  "start": {"side": "c", "param": 0.5, "direction": [-1, 3]}}
    for at, spec in ((5, missing), (20, dict(T456, id="early"))):
        lines.insert(at, json.dumps(spec).encode("utf-8"))
    lines[30:30] = [b"{nope", b"[1, 2]", b'{"command": "nope"}',
                    b"\xff\xfe{}"]
    for at, spec in ((90, vertex_hit), (115, dict(T456, id="victim"))):
        lines.insert(at, json.dumps(spec).encode("utf-8"))
    assert {c.split("_")[0] for c in corpus} == set(CORPUS_COMMANDS)
    assert len(lines) >= 2 * cli.LINES_PER_WORKER
    return b"\n".join(lines) + b"\n"


def run_serial_batch(monkeypatch, capsys, work, batch):
    """stdout, stderr, exit code and SVG bytes of cli.main on batch, run
    in directory work, with os.fork refused: main never splits."""
    def no_fork():
        raise AssertionError("cli.main forked")

    os.makedirs(work)
    (work / "batch.jsonl").write_bytes(batch)
    monkeypatch.chdir(work)
    monkeypatch.setattr(os, "fork", no_fork)
    code = cli.main(["point", "--batch", "batch.jsonl"])
    out, err = capsys.readouterr()
    return out, err, code, svg_files(work)


def svg_files(work):
    return {name: (work / name).read_bytes() for name in os.listdir(work)
            if name.endswith(".svg")}


def test_split_batch_is_byte_identical_to_serial(monkeypatch, capsys,
                                                 tmp_path):
    """Through the process entry a batch above the threshold runs in
    forked workers, and its stdout, exit code and SVGs equal those of the
    serial in-process run.  The child runs under -X dev with unclosed
    files an error, so its stderr, like the serial run's, stays empty."""
    batch = split_batch()
    forked = tmp_path / "forked"
    os.makedirs(forked)
    (forked / "batch.jsonl").write_bytes(batch)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
         "snellfagnano.cli", "point", "--batch", "batch.jsonl"],
        cwd=forked, capture_output=True, env=checkout_env(),
        timeout=SUBPROCESS_TIMEOUT)
    out, err, code, svgs = run_serial_batch(monkeypatch, capsys,
                                            tmp_path / "serial", batch)
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert len(reports) == batch.count(b"\n")
    assert {d["exit_code"] for d in reports} == {0, 2, 3, 4}
    assert {d["command"] for d in reports} == set(CORPUS_COMMANDS)
    assert len(svgs) == 22
    assert (proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"),
            proc.returncode) == (out, err, code) == (out, "", 4)
    assert svg_files(forked) == svgs


# Runs `sf` on the command line given after its own four arguments: the
# entry ("console" or "main"), an action, the id of the batch line it acts
# on and a file for its findings.  The harness reports two usable CPUs
# whatever the machine, so a batch above the threshold splits in two, and
# wraps the point handler: on the line with that id "raise" raises
# RuntimeError, "kill" makes a forked worker kill itself, "cut" makes it
# write part of a line first, "tracekill" raises RuntimeError and makes a
# worker kill itself once the traceback is on stderr, and "interrupt"
# raises KeyboardInterrupt in the parent.  "nofork" makes any os.fork call
# an error, "forkfails" makes it raise OSError, and "tempfails" makes
# tempfile.TemporaryFile raise OSError.  As it ends, the harness writes
# how many forks the parent made and whether a child is left to its
# findings file, and whether `snellfagnano.workers` was loaded to the
# findings file's name plus ".modules".
SPLIT_HARNESS = """
import errno, os, signal, sys, tempfile, traceback
from snellfagnano import cli
entry, action, target, findings = sys.argv[1:5]
del sys.argv[1:5]
parent = os.getpid()
os.sched_getaffinity = lambda pid: {0, 1}
point = cli.HANDLERS["point"]

def handler(spec):
    if spec.get("id") == target:
        if action in ("raise", "tracekill"):
            raise RuntimeError("boom")
        if action in ("kill", "cut") and os.getpid() != parent:
            if action == "cut":
                sys.stdout.write('{"cut short by a full disk')
                sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "interrupt" and os.getpid() == parent:
            raise KeyboardInterrupt
    return point(spec)

cli.HANDLERS["point"] = handler
print_exc = traceback.print_exc

def print_exc_then_die():
    print_exc()
    if action == "tracekill" and os.getpid() != parent:
        sys.stderr.flush()
        os.kill(os.getpid(), signal.SIGKILL)

traceback.print_exc = print_exc_then_die

if action == "tempfails":
    def no_temporary_file(*args, **kwargs):
        raise OSError(errno.ENOSPC, "no temporary file")

    tempfile.TemporaryFile = no_temporary_file
forks = []
fork = os.fork

def counted_fork():
    if action == "nofork":
        raise AssertionError("os.fork called")
    if action == "forkfails":
        raise OSError(errno.EAGAIN, "no fork")
    forks.append(os.getpid())
    return fork()

os.fork = counted_fork
try:
    if entry == "console":
        cli.console()
    else:
        sys.exit(cli.main())
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "a child is left"
    except ChildProcessError:
        left = "no child is left"
    with open(findings, "w") as fh:
        fh.write("%d forks, %s" % (len(forks), left))
    with open(findings + ".modules", "w") as fh:
        fh.write("workers %s" % ("loaded" if "snellfagnano.workers"
                                 in sys.modules else "not loaded"))
"""


def run_split_harness(work, batch, entry, action, target="", stdout=None,
                      buffered=False):
    """(stdout, stderr, exit code, findings, SVGs) of SPLIT_HARNESS on
    batch, run in directory work."""
    os.makedirs(work)
    (work / "batch.jsonl").write_bytes(batch)
    env = checkout_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SPLIT_HARNESS, entry, action, target,
         str(work / "findings"), "point", "--batch", "batch.jsonl"],
        cwd=work, stdout=stdout or subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, timeout=SUBPROCESS_TIMEOUT)
    return (proc.stdout, proc.stderr, proc.returncode,
            (work / "findings").read_text(), svg_files(work))


def test_split_batch_relays_a_workers_traceback_in_order(tmp_path):
    """A defect on a line of the worker's chunk gives the same stdout,
    stderr (its traceback included) and exit code as the serial run."""
    batch = split_batch()
    serial = run_split_harness(tmp_path / "serial", batch, "main", "raise",
                               "victim")
    forked = run_split_harness(tmp_path / "forked", batch, "console",
                               "raise", "victim")
    assert serial[3] == "0 forks, no child is left"
    assert forked[3] == "1 forks, no child is left"
    assert serial[1].count(b"Traceback") == 1
    assert b"RuntimeError: boom" in serial[1]
    assert b'"id":"victim"' in serial[0] and b'"exit_code":1' in serial[0]
    assert forked == serial[:3] + (forked[3], serial[4])


def test_split_batch_survives_a_dead_worker(tmp_path):
    """A worker that dies on a line is not trusted for any of its chunk:
    the parent drops its files and runs the chunk again whole, so every
    line gets its report, in order, and stdout, stderr and the exit code
    (4, from a line in the dead worker's chunk) are the serial run's.  So
    it goes whatever the worker left in its files: every report before
    the line it died on (unbuffered), fewer (buffered), a line written in
    part, or a defect's traceback on stderr but not its report."""
    batch = split_batch()
    killed = run_split_harness(tmp_path / "serial", batch, "main", "kill",
                               "victim")
    defect = run_split_harness(tmp_path / "serial-defect", batch, "main",
                               "tracekill", "victim")
    assert killed[2] == defect[2] == 4
    assert defect[1].count(b"Traceback") == 1
    for action, buffered, serial in (("kill", False, killed),
                                     ("kill", True, killed),
                                     ("cut", False, killed),
                                     ("tracekill", False, defect)):
        forked = run_split_harness(
            tmp_path / ("%s-%s" % (action, buffered)), batch, "console",
            action, "victim", buffered=buffered)
        assert forked[3] == "1 forks, no child is left"
        assert forked == serial[:3] + (forked[3], serial[4]), action


def test_split_batch_reaps_its_workers_when_the_parent_fails(tmp_path):
    """A failed write to stdout and an exception in the parent's own chunk
    both end the batch with no worker left behind."""
    batch = split_batch()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        broken = run_split_harness(tmp_path / "broken", batch, "console",
                                   "none", stdout=write_end)
    finally:
        os.close(write_end)
    assert broken[1:4] == (b"sf: cannot write output: [Errno 32] Broken "
                           b"pipe\n", 5, "1 forks, no child is left")
    interrupted = run_split_harness(tmp_path / "interrupted", batch,
                                    "console", "interrupt", "early")
    assert b"KeyboardInterrupt" in interrupted[1]
    assert interrupted[3] == "1 forks, no child is left"


def test_batch_naming_one_svg_twice_stays_serial(tmp_path):
    """When two lines write the same SVG file, however its path is
    spelled, the batch runs serially, so the later line's file survives.
    Split in two, the second line would start the worker's chunk and be
    overwritten by the first, which ends the parent's."""
    lines = split_batch().split(b"\n")[:-1]
    for at, sides, path in ((69, [4, 5, 6], "same.svg"),
                            (70, [3, 4, 5], "./same.svg")):
        lines[at] = json.dumps({"command": "render", "svg_path": path,
                                "triangle": {"sides": sides},
                                "weights": [1, 1, 1]}).encode("utf-8")
    batch = b"\n".join(lines) + b"\n"
    serial = run_split_harness(tmp_path / "serial", batch, "main", "none")
    forked = run_split_harness(tmp_path / "forked", batch, "console", "none")
    assert forked[3] == "0 forks, no child is left"
    assert forked[:3] + forked[4:] == serial[:3] + serial[4:]
    assert b'"sides":[3,4,5]' in serial[0]
    with open(corpus_path("expected/render_plain.svg"), "rb") as fh:
        assert serial[4]["same.svg"] != fh.read()  # the [4, 5, 6] drawing


def test_split_reads_svg_paths_as_the_jobs_decode_them(tmp_path):
    """The SVG check before a split decodes each line as its job does, so
    a line whose job refuses its JSON (a NaN, a number that overflows)
    writes no file and keeps no batch serial.  Here the only repeated
    svg_path is on two such lines, and the batch splits, byte for byte
    the serial run."""
    lines = split_batch().split(b"\n")[:-1]
    for at, weights in ((100, b"NaN"), (110, b"1e400")):
        lines.insert(at, b'{"command": "render", "svg_path": '
                     b'"0-render_plain.svg", "triangle": {"sides": [3, 4, 5]}, '
                     b'"weights": [1, %s, 1]}' % weights)
    batch = b"\n".join(lines) + b"\n"
    serial = run_split_harness(tmp_path / "serial", batch, "main", "none")
    forked = run_split_harness(tmp_path / "forked", batch, "console", "none")
    assert forked[3] == "1 forks, no child is left"
    assert forked[:3] + forked[4:] == serial[:3] + serial[4:]
    for number in (b"NaN", b"1e400"):
        assert (b"invalid JSON: non-finite number '%s' in input" % number
                in serial[0])


def test_batch_forks_only_above_the_threshold(tmp_path):
    """Through the process entry a batch below the threshold never forks
    and never loads `workers`, which a split batch does.  A fork or a
    temporary file that fails leaves the parent to run the chunk itself."""
    def workers_state(work):
        return (work / "findings.modules").read_text()

    with open(corpus_path("batch.jsonl"), "rb") as fh:
        small = fh.read()
    out, err, code, findings, _ = run_split_harness(
        tmp_path / "small", small, "console", "nofork")
    with open(os.path.join(CORPUS, "expected", "batch.jsonl"), "rb") as fh:
        assert (out, err, code) == (fh.read(), b"", 2)
    assert findings == "0 forks, no child is left"
    assert workers_state(tmp_path / "small") == "workers not loaded"
    batch = split_batch()
    serial = run_split_harness(tmp_path / "serial", batch, "main", "none")
    for action in ("forkfails", "tempfails"):
        failed = run_split_harness(tmp_path / action, batch, "console",
                                   action)
        assert failed[3] == "0 forks, no child is left"
        assert failed[:3] + failed[4:] == serial[:3] + serial[4:]
        assert workers_state(tmp_path / action) == "workers loaded"


@pytest.mark.skipif(shutil.which("sf") is None,
                    reason="sf console script not installed")
def test_installed_sf_script(tmp_path):
    exe = shutil.which("sf")
    ver = subprocess.run([exe, "--version"], capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT)
    assert ver.returncode == 0
    # a stale `sf` from another checkout must not stand in for this one
    assert ver.stdout.strip() == snellfagnano.__version__
    proc = subprocess.run([exe, "point", "--input",
                           write_spec(tmp_path, T456)],
                          capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "interior"


# Imports the CLI and runs the command line given to it, if any; then
# prints its exit code, the modules it imported that a cold start does not
# use, the snellfagnano modules whose bodies have run, and the command
# modules present in sys.modules, run or not.  It runs under `python -S`,
# so that no `site` step (a .pth file that loads typing, say) imports a
# module before it looks.
COLD_START_PROBE = """
import contextlib, io, json, sys, types
before = set(sys.modules)
import snellfagnano.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = snellfagnano.cli.main(sys.argv[1:])
        except SystemExit as e:
            code = e.code
added = set(sys.modules) - before
print(json.dumps({
    "code": code,
    "unused": sorted(added & {"numpy", "dataclasses", "concurrent.futures",
                              "argparse", "gettext", "locale", "textwrap",
                              "typing"}),
    "ran": sorted(name for name, module in sys.modules.items()
                  if name.split(".")[0] == "snellfagnano"
                  and type(module) is types.ModuleType),
    "commands": sorted(name for name in sys.modules
                       if name.startswith("snellfagnano.cmd_"))}))
"""


def test_cli_import_leaves_numpy_out(tmp_path):
    """The CLI imports nothing its cold start does not use: numpy is a test
    dependency only, the records and the batch loop need neither
    dataclasses nor a thread pool, the hand-written argument parser
    needs none of argparse and what it loads, and every annotation is a
    builtin left unevaluated, so no module imports typing.  Submodules
    load on first use, so importing the CLI runs only the CLI core (cli
    and jobs) and registers no command module; a cold job adds its
    command's module and the modules that command calls.  A closed orbit
    draws no circles, so point, simulate and a render without layers
    leave apollonius out.  The exact kernel loads with a tilde triangle,
    with a triangle given by its sides and for river's side test alone.  An error report loads no module its
    command does not run: exit 2 from a river whose points straddle the
    line, or from a simulate whose start points out of the triangle,
    leaves coordinates out."""
    straddle = tmp_path / "straddle.json"
    straddle.write_text(json.dumps({"river": {
        "a": [-1, 1], "b": [1, -1], "line": [[0, 0], [1, 0]],
        "lam1": 1, "lam2": 2}}))
    outward = tmp_path / "outward.json"
    outward.write_text(json.dumps(dict(
        corpus_spec("simulate_default.json"),
        start={"side": "a", "param": 0.5, "direction": [0, -1]})))
    errors = (
        (["river", "--input", str(straddle)],
         ["cmd_river", "billiards", "exact", "geometry", "serialize"]),
        (["simulate", "--input", str(outward)],
         ["cmd_simulate", "billiards", "construction", "exact", "geometry",
          "serialize"]),
    )
    cases = (
        ([], []),
        (["--version"], []),
        (["river", "--input", corpus_path("river_basic.json")],
         ["cmd_river", "billiards", "exact", "geometry", "serialize"]),
        (["convert", "--input", corpus_path("convert_trilinear_incenter.json")],
         ["cmd_convert", "coordinates", "exact", "geometry", "serialize"]),
        (["point", "--input", corpus_path("point_interior.json")],
         ["cmd_point", "construction", "coordinates", "exact", "geometry",
          "serialize"]),
        (["simulate", "--input", corpus_path("simulate_default.json")],
         ["cmd_simulate", "billiards", "construction", "coordinates",
          "exact", "geometry", "serialize"]),
        (["render", "--input", corpus_path("render_plain.json"),
          "--svg", str(tmp_path / "plain.svg")],
         ["cmd_render", "construction", "coordinates", "exact", "geometry",
          "render", "serialize"]),
        (["render", "--input", corpus_path("render_apollonius.json"),
          "--svg", str(tmp_path / "apollonius.svg")],
         ["cmd_render", "apollonius", "construction", "coordinates",
          "exact", "geometry", "render", "serialize"]),
        (["minimize", "--input", corpus_path("minimize_interior.json")],
         ["cmd_minimize", "construction", "coordinates", "exact",
          "geometry", "optimize", "serialize"]),
    )
    for argv, used, code in ([case + (0,) for case in cases]
                             + [case + (2,) for case in errors]):
        proc = subprocess.run([sys.executable, "-S", "-c", COLD_START_PROBE]
                              + argv,
                              capture_output=True, text=True,
                              env=checkout_env(), timeout=SUBPROCESS_TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        expected = ["snellfagnano", "snellfagnano.cli", "snellfagnano.jobs"] + [
            "snellfagnano." + name for name in used]
        commands = [name for name in expected if ".cmd_" in name]
        assert json.loads(proc.stdout) == {"code": code, "unused": [],
                                           "ran": sorted(expected),
                                           "commands": commands}, argv


def _benchmark_traced_names():
    """The names sfbench/spans.py traces or counts, read from its source
    (TRACED and COUNTED) without importing it."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "sfbench", "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    values = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("TRACED", "COUNTED")}
    return ({name for names in values["TRACED"].values() for name in names}
            | {values["COUNTED"][1]})


def _jobs_of_every_command(rng, svg):
    """Seeded (command, spec) pairs: every command, every input form of a
    triangle and of convert's coords, both kinds of simulate start and
    render with and without the Apollonius layer."""
    for i in range(12):
        t, w = sample_random_setup(rng)
        triangle = ({"vertices": [list(v) for v in t.vertices]} if i % 2
                    else {"sides": [t.a, t.b, t.c]})
        weights = list(w)
        yield "point", {"triangle": triangle, "weights": weights}
        yield "minimize", {"triangle": triangle, "weights": weights}
        yield "simulate", {"triangle": triangle, "weights": weights}
        yield "simulate", {"triangle": triangle, "weights": weights,
                           "steps": 4, "start": {"side": "a", "param": 0.5,
                                                 "direction": [0.1, 1.0]}}
        for kind in ("barycentric", "trilinear", "tripolar"):
            yield "convert", {"triangle": triangle, "coords": {
                "kind": kind, "values": [rng.uniform(0.5, 1.5)
                                         for _ in "abc"]}}
        yield "render", {"triangle": triangle, "weights": weights,
                         "svg_path": svg, "layers": {"apollonius": i < 6}}
        a, b, q1, q2 = ([rng.uniform(-5, 5) for _ in "xy"] for _ in "abqq")
        yield "river", {"river": {"a": a, "b": b, "line": [q1, q2],
                                  "lam1": weights[0], "lam2": weights[1]}}


def test_every_public_function_is_run_by_some_job(tmp_path):
    """Every function the package lists as public (`_PUBLIC`) is entered by
    some job: the corpus and seeded jobs of every command, run through
    cli.run_spec under sys.setprofile.  A public function that no command
    runs belongs with the tests (tests/oracles.py) or nowhere.  The names
    sfbench/spans.py traces are exempt, since the benchmark looks them
    up."""
    public = {}
    for module, names in snellfagnano._PUBLIC:
        for name in names:
            obj = getattr(snellfagnano, name)
            if inspect.isfunction(obj):
                public[obj.__code__] = module + "." + name
    jobs = []
    for path in sorted(os.listdir(CORPUS)):
        if path.endswith(".json"):
            spec = corpus_spec(path)
            spec.pop("svg_path", None)
            if path.startswith("render"):
                spec["svg_path"] = str(tmp_path / "corpus.svg")
            jobs.append((path.split("_")[0], spec))
    jobs += _jobs_of_every_command(random.Random(5), str(tmp_path / "j.svg"))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for command, spec in jobs:
            cli.run_spec(command, spec)
    finally:
        sys.setprofile(None)
    unused = sorted(name for code, name in public.items()
                    if code not in entered
                    and name.split(".")[1] not in _benchmark_traced_names())
    assert unused == []


def test_every_import_in_src_is_read():
    """Every name a module of the package binds by an import is read in
    that module: an import nothing reads costs a cold job its load.  An
    import marked `# noqa: F401` is a declared re-export."""
    unread = []
    package = os.path.dirname(snellfagnano.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or any("# noqa: F401" in line for line in
                           lines[node.lineno - 1:node.end_lineno])):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unread.append("%s:%d %s" % (name, node.lineno, bound))
    assert unread == []


def test_public_names_resolve():
    missing = [name for name in snellfagnano.__all__
               if not hasattr(snellfagnano, name)]
    assert missing == []
    assert set(snellfagnano.__all__) <= set(dir(snellfagnano))
    assert not hasattr(snellfagnano, "degenerate_minimizer")
    # The tilde triangle's conditions are its own field, and erect_similar
    # refuses a missing one with a plain GeometryError.
    for name in ("interior_conditions", "TildeDegenerate"):
        assert not hasattr(snellfagnano, name)
        assert not hasattr(snellfagnano.construction, name)
    # Every area is taken exactly in exact; the float signed_area is gone.
    assert not hasattr(snellfagnano, "signed_area")
    assert not hasattr(snellfagnano.geometry, "signed_area")
    # A coordinate triple is a plain tuple: no record relabels it.
    for name in ("BarycentricCoords", "TrilinearCoords", "TripolarCoords"):
        assert not hasattr(snellfagnano, name)
    t = triangle_from_sides(4, 5, 6)
    for triple in (snellfagnano.to_barycentric((1.0, 1.0), t),
                   snellfagnano.tripolar_of_point((1.0, 1.0), t),
                   snellfagnano.trilinear_to_barycentric((1, 2, 3), t)):
        assert type(triple) is tuple and len(triple) == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    from snellfagnano import __version__
    assert capsys.readouterr().out.strip() == __version__


# Runs `python -m snellfagnano.cli` the way runpy does, on the command line
# given to it, then prints whether a second copy of the CLI module loaded:
# there `cli` runs as __main__, so any module importing it would run it
# again as snellfagnano.cli.
MAIN_MODULE_PROBE = """
import contextlib, io, runpy, sys
sys.argv[0] = "sf"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("snellfagnano.cli", run_name="__main__",
                         alter_sys=True)
    except SystemExit as e:
        code = e.code
print(code, "snellfagnano.cli" in sys.modules, out.getvalue().count('"x"'))
"""


def test_main_module_is_not_imported_again():
    proc = subprocess.run([sys.executable, "-c", MAIN_MODULE_PROBE, "river",
                           "--input", corpus_path("river_basic.json")],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "1"]


# ---------------------------------------------------------------------------
# command line parsing

def test_help_flag(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["point", flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: sf ")
        for name in ("--input", "--batch", "--svg", "--compact", "--version",
                     *cli.HANDLERS):
            assert name in out, name


def test_usage_errors_exit_2(capsys, tmp_path):
    path = write_spec(tmp_path, T456)
    cases = [
        ([], "the following arguments are required: command"),
        (["--input", path], "the following arguments are required: command"),
        (["bogus", "--input", path], "argument command: invalid choice: "
         "'bogus' (choose from 'point', 'convert', 'simulate', 'minimize', "
         "'river', 'render')"),
        (["point", "--input"], "argument --input: expected one argument"),
        (["point", "--batch", "--compact"],
         "argument --batch: expected one argument"),
        (["point", "--input", path, "--bogus"],
         "unrecognized arguments: --bogus"),
        (["point", "--comp", "--input", path], "unrecognized arguments: --comp"),
        (["point", "point", "--input", path], "unrecognized arguments: point"),
        # flags that would be accepted and then ignored
        (["point", "--batch", path, "--input", path],
         "argument --batch: not allowed with argument --input"),
        (["point", "--input", path, "--input", path],
         "argument --input: not allowed twice"),
        (["point", "--batch=" + path, "--batch", path],
         "argument --batch: not allowed twice"),
        (["render", "--svg", "a.svg", "--svg=b.svg", "--input", path],
         "argument --svg: not allowed twice"),
        (["point", "--compact", "--input", path, "--compact"],
         "argument --compact: not allowed twice"),
    ]
    for argv, reason in cases:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage: sf "), argv
        assert captured.err.endswith("sf: error: %s\n" % reason), argv


def test_flag_forms_and_order(capsys, tmp_path):
    path = write_spec(tmp_path, T456)
    _, expected = run(capsys, ["point", "--input", path, "--compact"])
    for argv in (["point", "--input=" + path, "--compact"],
                 ["--compact", "point", "--input", path],
                 ["--input", path, "--compact", "point"]):
        assert run(capsys, argv) == (0, expected), argv
    # an empty file name is a file that cannot be read, not stdin
    assert cli.main(["point", "--input="]) == 5
    assert "cannot read input" in capsys.readouterr().err


def test_main_module_usage_error():
    proc = subprocess.run([sys.executable, "-m", "snellfagnano.cli", "bogus"],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: sf ")
    assert "sf: error: argument command: invalid choice" in proc.stderr
