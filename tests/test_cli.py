import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import snellfagnano
from snellfagnano import cli

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
    assert doc["tolerances"] == cli.TOLERANCES


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
    assert doc["brute_force_cost"] == pytest.approx(
        doc["orbit"]["weighted_perimeter"], rel=1e-3)
    assert doc["interior_conditions"].count(False) >= 1


def test_point_no_tilde(capsys):
    code, doc = run_doc(capsys, ["point", "--input",
                                 corpus_path("point_no_tilde.json")])
    assert code == 3
    assert doc["status"] == "no_tilde_triangle"
    assert ">=" in doc["message"]


def test_point_needle_is_degenerate(capsys, tmp_path):
    spec = {"triangle": {"sides": [1, 1, 1.9999999]}, "weights": [1, 1, 1]}
    code, doc = run_doc(capsys, ["point", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["status"] == "degenerate"


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
    assert doc["brute_force_cost"] == pytest.approx(
        doc["orbit"]["weighted_perimeter"], rel=1e-9)


def test_point_reports_brute_force_cost_without_orbit(capsys, tmp_path):
    feet_outside = {"triangle": {"vertices": [
        [-2.215109438014208, 2.818969649065556],
        [-4.034728786434073, -1.4419054310523558],
        [3.8558641001898994, 3.442815546106077]]},
        "weights": [0.5250328650960183, 0.777545135717788, 1.9512765204699702]}
    cases = ((corpus_spec("point_no_tilde.json"), "no_tilde_triangle", None),
             (corpus_spec("point_degenerate.json"), "degenerate", None),
             (feet_outside, "interior", False),
             (T456, "interior", True))
    for spec, status, in_sides in cases:
        _, doc = run_doc(capsys, ["point", "--input",
                                  write_spec(tmp_path, spec)])
        assert doc["status"] == status
        assert doc["orbit"].get("in_sides") == in_sides
        assert ("brute_force_cost" in doc) == (in_sides is not True)


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
            spec = {"triangle": {"sides": [4, 5, 6]}, "weights": weights,
                    "svg_path": str(tmp_path / "w.svg")}
            path = write_spec(tmp_path, spec)
            codes = [cli.main([command, "--input", path]) for command in
                     ("point", "simulate", "minimize", "render")]
            capsys.readouterr()
            assert 1 not in codes, (k, weights, codes)
            assert codes.count(2) in (0, 4), (k, weights, codes)
            assert (codes[0] == 2) == (min(weights) / max(weights)
                                       < sys.float_info.min), (k, weights)


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


def test_bad_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{nope"))
    code = cli.main(["point"])
    capsys.readouterr()
    assert code == 2


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


def test_simulate_step_cap(capsys, tmp_path):
    spec = dict(T456, steps=cli.MAX_SIMULATE_STEPS + 1)
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


def test_simulate_bad_start(capsys, tmp_path):
    spec = {"triangle": {"sides": [4, 5, 6]}, "weights": [1, 1, 1],
            "start": {"side": "d", "param": 0.5, "direction": [1, 0]}}
    code, doc = run_doc(capsys, ["simulate", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 2


# ---------------------------------------------------------------------------
# minimize

def test_minimize_agrees_with_construction(capsys):
    code, doc = run_doc(capsys, ["minimize", "--input",
                                 corpus_path("minimize_interior.json")])
    assert code == 0
    assert doc["report"]["converged"] is True
    assert doc["constructed"]["status"] == "interior"
    assert abs(doc["constructed"]["relative_gap"]) < 1e-5
    assert doc["report"]["cost"] == pytest.approx(
        doc["constructed"]["weighted_perimeter"], rel=1e-5)


def test_minimize_ignores_retired_search_fields(capsys, tmp_path):
    # "grid" and "refine_iters" tuned an earlier search; now they are extras
    spec = dict(T456, grid=8, refine_iters=0)
    code, doc = run_doc(capsys, ["minimize", "--input",
                                 write_spec(tmp_path, spec)])
    assert code == 0
    assert doc["input"] == spec
    _, ref = run_doc(capsys, ["minimize", "--input",
                              write_spec(tmp_path, T456)])
    assert doc["report"] == ref["report"]


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


def test_render_requires_path(capsys):
    code, doc = run_doc(capsys, ["render", "--input",
                                 corpus_path("render_plain.json")])
    assert code == 2


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


# ---------------------------------------------------------------------------
# tolerances, batch

def test_tolerances_are_constants(capsys, tmp_path):
    assert cli.TOLERANCES["interior_angle"] == \
        snellfagnano.construction.EPS_ANGLE
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
    for tol in (cli.TOLERANCES["periodicity"], 0.0):
        monkeypatch.setitem(cli.TOLERANCES, "periodicity", tol)
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


def test_batch_rejects_unhashable_command(capsys, tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(dict(T456, command=["point"])) + "\n")
    code, doc = run_doc(capsys, ["point", "--batch", str(batch)])
    assert code == 2
    assert doc["message"] == "unknown command ['point']"


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
SUBPROCESS_TIMEOUT = 120  # seconds; a cold `sf point` takes well under 1 s


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


def checkout_env():
    """Child environment in which this checkout's package wins any import."""
    pkg_parent = os.path.dirname(os.path.dirname(snellfagnano.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_parent] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_entry_point_wiring(tmp_path):
    """The declared `sf` entry point runs `sf point` as its own process.

    The child is launched the way a console-script wrapper does it, so the
    test needs no install: it runs from a checkout on PYTHONPATH."""
    ep = declared_script("sf")
    assert callable(ep.load()), "%s is not callable" % ep.value
    wrapper = "import sys; from %s import %s; sys.exit(%s())" % (
        ep.module, ep.attr, ep.attr)
    proc = subprocess.run([sys.executable, "-c", wrapper,
                           "point", "--input", write_spec(tmp_path, T456)],
                          capture_output=True, text=True, env=checkout_env(),
                          timeout=SUBPROCESS_TIMEOUT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "interior"


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


# Imports the CLI and runs the job given on its command line, if any; then
# prints the modules it imported that a cold start does not use, and the
# snellfagnano modules whose bodies have run.
COLD_START_PROBE = """
import contextlib, io, json, sys, types
before = set(sys.modules)
import snellfagnano.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = snellfagnano.cli.main(sys.argv[1:])
    assert code == 0, code
added = set(sys.modules) - before
print(json.dumps({
    "unused": sorted(added & {"numpy", "dataclasses", "concurrent.futures"}),
    "ran": sorted(name for name, module in sys.modules.items()
                  if name.split(".")[0] == "snellfagnano"
                  and type(module) is types.ModuleType)}))
"""


def test_cli_import_leaves_numpy_out():
    """The CLI imports nothing its cold start does not use: numpy is a test
    dependency only, and the records and the batch loop need neither
    dataclasses nor a thread pool.  Submodules load on first use, so
    importing the CLI runs none of their bodies, and a cold job runs only
    those of the modules its command calls."""
    cases = (
        ([], []),
        (["river", "--input", corpus_path("river_basic.json")],
         ["billiards", "geometry", "serialize"]),
        (["convert", "--input", corpus_path("convert_trilinear_incenter.json")],
         ["coordinates", "geometry", "serialize"]),
    )
    for argv, used in cases:
        proc = subprocess.run([sys.executable, "-c", COLD_START_PROBE] + argv,
                              capture_output=True, text=True,
                              env=checkout_env(), timeout=SUBPROCESS_TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        expected = ["snellfagnano", "snellfagnano.cli"] + [
            "snellfagnano." + name for name in used]
        assert json.loads(proc.stdout) == {"unused": [],
                                           "ran": sorted(expected)}, argv


def test_public_names_resolve():
    missing = [name for name in snellfagnano.__all__
               if not hasattr(snellfagnano, name)]
    assert missing == []
    assert set(snellfagnano.__all__) <= set(dir(snellfagnano))
    assert not hasattr(snellfagnano, "degenerate_minimizer")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    from snellfagnano import __version__
    assert capsys.readouterr().out.strip() == __version__
