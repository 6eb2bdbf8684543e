import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from btbuildings import building, cli, verify
from btbuildings.building import Ball, BuildingDescriptor
from btbuildings.field import ExtensionDescriptor, LaurentModel, PAdicModel
from btbuildings.cli import main, make_parser


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_gaussian_binomials(capsys):
    code, out = run_cli(["--d", "3", "verify", "gaussian-binomials",
                         "--q", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"]
    assert any(c["enumerated"] == 15 for c in obj["counts"])
    assert obj["suite"] == "gaussian-binomials" and obj["seed"] == 0


@pytest.mark.parametrize("field,entry,code,label", [
    ("laurent:2", "t^-1", 0, [1]),
    ("laurent:4", "w^-1", 0, [0]),
    ("laurent:2", "w+1", 2, None),
])
def test_laurent_entries_with_negative_exponents_and_w(field, entry, code,
                                                       label, capsys):
    """t^-1 parses exactly, w^-1 is the inverse of w, and w over a prime
    residue field is an input error that names w.  GF.pow's negative
    exponents, behind w^-1, are checked directly in test_gf."""
    vertex = json.dumps([["1", "0", "0", entry]])
    got = main(["--field", field, "--d", "1", "label", "--vertex", vertex])
    captured = capsys.readouterr()
    assert got == code
    if label is None:
        assert "no generator w" in captured.err
    else:
        assert json.loads(captured.out)["label"] == label


# SHA-256 of two balls over residue fields above the GF table cap, as the
# mod-p and polynomial-product arithmetic that the tables replaced wrote them
_LARGE_FIELD_DIGESTS = {
    "--field laurent:512 --d 1 --radius 1 ball":
        "eef557dcfadf6c54dca71b41829cf347101a1474912a244f81a49e138acafc6b",
    "--field padic:1009 --d 1 --radius 1 ball":
        "d7d4ea500390a710f1d53f317863feda1f87fd5c91d31803e312cd7a36b60140",
}


@pytest.mark.parametrize("command", sorted(_LARGE_FIELD_DIGESTS))
def test_large_field_balls_are_unchanged(command, capsys):
    code, out = run_cli(shlex.split(command), capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == _LARGE_FIELD_DIGESTS[command]


def test_eta_command(capsys):
    code, out = run_cli(["eta", "--d", "2", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4


def test_eta_at_its_largest_bounds_keeps_its_bytes(capsys):
    code, out = run_cli(["eta", "--d", "4", "--n", "6"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 6 ** 4
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "61d7cf5eeadd2fcce362fa2bed6fb62326a30d229c1dae7679844f81176b1a24")


def test_project_identity_on_lambda(capsys):
    vertex = json.dumps([["1", "0", "0", "2"]])
    code, out = run_cli(["project", "--vertex", vertex], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["exponents"] == [["0", "-1"]]


def test_ball_and_dot(capsys, tmp_path):
    code, out = run_cli(["--d", "1", "--radius", "1", "ball"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 4
    assert len(obj["edges"]) == 3
    assert obj["chambers"]
    dot_file = str(tmp_path / "ball.dot")
    code, _out = run_cli(["--d", "1", "--radius", "1", "--format", "dot",
                          "--out", dot_file, "ball"], capsys)
    assert code == 0
    assert open(dot_file).read().startswith("graph ball {")


_Q2, _Q3, _F2T = PAdicModel.get(2), PAdicModel.get(3), LaurentModel.get(2)
_WRITER_FACTORS = {
    "Q_2": [(_Q2, 2)],
    "Q_3": [(_Q3, 2)],
    "F_2((t))": [(_F2T, 2)],
    "F_4((t))": [(LaurentModel.get(4), 1)],
    "F_2((s)), s^2 = t": [(ExtensionDescriptor(_F2T, e=2, f=1).extension, 2)],
    "Q_2 x F_3((t))": [(_Q2, 1), (LaurentModel.get(3), 1)],
}


@pytest.mark.parametrize("detail", ["vertices", "edges", "faces"])
@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize("factors", _WRITER_FACTORS.values(),
                         ids=_WRITER_FACTORS.keys())
def test_the_ball_writer_writes_the_json_of_its_object(factors, radius, detail):
    D = BuildingDescriptor(factors)
    obj = Ball(D, D.origin(), radius, detail=detail).to_json_obj()
    assert cli.ball_json(obj) == json.dumps(obj, sort_keys=True,
                                            indent=2) + "\n"
    assert ("chambers" in obj) == (detail == "faces")
    assert (obj["edges"] == []) == (radius == 0 or detail == "vertices")
    if factors[0][0].ramification == 2 and obj["edges"]:
        assert obj["edges"][0]["length"] == "1/2"


def test_ball_writes_the_json_of_its_window(capsys, monkeypatch):
    balls = []

    def keep(*args, **kwargs):
        balls.append(building.ball(*args, **kwargs))
        return balls[-1]

    monkeypatch.setattr(cli, "ball", keep)
    code, out = run_cli(["--field", "padic:2,laurent:4", "--d", "1,2",
                         "--radius", "2", "ball", "--detail", "faces"], capsys)
    assert code == 0
    assert out == json.dumps(balls[0].to_json_obj(), sort_keys=True,
                             indent=2) + "\n"


@pytest.mark.parametrize("fmt,unused", [("json", "to_dot"),
                                        ("dot", "to_json_obj")])
def test_ball_builds_only_the_format_it_emits(fmt, unused, capsys,
                                              monkeypatch):
    from btbuildings.building import Ball

    def built(self):
        pytest.fail(f"{unused} was built for --format {fmt}")

    monkeypatch.setattr(Ball, unused, built)
    code, out = run_cli(["--d", "1", "--radius", "1", "--format", fmt,
                         "ball"], capsys)
    assert code == 0 and out


def test_involution_command(capsys):
    vertex = json.dumps([["1", "0", "0", "2"]])
    code, out = run_cli(["involution", "--vertex", vertex], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["image"] == [["2", "0", "0", "1"]]
    assert obj["label"] == [1]


def test_subdivide_command(capsys):
    code, out = run_cli(["--field", "laurent:2", "--d", "1", "--radius", "1",
                         "subdivide", "--marking", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 7
    assert len(obj["edges"]) == 6


def test_extend_command(capsys):
    vertex = json.dumps([["1", "0", "0", "t"]])
    code, out = run_cli(["--field", "laurent:2", "extend", "--e", "2",
                         "--f", "1", "--vertex", vertex], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["image"] == ["1", "0", "0", "s^2"]


def test_decompose_aut_command(capsys):
    verts = [[a, b] for a in range(2) for b in range(2)]
    mp = [[[a, b], [b, a]] for a, b in verts]
    arg = json.dumps({"sizes_in": [2, 2], "sizes_out": [2, 2], "map": mp})
    code, out = run_cli(["decompose-aut", "--map", arg], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["mu"] == [1, 0]


def test_normal_form_command(capsys):
    word = json.dumps([{"kind": "exchange", "mu": [1, 0]}])
    code, out = run_cli(["--d", "1,1", "normal-form", "--word", word], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["report"]["passed"]
    assert obj["mu"] == [1, 0]


def test_omega_command(capsys):
    code, out = run_cli(["--field", "laurent:2", "--d", "1", "omega",
                         "--point", '[["s"]]', "--ext", "2,1",
                         "--depth", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["first_depth"] == 1
    assert obj["tau_exponents"] == [["0", "1/2"]]


def test_omega_command_off_the_first_level(capsys):
    # alpha = (1+t, 1) gives v(alpha.x) = v(s^3) = 3/2 > 1
    code, out = run_cli(["--field", "laurent:2", "--d", "1", "omega",
                         "--point", '[["1+s^2+s^3"]]', "--ext", "2,1",
                         "--depth", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["memberships"][0] == {"n": 1, "closed": False, "open": False}
    assert obj["first_depth"] == 2


def test_omega_command_over_a_cubic_residue_extension(capsys):
    # 1/(w+s) has a denominator over F_8, not over F_2: descent is exact
    code, out = run_cli(["--field", "laurent:2", "--d", "1", "omega",
                         "--point", '[["1/(w+s)"]]', "--ext", "1,3",
                         "--depth", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["memberships"] == [{"n": 1, "closed": True, "open": True}]
    assert obj["tau_exponents"] == [["0", "0"]]


def test_retract_command(capsys):
    poly = json.dumps([{"coeff": "1", "monomial": {"1": 2}},
                       {"coeff": "s^2", "monomial": {"1": 1}}])
    code, out = run_cli(["--field", "laurent:2", "--d", "1", "retract",
                         "--point", '[["s"]]', "--ext", "2,1",
                         "--poly", poly, "--t", "0,1/2,inf"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["evaluation"] == "1"
    assert all(step["value_exponent"] == "1" for step in obj["path"])


def test_retract_writes_a_zero_value_as_inf(capsys):
    # p(x) = x + s at x = s is 2s = 0 in characteristic 2, while p = 1 has
    # exponent 0: the two values must print differently
    zero = json.dumps([{"coeff": "1", "monomial": {"1": 1}},
                       {"coeff": "s", "monomial": {}}])
    one = json.dumps([{"coeff": "1", "monomial": {}}])
    outs = {}
    for name, poly in (("zero", zero), ("one", one), ("empty", "[]")):
        code, out = run_cli(_RETRACT + ["--ext", "2,1", "--poly", poly,
                                        "--t", "0,1,inf"], capsys)
        assert code == 0
        outs[name] = json.loads(out)
    assert outs["zero"]["evaluation"] == "inf"
    assert outs["one"]["evaluation"] == "0"
    assert [s["value_exponent"] for s in outs["one"]["path"]] == ["0"] * 3
    assert [s["value_exponent"] for s in outs["empty"]["path"]] == ["inf"] * 3
    assert outs["empty"]["evaluation"] == "inf"
    # D_0(p)(x) = 0 and D_1(p)(x) = x = s, so rho_t(p) = t |s|
    assert [s["value_exponent"] for s in outs["zero"]["path"]] == [
        "1/2", "3/2", "inf"]


def test_retract_adds_a_zero_exponent_term_to_the_constant(capsys):
    # 1 * x_1^0 + s is the constant 1 + s, of exponent 0: the term with the
    # zero exponent adds to the constant instead of replacing it
    outs = []
    for poly in ([{"coeff": "1", "monomial": {"1": 0}},
                  {"coeff": "s", "monomial": {}}],
                 [{"coeff": "1+s", "monomial": {}}]):
        code, out = run_cli(_RETRACT + ["--ext", "2,1", "--poly",
                                        json.dumps(poly), "--t", "0"], capsys)
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0]["evaluation"] == outs[1]["evaluation"] == "0"
    assert outs[0]["path"] == outs[1]["path"]


def test_exit_codes(capsys):
    # input error
    code, _out = run_cli(["project", "--vertex", "not json"], capsys)
    assert code == 2
    # budget exceeded
    code, _out = run_cli(["--d", "2", "--radius", "3", "--budget", "2",
                          "ball"], capsys)
    assert code == 3
    # verification failure surfaces as exit 1 (window too small for the word)
    word = json.dumps([{"kind": "shift", "factor": 0, "power": 1}])
    code, _out = run_cli(["--d", "1", "--radius", "0", "normal-form",
                          "--word", word], capsys)
    assert code in (1, 2)
    # unknown suite
    code, _out = run_cli(["verify", "no-such-suite"], capsys)
    assert code == 2


def test_projection_agreement_stops_at_its_first_ball_over_budget(
        capsys, monkeypatch):
    balls = []
    real = verify.ball

    def spy(*args, **kwargs):
        balls.append(kwargs["budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "ball", spy)
    code, _out = run_cli(["verify", "projection-agreement", "--budget", "1"],
                         capsys)
    assert code == 3
    assert balls == [1]


_V = '["1","0","0","2"]'
_RETRACT = ["--field", "laurent:2", "--d", "1", "retract", "--point", '[["s"]]']
_OMEGA = ["--field", "laurent:2", "--d", "1", "omega", "--point"]
_TWO_FIELDS = ["--field", "laurent:2,laurent:4", "--d", "1,1"]


def _map(pairs, sizes_out=(2,)):
    return ["decompose-aut", "--map", json.dumps(
        {"sizes_in": [2], "sizes_out": list(sizes_out), "map": pairs})]


def _poly(monomial):
    return _RETRACT + ["--poly", json.dumps([{"coeff": "1",
                                              "monomial": monomial}])]


# (argv, the flag the error names, a substring of the reason)
_INPUT_ERRORS = {
    "map-image-above": (_map([[[0], [5]], [[1], [0]]]),
                        "map", "image (5,) of (0,) is not a vertex"),
    "map-image-negative": (_map([[[0], [-1]], [[1], [0]]]),
                           "map", "image (-1,) of (0,) is not a vertex"),
    "map-image-wrong-factors": (_map([[[0], [0]], [[1], [1]]], (2, 2)),
                                "map", "image (0,) of (0,) is not a vertex"),
    "map-no-image": (_map([[[0], [1]]]),
                     "map", "no image given for vertex (1,)"),
    "map-off-the-input": (_map([[[0], [1]], [[1], [0]], [[7], [1]]]),
                          "map", "(7,) is not a vertex of the input graph"),
    "map-vertex-twice": (_map([[[0], [5]], [[0], [1]], [[1], [0]]]),
                         "map", "map lists a vertex more than once"),
    "map-no-field": (["decompose-aut", "--map", '{"sizes_in":[2]}'],
                     "map", "has no 'sizes_out' field"),
    "map-not-an-object": (["decompose-aut", "--map", "[1]"],
                          "map", "must be a JSON object"),
    # a JSON boolean is not an integer
    "map-boolean-vertex": (
        ["decompose-aut", "--map", '{"sizes_in":[2],"sizes_out":[2],'
         '"map":[[[false],[true]],[[true],[false]]]}'],
        "map", "a map vertex must be a list of integers"),
    "word-unknown-kind": (["--d", "1", "normal-form", "--word",
                           '[{"kind":"foo"}]'],
                          "word", "unknown generator kind 'foo'"),
    "word-no-kind": (["--d", "1", "normal-form", "--word",
                      '[{"factor":0,"power":1}]'],
                     "word", "generator has no 'kind' field"),
    "word-shift-no-power": (["--d", "1", "normal-form", "--word",
                             '[{"kind":"shift","factor":0}]'],
                            "word", "shift generator has no 'power' field"),
    "word-unknown-field": (
        ["--d", "1", "normal-form", "--word",
         '[{"kind":"shift","factor":0,"power":1,"extra":3}]'],
        "word", "shift generator has an unknown field 'extra'"),
    "word-lambda-mask-two": (["--d", "1", "normal-form", "--word",
                              '[{"kind":"lambda","mask":[2]}]'],
                             "word", "lambda mask must list 1 entries"),
    "word-lambda-mask-negative": (["--d", "1", "normal-form", "--word",
                                   '[{"kind":"lambda","mask":[-1]}]'],
                                  "word", "lambda mask must list 1 entries"),
    "word-zero-denominator": (
        ["--d", "1", "normal-form", "--word",
         '[{"kind":"group","matrices":[["1/0","0","0","1"]]}]'],
        "word", "zero denominator"),
    "word-not-a-list": (["--d", "1", "normal-form", "--word", "5"],
                        "word", "word must be a list of generator objects"),
    "word-boolean-mask": (["--d", "1", "normal-form", "--word",
                           '[{"kind":"lambda","mask":[true]}]'],
                          "word", "mask must be a list of integers"),
    "word-boolean-mu": (["--d", "1,1", "normal-form", "--word",
                         '[{"kind":"exchange","mu":[true,false]}]'],
                        "word", "mu must be a list of integers"),
    "vertex-object-without-matrix": (
        ["--d", "1", "label", "--vertex", '{"x":1}'],
        "vertex", "a vertex object needs a 'matrix_per_factor' field"),
    "vertex-one-of-two-factors": (["--d", "1,1", "label", "--vertex", f"[{_V}]"],
                                  "vertex", "must be a list of 2 matrices"),
    "vertex-two-of-one-factor": (
        ["--d", "1", "--radius", "1", "ball", "--vertex", f"[{_V},{_V}]"],
        "vertex", "must be a list of 1 matrices"),
    "vertex-project-one-of-two": (
        ["--d", "1,1", "project", "--vertex", f"[{_V}]"],
        "vertex", "must be a list of 2 matrices"),
    "vertex-a-number": (["--d", "1", "project", "--vertex", "5"],
                        "vertex", "must be a list of 1 matrices"),
    "vertex-a-list-of-a-number": (["--d", "1", "project", "--vertex", "[5]"],
                                  "vertex", "matrix must be a list of 4 strings"),
    "vertex-integer-entries": (
        ["--d", "1", "project", "--vertex", "[[1,0,0,2]]"],
        "vertex", "matrix must be a list of 4 strings"),
    "vertex-zero-denominator": (
        ["--d", "1", "project", "--vertex", '[["1/0","0","0","2"]]'],
        "vertex", "zero denominator"),
    "vertex-laurent-zero-denominator": (
        ["--field", "laurent:2", "--d", "1", "project",
         "--vertex", '[["t/0","0","0","1"]]'],
        "vertex", "zero denominator"),
    "mask-two-entries": (["--d", "1", "involution", "--vertex", f"[{_V}]",
                          "--mask", "0,1"],
                         "mask", "must be one integer in 0..1 per factor (1)"),
    "mask-not-0-or-1": (["--d", "1", "involution", "--vertex", f"[{_V}]",
                         "--mask", "7"],
                        "mask", "must be one integer in 0..1 per factor (1)"),
    "mask-word": (["--d", "1", "involution", "--vertex", f"[{_V}]",
                   "--mask", "x"],
                  "mask", "must be a comma-separated list of integers, got 'x'"),
    "ext-one-integer": (_OMEGA + ['[["s"]]', "--ext", "2"],
                        "ext", "entry '2' is not two integers e,f"),
    "ext-three-integers": (_OMEGA + ['[["s"]]', "--ext", "2,1,3"],
                           "ext", "entry '2,1,3' is not two integers e,f"),
    "point-zero-denominator": (_OMEGA + ['[["1/0"]]'],
                               "point", "zero denominator"),
    "point-a-number": (_OMEGA + ["5"],
                       "point", "point must be a list of 1 lists of 1 strings"),
    "point-integer-entry": (_OMEGA + ["[[1]]"], "point",
                            "point must be a list of 1 lists of 1 strings"),
    "poly-key-not-a-number": (_poly({"x": 1}),
                              "poly", "each key j the number of a variable"),
    "poly-negative-exponent": (_poly({"1": -1}), "poly", "n >= 0"),
    "poly-boolean-exponent": (_poly({"1": True}),
                              "poly", "each key j the number of a variable"),
    "eta-d-word": (["--d", "x", "eta", "--n", "2"],
                   "d", "must be an integer, got 'x'"),
    "eta-d-list": (["--d", "1,2", "eta", "--n", "2"],
                   "d", "must be an integer, got '1,2'"),
    "ball-radius-negative": (["--radius", "-1", "ball"],
                             "radius", "must be at least 0, got -1"),
    "subdivide-radius-negative": (
        ["--field", "laurent:2", "--d", "1", "--radius", "-1",
         "subdivide", "--marking", "2"], "radius", "must be at least 0, got -1"),
    "normal-form-radius-negative": (
        ["--d", "1,1", "--radius", "-1", "normal-form",
         "--word", '[{"kind":"exchange","mu":[1,0]}]'],
        "radius", "must be at least 2, got -1"),
    "omega-depth-zero": (_OMEGA + ['[["s"]]', "--depth", "0"],
                         "depth", "must be at least 1, got 0"),
    "d-word": (["--d", "x", "label", "--vertex", "[]"],
               "d", "must be a comma-separated list of integers, got 'x'"),
    "marking-word": (["--d", "1", "--radius", "1", "subdivide", "--marking", "x"],
                     "marking",
                     "must be a comma-separated list of integers, got 'x'"),
    "field-padic-word": (["--field", "padic:x", "--d", "1", "label",
                          "--vertex", "[]"],
                         "field", "padic:p must be an integer, got 'x'"),
    "verify-d-list": (["--d", "1,3", "verify", "gaussian-binomials", "--q", "2"],
                      "d", "must be an integer, got '1,3'"),
    # an explicit flag is rejected even when it equals the default
    "verify-field-and-radius": (
        ["--field", "laurent:3", "--radius", "9", "verify", "eta-counts"],
        "field", "verify does not read --field"),
    "verify-field": (["--field", "padic:2", "verify", "eta-counts"],
                     "field", "verify does not read --field"),
    "verify-radius": (["--radius", "2", "verify", "eta-counts"],
                      "radius", "verify does not read --radius"),
    "verify-depth": (["verify", "eta-counts", "--depth", "3"],
                     "depth", "verify does not read --depth"),
    "verify-r": (["--r", "1", "verify", "eta-counts"],
                 "r", "verify does not read --r"),
    "verify-d-without-q": (["--d", "2", "verify", "eta-counts"],
                           "d", "verify reads --d only with gaussian-binomials"),
    "verify-gaussian-binomials-d-without-q": (
        ["--d", "3", "verify", "gaussian-binomials"],
        "d", "verify reads --d only with gaussian-binomials"),
    "field-not-prime": (["--field", "padic:4", "label", "--vertex", f"[{_V}]"],
                        "field", "p must be prime, got 4"),
    "vertex-short": (["label", "--vertex", '[["1","0"]]'],
                     "vertex", "matrix must be a list of 4 strings"),
    "point-not-json": (_OMEGA + ["x"], "point", "Expecting value"),
    "radius-word": (["--radius", "x", "ball"],
                    "radius", "must be an integer, got 'x'"),
    "ext-zero": (_OMEGA + ['[["s"]]', "--ext", "0,1"],
                 "ext", "e and f must be >= 1"),
    # --ext builds K above factor 0's field, F_2((t)); F_4((t)) is not on
    # that tower
    "ext-off-a-factor": (
        _TWO_FIELDS + ["omega", "--point", '[["s"],["s"]]', "--ext", "2,1"],
        "ext", "K does not lie above factor 1's field laurent:4; --ext builds "
        "K above factor 0's field laurent:2"),
    # retract refuses a product of two fields before it reads --ext
    "retract-two-fields": (
        _TWO_FIELDS + ["retract", "--point", '[["s"],["s"]]', "--ext", "2,1",
                       "--poly", "[]"],
        "d", "retract operates on one factor"),
    "budget-negative": (["--d", "1", "--radius", "1", "--budget", "-5", "ball"],
                        "budget", "must be at least 0, got -5"),
    "normal-form-radius-below-the-factors": (
        ["--d", "1,1", "--radius", "1", "normal-form", "--word", "[]"],
        "radius", "must be at least 2, got 1"),
    "verify-q-with-another-suite": (["verify", "eta-counts", "--q", "2"],
                                    "q", "verify reads --q only with"),
    "verify-field-with-q": (
        ["--field", "laurent:2", "--d", "3", "verify", "gaussian-binomials",
         "--q", "2"], "field", "verify does not read --field"),
}


def _assert_input_error(argv, flag, reason, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"input error: --{flag}: ")
    assert reason in captured.err


@pytest.mark.parametrize("argv,flag,reason", _INPUT_ERRORS.values(),
                         ids=_INPUT_ERRORS)
def test_an_input_error_names_its_flag_and_reason(argv, flag, reason, capsys):
    _assert_input_error(argv, flag, reason, capsys)


# The fixed bounds below keep the test names they had before the table.
@pytest.mark.parametrize("d", ["0", "-1"])
def test_gaussian_binomials_rejects_d_below_one(d, capsys):
    _assert_input_error(["verify", "gaussian-binomials", "--q", "2", "--d", d],
                        "d", "must be at least 1", capsys)


def test_retract_with_an_unknown_variable_states_the_reason(capsys):
    _assert_input_error(_poly({"5": 1}), "poly", "unknown variable (0, 5)",
                        capsys)


def test_omega_builds_k_above_a_product_of_one_field():
    assert main(["--field", "laurent:2", "--d", "1,1", "omega", "--point",
                 '[["s"],["s^3"]]', "--ext", "2,1", "--depth", "1"]) == 0


def test_retract_builds_k_above_a_field_of_degree_two():
    assert main(["--field", "laurent:4", "--d", "1", "retract", "--point",
                 '[["s"]]', "--ext", "2,1", "--poly", "[]"]) == 0


@pytest.mark.parametrize("argv,flag,reason", [
    (["eta", "--d", "-1", "--n", "2"], "d", "must be at least 1, got '-1'"),
    (["eta", "--d", "0", "--n", "2"], "d", "must be at least 1, got '0'"),
    (_poly({"1": 1}) + ["--t", "0,x"], "t",
     "must be a comma-separated list of rationals or inf, got 'x'"),
    (_poly({"1": 1}) + ["--t", "1/0"], "t",
     "must be a comma-separated list of rationals or inf, got '1/0'"),
], ids=["eta-d-negative", "eta-d-zero", "retract-t-word", "retract-t-zero-den"])
def test_bad_eta_d_and_retract_t_name_their_flag(argv, flag, reason, capsys):
    _assert_input_error(argv, flag, reason, capsys)


@pytest.mark.parametrize("argv,flag,reason", [
    (["eta", "--d", "1", "--n", "0"], "n", "must be in 1..6, got 0"),
    (["eta", "--d", "1", "--n", "7"], "n", "must be in 1..6, got 7"),
    (["eta", "--d", "5", "--n", "2"], "d", "must be at most 4 for eta, got 5"),
    (["--field", "laurent:2", "extend", "--e", "0"],
     "e", "must be at least 1, got 0"),
    (["--field", "laurent:2", "extend", "--f", "0"],
     "f", "must be at least 1, got 0"),
], ids=["eta-n-zero", "eta-n-above", "eta-d-above", "extend-e-zero",
        "extend-f-zero"])
def test_eta_and_extend_bounds_name_their_flag(argv, flag, reason, capsys):
    """Fixed bounds that no --budget raises are input errors (exit 2)."""
    _assert_input_error(argv, flag, reason, capsys)


@pytest.mark.parametrize("argv,flag", [
    (["--d", "2", "--radius", "1", "subdivide", "--marking", "7"], "marking"),
    (["--d", "2", "--radius", "0", "subdivide", "--marking", "7"], "marking"),
    (["--d", "5", "--radius", "1", "subdivide", "--marking", "1"], "d"),
])
def test_subdivide_checks_its_eta_bounds_before_the_ball(argv, flag, capsys,
                                                        monkeypatch):
    """A marking above 6 or a factor dimension above 4 exits 2 whatever the
    radius, before any window is built: no --budget raises those bounds."""
    def built(*args, **kwargs):
        pytest.fail("a ball was built")

    monkeypatch.setattr(cli, "ball", built)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"input error: --{flag}: ")


def test_a_budget_of_zero_is_exceeded(capsys):
    code = main(["--d", "1", "--radius", "1", "--budget", "0", "ball"])
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_gaussian_binomials_charges_its_counts_to_the_budget(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "gaussian-binomials", "--q", "2", "--d", "9",
                 "--budget", "1"])
    assert code == 3 and time.perf_counter() - t0 < 1
    assert capsys.readouterr().err == (
        "budget exceeded: enumerating the neighbors up to q=2, d=1, w=1 "
        "takes 3 (> budget 1)\n")


def test_an_unknown_suite_is_a_value_error(capsys):
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope", verify.Config())
    assert main(["verify", "nope"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: suite: invalid choice: 'nope'")


@pytest.mark.parametrize("fault", [KeyError, ValueError])
def test_a_fault_in_a_command_is_not_an_input_error(fault, monkeypatch):
    def label(x):
        raise fault("internal")

    monkeypatch.setattr(cli, "labelling_C", label)
    with pytest.raises(fault):
        main(["label", "--vertex", f"[{_V}]"])


_MAP = '{"sizes_in":[2],"sizes_out":[2],"map":[[[0],[1]],[[1],[0]]]}'
# per command: a valid argv after it, and the common flags it reads
_COMMANDS = {
    "ball": (["--d", "1", "--radius", "1"],
             {"field", "d", "r", "radius", "budget"}),
    "project": (["--vertex", f"[{_V}]"], {"field", "d", "r"}),
    "label": (["--vertex", f"[{_V}]"], {"field", "d", "r"}),
    "involution": (["--vertex", f"[{_V}]"], {"field", "d", "r"}),
    "subdivide": (["--field", "laurent:2", "--d", "1", "--radius", "1",
                   "--marking", "2"], {"field", "d", "r", "radius", "budget"}),
    "eta": (["--n", "2"], {"d"}),
    "extend": (["--field", "laurent:2"], {"field", "d", "r"}),
    "decompose-aut": (["--map", _MAP], set()),
    "normal-form": (["--d", "1", "--radius", "1", "--word", "[]"],
                    {"field", "d", "r", "radius", "budget"}),
    "omega": (["--field", "laurent:2", "--point", '[["s"]]'],
              {"field", "d", "r", "depth", "budget"}),
    "retract": (["--field", "laurent:2", "--point", '[["s"]]', "--poly", "[]"],
                {"field", "d", "r"}),
    # --d only with gaussian-binomials --q (the input errors above)
    "verify": (["eta-counts"], {"d", "seed", "budget"}),
}
# every command reads --format and --out
_FLAG_VALUES = {"field": "padic:2", "d": "1", "r": "1", "radius": "1",
                "depth": "1", "seed": "1", "budget": "100"}


@pytest.mark.parametrize("command,flag,before", [
    (command, flag, before) for command, (_args, reads) in _COMMANDS.items()
    for flag in _FLAG_VALUES if flag not in reads
    for before in (True, False)])
def test_a_common_flag_the_command_does_not_read_is_rejected(
        command, flag, before, capsys):
    given = [f"--{flag}", _FLAG_VALUES[flag]]
    args = [command] + _COMMANDS[command][0]
    code = main(given + args if before else args + given)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{command} does not read --{flag}" in captured.err


def test_every_base_argv_runs(capsys):
    for command, (args, _reads) in _COMMANDS.items():
        assert main([command] + args) == 0, capsys.readouterr().err


_FLAGS = sorted({option for action in make_parser()._actions
                 for option in action.option_strings} - {"-h", "--help"})
# malformed or edge values: negative, zero, a list, a word, a zero
# denominator, empty, JSON of the wrong type or length, unknown keys, and
# text that starts like a flag
_VALUES = ["-1", "0", "1,2", "x", "1/0", "", "true", "[]", "[[1]]",
           '{"x":1}', '[["1","0","0"]]', '[["s"],["s"]]', "-x"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_COMMANDS)), flag=st.sampled_from(_FLAGS),
       value=st.sampled_from(_VALUES))
@example(command="ball", flag="--field", value="padic:4")
@example(command="omega", flag="--point", value="x")
@example(command="ball", flag="--radius", value="x")
@example(command="ball", flag="--budget", value="-5")
def test_a_malformed_flag_value_is_an_input_error_that_names_it(
        command, flag, value, capsys, monkeypatch, tmp_path):
    """main returns, never 1 and never with a traceback; an input error (2)
    writes no output and one line that names the drawn flag, or a flag of
    the base argv that the drawn value leaves unfit (a --d of 1,2 and a
    one-factor --vertex); only a budget of 0 is exceeded (3)."""
    monkeypatch.chdir(tmp_path)  # where --out writes
    base = _COMMANDS[command][0]
    if flag in base:
        i = base.index(flag)
        base = base[:i] + base[i + 2:]
    code = main([command] + base + [flag, value])
    captured = capsys.readouterr()
    assert code in (0, 2, 3), captured.err
    if code == 2:
        named = captured.err.partition(": ")[2].partition(": ")[0]
        assert captured.out == "" and captured.err.count("\n") == 1
        assert named == flag or named in base, captured.err
        assert "Traceback" not in captured.err
    if code == 3:
        assert (flag, value) == ("--budget", "0"), captured.err


def test_global_flags_after_subcommand(capsys):
    code, out = run_cli(["verify", "eta-counts", "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_seeded_byte_determinism(capsys):
    argv = ["--field", "laurent:3", "--d", "2", "--radius", "1", "ball"]
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("hashseed", ["0", "424242"])
def test_hashseed_independent_artifacts(tmp_path, hashseed):
    """Artifacts are byte-identical across interpreter hash seeds."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-m", "btbuildings.cli", "--field", "laurent:2",
         "--d", "1", "--radius", "2", "ball"],
        capture_output=True, text=True, env=env, check=True)
    ref = subprocess.run(
        [sys.executable, "-m", "btbuildings.cli", "--field", "laurent:2",
         "--d", "1", "--radius", "2", "ball"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="1"), check=True)
    assert out.stdout == ref.stdout


def _readme_examples():
    """The argv of each `btb` line of the README's CLI block, as parsed by
    tools/bench_record.py, which times the same examples."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_record", root / "tools" / "bench_record.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.readme_examples(root / "README.md")


# SHA-256 of each example's stdout; `verify projection-agreement` is left
# out, as it takes ~30 s and the acceptance criteria pin its report
_README_DIGESTS = {
    "--d 1 --radius 1 ball":
        "4773035cccf55163180f233c0c19e7e7aaff21df360731194092ffa007cc6740",
    "--d 1 --radius 1 --format dot ball":
        "c33c211d1853afc53c5e466baf753b7e3a415ea1f5c5d76617c54dac469a1609",
    """project --vertex '[["1","0","0","2"]]'""":
        "792df808ad8fa825c25d23ed9e160a14cdf1a806fe1c05511f0b446012e9455e",
    """label --vertex '[["1","0","0","2"]]'""":
        "879568909bdb20ce97aa3b9178f2289ce2773251159a8ddc754b87fc7c8c89f5",
    """involution --vertex '[["1","0","0","2"]]'""":
        "2574d0f249832274ae5dabe04c501737c1680a0a37b32cbf9ffd8ac58e5310d9",
    "eta --d 2 --n 2":
        "dbcf4c03e8aee69eab2c66e16d1f5edd586b38d6358fcca288b69a1397004bcc",
    "--field laurent:2 --d 1 --radius 1 subdivide --marking 2":
        "aa0bb201afbb6443cfc427eb2fa2b24deb9d77d1cb43817d4bfb120b3e07bb0f",
    """--field laurent:2 extend --e 2 --f 1 --vertex '[["1","0","0","t"]]'""":
        "ef9e131ad90c6e2ecc8303edcdf8ccb4186fcc611e54685413afbc4a8235acb7",
    """decompose-aut --map '{"sizes_in":[2,2],"sizes_out":[2,2],"map":"""
    """[[[0,0],[0,0]],[[0,1],[1,0]],[[1,0],[0,1]],[[1,1],[1,1]]]}'""":
        "de8a6a605c3174f688e33cdc2b32eb11a9a78008356ac20ed8859130049dc412",
    """--d 1,1 normal-form --word '[{"kind":"exchange","mu":[1,0]}]'""":
        "3d185b7f52f5cb3c0b1c9119e8b5456cb8ce3661de6f3ec6ab9d6d95fa4959ad",
    """--field laurent:2 --d 1 omega --point '[["s"]]' --ext 2,1 --depth 2""":
        "204ee8a37a0617dce1856bc3a3865022e73f0884670a8597ebd78c63f487e031",
    """--field laurent:2 --d 1 retract --point '[["s"]]' --ext 2,1 --poly """
    """'[{"coeff":"1","monomial":{"1":2}},{"coeff":"s^2","monomial":{"1":1}}]'"""
    """ --t 0,1/2,1,inf""":
        "06171d9f24bd7487e8ab3bb1a2505984ac5ea36e09e627f8fce77fb3c82c4681",
    "verify gaussian-binomials --q 2 --d 3":
        "c2f4115f32fd4ee52cc9931fe426b3ea611be339b9af1874c18ae5f2106b6782",
}


def test_readme_lists_the_recorded_examples():
    commands = {shlex.join(argv) for argv in _readme_examples()}
    assert commands == set(_README_DIGESTS) | {"verify projection-agreement"}


@pytest.mark.parametrize("command", sorted(_README_DIGESTS))
def test_readme_example_output_is_unchanged(command, capsys):
    code, out = run_cli(shlex.split(command), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _README_DIGESTS[command]
