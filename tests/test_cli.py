import json
import os
import subprocess
import sys

import pytest

from btbuildings.cli import main


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


def test_eta_command(capsys):
    code, out = run_cli(["eta", "--d", "2", "--n", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4


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


@pytest.mark.parametrize("argv", [
    ["--radius", "-1", "ball"],
    ["--field", "laurent:2", "--d", "1", "--radius", "-1",
     "subdivide", "--marking", "2"],
    ["--d", "1,1", "--radius", "-1", "normal-form",
     "--word", '[{"kind":"exchange","mu":[1,0]}]'],
    ["--field", "laurent:2", "--d", "1", "omega", "--point", '[["s"]]',
     "--depth", "0"],
])
def test_negative_radius_and_depth_below_one_are_input_errors(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


_V = '["1","0","0","2"]'


@pytest.mark.parametrize("argv", [
    ["--d", "1,1", "label", "--vertex", f"[{_V}]"],
    ["--d", "1", "--radius", "1", "ball", "--vertex", f"[{_V},{_V}]"],
    ["--d", "1,1", "project", "--vertex", f"[{_V}]"],
    ["--d", "1", "project", "--vertex", "5"],
    ["--d", "1", "project", "--vertex", "[5]"],
    ["--d", "1", "project", "--vertex", "[[1,0,0,2]]"],
    ["--d", "1", "involution", "--vertex", f"[{_V}]", "--mask", "0,1"],
    ["--d", "1", "involution", "--vertex", f"[{_V}]", "--mask", "7"],
])
def test_vertex_and_mask_must_fit_the_descriptor(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--d", "1", "project", "--vertex", '[["1/0","0","0","2"]]'],
    ["--field", "laurent:2", "--d", "1", "project",
     "--vertex", '[["t/0","0","0","1"]]'],
    ["--field", "laurent:2", "--d", "1", "omega", "--point", '[["1/0"]]'],
    ["--d", "1", "normal-form", "--word",
     '[{"kind":"group","matrices":[["1/0","0","0","1"]]}]'],
])
def test_zero_denominator_is_an_input_error(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--field", "laurent:3", "--radius", "9", "verify", "eta-counts"],
    ["--field", "padic:2", "verify", "eta-counts"],
    ["--radius", "2", "verify", "eta-counts"],
    ["verify", "eta-counts", "--depth", "3"],
    ["--r", "1", "verify", "eta-counts"],
    ["--d", "2", "verify", "eta-counts"],
    ["--d", "3", "verify", "gaussian-binomials"],
    ["--field", "laurent:2", "--d", "3", "verify", "gaussian-binomials",
     "--q", "2"],
])
def test_verify_rejects_flags_it_does_not_read(argv, capsys):
    # an explicit flag is rejected even when it equals the default
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert out == ""


def test_global_flags_after_subcommand(capsys):
    code, out = run_cli(["verify", "eta-counts", "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_seeded_byte_determinism(capsys):
    argv = ["--field", "laurent:3", "--d", "2", "--radius", "1", "--seed", "11",
            "ball"]
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
         "--d", "1", "--radius", "2", "--seed", "3", "ball"],
        capture_output=True, text=True, env=env, check=True)
    ref = subprocess.run(
        [sys.executable, "-m", "btbuildings.cli", "--field", "laurent:2",
         "--d", "1", "--radius", "2", "--seed", "3", "ball"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="1"), check=True)
    assert out.stdout == ref.stdout
