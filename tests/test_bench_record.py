"""tools/bench_record.py on synthetic perfbench/run.py outputs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _untraced(tmp_path, name, seed, wall, rss):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    path = tmp_path / f"{name}-{seed}-{wall}.txt"
    path.write_text(
        f"# {name} seed={seed} trace=0 passes=2 queries=2 {{}}\n"
        f"{name} wall_s {wall} s\n"
        + json.dumps({"correct": True, "attempted": 5, "failed": 0,
                      "metrics": metrics}) + "\n")
    return str(path)


def _traced_all(tmp_path, tag, seed, calls):
    results = {name: {"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {"drinfeld.omega_calls":
                                  {"value": calls, "unit": "count"}}}
               for name in ("apartment", "subsystems")}
    path = tmp_path / f"traced-{tag}.txt"
    path.write_text(
        f"# apartment seed={seed} trace=1 passes=1 queries=1 {{}}\n"
        f"# subsystems seed={seed} trace=1 passes=1 queries=1 {{}}\n"
        + json.dumps(results) + "\n")
    return str(path)


def test_medians_quartiles_pairs_and_layers(tmp_path):
    tool = _load()
    walls_parent = [8.0, 7.0, 9.0, 8.5, 7.5]
    walls_change = [4.0, 7.5, 3.0, 4.5, 3.5]
    parent = [_untraced(tmp_path, "subsystems", 10 + i, w, 27.0)
              for i, w in enumerate(walls_parent)]
    change = [_untraced(tmp_path, "subsystems", 10 + i, w, 27.5)
              for i, w in enumerate(walls_change)]
    parent.append(_traced_all(tmp_path, "parent", 1, 56))
    change.append(_traced_all(tmp_path, "change", 1, 56))
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--parent"] + parent + ["--change"] + change
                     + ["--out", str(out)]) == 0
    sub = json.loads(out.read_text())["workloads"]["subsystems"]
    wall = sub["end_to_end"]["wall_s"]
    assert wall["parent"] == {"median": 8.0, "q1": 7.5, "q3": 8.5, "runs": 5}
    assert wall["change"] == {"median": 4.0, "q1": 3.5, "q3": 4.5, "runs": 5}
    # lower is better: the second pair (7.0 against 7.5) goes to the parent
    assert (wall["pairs"], wall["change_wins"], wall["parent_wins"]) == (5, 4, 1)
    rss = sub["end_to_end"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == (0, 5)
    assert sub["seeds"] == {"parent": [10, 11, 12, 13, 14],
                            "change": [10, 11, 12, 13, 14]}
    assert sub["attempted"] == {"parent": 28, "change": 28}
    assert sub["per_layer"]["1"]["drinfeld.omega_calls"] == {
        "unit": "count", "parent": 56, "change": 56}
    assert "apartment" in json.loads(out.read_text())["workloads"]


def test_a_file_without_a_run_header_is_an_input_error(tmp_path, capsys):
    tool = _load()
    bad = tmp_path / "bad.txt"
    bad.write_text("{}\n")
    assert tool.main(["--parent", str(bad), "--change", str(bad),
                      "--out", str(tmp_path / "o.json")]) == 2
    assert "no '# <workload>" in capsys.readouterr().err


def test_tier1_wall_time_and_criteria_against_their_budgets(tmp_path):
    tool = _load()
    parent = tmp_path / "tier1-parent.txt"
    parent.write_text(
        "...[criterion 1] PASS (0.4s < 10s): gaussian-binomials\n"
        ".[criterion 3] PASS (26.6s < 30s): projection-agreement\n"
        "..[criterion 9] PASS (70.3s): byte-identical artifacts\n"
        "329 passed in 179.12s (0:02:59)\n")
    change = tmp_path / "tier1-change.txt"
    change.write_text(
        "F.[criterion 3] PASS (12.5s < 30s): projection-agreement\n"
        "=========== short test summary info ===========\n"
        "FAILED tests/test_x.py::test_y - in 2.0s\n"
        "===== 1 failed, 337 passed, 1 error in 150.5s (0:02:30) =====\n")
    runs = [_untraced(tmp_path, "apartment", 1, 3.0, 20.0)]
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--parent"] + runs + ["--change"] + runs
                     + ["--out", str(out), "--tier1-parent", str(parent),
                        "--tier1-change", str(change)]) == 0
    tier1 = json.loads(out.read_text())["tier1"]
    assert tier1["parent"] == {
        "passed": 329, "failed": 0, "wall_s": 179.12,
        "criteria": {"1": {"elapsed_s": 0.4, "budget_s": 10.0},
                     "3": {"elapsed_s": 26.6, "budget_s": 30.0},
                     "9": {"elapsed_s": 70.3, "budget_s": None}}}
    assert tier1["change"] == {
        "passed": 337, "failed": 2, "wall_s": 150.5,
        "criteria": {"3": {"elapsed_s": 12.5, "budget_s": 30.0}}}
    missing = tmp_path / "no-summary.txt"
    missing.write_text("[criterion 1] PASS (0.4s < 10s): x\n")
    assert tool.main(["--parent"] + runs + ["--change"] + runs
                     + ["--out", str(out), "--tier1-change", str(missing)]) == 2


_STUB_README = """# stub

## CLI

```sh
# a comment, then two examples, one over two lines
btb label --vertex '[["1","0","0","2"]]'
btb --d 1 eta \\
    --n 1
python3 not-an-example.py
```

## Later

```sh
btb ball
```
"""


def test_readme_examples_are_parsed_and_timed_per_side(tmp_path):
    tool = _load()
    readme = tmp_path / "README.md"
    readme.write_text(_STUB_README)
    assert tool.readme_examples(str(readme)) == [
        ["label", "--vertex", '[["1","0","0","2"]]'],
        ["--d", "1", "eta", "--n", "1"]]
    runs = [_untraced(tmp_path, "apartment", 1, 3.0, 20.0)]
    out = tmp_path / "BENCH_0.json"
    assert tool.main(["--parent"] + runs + ["--change"] + runs
                     + ["--out", str(out), "--readme", str(readme),
                        "--readme-parent", str(ROOT), "--readme-change",
                        str(ROOT)]) == 0
    timed = json.loads(out.read_text())["readme"]
    assert timed["repeats"] == tool.README_REPEATS
    assert set(timed["median_s"]) == {
        """label --vertex '[["1","0","0","2"]]'""", "--d 1 eta --n 1"}
    for sides in timed["median_s"].values():
        assert set(sides) == {"parent", "change"}
        assert all(isinstance(s, float) for s in sides.values())


def test_a_failing_readme_example_is_an_error(tmp_path, capsys):
    tool = _load()
    readme = tmp_path / "README.md"
    readme.write_text("## CLI\n\n```sh\nbtb --d x eta --n 1\n```\n")
    runs = [_untraced(tmp_path, "apartment", 1, 3.0, 20.0)]
    assert tool.main(["--parent"] + runs + ["--change"] + runs
                     + ["--out", str(tmp_path / "o.json"), "--readme",
                        str(readme), "--readme-change", str(ROOT)]) == 2
    assert "exited 2" in capsys.readouterr().err
