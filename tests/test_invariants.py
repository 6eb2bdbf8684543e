"""Internal invariants are explicit raises, not `assert` statements, so
they still hold under `python -O`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "btbuildings"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"
