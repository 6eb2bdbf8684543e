"""Internal invariants are explicit raises of a specific error, not
`assert` statements or `AssertionError`, so they still hold under
`python -O` and do not pose as test failures."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "btbuildings"


def _find(pred):
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if pred(node)]
    return found


def test_no_assert_statements_in_the_package():
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements vanish under -O: {found}"


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_error_raised_in_the_package():
    found = _find(_raises_assertion_error)
    assert not found, f"raise ArithmeticError or ValueError instead: {found}"


def _relative_imports_in_functions(node):
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(isinstance(inner, ast.ImportFrom) and inner.level
               for inner in ast.walk(node))


def test_no_package_imports_inside_functions():
    # package modules import each other at the top, so the import graph is
    # visible in one place and a cycle fails at import time
    found = _find(_relative_imports_in_functions)
    assert not found, f"move these imports to the top of the module: {found}"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in read]


def test_no_unused_imports_in_the_package():
    # __init__ is exempt: its imports are the package's re-exports
    found = [name for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" for name in _unused_imports(path)]
    assert not found, f"imports that their module never reads: {found}"


def _calls_canonical_form(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "canonical_form")


def test_classes_come_from_one_lattice_path():
    # an outside basis enters through canonical_form only at the CLI and in
    # the canonical-stability suite; every other class is [g L] by
    # lattice.action or a digit computation, and action fixes its precision
    # by the reduction's own guard, so lattice needs no field-level linear
    # algebra at all; subdivision reads the residue flags of its chamber
    # charts off lattice.class_pair_residue, and building writes shift powers
    # as monomial matrices, so they need none either
    found = [name for name in _find(_calls_canonical_form)
             if name.split(":")[0] not in ("cli.py", "verify.py")]
    assert not found, f"use lattice.action instead: {found}"
    for module in ("lattice.py", "subdivision.py", "building.py"):
        tree = ast.parse((SRC / module).read_text())
        names = {alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names
                 if node.module == "linalg" or alias.name == "linalg"}
        assert not names, f"{module} imports {sorted(names)} from linalg"


def _imports_the_reduction(node):
    return isinstance(node, ast.ImportFrom) and any(
        alias.name == "_triangularize_digits" for alias in node.names)


def test_only_lattice_imports_the_reduction():
    # lattice owns the reduction and its one precision rule, guard_precision;
    # the other modules reduce digit columns through lattice.column_class
    found = [name for name in _find(_imports_the_reduction)
             if not name.startswith("lattice.py:")]
    assert not found, f"reduce through lattice.column_class: {found}"


def _call_scopes(path, name):
    """The enclosing class and function names of each call of `name` in
    the module at path, outermost first."""
    scopes = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name):
            scopes.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return scopes


def test_a_rigid_point_builds_its_factor_norms_once():
    # a point expands each coordinate over k_i once, when it is built: the
    # factor norms live on the point, and the lattice tests read them there
    path = SRC / "drinfeld.py"
    assert _call_scopes(path, "_FactorNorm") == [("RigidPoint", "__init__")]
    scopes = _call_scopes(path, "expand_over")
    assert scopes and all(scope[0] == "_FactorNorm" for scope in scopes)
