"""Layout guard: every top-level def and class in src/cochad is product
code.

A public one must be used by another statement of the package,
exported by cochad.__all__, or imported by the acceptance gate; a
private one must be read by another statement of the package.  A
helper only the tests read belongs in tests/oracles.py.  No statement
of the package reads survivors as per-axis index arrays.
"""

import ast
from pathlib import Path

import cochad

SRC = Path(cochad.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# Public names kept although nothing in the package calls them.
EXEMPT = {
    "distributions.coboundary_bounds": "the abstract's bounds on the coboundary count",
    "group.identity": "a group axiom the index arithmetic is tested against",
    "group.inverse": "a group axiom the index arithmetic is tested against",
}


def _names_used(node):
    """Names and attributes a statement reads."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _acceptance_imports():
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cochad")
        for alias in node.names
    }


def _definitions():
    """(module, statement, defined name or None) of each top-level
    statement of the package, and the names each statement reads."""
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            statements.append((path.stem, node, defines))
    return statements, [(node, _names_used(node)) for _, node, _ in statements]


def _unread(statements, uses, names):
    """The defined names among names that no other statement reads."""
    return [
        f"{module}.{name}"
        for module, node, name in statements
        if name in names and not any(other is not node and name in used for other, used in uses)
    ]


def test_public_names_are_product_code():
    statements, uses = _definitions()
    defined = {f"{module}.{name}" for module, _, name in statements if name}
    assert set(EXEMPT) <= defined, "an exemption names a definition that is gone"
    allowed = set(cochad.__all__) | _acceptance_imports()
    public = {name for _, _, name in statements if name and not name.startswith("_")}
    stray = [name for name in _unread(statements, uses, public - allowed) if name not in EXEMPT]
    assert stray == [], f"public names only tests read: {stray}"


def test_private_names_are_read_by_the_package():
    statements, uses = _definitions()
    private = {name for _, _, name in statements if name and name.startswith("_")}
    stray = _unread(statements, uses, private)
    assert stray == [], f"private names the package never reads: {stray}"


# Calls that return one index array per axis.  On a (64, 64, 64) verdict
# grid with ~30 true entries, np.nonzero takes ~0.7 ms and np.flatnonzero
# with np.unravel_index ~0.04 ms (numpy 2.4, 2 cores), and brute_force(7)
# reads 128 such grids.  np.where with one argument is np.nonzero.
_PER_AXIS = {"nonzero", "argwhere"}


def _per_axis_calls(source):
    """Line numbers of the per-axis index calls in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr in _PER_AXIS or node.func.attr == "where" and len(node.args) == 1)
    ]


def test_no_per_axis_index_calls():
    sample = ["np.nonzero(a)", "a.nonzero()", "np.argwhere(a)", "np.where(a)"]
    sample += ["np.flatnonzero(a)", "np.count_nonzero(a)", "np.where(a, 1, 0)"]
    assert _per_axis_calls("\n".join(sample)) == [1, 2, 3, 4]
    calls = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _per_axis_calls(path.read_text())
    ]
    assert calls == [], (
        f"per-axis index calls at {calls}: use np.flatnonzero, then np.unravel_index or "
        "np.divmod (np.nonzero on a 2^18-entry grid takes ~0.7 ms, flatnonzero ~0.04 ms)"
    )
