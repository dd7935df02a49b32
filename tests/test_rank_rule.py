"""Every numeric rank decision in jetlag goes through dynamics.numeric_rank:
no other module calls numpy's SVD, determinant or matrix rank."""

import ast
from pathlib import Path

import jetlag

RANK_CALLS = {"svd", "det", "matrix_rank"}
SOURCES = sorted(Path(jetlag.__file__).parent.glob("*.py"))


def _rank_calls(path):
    """(line, name) of each numpy.linalg SVD, determinant or matrix-rank
    use in a source file: an attribute of something named linalg, or a name
    imported from numpy.linalg."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in RANK_CALLS:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if name == "linalg":
                found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, a.name) for a in node.names if a.name in RANK_CALLS | {"*"}]
    return found


def test_only_dynamics_ranks_matrices():
    assert len(SOURCES) > 10
    calls = {path.name: _rank_calls(path) for path in SOURCES}
    assert calls.pop("dynamics.py"), "dynamics.numeric_rank no longer takes an SVD"
    assert {name: found for name, found in calls.items() if found} == {}
