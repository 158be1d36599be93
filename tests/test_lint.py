"""Static hygiene: every name a package module imports is used in it.

No linter is a dependency, so this walks each module's AST.  `__init__.py`
is exempt: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liouville_ep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"
