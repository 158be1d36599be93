"""Static hygiene: every name a package module imports, and every private
module-level name it defines, is used in it; every public module-level name
is used somewhere in the package or exported; `__init__.py` exports exactly
what it imports; no module but `poly.py` reads a determinant, resultant or
gcd oracle or calls `.kron`, and no module but `models.py` (`scan.py` in
particular) reads the char-poly kernel; one function draws from `random`;
only `cli._write` opens a file for writing; no module but `numerics.py`
(besides `svgplot.py`'s plotting and two named `poly.py` functions) calls
`complex` or `float`; `np.linalg` is read only in `numerics.eigenvalues` and
`numerics.roots_aberth`; only `model_from_dict` calls `ModelSpec`, and `cli.py`
calls no `Fraction`; every function the benchmark's tracer wraps exists in the
package; no module imports scipy anywhere, or a module that drags in the
network stack at module level, and a fresh interpreter that imports the CLI
and runs any subcommand loads none of them; the README's minimal session
runs as printed.

No linter is a dependency, so this walks each module's AST.  `__init__.py`
is exempt from the import check: it imports names only to re-export them.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liouville_ep"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def _is_private(name: str) -> bool:
    # dunder names such as `__all__` are not private
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every function, class or assignment at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            out[name] = node.lineno
    return out


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name read in the tree, bare (`name`) or as an attribute (`x.name`)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    return exported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _definitions(tree).items()
        if _is_private(name) and name not in loaded
    )
    assert not unused, f"{path.name} defines private names it never uses: {unused}"


def test_no_unreferenced_public_names():
    # a public name that no package module reads and `__all__` does not export
    # is dead code, whatever the tests still call on it
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = set(_exported_names()).union(*(_loaded_names(t) for t in trees.values()))
    unreferenced = sorted(
        f"{path.name}: {name} (line {line})"
        for path in MODULES
        for name, line in _definitions(trees[path]).items()
        if not name.startswith("_") and name not in used
    )
    assert not unreferenced, f"public names nothing in the package uses: {unreferenced}"


# test oracles, the general multivariate resultant, the Fraction-based
# univariate Euclid (`gcd_univariate`, the Sylvester matrix, `.exact_div`) and
# the dense Kronecker product that the generator's entry-wise assembly is
# tested against: only poly.py may read them, so none can turn into a hidden
# runtime fallback
ORACLES = {
    "det_bareiss",
    "det_cofactor",
    "sylvester_resultant",
    "gcd_univariate",
    "sylvester_matrix",
    "exact_div",
    "kron",
}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"], ids=lambda p: p.name)
def test_oracles_stay_out_of_the_runtime(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = sorted(ORACLES & (_loaded_names(tree) | set(_imported_names(tree))))
    assert not read, f"{path.name} reads test oracles: {read}"


def test_scan_takes_no_kernel_determinant():
    # the scan's discriminant comes from the dense univariate layer, not from
    # the char-poly kernel on a Sylvester matrix
    tree = ast.parse((PACKAGE / "scan.py").read_text())
    assert "char_poly_berkowitz" not in _loaded_names(tree) | set(_imported_names(tree))


def test_only_models_reads_the_kernel():
    # one runtime determinant route with one caller: every char poly is a
    # batch of `models.char_polys`
    readers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "poly.py" and "char_poly_berkowitz" in _loaded_names(tree) | set(_imported_names(tree)):
            readers.append(path.name)
    assert readers == ["models.py"], f"modules that read the char-poly kernel: {readers}"


def _write_opens(tree: ast.Module):
    """(enclosing function, line) of every `open(...)` whose mode writes."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "open"
            ):
                modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                    yield owner, child.lineno
            yield from visit(child, owner)

    return visit(tree, None)


def test_files_are_written_only_by_cli_write():
    # one write path: an unwritable output is an input error (exit 2)
    # everywhere, never a traceback from a stray open()
    stray = sorted(
        f"{path.name}:{line} (in {owner})"
        for path in SOURCES
        for owner, line in _write_opens(ast.parse(path.read_text(), filename=str(path)))
        if (path.name, owner) != ("cli.py", "_write")
    )
    assert not stray, f"files opened for writing outside cli._write: {stray}"


def _reads(tree: ast.Module, names: set[str]):
    """Enclosing function of every read of one of `names`, bare or as an
    attribute (`random.Random`, `np.random`); None at module level."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                if getattr(child, "id", None) in names or getattr(child, "attr", None) in names:
                    yield owner
            yield from visit(child, owner)

    return visit(tree, None)


def test_one_function_draws_from_random():
    # the seeded generic perturbation has one draw routine: classify's seeds
    # and `generic_perturbation` both come from it, so they cannot drift apart
    readers = sorted(
        {f"{path.name}:{owner}" for path in MODULES for owner in _reads(ast.parse(path.read_text()), {"random"})}
    )
    assert readers == ["models.py:perturbation_draws"], f"functions that draw from random: {readers}"


def test_lapack_stays_behind_two_names():
    # LAPACK serves the spectra (`eigenvalues`) and the scan's roots
    # (`roots_aberth`) only: the amoeba's roots come from Aberth sweeps, and
    # no module imports numpy.linalg or a name from it to get round this rule
    readers = sorted(
        {f"{path.name}:{owner}" for path in SOURCES for owner in _reads(ast.parse(path.read_text()), {"linalg"})}
    )
    assert readers == ["numerics.py:eigenvalues", "numerics.py:roots_aberth"], f"functions that read np.linalg: {readers}"
    imports = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
        or isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names)
    )
    assert not imports, f"imports of numpy.linalg: {imports}"


def test_polygon_reaches_the_kernel_through_classify():
    # `polygon` takes every char poly from classify's batch, a named
    # perturbation's pencil included, so it makes one kernel call; only
    # `amoeba`, which classifies nothing, asks for a char poly itself
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    readers = sorted(set(_reads(tree, {"char_poly", "char_polys"})))
    assert readers == ["cmd_amoeba"], f"cli functions that call the char-poly functions: {readers}"


# where a package module may call `complex` or `float`: numerics, the one
# exact-to-float conversion; svgplot, which maps floats to floats for plotting;
# and in poly the conversion numpy calls on a GaussRational and the float
# evaluation that tests use as an oracle
MAKES_FLOATS = {
    ("numerics.py", None),
    ("svgplot.py", None),
    ("poly.py", "GaussRational.__complex__"),
    ("poly.py", "MultiPoly.evaluate"),
}


def _calls(tree: ast.Module, names: set[str]):
    """(enclosing Class.function, line) of every call of a bare name in
    `names`, such as `float(...)`; None at module level."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if owner is None else f"{owner}.{child.name}")
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in names
            ):
                yield owner, child.lineno
            yield from visit(child, owner)

    return visit(tree, None)


def test_only_numerics_makes_floats():
    # every float enters through numerics: no other module converts an exact
    # value itself (argparse's `type=float` in cli.py names the type without
    # calling it)
    stray = sorted(
        f"{path.name}:{line} (in {owner})"
        for path in SOURCES
        for owner, line in _calls(ast.parse(path.read_text(), filename=str(path)), {"complex", "float"})
        if (path.name, None) not in MAKES_FLOATS and (path.name, owner) not in MAKES_FLOATS
    )
    assert not stray, f"complex or float calls outside numerics: {stray}"


def test_models_are_made_only_from_descriptions():
    # one way in: every model, built-in or from a file, is a description read
    # by `model_from_dict`, so none skips its checks
    makers = sorted(
        f"{path.name}:{owner}"
        for path in SOURCES
        for owner, _ in _calls(ast.parse(path.read_text(), filename=str(path)), {"ModelSpec"})
    )
    assert makers == ["models.py:model_from_dict"], f"functions that call ModelSpec: {makers}"


def test_cli_reads_numbers_only_by_the_grammar():
    # --bind and --omega0 values are expressions of the grammar; Fraction's own
    # number syntax (any Unicode digit, '_' separators) stays out of the CLI
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = sorted(line for _, line in _calls(tree, {"Fraction"}))
    assert not calls, f"cli.py calls Fraction on lines {calls}"


def test_traced_names_resolve():
    # perfbench/tracer.py wraps functions by name; a rename in the package
    # would otherwise surface only as a failed traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, path, _sizes in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"perfbench/tracer.py traces names the package lacks: {missing}"


def test_all_matches_reexports():
    # the public surface is `__all__`: a name dropped from a module must leave
    # both the re-export and `__all__`, and neither may list a name twice
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    exported = _exported_names()
    assert len(imported) == len(set(imported)), "a name is imported twice"
    assert len(exported) == len(set(exported)), "a name is listed twice in __all__"
    assert sorted(imported) == sorted(exported)
    package = importlib.import_module("liouville_ep")
    unresolved = [name for name in exported if not hasattr(package, name)]
    assert not unresolved, f"__all__ names the package lacks: {unresolved}"


# a one-shot CLI process pays for every module it loads: scipy costs more than
# the rest of the package together, and `xml.sax` pulls in urllib, http and
# email; the package needs numpy alone and escapes SVG text with `html.escape`
HEAVY = ("scipy", "xml.sax", "urllib", "http", "email")


def _is_heavy(module: str) -> bool:
    return any(module == h or module.startswith(h + ".") for h in HEAVY)


def _module_level_imports(tree: ast.Module):
    """Absolute module names imported outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_heavy_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    heavy = sorted(m for m in _module_level_imports(tree) if _is_heavy(m))
    assert not heavy, f"{path.name} imports at module level: {heavy}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    # function bodies included: scipy is no dependency of the package
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [
        n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 0
    ]
    scipy = sorted(m for m in imported if m == "scipy" or m.startswith("scipy."))
    assert not scipy, f"{path.name} imports {scipy}"


# the three exact-2level scans of the benchmark and the lambda3 polygon at its
# 4-fold diabolic point; the interpreter's own start-up may already load some
# of HEAVY (urllib.parse, say), so only the modules these runs add count
EXACT_RUNS = [
    ["scan", "--model", "spin_half", "--bind", "Omega=1", "--bind", "gamma_minus=0",
     "--bind", "gamma_y=2"],
    ["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "J=1/4"],
    ["scan", "--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0"],
    ["polygon", "--model", str(ROOT / "perfbench" / "models" / "lambda3.json"),
     "--bind", "g1=1", "--bind", "g2=1", "--bind", "O=0", "--omega0", "-1/2"],
]
LOADED_BY_RUNS = """
import contextlib, io, json, sys
before = set(sys.modules)
from liouville_ep import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_exact_runs_load_no_heavy_module(fresh_python):
    loaded = json.loads(fresh_python(LOADED_BY_RUNS, json.dumps(EXACT_RUNS)))
    assert "liouville_ep.cli" in loaded and "numpy" in loaded
    heavy = [m for m in loaded if _is_heavy(m)]
    assert not heavy, f"importing the CLI and running the exact layer loaded {heavy}"
    # a polygon without --svg draws nothing, so it loads no plotting code
    assert "liouville_ep.svgplot" not in loaded and "html" not in loaded


# the subcommands that leave the exact layer, each writing its SVG too
QUBIT_EP = ["--model", "qubit", "--bind", "gamma_e=1", "--bind", "gamma_f=0", "--bind", "J=1/4"]
NUMERIC_RUNS = [
    ["amoeba", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg"],
    ["scale", *QUBIT_EP, "--omega0", "-1/2", "--perturb", "gamma_f", "--svg"],
    ["encircle", *QUBIT_EP, "--perturb", "gamma_f", "--svg"],
]


def test_numeric_runs_load_no_heavy_module(fresh_python, tmp_path):
    runs = [[*argv, "--out", str(tmp_path / f"{argv[0]}.csv")] for argv in NUMERIC_RUNS]
    loaded = json.loads(fresh_python(LOADED_BY_RUNS, json.dumps(runs)))
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == ["amoeba.svg", "encircle.svg", "scale.svg"]
    assert "liouville_ep.svgplot" in loaded
    heavy = [m for m in loaded if _is_heavy(m)]
    assert not heavy, f"importing the CLI and running amoeba, scale and encircle loaded {heavy}"


def test_readme_session_runs(fresh_python):
    """The README's first python block runs as printed, so a renamed name it
    uses fails here instead of leaving the docs broken."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    session = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert fresh_python(session).strip()
