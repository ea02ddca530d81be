"""Every name a module of the package imports is used in that module, every
module-level private name the package defines is used somewhere in it, the
third-party modules ``src/`` imports are exactly the declared runtime
dependencies, every DFT runs in the two Fourier-stack helpers, every
eigensolve runs in ``spectral``'s two solver routes, the shape rules live in
``core`` alone, only the tensor-file reader switches the cyclic garbage
collector, only the Fourier layers know which slices a stack holds, the package
re-exports exactly the public names of its layers, and the CLI builds and
prints its run report in ``main`` alone.

A stdlib ``ast`` walk, so refactors cannot leave stale imports, stranded
helpers, stale dependencies, a second Fourier layout, a stray eigensolver or a
copied shape rule behind.  Names listed
in the module's ``__all__`` (re-exports) and imports on a line marked
``# noqa: F401`` are exempt from the import check.  ``from .x import *``
imports the names of ``x.__all__``, and an ``__all__`` may be composed of
sibling modules' ``x.__all__``; both are read from the sibling's source.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tspectral"


def _all_names(path: Path, expr: ast.expr) -> list[str]:
    """The names of an ``__all__`` expression in the module at ``path``: its string
    literals, and for each ``x.__all__`` in it the ``__all__`` of sibling module ``x``."""
    names = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
        elif isinstance(node, ast.Attribute) and node.attr == "__all__":
            names += _module_all(path.with_name(f"{node.value.id}.py"))
    return names


def _module_all(path: Path) -> list[str]:
    """The ``__all__`` of the module at ``path``, read from its source; [] if it has none."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return _all_names(path, node.value)
    return []


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line number
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                if alias.name == "*":  # from .x import *
                    names = _module_all(path.with_name(f"{node.module}.py"))
                else:
                    names = [alias.asname or alias.name.split(".")[0]]
                imported.update(dict.fromkeys(names, alias.lineno))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    exported = set(_module_all(path))
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_star_imports_resolve_against_all(tmp_path):
    """A star import binds the source module's ``__all__``; a composed
    ``__all__`` exports exactly the names of the modules it names."""
    (tmp_path / "a.py").write_text('__all__ = ["f", "g"]\n\n\ndef f():\n    pass\n\n\ng = f\n')
    (tmp_path / "b.py").write_text('__all__ = ["h"]\nh = 1\n')
    (tmp_path / "__init__.py").write_text(
        "from . import a\nfrom .a import *\nfrom .b import *\n\n__all__ = [*a.__all__, 'k']\n"
    )
    assert sorted(_module_all(tmp_path / "__init__.py")) == ["f", "g", "k"]
    assert _unused_imports(tmp_path / "__init__.py") == ["__init__.py:3: h"]


def _unused_private_names(src: Path) -> list[str]:
    """Module-level ``_private`` functions, classes and constants of the
    modules in ``src`` that no module in ``src`` reads (by name or as an
    attribute); importing a name does not count as using it."""
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}: {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [where for name, where in sorted(defined.items()) if name not in used]


def test_no_unused_private_names():
    assert _unused_private_names(SRC) == []


def test_unused_private_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_STRAY = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
        "class _Stray:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import _helper, _STRAY\n\nX = _helper()\n")
    assert _unused_private_names(tmp_path) == ["a.py:2: _STRAY", "a.py:9: _Stray"]


def _third_party_imports(src: Path) -> dict[str, str]:
    """Top-level module -> ``file:line`` of its first import, for every
    absolute import under ``src`` of a module that is neither in the standard
    library nor one of the packages in ``src``."""
    local = {p.parent.name for p in src.glob("*/__init__.py")}
    local |= {p.stem for p in src.glob("*.py")}
    found = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in (module.split(".")[0] for module in modules):
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, f"{path.relative_to(src)}:{node.lineno}")
    return found


def _dependency_mismatches(src: Path, pyproject: Path) -> list[str]:
    """Imported third-party modules missing from ``[project] dependencies``,
    then declared dependencies that nothing under ``src`` imports.  A
    distribution is matched to the module of the same (normalized) name."""
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(pyproject, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}
    imported = _third_party_imports(src)
    return [
        f"{where}: {name} is not a declared dependency"
        for name, where in sorted(imported.items())
        if name.lower() not in declared
    ] + [
        f"{name} is declared but not imported"
        for name in sorted(declared - {name.lower() for name in imported})
    ]


def test_runtime_dependencies_are_the_imports():
    assert _dependency_mismatches(ROOT / "src", ROOT / "pyproject.toml") == []


def test_dependency_mismatch_is_reported(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from . import mod\nfrom pkg import mod as m\n")
    (pkg / "mod.py").write_text(
        "import os.path\nimport numpy as np\n\n\ndef f():\n    import yaml\n"
    )
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "pkg"\n'
        'dependencies = ["NumPy>=1.24", "requests[socks]; python_version > \'3\'"]\n'
    )
    assert _dependency_mismatches(tmp_path / "src", tmp_path / "pyproject.toml") == [
        "pkg/mod.py:6: yaml is not a declared dependency",
        "requests is declared but not imported",
    ]


# The one chokepoint between a tensor and its Fourier slices.
FFT_HOMES = {("transform.py", "_to_stack"), ("transform.py", "_from_stack")}


def _fft_uses(src: Path) -> list[tuple[str, str, int]]:
    """(file, top-level definition or ``<module>``, line) of every reference to
    ``numpy.fft`` in the modules of ``src``: ``np.fft`` or ``numpy.fft``, called
    or not, and every import of it."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    hit = node.attr == "fft" and getattr(node.value, "id", None) in ("np", "numpy")
                elif isinstance(node, ast.ImportFrom):
                    hit = node.module == "numpy.fft" or (
                        node.module == "numpy" and any(a.name == "fft" for a in node.names)
                    )
                elif isinstance(node, ast.Import):
                    hit = any(a.name == "numpy.fft" for a in node.names)
                else:
                    continue
                if hit:
                    found.append((path.name, owner, node.lineno))
    return found


def test_every_fft_runs_in_the_stack_helpers():
    uses = _fft_uses(SRC)
    assert {(name, owner) for name, owner, _ in uses} >= FFT_HOMES
    assert [use for use in uses if use[:2] not in FFT_HOMES] == []


def test_stray_fft_is_reported(tmp_path):
    (tmp_path / "transform.py").write_text(
        "import numpy as np\n\n\ndef _to_stack(x):\n    return np.fft.rfft(x)\n\n\n"
        "class Slices:\n    def of(self, x):\n        return np.fft.fft(x)\n"
    )
    (tmp_path / "b.py").write_text(
        "import numpy\nfrom numpy.fft import ifft\n\nFFT = numpy.fft.fft\n"
    )
    assert [use for use in _fft_uses(tmp_path) if use[:2] not in FFT_HOMES] == [
        ("b.py", "<module>", 2),
        ("b.py", "<module>", 4),
        ("transform.py", "Slices", 10),
    ]


# The one home of each eigensolver route: Hermitian Fourier stacks in _stack_eig,
# general stacks and the dense oracle in t_eigenvalues.
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
EIGENSOLVER_HOMES = {("spectral.py", "_stack_eig"), ("spectral.py", "t_eigenvalues")}


def _eigensolver_uses(src: Path) -> list[tuple[str, str, int]]:
    """(file, top-level definition or ``<module>``, line) of every reference to a
    numpy eigensolver in the modules of ``src``: an attribute named as one, of any
    object (``np.linalg.eigh``, an alias's ``la.eigh``), called or not, and every
    import of one (or ``*``) from a numpy module."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    hit = node.attr in EIGENSOLVERS
                elif isinstance(node, ast.ImportFrom):
                    hit = (node.module or "").split(".")[0] == "numpy" and any(
                        a.name in (*EIGENSOLVERS, "*") for a in node.names
                    )
                else:
                    continue
                if hit:
                    found.append((path.name, owner, node.lineno))
    return found


def test_every_eigensolve_runs_in_spectral():
    """A hook on ``_stack_eig`` and ``t_eigenvalues`` sees every eigensolve."""
    uses = _eigensolver_uses(SRC)
    assert {(name, owner) for name, owner, _ in uses} == EIGENSOLVER_HOMES


def test_stray_eigensolver_is_reported(tmp_path):
    (tmp_path / "spectral.py").write_text(
        "import numpy as np\n\n\ndef _stack_eig(s):\n    return np.linalg.eigh(s)\n\n\n"
        "def t_eigenvalues(s):\n    return np.linalg.eigvals(s)\n\n\n"
        "class Slices:\n    def of(self, s):\n        return np.linalg.eigvalsh(s)\n"
    )
    (tmp_path / "cli.py").write_text(
        "import numpy.linalg as la\nfrom numpy.linalg import eig\n\nSOLVE = la.eigvals\n\n\n"
        "def verify(s):\n    return np.linalg.eigvals(s).real.min()\n"
    )
    assert [use for use in _eigensolver_uses(tmp_path) if use[:2] not in EIGENSOLVER_HOMES] == [
        ("cli.py", "<module>", 2),
        ("cli.py", "<module>", 4),
        ("cli.py", "verify", 8),
        ("spectral.py", "Slices", 14),
    ]


# The one home of the shape rules: core's _require_square and _require_same_shape.
SHAPE_RULE_TEXTS = ("requires square slices", "requires equal shapes")


def _shape_rule_texts(src: Path) -> list[tuple[str, str, int]]:
    """(text, file, line) of every occurrence of a text of ``SHAPE_RULE_TEXTS``
    in the modules of ``src``, in code, a docstring or a comment."""
    return [
        (text, path.name, number)
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for text in SHAPE_RULE_TEXTS
        if text in line
    ]


def test_shape_rules_live_in_core():
    uses = _shape_rule_texts(SRC)
    assert {(text, name) for text, name, _ in uses} == {(t, "core.py") for t in SHAPE_RULE_TEXTS}


def test_stray_shape_rule_is_reported(tmp_path):
    (tmp_path / "core.py").write_text(
        'def _require_square(t, op):\n    raise ValueError(f"{op} requires square slices")\n'
    )
    (tmp_path / "bounds.py").write_text(
        "def rayleigh_value(a):\n    if a.m != a.n:  # requires square slices\n"
        '        raise ValueError("rayleigh_value requires square slices")\n\n\n'
        'def pair(a, b):\n    """A and B: this requires equal shapes."""\n'
    )
    assert [use for use in _shape_rule_texts(tmp_path) if use[1] != "core.py"] == [
        ("requires square slices", "bounds.py", 2),
        ("requires square slices", "bounds.py", 3),
        ("requires equal shapes", "bounds.py", 7),
    ]


# The modules that know which slices a Fourier stack holds: the rfft layout and its
# weights live in transform; spectral alone puts a solved half on all p slices.
SLICE_LAYOUT_HOMES = {
    "_slice_weights": {"transform.py"},
    "_all_slices": {"transform.py", "spectral.py"},
    "p // 2 + 1": {"transform.py"},
}


def _slice_layout_uses(src: Path) -> list[tuple[str, str, int]]:
    """(name, file, line) of every reference to a name of ``SLICE_LAYOUT_HOMES``
    outside its homes, in the modules of ``src``: a load, an attribute or an
    import of the name, or the rfft-half length written out as ``p // 2 + 1``
    (in code, a docstring or a comment)."""
    found = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits = [("p // 2 + 1", number) for number, line in enumerate(source.splitlines(), 1)
                if "p // 2 + 1" in line]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                hits.append((node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                hits.append((node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                hits += [(alias.name, node.lineno) for alias in node.names]
        found += [(name, path.name, line) for name, line in hits
                  if path.name not in SLICE_LAYOUT_HOMES.get(name, {path.name})]
    return found


def test_only_transform_knows_the_slice_layout():
    assert _slice_layout_uses(SRC) == []


def test_stray_slice_layout_is_reported(tmp_path):
    (tmp_path / "transform.py").write_text(
        "def _slice_weights(k, p):\n    return p // 2 + 1\n\n\n"
        "def _all_slices(x, p):\n    return _slice_weights(len(x), p)\n"
    )
    (tmp_path / "spectral.py").write_text("from .transform import _all_slices\n\nX = _all_slices\n")
    (tmp_path / "geometry.py").write_text(
        "from . import transform\nfrom .transform import _slice_weights\n\n\n"
        "def cross(x, p):  # the rfft half holds p // 2 + 1 slices\n"
        "    return x @ _slice_weights(len(x), p) + transform._all_slices(x, p)\n"
    )
    assert sorted(_slice_layout_uses(tmp_path)) == [
        ("_all_slices", "geometry.py", 6),
        ("_slice_weights", "geometry.py", 2),
        ("_slice_weights", "geometry.py", 6),
        ("p // 2 + 1", "geometry.py", 5),
    ]


# The one place that pauses the cyclic collector (around the orjson document).
GC_TOGGLE_HOMES = {("core.py", "read_tensor")}
GC_TOGGLES = ("disable", "enable")


def _gc_toggles(src: Path) -> list[tuple[str, str, int]]:
    """(file, top-level definition or ``<module>``, line) of every reference to
    ``gc.disable`` or ``gc.enable`` in the modules of ``src``, called or not,
    and every ``from gc import`` of either."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    hit = node.attr in GC_TOGGLES and getattr(node.value, "id", None) == "gc"
                elif isinstance(node, ast.ImportFrom):
                    hit = node.module == "gc" and any(
                        a.name in (*GC_TOGGLES, "*") for a in node.names
                    )
                else:
                    continue
                if hit:
                    found.append((path.name, owner, node.lineno))
    return found


def test_only_the_reader_toggles_the_collector():
    """The collector is a process-wide switch: one reader pauses it and
    restores it, and no other layer turns it on or off."""
    toggles = _gc_toggles(SRC)
    assert {(name, owner) for name, owner, _ in toggles} >= GC_TOGGLE_HOMES
    assert [toggle for toggle in toggles if toggle[:2] not in GC_TOGGLE_HOMES] == []


def test_stray_gc_toggle_is_reported(tmp_path):
    (tmp_path / "core.py").write_text(
        "import gc\n\n\ndef read_tensor(path):\n    gc.disable()\n    gc.enable()\n\n\n"
        "def write_tensor(t, path):\n    gc.isenabled()\n    off = gc.disable\n"
    )
    (tmp_path / "cli.py").write_text(
        "from gc import enable\n\n\nclass Main:\n    def run(self):\n"
        "        import gc\n        gc.enable()\n"
    )
    assert [use for use in _gc_toggles(tmp_path) if use[:2] not in GC_TOGGLE_HOMES] == [
        ("cli.py", "<module>", 1),
        ("cli.py", "Main", 7),
        ("core.py", "write_tensor", 11),
    ]


def test_package_reexports_exactly_the_layers_public_names():
    """``tspectral.__all__`` is the union of the layers' ``__all__`` and the
    error classes, each once, and every name in it is bound in the package."""
    import tspectral
    from tspectral import bounds, core, errors, geometry, spectral, transform

    layers = [name for mod in (core, transform, spectral, bounds, geometry) for name in mod.__all__]
    error_classes = [
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    ]
    assert len(error_classes) == 7
    assert len(set(tspectral.__all__)) == len(tspectral.__all__)
    assert sorted(tspectral.__all__) == sorted(layers + error_classes)
    assert [name for name in tspectral.__all__ if not hasattr(tspectral, name)] == []


def _report_sites(path: Path) -> list[tuple[str, str, int]]:
    """(what, top-level definition, line) of every ``RunReport(...)`` call and
    every mention of the ``json`` option (``x.json`` or the string ``"json"``)
    in the module at ``path``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RunReport":
                found.append(("RunReport", owner, node.lineno))
            elif (isinstance(node, ast.Attribute) and node.attr == "json") or (
                isinstance(node, ast.Constant) and node.value == "json"
            ):
                found.append(("json", owner, node.lineno))
    return found


def test_cli_reports_in_main_only():
    """``main`` builds the one run report and alone decides whether to print it,
    so no command grows its own ``--json`` branch again."""
    sites = _report_sites(SRC / "cli.py")
    assert [what for what, _, _ in sites].count("RunReport") == 1
    assert {(what, owner) for what, owner, _ in sites} == {("RunReport", "main"), ("json", "main")}


def test_stray_report_is_reported(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import json\n\n\ndef cmd(args, report):\n    if args.json:\n"
        "        print(RunReport('x').to_json())\n    return json.dumps({})\n\n\n"
        "def main(args):\n    return getattr(args, 'json', False)\n"
    )
    assert _report_sites(tmp_path / "cli.py") == [
        ("json", "cmd", 5), ("RunReport", "cmd", 6), ("json", "main", 11),
    ]
