"""Every name a module of the package imports is used in that module, and
every module-level private name the package defines is used somewhere in it.

A stdlib ``ast`` walk, so refactors cannot leave stale imports or stranded
helpers behind.  Names listed in the module's ``__all__`` (re-exports) and
imports on a line marked ``# noqa: F401`` are exempt from the import check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tspectral"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}  # bound name -> line number
    exported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


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
