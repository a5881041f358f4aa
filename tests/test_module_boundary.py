"""Module boundary: no ``spantree`` module reads another module's private
(``_``-prefixed) names, and every name in the README's paper-to-code table
exists.

Every module under ``src/spantree`` is parsed.  A module *defines* the
private names of its functions, classes, methods and assignment targets
(``self._x = ...`` included).  Reading ``obj._x`` or importing ``_x`` is
allowed only where the reading module defines ``_x`` itself, so a class may
use its own private members from anywhere in its module.
"""

import ast
import importlib
import re
from pathlib import Path

import spantree

SRC = Path(spantree.__file__).parent
ROOT = Path(__file__).parent.parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _defined(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in names if _private(name)}


def _read(tree: ast.AST) -> list[tuple[int, str]]:
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            reads.extend((node.lineno, alias.name) for alias in node.names)
    return [(line, name) for line, name in reads if _private(name)]


def boundary_violations(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    defined = {name: _defined(tree) for name, tree in trees.items()}
    out = []
    for name, tree in sorted(trees.items()):
        for line, attr in _read(tree):
            owners = sorted(o for o, names in defined.items() if o != name and attr in names)
            if owners and attr not in defined[name]:
                out.append(f"{name}:{line} reads {attr} of {', '.join(owners)}")
    return out


def test_no_module_reads_another_modules_private_names():
    assert boundary_violations(SRC) == []


def test_boundary_check_sees_a_cross_module_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def _own(self):\n        return self._own\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import A, _helper\n\ndef f(x):\n    return x._own()\n"
    )
    (tmp_path / "c.py").write_text("def _helper():\n    pass\n")
    assert boundary_violations(tmp_path) == [
        "b.py:1 reads _helper of c.py",
        "b.py:4 reads _own of a.py",
    ]


def paper_map_rows() -> list[tuple[str, str]]:
    """(computed by, checked by) cells of the README's paper-to-code table."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Paper quantity | Computed by | Checked by |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")[1:]))
    return rows


def test_paper_map_names_resolve():
    rows = paper_map_rows()
    assert len(rows) == 11
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    for computed, checked in rows:
        names = re.findall(r"`(\w+)\.(\w+)`", computed)
        assert names, computed
        for module, name in names:
            assert callable(getattr(importlib.import_module(f"spantree.{module}"), name))
        criteria = re.findall(r"\d+", re.sub(r"`[^`]*`", "", checked))
        tests = re.findall(r"`(\w+\.py)::(\w+)`", checked)
        assert criteria or tests, checked
        for number in criteria:
            assert f"def test_criterion_{int(number):02d}_" in acceptance, checked
        for path, name in tests:
            source = (ROOT / "tests" / path).read_text(encoding="utf-8")
            assert f"def {name}(" in source, checked


def test_export_list_resolves():
    """``spantree.__all__`` names exactly the public names ``__init__``
    imports, once each, and every one of them resolves."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(spantree.__all__) == public
    assert len(set(spantree.__all__)) == len(spantree.__all__)
    for name in spantree.__all__:
        assert getattr(spantree, name) is not None, name
