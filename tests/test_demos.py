"""The demos stay runnable: their imports resolve, the fast one runs, and the
command-line walkthrough parses."""

import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spantree
from spantree.cli import build_parser

DEMOS = Path(__file__).resolve().parent.parent / "demos"
PYTHON_DEMOS = sorted(DEMOS.glob("*.py"))


def spantree_imports(path):
    """(module, name) for every ``from spantree... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "spantree"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", PYTHON_DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = spantree_imports(path)
    assert imports, f"{path.name} imports nothing from spantree"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_oracle_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(spantree.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / "oracle_two_segments.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "splits on the seam" in proc.stdout and "welch t" in proc.stdout


def test_cli_walkthrough_commands_parse():
    script = (DEMOS / "cli_walkthrough.sh").read_text(encoding="utf-8")
    lines = script.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("spantree ")]
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]
