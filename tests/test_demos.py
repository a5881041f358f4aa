"""The demos stay runnable: their imports resolve, all three Python demos run
(the two training ones on a short schedule), and the ``spantree`` commands of
the command-line walkthrough and the README's fenced blocks parse."""

import ast
import importlib
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spantree
from spantree import training
from spantree.cli import build_parser

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"
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


# Each training demo and a line its last stage prints.
TRAINING_DEMOS = {"chart_anatomy.py": "exact tree", "training_dynamics.py": "spearman(t_score"}


@pytest.mark.parametrize("name", sorted(TRAINING_DEMOS))
def test_training_demo_runs(monkeypatch, capsys, name):
    # 60 steps with a checkpoint every 20 instead of the demo's schedule
    train = training.train_seq2seq

    def short(*args, **kwargs):
        return train(*args, **dict(kwargs, steps=60, checkpoint_every=20))

    monkeypatch.setattr(training, "train_seq2seq", short)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert TRAINING_DEMOS[name] in capsys.readouterr().out


def test_cli_walkthrough_commands_parse():
    # the walkthrough script, and the fenced blocks of the README's quick start
    script = (DEMOS / "cli_walkthrough.sh").read_text(encoding="utf-8")
    fenced = "\n".join(README.read_text(encoding="utf-8").split("```")[1::2])
    parser = build_parser()
    for text, count in ((script, 7), (fenced, 3)):
        lines = text.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("spantree ")]
        assert len(commands) == count
        for argv in commands:
            args = parser.parse_args(argv[1:])
            assert args.command == argv[1]
