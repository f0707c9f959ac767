"""Tests for the install surface declared in pyproject.toml."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_console_script_targets_are_callable():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_import_and_parse_print_nothing():
    # bench/run.py times fresh interpreters that do exactly this and reads
    # their stdout as two numbers, so nilfol itself must print nothing
    code = ("import nilfol\n"
            "from nilfol import inputdoc\n"
            "inputdoc.parse_text('{\"name\": \"setup\", \"dim\": 1, \"brackets\": [], "
            "\"foliation\": []}')\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == ""
