"""Every constant a `spdelab` docstring names exists in its module.

Docstrings name the module constants that fix a quadrature, a budget or a
gate.  A constant that is deleted or renamed while a docstring still names
it leaves the docstring describing code that is gone, so each such name
must resolve as an attribute of the module whose docstring names it.  A
name counts as a constant when it is an ALL_CAPS word in backticks, or an
ALL_CAPS word with an underscore anywhere in the text.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spdelab"
BACKTICKED = re.compile(r"`+(_?[A-Z][A-Z0-9_]*)`+")
UNDERSCORED = re.compile(r"\b(_?[A-Z][A-Z0-9]*_[A-Z0-9_]+)\b")


def _named_constants(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node) or ""
            names |= set(BACKTICKED.findall(doc)) | set(UNDERSCORED.findall(doc))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_docstring_constants_resolve(path):
    module = importlib.import_module(f"spdelab.{path.stem}")
    missing = sorted(name for name in _named_constants(path) if not hasattr(module, name))
    assert missing == []


def test_the_pattern_sees_both_forms():
    path = SRC / "kolmogorov.py"
    assert {"FD_STEP", "PICARD_NODES", "_BLOCK_NUMBERS"} <= _named_constants(path)
