"""Every constant, private name, class name and module-qualified name that a
`spdelab` docstring names exists.

Docstrings name the module constants that fix a quadrature, a budget or a
gate, the private helpers that carry a design, and names in a sibling module
as `<module>.<name>`.  A name that is deleted or renamed while a docstring
still names it leaves the docstring describing code that is gone, so each
must resolve: a plain name as an attribute of the module whose docstring
names it, a qualified one as an attribute of the module it names.  A name
counts when it is an ALL_CAPS word or a `_private` identifier in backticks,
an ALL_CAPS word with an underscore anywhere in the text, or a `spdelab`
module, a dot and an identifier in backticks.  A CamelCase name in backticks
names a class, which may live in a sibling module (the analysis docstrings
name the drift's `HolderDriftSpec`), so it must resolve in some `spdelab`
module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spdelab"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
BACKTICKED = re.compile(r"`+(_\w+|[A-Z][A-Z0-9_]*)`+")
UNDERSCORED = re.compile(r"\b(_?[A-Z][A-Z0-9]*_[A-Z0-9_]+)\b")
QUALIFIED = re.compile(rf"`+((?:{'|'.join(MODULES)})\.\w+)`+")
CAMEL = re.compile(r"`+([A-Z]\w*[a-z]\w*)`+")


def _named(path: Path, patterns=(BACKTICKED, UNDERSCORED, QUALIFIED)) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node) or ""
            for pattern in patterns:
                names |= set(pattern.findall(doc))
    return names


def _resolves(module, name: str) -> bool:
    owner, _, attribute = name.rpartition(".")
    if owner:
        module = importlib.import_module(f"spdelab.{owner}")
    return hasattr(module, attribute)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_docstring_constants_resolve(path):
    module = importlib.import_module(f"spdelab.{path.stem}")
    missing = sorted(name for name in _named(path) if not _resolves(module, name))
    modules = [importlib.import_module(f"spdelab.{stem}") for stem in MODULES]
    missing += sorted(name for name in _named(path, (CAMEL,)) if not any(hasattr(m, name) for m in modules))
    assert missing == []


def test_the_pattern_sees_both_forms():
    assert {"FD_STEP", "PICARD_NODES", "_BLOCK_NUMBERS", "_NormalsAhead"} <= _named(SRC / "kolmogorov.py")
    assert {"_advance", "noise.left_fold_blocks"} <= _named(SRC / "scheme.py")
    assert "HolderDriftSpec" in _named(SRC / "analysis.py", (CAMEL,))
