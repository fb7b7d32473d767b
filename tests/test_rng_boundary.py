"""All randomness flows through ``rng.py``: no other module reaches numpy's RNG.

Every module but ``rng.py`` takes its draws from an ``RngStream`` (or a
numpy ``Generator`` passed in) by calling ``random`` and ``integers``.  This
parses the package source and fails on any other module that names
``np.random`` / ``numpy.random`` or reads an ``RngStream``'s ``.generator``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lucewalks"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rng.py")


def _rng_escapes(tree):
    """(line, what) for each reference to numpy's RNG or a stream's generator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "generator":
                found.append((node.lineno, ".generator"))
            elif (node.attr == "random" and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                found.append((node.lineno, f"{node.value.id}.random"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                    node.module == "numpy" and any(a.name == "random" for a in node.names)):
                found.append((node.lineno, f"from {node.module} import"))
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"arrangements.py", "cli.py", "core.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_rng_outside_rng_module(path):
    assert _rng_escapes(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.random.SeedSequence()",
    "g = rng.generator",
    "import numpy.random",
    "from numpy import random",
    "from numpy.random import default_rng",
])
def test_detects_escape(source):
    assert _rng_escapes(ast.parse(source))
