"""Start-up cost: the package and its commands run without scipy.

Importing scipy costs about half a second, and the package needs none of it:
``bottomk`` integrates with its own numpy Gauss-Kronrod rule and
``arrangements`` solves for stationary laws with numpy alone.  A child
process with every ``scipy`` import blocked must still import the package and
run its commands, bottom-card tables and stationary solves included; and no
module of the package may name scipy in any import, deferred ones included.
scipy stays a test dependency, as an oracle.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lucewalks"
MODULES = sorted(PACKAGE.glob("*.py"))

NO_SCIPY = '''
import json, sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
import lucewalks
import lucewalks.cli

codes = [lucewalks.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
'''

LIGHT_COMMANDS = [
    ["pmf", "--weights", "[1,2,3]", "--sigma", "3,2,1"],
    ["topk", "--weights", "[1,2,3,4]", "--normalize", "--k", "2"],
    ["sample", "--weights", "[1,2,3]", "--n-samples", "5", "--method", "urn"],
    ["sample", "--weights", "[1,2,3]", "--n-samples", "5", "--method", "exponential"],
    ["converge-test", "--family", "log", "--beta", "2"],
    ["converge-test", "--family", "log-loglog"],
    ["arrangement", "sample-bd", "--model", "ehrenfest", "--dim", "3", "--samples", "5"],
    ["arrangement", "sim", "--model", "tsetlin", "--weights", "[1,2,3]", "--normalize",
     "--steps", "5"],
    ["arrangement", "stationary", "--model", "tsetlin", "--weights", "[1,2,3,4]", "--normalize"],
    ["bottom-table", "--family", "linear", "--max-label", "3", "--tol", "1e-8"],
]


def test_light_commands_run_without_scipy(tmp_path, child_env):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(LIGHT_COMMANDS)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc == {"codes": [0] * len(LIGHT_COMMANDS), "scipy": []}, proc.stderr[-2000:]


def _scipy_imports(node):
    """(line, module) for each scipy module an import statement names."""
    if isinstance(node, ast.Import):
        return [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
    if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "scipy":
        return [(node.lineno, node.module)]
    return []


def _module_level_scipy_imports(tree):
    """(line, module) for each scipy import that runs when the module is imported.

    Function bodies run later, so they are not searched; class bodies and
    top-level ``if`` / ``try`` blocks run at import, so they are.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            found.extend(_scipy_imports(child))
            visit(child)

    visit(tree)
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"bottomk.py", "arrangements.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_scipy_import(path):
    assert _module_level_scipy_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_no_module_imports_scipy():
    # deferred imports included: quadrature and stationary solves are numpy only
    assert [(path.name, *hit) for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            for hit in _scipy_imports(node)] == []


@pytest.mark.parametrize("source", [
    "import scipy",
    "import scipy.sparse as sp",
    "import numpy, scipy.special",
    "from scipy import integrate",
    "from scipy.special import logsumexp",
    "try:\n    import scipy\nexcept ImportError:\n    pass",
    "class A:\n    from scipy import integrate",
])
def test_detects_module_level_import(source):
    assert _module_level_scipy_imports(ast.parse(source))


@pytest.mark.parametrize("source", [
    "def f():\n    import scipy.sparse as sp",
    "def f():\n    global integrate\n    from scipy import integrate",
    "import scipyx",
    "from . import scipy_helpers",
])
def test_allows_deferred_import(source):
    assert _module_level_scipy_imports(ast.parse(source)) == []
