"""Guards for the module layout that the benchmark tracer and import order rely on."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ftbasis")
# ``__main__`` runs the CLI when imported, so it is left out.
MODULES = sorted(
    name[:-3] for name in os.listdir(PACKAGE)
    if name.endswith(".py") and name not in ("__init__.py", "__main__.py")
)


def traced_layers() -> dict:
    """``LAYERS`` of perfbench/tracer.py, read from the source without importing it."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_traced_functions_resolve():
    layers = traced_layers()
    assert layers
    for layer, funcs in layers.items():
        module = importlib.import_module(f"ftbasis.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"ftbasis.{layer}.{func}"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import ftbasis.{module}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
