"""The modules are the API: each imports alone, and the package re-exports nothing."""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CHECK = """
import importlib, pkgutil, sys

import polar
loaded = sorted(m for m in sys.modules if m.startswith("polar."))
assert not loaded, f"import polar loaded {loaded}"
names = sorted(info.name for info in pkgutil.iter_modules(polar.__path__))
for name in names:
    for module in [m for m in sys.modules if m.split(".")[0] == "polar"]:
        del sys.modules[module]
    importlib.import_module(f"polar.{name}")
print(" ".join(names))
"""


def test_each_module_imports_alone_and_the_package_loads_none():
    env = dict(os.environ, PYTHONPATH=_SRC)
    run = subprocess.run([sys.executable, "-c", _CHECK], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "agent", "cli", "distiller", "encoder", "errors", "evaluation", "fileio", "graph", "retrieval", "scenarios", "world",
    ]
