"""The traced benchmark run wraps polar functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_polar_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_to_polar_callables():
    targets = _load_tracing().TARGETS
    assert targets
    for name, module_name, attr in targets:
        assert module_name == "polar" or module_name.startswith("polar."), name
        owner = importlib.import_module(module_name)
        if "." in attr:
            # Tracer.install patches the method where its class defines it
            cls_name, method = attr.split(".")
            raw = vars(getattr(owner, cls_name)).get(method)
            assert isinstance(raw, classmethod) or callable(raw), f"{name}: {module_name}.{attr} is gone"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {module_name}.{attr} is gone"
