"""The traced benchmark run and the benchmark's stage timers wrap polar functions by
name; every name must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
WORKLOADS = TRACING.parent / "workloads.py"


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


def _stage_timer_bindings() -> list[tuple[str, str]]:
    """(module, name) of every (module, "name", count) row in workloads._stage_timers."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    [func] = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_stage_timers"]
    rows = []
    for node in ast.walk(func):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3 and isinstance(node.elts[1], ast.Constant):
            rows.append((ast.unparse(node.elts[0]), node.elts[1].value))
    return rows


def test_benchmark_stage_timers_resolve_to_polar_callables():
    rows = _stage_timer_bindings()
    assert sorted(rows) == [
        ("polar.cli", "acquire"),
        ("polar.cli", "evaluate"),
        ("polar.cli", "gen_scenarios"),
        ("polar.cli", "memorize_suite"),
        ("polar.evaluation", "retrieve"),
    ]
    for module_name, name in rows:
        assert callable(getattr(importlib.import_module(module_name), name, None)), f"{module_name}.{name} is gone"


def test_hash_miss_counter_reads_the_encoder_cache():
    """`encoder.hash.misses` comes from `_hash_text.cache_info()`; an encoder change that
    drops the lru_cache must fail here, not silently in a `--trace 1` run."""
    from polar import encoder

    info = encoder._hash_text.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    tracer = _load_tracing().Tracer()
    tracer.start()
    encoder.encode("a text no other test encodes: hash-miss counter")
    encoder.encode("a text no other test encodes: hash-miss counter")
    tracer.stop()
    assert tracer.hash_misses == 1
