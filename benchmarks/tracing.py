"""Outside-in layer tracing for the traced benchmark run.

Every function in TARGETS is wrapped from the outside: a module-level
function at each binding inside the polar package (so `encode` is wrapped in
encoder, agent, distiller, retrieval and scenarios alike), a method on its
class. A wrapper records one span (id, name, start, end, parent) and adds its
duration to the parent's child time, so a function's self time excludes the
wrapped functions it calls. Spans stay in memory and are written out once,
after the run. `World.is_free` is deliberately left unwrapped: run-all calls
it about a million times, and its cost stays in its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (metric prefix, defining module, attribute or Class.method)
TARGETS = (
    ("world.step", "polar.world", "World.step"),
    ("world.observe", "polar.world", "World.observe"),
    ("world.segment_free", "polar.world", "World.segment_free"),
    ("world.line_of_sight", "polar.world", "World.line_of_sight"),
    ("world.distance_field", "polar.world", "World.distance_field"),
    ("world.shortest_path_length", "polar.world", "World.shortest_path_length"),
    ("world.move_object", "polar.world", "World.move_object"),
    ("world.dijkstra", "polar.world", "_csgraph_dijkstra"),
    ("scenarios.gen_scenarios", "polar.scenarios", "gen_scenarios"),
    ("scenarios.gen_world", "polar.world", "gen_world"),
    ("scenarios.room_cells", "polar.world", "World.room_cells"),
    ("scenarios.save_specs", "polar.scenarios", "save_specs"),
    ("scenarios.load_specs", "polar.scenarios", "load_specs"),
    ("agent.run_episode", "polar.agent", "run_episode"),
    ("agent.plan_high", "polar.agent", "plan_high"),
    ("agent.plan_low", "polar.agent", "plan_low"),
    ("agent.ground_target", "polar.agent", "ground_target"),
    ("agent.ground", "polar.agent", "OraclePlanner.ground"),
    ("encoder.encode", "polar.encoder", "encode"),
    ("encoder.cosine", "polar.encoder", "cosine"),
    ("graph.upsert_object", "polar.graph", "MemoryGraph.upsert_object"),
    ("graph.add_semantic", "polar.graph", "MemoryGraph.add_semantic"),
    ("graph.add_episodic", "polar.graph", "MemoryGraph.add_episodic"),
    ("graph.supersede", "polar.graph", "MemoryGraph.supersede"),
    ("graph.neighbors", "polar.graph", "MemoryGraph.neighbors"),
    ("graph.to_json", "polar.graph", "MemoryGraph.to_json"),
    ("graph.from_json", "polar.graph", "MemoryGraph.from_json"),
    ("distiller.memorize", "polar.distiller", "memorize"),
    ("distiller.summarize_episodic", "polar.distiller", "summarize_episodic"),
    ("distiller.save_episodes", "polar.distiller", "save_episodes"),
    ("distiller.load_episodes", "polar.distiller", "load_episodes"),
    ("retrieval.retrieve", "polar.retrieval", "retrieve"),
    ("retrieval.retrieve_semantic", "polar.retrieval", "retrieve_semantic"),
    ("retrieval.assemble_candidates", "polar.retrieval", "assemble_candidates"),
    ("retrieval.raw_retrieve", "polar.retrieval", "raw_retrieve"),
    ("evaluation.acquire", "polar.evaluation", "acquire"),
    ("evaluation.memorize_suite", "polar.evaluation", "memorize_suite"),
    ("evaluation.evaluate", "polar.evaluation", "evaluate"),
    ("evaluation.save_graphs", "polar.evaluation", "save_graphs"),
    ("evaluation.load_graphs", "polar.evaluation", "load_graphs"),
    ("evaluation.write_report", "polar.evaluation", "write_report"),
    ("fileio.atomic_write_text", "polar.fileio", "atomic_write_text"),
)

# Counters that are not spans: hashed-encoder cache misses, bytes written, and the stated
# facts that the lifelong checks find without a statement of their own (run.py adds these).
EXTRA_METRICS = (
    ("encoder.hash.misses", "count"),
    ("fileio.bytes_written", "bytes"),
    ("distiller.facts_lost", "count"),
)

MAX_SPANS = 100_000  # spans beyond this are counted, not kept


class Tracer:
    """Span recorder; wrappers pass straight through while it is not active."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.hash_misses = 0
        self.bytes_written = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for _name, module_name, _attr in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "polar" or n.startswith("polar.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                setattr(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        clock = time.perf_counter
        counts_bytes = name == "fileio.atomic_write_text"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start - self._t0, end - self._t0, parent))
                else:
                    self.dropped += 1
                if counts_bytes:
                    text = args[1] if len(args) > 1 else kwargs["text"]
                    self.bytes_written += len(text.encode("utf-8"))

        return traced

    # -- recording --------------------------------------------------------

    def start(self) -> None:
        from polar import encoder

        self._misses_at_start = encoder._hash_text.cache_info().misses
        self.active = True

    def stop(self) -> None:
        from polar import encoder

        self.active = False
        self.hash_misses += encoder._hash_text.cache_info().misses - self._misses_at_start

    # -- output -----------------------------------------------------------

    def totals(self) -> dict:
        """This process's counts and self times, for merge()."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "encoder.hash.misses": self.hash_misses,
            "fileio.bytes_written": self.bytes_written,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_s": start, "end_s": end, "parent": parent}))
                fh.write("\n")


def merge(rounds: list[dict]) -> dict[str, dict]:
    """Per-round means of every per-layer metric over the rounds' totals."""
    n = len(rounds)
    out = {}
    for name, _module, _attr in TARGETS:
        out[f"{name}.calls"] = {"value": sum(r["calls"][name] for r in rounds) / n, "unit": "count"}
        out[f"{name}.self_ms"] = {"value": 1000.0 * sum(r["self_s"][name] for r in rounds) / n, "unit": "ms"}
    for name, unit in EXTRA_METRICS:
        out[name] = {"value": sum(r[name] for r in rounds) / n, "unit": unit}
    return out
