"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload runall|lifelong|replay --seed N --seconds S --trace 0|1

Run from the root of a checkout: polar is imported from its `src/`. The
run starts whole rounds, each in a fresh Python process, until `--seconds`
have passed. A round imports polar, builds its inputs, makes the timed calls
into polar and then checks the outputs with the oracles, outside the timed
calls. The end-to-end metrics pool all rounds of the run: wall_s is the
mean timed seconds per round and the rates divide all the work by all the
time spent on it, so they average over the machine's speed drift. Set-up
runs from spawning a round's process to its first timed call and is the
median over the run's rounds; peak_rss_mb is the median over rounds of the
process's peak RSS at the end of its last timed call, before the final
checks. Each round starting in a fresh process keeps polar's
process-global caches (the encoder's hash LRU, the evaluation world cache)
from carrying work over between rounds.

`--trace 1` wraps polar's layer functions in every round (see tracing.py),
prints per-round means of the per-layer metrics instead, and writes them
with the spans under benchmarks/out/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
ROUND_TIMEOUT_S = 170


# -- one round, in its own process ----------------------------------------------------


def _import_polar() -> None:
    """Import polar from this checkout's src/ only."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import polar

    if not os.path.abspath(polar.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"polar was imported from {polar.__file__}, not from {src}")


def _round(args) -> int:
    try:
        _import_polar()
    except ImportError as exc:
        sys.stderr.write(f"benchmark: cannot import polar: {exc}\n")
        return 2
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        inputs = workload.prepare(args.round)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        watch = workloads.Stopwatch(tracer)
        result = workload.run_round(inputs, watch)
        out = {
            "setup_s": watch.first_call_at - args.spawned_at,
            "peak_rss_mb": watch.peak_rss_mb,
            "attempted": result.attempted,
            "failed": result.failed,
            "values": result.values,
            "problems": result.problems,
            "notes": result.notes,
        }
        if tracer is not None:
            trace_dir = os.path.join(OUT_DIR, "trace", f"{args.workload}-seed{args.seed}")
            tracer.write_spans(os.path.join(trace_dir, f"spans-round{args.round}.jsonl"))
            out["trace"] = dict(tracer.totals(), **{"distiller.facts_lost": result.facts_lost})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


# -- the run: rounds in fresh processes --------------------------------------------------


def _spawn(args, index: int) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"round-{os.getpid()}-{index}.json")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--round", str(index),
            "--result", result_path, "--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=ROUND_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"round {index} exited with code {done.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(result_path):
            os.unlink(result_path)


def _run(args) -> int:
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(_spawn(args, len(rounds)))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    notes = {
        "rounds": len(rounds),
        "problems": len(problems),
        "per_round": [dict(r["notes"], values=r["values"], setup_s=r["setup_s"]) for r in rounds],
    }
    sys.stdout.write(f"{args.workload} seed {args.seed}: {json.dumps(notes, sort_keys=True)}\n")

    if args.trace:
        sys.path.insert(0, HERE)
        import tracing

        metrics = tracing.merge([r["trace"] for r in rounds])
        trace_dir = os.path.join(OUT_DIR, "trace", f"{args.workload}-seed{args.seed}")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
            spans = [{"kept": r["trace"]["spans_kept"], "dropped": r["trace"]["spans_dropped"]} for r in rounds]
            json.dump({"workload": args.workload, "seed": args.seed, "notes": notes, "spans": spans,
                       "metrics": metrics}, fh, indent=2, sort_keys=True)
    else:
        total = {name: sum(r["values"][name] for r in rounds) for name in rounds[0]["values"]}
        metrics = {
            "wall_s": {"value": total["wall_s"] / len(rounds), "unit": "s"},
            "memorize_episodes_per_s": {"value": _rate(total["memorized_episodes"], total["memorize_s"]),
                                        "unit": "episodes/s"},
            "queries_per_s": {"value": _rate(total["queries"], total["query_s"]), "unit": "queries/s"},
        }
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"}
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


def _rate(items: float, seconds: float) -> float | None:
    """Work per second; None when no call of the stage completed, which shows as failed."""
    return items / seconds if seconds > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("runall", "lifelong", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one round in this process (used by the run itself)
    parser.add_argument("--round", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return _run(args) if args.round is None else _round(args)


if __name__ == "__main__":
    sys.exit(main())
