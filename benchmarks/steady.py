"""Steadiness check: run a workload many times, each in a fresh process.

    python3 benchmarks/steady.py --workload replay --runs 10

Makes two sets of `--runs` runs of BENCHMARK.json's run_seconds each. Run i
of both sets uses seed i, and the runs alternate between the sets (A0 B0 A1
B1 ...). For every end-to-end metric the tool prints each set's median,
quartiles and spread (interquartile distance over the median, from
statistics.quantiles(n=4)), the shift of the second set's median against the
first, and the share of failed operations. Raw results go to
benchmarks/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """The run's result line, with its per-round notes line under "notes"."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    *_, notes, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    result["notes"] = json.loads(notes.split(": ", 1)[1])
    return result


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    config = _bench_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = config["run_seconds"]

    sets: list[list[dict]] = [[], []]
    for seed in range(args.runs):
        for runs in sets:
            result = run_once(args.workload, seed, seconds)
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in sorted(result["metrics"].items())}
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)

    bounds = {m["name"]: m for m in config["end_to_end"]}
    report = {"workload": args.workload, "seconds": seconds, "sets": sets, "summary": {}}
    for name in sorted(sets[0][0]["metrics"]):
        stats = [describe([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        line = " | ".join(f"median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}" for s in stats)
        worse = 1 if bounds[name]["better"] == "lower" else -1
        shift = worse * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
        print(f"{name:<26} {line} | second set worse by {shift:+.3f} | bound {bounds[name]['bound']}")
        report["summary"][name] = stats
    for k, runs in enumerate(sets):
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"set {k + 1}: all correct={correct}, failed {failed}/{attempted}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
