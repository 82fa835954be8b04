"""Make the committed benchmark inputs anew with polar's own stages.

    python3 benchmarks/make_inputs.py

Run from the root of a checkout. For the replay workload it runs

    polar scenario gen --seed 0 --n 10 --out specs.json       (all five kinds)
    polar acquire --specs specs.json --out episodes.jsonl
    polar world gen --seed 0 --n-rooms 6 --out world.json     (the shared grid)

and writes each file gzipped (no name, mtime 0) to benchmarks/staged/, then
prints the sha256 of each decompressed file for STAGED_SHA256 in
workloads.py. Both commits of a comparison must read byte-identical replay
inputs, so these files are made once and committed, not made per run.

For the runall workload it runs `polar scenario gen --seed S --n 5` over all
five kinds (the first stage of `polar run-all --seed S`) for S in
[0, RUNALL_SEEDS), and writes staged/runall_seeds.json: the seeds for which
it succeeds, and the ones for which it exits 1 because the generator
rejects a spec it drew. run-all fails on the latter, so the workload runs
only the former.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 0
N_PER_KIND = 10
RUNALL_SEEDS = 240


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import polar.cli

    os.makedirs(os.path.join(HERE, "staged"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        specs = os.path.join(tmp, "specs.json")
        steps = [
            ["scenario", "gen", "--seed", str(SEED), "--n", str(N_PER_KIND), "--out", specs],
            ["acquire", "--specs", specs, "--out", os.path.join(tmp, "episodes.jsonl")],
            ["world", "gen", "--seed", str(SEED), "--n-rooms", "6", "--out", os.path.join(tmp, "world.json")],
        ]
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = polar.cli.main(argv)
            if rc != 0:
                sys.stderr.write(f"polar {' '.join(argv[:2])} returned {rc}\n")
                return 1
        for name in ("specs.json", "episodes.jsonl", "world.json"):
            with open(os.path.join(tmp, name), "rb") as fh:
                data = fh.read()
            with open(os.path.join(HERE, "staged", name + ".gz"), "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
                    gz.write(data)
            print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')
        good, bad = [], []
        for seed in range(RUNALL_SEEDS):
            argv = ["scenario", "gen", "--seed", str(seed), "--n", "5", "--out", os.path.join(tmp, "gen.json")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                rc = polar.cli.main(argv)
            (good if rc == 0 else bad).append(seed)
            if rc != 0:
                print(f"run-all seed {seed} fails: {err.getvalue().strip()}")
    with open(os.path.join(HERE, "staged", "runall_seeds.json"), "w", encoding="utf-8") as fh:
        json.dump({"succeed": good, "fail": bad}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
