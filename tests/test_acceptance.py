"""Acceptance gate: eight binding guarantees over the full pipeline.

Each test prints one uncaptured verdict line (``acceptance [i/8] PASS/FAIL``)
with the measured numbers next to the required thresholds, then asserts.
Suites are expensive to build, so they are memoized module-wide and shared
between criteria; every criterion still works when run alone.
"""

import filecmp
import gzip
import hashlib
import os
import random
import time

import numpy as np
import pytest

from polar.cli import main as cli_main
from polar.distiller import memorize
from polar.evaluation import acquire, evaluate, group_by_scenario, memorize_suite, spl_term
from polar.graph import EDGE_SEMANTIC, MemoryGraph
from polar.scenarios import gen_scenarios

SEEDS = (0, 1, 2, 3, 4)
N = 50

_CACHE: dict = {}


def _suite(kind: str, seed: int, n: int = N):
    key = ("suite", kind, seed, n)
    if key not in _CACHE:
        specs = gen_scenarios(seed, kind, n)
        episodes = [log for spec in specs for log in acquire(spec)]
        _CACHE[key] = (specs, group_by_scenario(episodes), memorize_suite(episodes))
    return _CACHE[key]


def _report(kind: str, seed: int, mode: str, n: int = N, with_episodes: bool = True):
    key = ("report", kind, seed, mode, n, with_episodes)
    if key not in _CACHE:
        specs, episodes, graphs = _suite(kind, seed, n)
        _CACHE[key] = evaluate(specs, mode, graphs=graphs, episodes=episodes if with_episodes else None)
    return _CACHE[key]


def _verdict(capsys, index: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance [{index}/8] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def test_criterion_1_single_fact_navigation_is_perfect_and_fast(capsys):
    """Memory-guided navigation solves every single-fact scenario efficiently."""
    t0 = time.perf_counter()
    reports = [_report("compositional-single", seed, "polar") for seed in SEEDS]
    elapsed = time.perf_counter() - t0
    sr = _mean(r.sr for r in reports)
    min_spl = min(r.spl for r in reports)
    ok = all(r.sr == 1.0 for r in reports) and min_spl >= 0.80 and elapsed < 120.0
    _verdict(
        capsys, 1, ok,
        f"compositional-single seeds 0-4 x {N}: SR={sr:.4f} (need 1.00), "
        f"min SPL={min_spl:.4f} (need >=0.80), runtime={elapsed:.1f}s (need <120s)",
    )


def test_criterion_2_semantic_retrieval_beats_dense_raw(capsys):
    """Graph retrieval is perfect on single facts and dominates dense raw retrieval on joint cues."""
    single = [_report("compositional-single", seed, "polar") for seed in SEEDS]
    joint = [_report("compositional-joint", seed, "polar") for seed in SEEDS]
    single_ok = all(r.recall["semantic"] == 1.0 for r in single)
    per_seed_ok = all(r.recall["semantic"] >= r.recall["dense"] for r in joint)
    sem = _mean(r.recall["semantic"] for r in joint)
    dense = _mean(r.recall["dense"] for r in joint)
    ok = single_ok and per_seed_ok and sem > dense
    _verdict(
        capsys, 2, ok,
        f"recall@5 semantic single={_mean(r.recall['semantic'] for r in single):.4f} (need 1.00); "
        f"joint semantic={sem:.4f} vs dense={dense:.4f} "
        f"(need >= per seed: {'yes' if per_seed_ok else 'no'}, and > in aggregate)",
    )


def _latest_assignment(spec) -> str:
    """Independent oracle: the newest script whose fact value matches the cue."""
    category = spec.eval_instruction.rsplit(" ", 1)[-1]
    cue = spec.eval_instruction[len("find my ") : -(len(category) + 1)]
    carriers = [s for s in spec.scripts if any(value == cue for _, value in s.facts)]
    assert carriers, f"no script carries the cue {cue!r}"
    return max(carriers, key=lambda s: s.timestamp).target_object_id


def test_criterion_3_temporal_grounding_tracks_latest_assignment(capsys):
    """Grounding always picks the most recent object the cue was attached to."""
    total = hits = 0
    for kind in ("temporal-object", "temporal-context"):
        for seed in SEEDS:
            specs, _, _ = _suite(kind, seed)
            by_id = {s.scenario_id: s for s in specs}
            report = _report(kind, seed, "polar", with_episodes=False)
            for row in report.rows:
                total += 1
                hits += row["grounded_object_id"] == _latest_assignment(by_id[row["spec_id"]])
    ok = total == 2 * len(SEEDS) * N and hits == total
    _verdict(
        capsys, 3, ok,
        f"temporal-object + temporal-context seeds 0-4 x {N}: "
        f"grounded latest-timestamp assignment {hits}/{total} (need {total}/{total})",
    )


def test_criterion_4_memory_resolves_distractor_instances(capsys):
    """With three same-category instances, memory finds the right one; no-prior mostly cannot."""
    no_prior = _report("distractor", 0, "no-prior", n=60, with_episodes=False)
    polar = _report("distractor", 0, "polar", n=60, with_episodes=False)
    ok = no_prior.sr <= 0.45 and polar.sr == 1.0 and polar.cm < no_prior.cm
    _verdict(
        capsys, 4, ok,
        f"distractor n=60 seed 0: no-prior SR={no_prior.sr:.4f} (need <=0.45), "
        f"polar SR={polar.sr:.4f} (need 1.00), CM {polar.cm:.4f} < {no_prior.cm:.4f}",
    )


def test_criterion_5_spl_matches_brute_force_formula(capsys):
    """The incremental SPL term equals the textbook formula everywhere."""

    def brute_force(success: bool, path_m: float, shortest_m: float) -> float:
        if not success:
            return 0.0
        denom = max(path_m, shortest_m)
        return 1.0 if denom <= 0 else shortest_m / denom

    rng = random.Random(5)
    max_err = 0.0
    for _ in range(100):
        success = rng.random() < 0.7
        path_m = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 60.0)
        shortest_m = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 60.0)
        max_err = max(max_err, abs(spl_term(success, path_m, shortest_m) - brute_force(success, path_m, shortest_m)))

    rows = _report("compositional-single", 0, "polar").rows[:100]
    row_err = max(
        abs(row["spl"] - brute_force(bool(row["success"]), row["path_m"], row["shortest_m"]))
        for row in rows
        if row["shortest_m"] is not None
    )
    exact = spl_term(True, 10.0, 8.0)
    ok = max_err <= 1e-9 and row_err <= 1e-9 and exact == 0.8
    _verdict(
        capsys, 5, ok,
        f"SPL vs brute force: max |err|={max_err:.2e} over 100 randomized episodes, "
        f"{row_err:.2e} over {len(rows)} recorded rows (need <=1e-9); "
        f"S=1,p=10,l=8 -> {exact} (need exactly 0.8)",
    )


def test_criterion_6_graph_invariants_survive_randomized_operations(tmp_path, capsys):
    """1,000 randomized mutations never break dedup, supersession, or persistence."""
    rng = random.Random(6)
    vec_rng = np.random.default_rng(6)

    def unit(dim: int = 32) -> np.ndarray:
        v = vec_rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    graph = MemoryGraph()
    categories = ("mug", "vase", "lamp", "chair")
    episodic_order: list[str] = []
    counts = {"object": 0, "semantic": 0, "episodic": 0, "supersede": 0}

    def check_invariants() -> None:
        active = [(e.src, e.dst) for e in graph.edges if e.active]
        assert len(active) == len(set(active)), "duplicate active edge for one pair"
        assert list(graph.episodic)[: len(episodic_order)] == episodic_order, "episodic history rewritten"
        graph._validate_structure()

    for i in range(1000):
        t = i + 1
        roll = rng.random()
        op = "object" if roll < 0.30 or not graph.objects else (
            "semantic" if roll < 0.65 else ("episodic" if roll < 0.85 else "supersede")
        )
        if op == "supersede":
            live = [(e.src, e.dst) for e in graph.edges if e.active and e.kind == EDGE_SEMANTIC]
            spare = sorted(graph.semantic)
            if not live or len(spare) < 2:
                op = "semantic"  # not enough structure to rewire yet; keep the op count exact
        if op == "object":
            if graph.objects and rng.random() < 0.3:
                oid = rng.choice(sorted(graph.objects))
                before = len(graph.objects)
                assert graph.upsert_object(graph.objects[oid].category, object_id=oid) == oid
                assert len(graph.objects) == before, "upsert of a known id created a node"
            else:
                graph.upsert_object(rng.choice(categories), object_id=f"item_{i:04d}")
        elif op == "semantic":
            oid = rng.choice(sorted(graph.objects))
            emb = unit()
            sid = graph.add_semantic(oid, f"prop_{i} = value_{i}", emb, t)
            if rng.random() < 0.3:  # dedup idempotence: same statement collapses in place
                before = len(graph.semantic)
                assert graph.add_semantic(oid, f"prop_{i} = value_{i}", emb, t) == sid
                assert len(graph.semantic) == before, "re-adding an identical statement created a node"
        elif op == "episodic":
            oid = rng.choice(sorted(graph.objects))
            success = rng.random() < 0.5
            node_id = graph.add_episodic(
                oid,
                episode_id=f"run:{i:04d}",
                success=success,
                room_sequence=["hallway", "den"],
                found_room="den" if success else None,
                rendered_text=f"episode {i}",
                timestamp=t,
            )
            episodic_order.append(node_id)
        else:  # supersede
            src, old = rng.choice(sorted(live))
            new = rng.choice([s for s in spare if s != old])
            graph.supersede(src, old, new, t)
            assert sum(e.active for e in graph.edges if e.src == src and e.dst == old) == 0
            assert sum(e.active for e in graph.edges if e.src == src and e.dst == new) == 1
        counts[op] += 1
        if t % 100 == 0:
            check_invariants()
    check_invariants()
    assert sum(counts.values()) == 1000

    doc = graph.to_json()
    assert MemoryGraph.from_json(doc).to_json() == doc, "round trip changed the graph"
    first, second = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    graph.save(first)
    MemoryGraph.load(first).save(second)
    files_identical = filecmp.cmp(first, second, shallow=False)

    # re-memorizing a real scenario's episodes must not mint new semantic nodes
    specs, episodes, _ = _suite("compositional-single", 0)
    fresh = MemoryGraph()
    for episode in episodes[specs[0].scenario_id]:
        memorize(episode, fresh)
    once = len(fresh.semantic)
    for episode in episodes[specs[0].scenario_id]:
        memorize(episode, fresh)
    dedup_stable = len(fresh.semantic) == once

    rows = [row for key, value in _CACHE.items() if key[0] == "report" for row in value.rows]
    if not rows:
        rows = _report("compositional-single", 0, "polar").rows
    max_steps = max(row["steps"] for row in rows)

    ok = files_identical and dedup_stable and max_steps <= 700
    _verdict(
        capsys, 6, ok,
        f"1000 randomized ops ({counts['object']} object / {counts['semantic']} semantic / "
        f"{counts['episodic']} episodic / {counts['supersede']} supersede) kept invariants; "
        f"persistence byte-identical={files_identical}; re-memorize kept {once} semantic nodes; "
        f"max steps {max_steps}/{len(rows)} rows (need <=700)",
    )


def test_criterion_7_episodic_memory_shortens_joint_searches(capsys):
    """Attached episode renderings cut the walked path versus retrieval without them."""
    with_memory = [row for seed in SEEDS for row in _report("compositional-joint", seed, "polar").rows]
    without = [
        row
        for seed in SEEDS
        for row in _report("compositional-joint", seed, "polar-instruction-only", with_episodes=False).rows
    ]
    p_memory = _mean(row["path_m"] for row in with_memory)
    p_bare = _mean(row["path_m"] for row in without)
    ok = len(with_memory) == len(without) == len(SEEDS) * N and p_memory < p_bare
    _verdict(
        capsys, 7, ok,
        f"compositional-joint seeds 0-4 x {N}: mean path {p_memory:.2f} m with episodic memory "
        f"< {p_bare:.2f} m instruction-only (need strictly less)",
    )


@pytest.fixture(scope="module")
def run_all_seed0(tmp_path_factory) -> str:
    """Artifact directory of one `run-all --seed 0`, shared by the byte-level checks."""
    out_dir = str(tmp_path_factory.mktemp("run-all") / "runs-a")
    assert cli_main(["run-all", "--seed", "0", "--out-dir", out_dir]) == 0
    return out_dir


def test_criterion_8_full_pipeline_is_bitwise_deterministic(run_all_seed0, tmp_path, capsys):
    """Two identical run-all invocations write byte-identical artifacts."""
    dirs = (run_all_seed0, str(tmp_path / "runs-b"))
    assert cli_main(["run-all", "--seed", "0", "--out-dir", dirs[1]]) == 0
    rel_files = sorted(
        os.path.relpath(os.path.join(root, name), dirs[0])
        for root, _, names in os.walk(dirs[0])
        for name in names
    )
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], rel_files, shallow=False)
    ok = bool(rel_files) and "metrics.json" in rel_files and not mismatch and not errors
    _verdict(
        capsys, 8, ok,
        f"run-all --seed 0 twice: {len(match)}/{len(rel_files)} files byte-identical"
        + (f"; differing: {mismatch + errors}" if mismatch or errors else ""),
    )


# sha256 of every `run-all --seed 0` artifact. A change that alters any of them changes
# what polar computes or stores, however fast it is; benchmarks/README.md lists an
# older set, from before the graph and spec files dropped their unread fields and the
# episode files kept only the watched objects in view.
RUN_ALL_SEED0_SHA256 = {
    "compositional-joint/episodes.jsonl": "452d84e7a878857e7b5cafc9cd3b8df87dcca26f40f61ce4fbf0cf14387c24fa",
    "compositional-joint/graphs.json": "c5c9a0382e39ba956e03d16309619946ececee68369abd35c902532485217692",
    "compositional-joint/metrics.json": "7897090e268bc12919a6066243f6e105f8379a2717f290c1e9080fe7d04c7a0d",
    "compositional-joint/metrics.txt": "b02b21e192172db0d46af2dd289dba7982a77988f3fb618963b1840843d9c84e",
    "compositional-joint/specs.json": "19ce84fb07ede6f8ac9299179c18dbae6a7201807feea17837058e58ed8a10d0",
    "compositional-joint/world.json": "e0239144adf13d73fc835b157a086ba404976e6fd5bc6e64d88fc1dfe8253ea0",
    "compositional-single/episodes.jsonl": "86ff79c467b4a73feba5223fb07da6cbea92de1f43e96405da05b30b2ab32918",
    "compositional-single/graphs.json": "da405a09c3051dc05db992b0ec368164152ea5073177bed405c9c68485405d6e",
    "compositional-single/metrics.json": "0d304e91114d9fa4fc7877f9b5696502c94d831f2b390e3f13d66de74614fcb5",
    "compositional-single/metrics.txt": "9b3ecbfc250da25fdeab6b42e96a9d48c4c72550916740babb79250042c99853",
    "compositional-single/specs.json": "2f6943733dba2ae7c5df3edf54e012310601f8bd2fe5456de5e2ca23e7f4df20",
    "compositional-single/world.json": "0c47ebca5e398c20e791fd08883e272906c5e1c3a6f7567e310f63d7164912c9",
    "config.json": "0885ba255bbc65f92e32c3e6cb8890683a92496c04a9830ca2a8de68e1e0a6ba",
    "distractor/episodes.jsonl": "0818554a746603e620f2e0d680bc0084830a0e82390bcc236aa95c9db6eecf63",
    "distractor/graphs.json": "4efa27007c252a0087a2a076825ee4fec3cb095c0b4ccc16ea0d8fbb9492a942",
    "distractor/metrics.json": "38d75ea67a7b3708b681c1ac6b104356389110edb2c8765721f92e2cab75d785",
    "distractor/metrics.txt": "0ea1adcbbe58d4f89981940a97b1ec2528e6bc8e7239a028f8e3444c9ab8b71f",
    "distractor/specs.json": "caf99061fc4e394776307181d1d07101c5f193ab599a43b7f44734fdf08a58d5",
    "distractor/world.json": "d43eb9d27794046e0863e2ec40210e1914e8749a9fc12fdd10c6015c354794f9",
    "metrics.json": "1cd508f87302e58e49eff0678ab6862bb93d2a08c6a5c963445f0dfd272c56ed",
    "metrics.txt": "bd73d4e56ea6cb6b75cb96dde79d2b28cafbc6867542b39e63934e18023852a0",
    "temporal-context/episodes.jsonl": "580d3e94a91d5e2d2b328934f7cd6df9e95f246138035a37d3270f574bbf0c58",
    "temporal-context/graphs.json": "073ece49ec41a1eec46a2572b4d979c016dcb6e13a2004c627b6b867f1776e36",
    "temporal-context/metrics.json": "999d4829db6e815bd3213f4be1783358bff4e11909893fb438ce12226e4ed37a",
    "temporal-context/metrics.txt": "2e5b807005945396e3d049ae28e2d27b78321a5276d858e3af7474eb07612e13",
    "temporal-context/specs.json": "0cc452f0c6f1b71c874af4698b8ffe51d8a615f9b3ab2296136db330f20162d5",
    "temporal-context/world.json": "505931ba726c8929f674f3b57679f4efb77105a696cf7aa7a2215e3c6dd17600",
    "temporal-object/episodes.jsonl": "cee1e9f78895cbacc9472bb77b6f4c812acfd797ddb769df3b5cf966d4373d07",
    "temporal-object/graphs.json": "57096d27dd5a74a8000d7710a80ecc94af0474d59cf3830549df88a4188898be",
    "temporal-object/metrics.json": "93fcde595fbd388a2eaff7906610b6a1ffbbbdc91258981f06c8c1fa5bf560df",
    "temporal-object/metrics.txt": "5a4c2cea950c818ab8767e502300cae3e0de8f4e65f234fe92abd406859cf540",
    "temporal-object/specs.json": "b803131f287b488bb29d6b2d8fc69c6d97f823e2d7dd0c4124e01e205c7ec254",
    "temporal-object/world.json": "054801dee3a2056b78681453f9c5952f19bd2ee3ddf758b391d53d4b2fa9afe8",
}


def test_run_all_seed0_artifacts_match_pinned_hashes(run_all_seed0):
    got = {}
    for root, _, names in os.walk(run_all_seed0):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                got[os.path.relpath(path, run_all_seed0).replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    assert sorted(got) == sorted(RUN_ALL_SEED0_SHA256)
    assert {k: v for k, v in got.items() if v != RUN_ALL_SEED0_SHA256[k]} == {}


# sha256 of metrics.json from `run-all --seed 0 --kinds compositional-joint --n 5` over
# all six modes: the pinned tree above runs only no-prior, raw-interaction and polar, so
# this is the byte check of polar's three episodic ablations.
SIX_MODES_METRICS_SHA256 = "54d159dbd693cc4d076b08f75c4af34c6df645e6291b822cc2d52b031b332281"


def test_run_all_six_modes_metrics_match_pinned_hash(tmp_path, capsys):
    modes = ["no-prior", "raw-interaction", "polar", "polar-instruction-only", "polar-raw-trajectory", "polar-summary"]
    argv = ["run-all", "--seed", "0", "--kinds", "compositional-joint", "--n", "5", "--modes", *modes]
    assert cli_main([*argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "metrics.json", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == SIX_MODES_METRICS_SHA256


# sha256 of the file-staged path over benchmarks/staged: `polar memorize` on the staged
# episodes, then `polar eval` in every mode with --graphs and --episodes. It reads
# specs, episodes and graphs back from disk, which the pinned run-all tree never does.
STAGED_SHA256 = {
    "graphs.json": "07724b5db904acea53d63d2e1de64b337a2fa3bee6e533c0d7a91de87e3a33e3",
    "metrics-no-prior.json": "e3329a6d7cc8016c6a3b7efd4f1273397b56bc987639125e4354a8077d2a259d",
    "metrics-raw-interaction.json": "896e316b24450f675065ba7abeb5b758d7cfae92d5e3927f157ba8685604b0a2",
    "metrics-polar.json": "f27d7818011c6e9093065d449ad00b5bf307723654cc4509fc041a41e3772802",
    "metrics-polar-instruction-only.json": "6e644653b5f97d538e368237cdda49293a40cd1962a85c51f6a05335435225be",
    "metrics-polar-raw-trajectory.json": "e2471cac0500146e2818f5138ffc8711730a6293e88251d4015ed1d765251722",
    "metrics-polar-summary.json": "79dde15ef0b5b6c8fa6d358d91258011701fd5c8a7ee306095e3c21b9b3b78e7",
}
_STAGED_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "staged")


def test_staged_memorize_and_eval_match_pinned_hashes(tmp_path, capsys):
    for name in ("specs.json", "episodes.jsonl"):
        with gzip.open(os.path.join(_STAGED_DIR, f"{name}.gz"), "rb") as src:
            (tmp_path / name).write_bytes(src.read())
    specs, episodes, graphs = (str(tmp_path / name) for name in ("specs.json", "episodes.jsonl", "graphs.json"))
    assert cli_main(["memorize", "--episodes", episodes, "--out", graphs]) == 0
    for name in STAGED_SHA256:
        if name.startswith("metrics-"):
            mode = name[len("metrics-") : -len(".json")]
            argv = ["eval", "--specs", specs, "--mode", mode, "--graphs", graphs, "--episodes", episodes]
            assert cli_main([*argv, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in STAGED_SHA256}
    assert {name: digest for name, digest in got.items() if digest != STAGED_SHA256[name]} == {}
