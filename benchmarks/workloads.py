"""The three benchmark workloads.

Every round runs in a fresh process (see run.py). It builds its inputs
(`prepare`, part of set-up), makes the timed calls into polar through
`Stopwatch.call`, and checks the outputs with the oracles afterwards,
untimed. Calls go through module attributes (`polar.distiller.memorize`,
`polar.cli.main`) so that the traced run's wrappers see them.

- runall: `polar run-all` in-process with its defaults (five kinds, n=5,
  modes no-prior / raw-interaction / polar), one run-all seed per round.
- lifelong: one house, one growing MemoryGraph fed a seeded stream of
  single-fact episodes through `memorize`, with retrieve + ground queries,
  in the traffic mix of polar's own scenario generator.
- replay: the file-staged path, `polar memorize` then `polar eval` in all six
  modes, over a seeded subset of committed staged inputs.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field

import oracles
from polar.scenarios import (
    _CATEGORY_POOL,
    _KEY_POOL,
    _VALUE_POOL,
    DEFAULT_N_ROOMS,
    FILLER_COUNT,
    _acq_instruction,
    _eval_instruction,
)

HERE = os.path.dirname(os.path.abspath(__file__))
STAGED_DIR = os.path.join(HERE, "staged")


@dataclass
class RoundResult:
    attempted: int
    failed: int
    values: dict[str, float]  # timed seconds and the work done in them
    problems: list[str] = field(default_factory=list)
    facts_lost: int = 0  # stated facts left without an active statement of their own
    notes: dict = field(default_factory=dict)


class Stopwatch:
    """Times calls into polar; the tracer, when present, records only inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.first_call_at = None  # time.time() of the first timed call: set-up ends here
        self.peak_rss_mb = 0.0  # the process's peak RSS as of the end of the last timed call

    def call(self, fn, *args, **kwargs):
        """(result, seconds) of one call."""
        if self.first_call_at is None:
            self.first_call_at = time.time()
        if self.tracer is not None:
            self.tracer.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.stop()
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return result, seconds


def _quiet_cli(argv: list[str]) -> int:
    import polar.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return polar.cli.main(argv)


class _StageTimer:
    """Coarse timer around one polar function at one of its bindings."""

    def __init__(self, module, name: str, count):
        self.seconds = 0.0
        self.items = 0
        original = getattr(module, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            self.items += count(args, result)
            return result

        setattr(module, name, timed)

    def take(self) -> tuple[float, int]:
        out = (self.seconds, self.items)
        self.seconds, self.items = 0.0, 0
        return out


def _rate(seconds: float, items: int) -> float | None:
    """Items per second; None when the stage never completed a call."""
    return items / seconds if seconds > 0 else None


def _stage_timers(names: tuple[str, ...]) -> dict[str, _StageTimer]:
    """Timers around the pipeline stages as bound where the CLI calls them. Installed
    after the tracer, so that its wrappers sit inside these timers; once per process."""
    import polar.cli
    import polar.evaluation

    timers = {
        "gen": (polar.cli, "gen_scenarios", lambda args, specs: len(specs)),
        "acquire": (polar.cli, "acquire", lambda args, episodes: len(episodes)),
        "memorize": (polar.cli, "memorize_suite", lambda args, graphs: len(args[0])),
        "eval": (polar.cli, "evaluate", lambda args, report: report.n),
        "query": (polar.evaluation, "retrieve", lambda args, result: 1),
    }
    return {name: _StageTimer(*timers[name]) for name in names}


# -- runall ------------------------------------------------------------------------

ROUNDS_PER_SEED = 8  # a run makes 3 or 4 rounds, so consecutive seeds share no run-all seed


class RunAll:
    def __init__(self, seed: int, work_dir: str):
        import polar.cli  # noqa: F401  (set-up: the interpreter and the package)

        self.seed = seed
        self.work_dir = work_dir
        with open(os.path.join(STAGED_DIR, "runall_seeds.json"), encoding="utf-8") as fh:
            self.seeds = json.load(fh)["succeed"]

    def prepare(self, index: int) -> list[str]:
        """run-all argv of round `index`: the seed-th block of ROUNDS_PER_SEED seeds that
        make_inputs.py found run-all to succeed on."""
        out_dir = os.path.join(self.work_dir, f"round-{index}")
        seed = self.seeds[(self.seed * ROUNDS_PER_SEED + index) % len(self.seeds)]
        return ["run-all", "--seed", str(seed), "--out-dir", out_dir]

    def run_round(self, argv: list[str], watch: Stopwatch) -> RoundResult:
        stages = _stage_timers(("gen", "acquire", "memorize", "eval", "query"))
        rc, seconds = watch.call(_quiet_cli, argv)
        stage = {name: timer.take() for name, timer in stages.items()}
        problems = self.check(argv[-1]) if rc == 0 else []
        shutil.rmtree(argv[-1], ignore_errors=True)
        return RoundResult(
            attempted=1,
            failed=int(rc != 0),
            values={
                "wall_s": seconds,
                "memorize_s": stage["memorize"][0],
                "memorized_episodes": stage["memorize"][1],
                "query_s": stage["query"][0],
                "queries": stage["query"][1],
            },
            problems=problems,
            notes={
                "stage_s": {name: s for name, (s, _n) in stage.items()},
                "gen_specs_per_s": _rate(*stage["gen"]),
                "acquire_episodes_per_s": _rate(*stage["acquire"]),
                "eval_episodes_per_s": _rate(*stage["eval"]),
            },
        )

    @staticmethod
    def check(out_dir: str) -> list[str]:
        config = oracles.read_json(os.path.join(out_dir, "config.json"))
        problems = []
        specs: dict[str, dict] = {}
        grids: dict[str, oracles.Grid] = {}
        for kind in config["kinds"]:
            kind_dir = os.path.join(out_dir, kind)
            kind_specs = oracles.read_json(os.path.join(kind_dir, "specs.json"))["specs"]
            if len(kind_specs) != config["n"]:
                problems.append(f"{kind}: {len(kind_specs)} specs, want {config['n']}")
            specs.update((s["scenario_id"], s) for s in kind_specs)
            grids[kind] = oracles.Grid(os.path.join(kind_dir, "world.json"))
            reports = oracles.read_json(os.path.join(kind_dir, "metrics.json"))["reports"]
            if [r["mode"] for r in reports] != config["modes"]:
                problems.append(f"{kind}: reports for {[r['mode'] for r in reports]}")
            problems += oracles.check_reports(reports, specs, grids.__getitem__)
        merged = oracles.read_json(os.path.join(out_dir, "metrics.json"))["reports"]
        if len(merged) != len(config["kinds"]) * len(config["modes"]):
            problems.append(f"merged metrics hold {len(merged)} reports")
        return problems + oracles.check_reports(merged, specs, grids.__getitem__)


# -- lifelong ------------------------------------------------------------------------

# The stream follows the traffic of polar's own scenario generator at its defaults
# (scenarios._gen_one with FILLER_COUNT filler facts per spec). One spec of each of the five
# kinds acquires FILLER_COUNT episodes plus the kind's own scripts below, 72 in all, and asks
# one eval query per spec. Of the kinds' own scripts, one states a key again on the same
# object with a new value (temporal-context) and three give a key and its value to another
# instance of the category (temporal-object once, compositional-joint's two decoys).
KIND_SCRIPTS = {
    "compositional-single": 1,
    "compositional-joint": 4,
    "distractor": 3,
    "temporal-context": 2,
    "temporal-object": 2,
}
SUITE_EPISODES = sum(FILLER_COUNT + n for n in KIND_SCRIPTS.values())
SUITE_QUERIES = len(KIND_SCRIPTS)
SUITE_RESTATEMENTS = 1
SUITE_REASSIGNMENTS = 3
STREAM_SUITES = 15  # three rounds fit in one run, so set-up is sampled three times
INSTANCES = 3  # the most instances of one category the generator places
TOP_K = 5
# Two keys of the pool whose renderings for this object and value sit above theta_dedup:
# (key, key, value, category, object id)
KEY_COLLISION = ("travel kit", "gym kit", "periwinkle", "backpack", "backpack_01")


@dataclass
class Query:
    instruction: str
    oracle_object: str  # latest-assignment answer


def _build_world(seed: int):
    """A house with every category of the generator's pool, INSTANCES of each, in the
    generator's default number of rooms."""
    import polar.world
    from polar.errors import GenerationError

    spec = [(c, INSTANCES) for c in _CATEGORY_POOL]
    for attempt in range(16):
        try:
            return polar.world.gen_world(seed * 16 + attempt, DEFAULT_N_ROOMS, spec)
        except GenerationError:
            continue
    raise RuntimeError(f"no lifelong house placed all {len(spec) * INSTANCES} objects")


def _episode(world, waypoints, episode_id: str, t: int, object_id: str, key: str, value: str):
    """One single-fact acquisition episode with a four-step trajectory: hallway, room
    waypoint, object, stop."""
    from polar.distiller import EpisodeLog, TrajectoryStep

    obj = world.objects[object_id]
    room = world.room_of(obj.position)
    steps = [
        TrajectoryStep(waypoints["hallway"], 0, "START", "hallway", []),
        TrajectoryStep(waypoints[room], 90, "MOVE_FORWARD", room, []),
        TrajectoryStep(obj.position, 90, "MOVE_FORWARD", room, [object_id]),
        TrajectoryStep(obj.position, 90, "STOP", room, [object_id]),
    ]
    return EpisodeLog(episode_id, t, _acq_instruction(obj.category, object_id, key, value), [(key, value)],
                      obj.feature, object_id, obj.category, steps, True, obj.position)


class Stream:
    """A round's episodes, made one at a time as they are ingested, so that the stream
    adds nothing to the process's peak RSS. Keeps the latest facts for the checks."""

    def __init__(self, world, rng: random.Random, index: int):
        self.world = world
        self.rng = rng
        self.index = index
        self.waypoints = world.build_scene_graph().waypoints
        self.by_category: dict[str, list[str]] = {}
        for obj in world.objects.values():
            self.by_category.setdefault(obj.category, []).append(obj.object_id)
        self.object_ids = sorted(world.objects)
        self.active: dict[tuple[str, str], str] = {}  # (object, key) -> latest value
        self.assigned_at: dict[tuple[str, str], int] = {}
        self.episodes = self.queries = 0

    def __iter__(self):
        """(episode, query or None) pairs, SUITE_EPISODES and SUITE_QUERIES per suite."""
        rng, t = self.rng, 0
        for _suite in range(STREAM_SUITES):
            moves = ["restate"] * SUITE_RESTATEMENTS + ["reassign"] * SUITE_REASSIGNMENTS
            moves += ["new"] * (SUITE_EPISODES - len(moves))
            rng.shuffle(moves)
            for j, move in enumerate(moves):
                t += 1
                object_id, key, value = self._fact(move)
                self.active[(object_id, key)] = value
                self.assigned_at[(object_id, key)] = t
                self.episodes += 1
                episode = _episode(self.world, self.waypoints, f"life-{self.index}:{t:05d}", t, object_id, key, value)
                query = None
                if (j + 1) * SUITE_QUERIES // SUITE_EPISODES > j * SUITE_QUERIES // SUITE_EPISODES:
                    query = self._query()
                    self.queries += 1
                yield episode, query

    def _fact(self, move: str) -> tuple[str, str, str]:
        rng = self.rng
        if self.active and move == "restate":
            object_id, key = rng.choice(sorted(self.active))
            return object_id, key, rng.choice([v for v in _VALUE_POOL if v != self.active[(object_id, key)]])
        if self.active and move == "reassign":
            source, key = rng.choice(sorted(self.active))
            others = [o for o in self.by_category[self.world.objects[source].category] if o != source]
            return rng.choice(others), key, self.active[(source, key)]
        return rng.choice(self.object_ids), rng.choice(_KEY_POOL), rng.choice(_VALUE_POOL)

    def _query(self) -> Query:
        object_id, key = self.rng.choice(sorted(self.active))
        value = self.active[(object_id, key)]
        category = self.world.objects[object_id].category
        carriers = [
            (self.assigned_at[pair], pair[0])
            for pair, v in self.active.items()
            if v == value and self.world.objects[pair[0]].category == category
        ]
        return Query(_eval_instruction([value], category), max(carriers)[1])

    def latest(self) -> dict[tuple[str, str], tuple[str, str]]:
        """(object, key) -> (category, latest value)."""
        return {pair: (self.world.objects[pair[0]].category, v) for pair, v in self.active.items()}


class Lifelong:
    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.world = _build_world(seed)

    def prepare(self, index: int) -> Stream:
        return Stream(self.world, random.Random(f"lifelong:{self.seed}:{index}"), index)

    def run_round(self, stream: Stream, watch: Stopwatch) -> RoundResult:
        import polar.agent
        import polar.distiller
        import polar.graph
        import polar.retrieval

        graph = polar.graph.MemoryGraph()
        planner = polar.agent.OraclePlanner()
        memorize_s = retrieve_s = ground_s = 0.0
        problems = []
        agree = 0
        ingest_ms, retrieve_ms = [], []  # (statements, ms) per ingest and per query
        collided: set[tuple[str, str]] = set()  # (object, key) pairs that a key collision left wrong
        collisions = 0
        for episode, query in stream:
            _, seconds = watch.call(polar.distiller.memorize, episode, graph)
            memorize_s += seconds
            ingest_ms.append((len(graph.semantic), 1000 * seconds))
            [(key, value)] = episode.facts
            pairs = oracles.key_collision(graph, episode.target_object_id, key, episode.target_category, value,
                                          episode.timestamp, graph.theta_dedup)
            collisions += bool(pairs)
            collided |= pairs
            if query is not None:
                result, seconds = watch.call(polar.retrieval.retrieve, graph, query.instruction, TOP_K)
                retrieve_s += seconds
                retrieve_ms.append((len(graph.semantic), 1000 * seconds))
                decision, seconds = watch.call(planner.ground, query.instruction, result)
                ground_s += seconds
                ranking = oracles.brute_force_ranking(graph, oracles.hashed_embedding(query.instruction))
                problems += [f"query {query.instruction!r}: {p}" for p in oracles.check_hits(result.hits, ranking, TOP_K)]
                agree += decision.chosen_object_id == query.oracle_object
        problems += oracles.check_graph(graph)
        lost = oracles.facts_without_statement(graph, stream.latest(), graph.theta_dedup)
        problems += [f"{object_id}/{key}: {why}" for (object_id, key), why in lost if (object_id, key) not in collided]
        wall_s = memorize_s + retrieve_s + ground_s
        return RoundResult(
            attempted=stream.episodes + stream.queries + 1,
            failed=int(not _key_collision_probe()),
            values={
                "wall_s": wall_s,
                "memorize_s": memorize_s,
                "memorized_episodes": stream.episodes,
                "query_s": retrieve_s,
                "queries": stream.queries,
            },
            problems=problems,
            facts_lost=len(lost),
            notes={
                "statements": len(graph.semantic),
                "edges": len(graph.edges),
                "share_of_wall_s": {"ingest": memorize_s / wall_s, "retrieve": retrieve_s / wall_s,
                                    "ground": ground_s / wall_s},
                "facts_lost": len(lost),
                "key_collisions": collisions,
                "grounding_agreement": [agree, stream.queries],
                "ms_at_statements": _scaling(ingest_ms, retrieve_ms),
            },
        )


SCALING_POINTS = (250, 500, 1000)


def _key_collision_probe() -> bool:
    """One operation on inputs that do not depend on the seed: memorize two facts with
    different keys and the same value about one object into a fresh graph, and report
    whether each key keeps its own active statement. At this commit memorize dedups the
    second fact into the first one's statement, so the second key has none and the
    operation fails in every round."""
    import polar.distiller
    import polar.graph
    from polar.distiller import EpisodeLog, TrajectoryStep

    first, second, value, category, object_id = KEY_COLLISION
    graph = polar.graph.MemoryGraph()
    for t, key in enumerate((first, second), start=1):
        steps = [TrajectoryStep((1.0, 1.0), 0, "START", "hallway", []),
                 TrajectoryStep((1.0, 1.0), 0, "STOP", "hallway", [object_id])]
        episode = EpisodeLog(f"probe:{t}", t, _acq_instruction(category, object_id, key, value), [(key, value)],
                             None, object_id, category, steps, True, (1.0, 1.0))
        polar.distiller.memorize(episode, graph)
    latest = {(object_id, key): (category, value) for key in (first, second)}
    return not oracles.facts_without_statement(graph, latest, graph.theta_dedup)


def _scaling(ingest_ms, retrieve_ms) -> dict:
    """Mean ingest and retrieve ms where the graph held about SCALING_POINTS statements
    (within 10 %)."""
    out = {}
    for size in SCALING_POINTS:
        near = lambda rows: [ms for s, ms in rows if abs(s - size) <= 0.1 * size]  # noqa: E731
        ingest, retrieve = near(ingest_ms), near(retrieve_ms)
        out[size] = {
            "ingest_ms": sum(ingest) / len(ingest) if ingest else None,
            "retrieve_ms": sum(retrieve) / len(retrieve) if retrieve else None,
        }
    return out


# -- replay --------------------------------------------------------------------------

# sha256 of the decompressed staged files; make_inputs.py prints them anew
STAGED_SHA256 = {
    "specs.json": "6ee9e7d661ec05beef2264c03dc20d564b95463860e7210ca330762d554f0071",
    "episodes.jsonl": "4115df9b77f47d1ad4fdebace7a50e1df865eefc92df874f50b1d29c26ece9b2",
    "world.json": "79960ae464b9e081a9b13986728db429a75d4ee289c6d948d08fe6e61ee878f8",
}
MODES = ("no-prior", "raw-interaction", "polar", "polar-instruction-only", "polar-raw-trajectory", "polar-summary")
SPECS_PER_KIND = 4


def _read_staged(name: str) -> bytes:
    with gzip.open(os.path.join(STAGED_DIR, name + ".gz"), "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if STAGED_SHA256[name] != digest:
        raise RuntimeError(f"staged {name} has sha256 {digest}, expected {STAGED_SHA256.get(name)}")
    return data


class Replay:
    def __init__(self, seed: int, work_dir: str):
        import polar.cli  # noqa: F401

        self.seed = seed
        self.work_dir = work_dir
        specs_doc = json.loads(_read_staged("specs.json"))
        self.format_version = specs_doc["format_version"]
        self.specs = {s["scenario_id"]: s for s in specs_doc["specs"]}
        self.episode_lines: dict[str, list[str]] = {}
        for line in _read_staged("episodes.jsonl").decode("utf-8").splitlines():
            scenario_id = json.loads(line)["episode_id"].split(":", 1)[0]
            self.episode_lines.setdefault(scenario_id, []).append(line)
        self.world_path = os.path.join(work_dir, "world.json")
        os.makedirs(work_dir, exist_ok=True)
        with open(self.world_path, "wb") as fh:
            fh.write(_read_staged("world.json"))
        self.grid = oracles.Grid(self.world_path)

    def prepare(self, index: int) -> str:
        """Write the round's specs.json and episodes.jsonl; returns the round directory."""
        round_dir = os.path.join(self.work_dir, f"round-{index}")
        os.makedirs(round_dir)
        rng = random.Random(f"replay:{self.seed}:{index}")
        by_kind: dict[str, list[str]] = {}
        for scenario_id, spec in sorted(self.specs.items()):
            by_kind.setdefault(spec["kind"], []).append(scenario_id)
        chosen = sorted(sid for kind in sorted(by_kind) for sid in rng.sample(by_kind[kind], SPECS_PER_KIND))
        doc = {"format_version": self.format_version, "specs": [self.specs[s] for s in chosen]}
        with open(os.path.join(round_dir, "specs.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        with open(os.path.join(round_dir, "episodes.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for sid in chosen for line in self.episode_lines[sid])
        return round_dir

    def run_round(self, round_dir: str, watch: Stopwatch) -> RoundResult:
        stages = _stage_timers(("memorize", "eval", "query"))
        specs = os.path.join(round_dir, "specs.json")
        episodes = os.path.join(round_dir, "episodes.jsonl")
        graphs = os.path.join(round_dir, "graphs.json")
        n_specs = len(oracles.read_json(specs)["specs"])
        calls = [["memorize", "--episodes", episodes, "--out", graphs]]
        calls += [["eval", "--specs", specs, "--mode", mode, "--graphs", graphs, "--episodes", episodes,
                   "--out", os.path.join(round_dir, f"metrics-{mode}.json")] for mode in MODES]
        wall_s, failed = 0.0, 0
        command_s = {}
        for argv in calls:
            rc, seconds = watch.call(_quiet_cli, argv)
            wall_s += seconds
            failed += rc != 0
            command_s[argv[0] if argv[0] == "memorize" else f"eval {argv[4]}"] = seconds
        stage = {name: timer.take() for name, timer in stages.items()}
        problems = [] if failed else self.check(round_dir, n_specs)
        shutil.rmtree(round_dir, ignore_errors=True)
        return RoundResult(
            attempted=len(calls),
            failed=failed,
            values={
                "wall_s": wall_s,
                "memorize_s": stage["memorize"][0],
                "memorized_episodes": stage["memorize"][1],
                "query_s": stage["query"][0],
                "queries": stage["query"][1],
            },
            problems=problems,
            notes={"command_s": command_s, "eval_episodes_per_s": _rate(*stage["eval"])},
        )

    def check(self, round_dir: str, n_specs: int) -> list[str]:
        import polar.distiller
        import polar.evaluation

        specs = {s["scenario_id"]: s for s in oracles.read_json(os.path.join(round_dir, "specs.json"))["specs"]}
        problems = []
        for mode in MODES:
            reports = oracles.read_json(os.path.join(round_dir, f"metrics-{mode}.json"))["reports"]
            if len(reports) != 1 or reports[0]["n"] != n_specs:
                problems.append(f"{mode}: N is not {n_specs}")
            problems += oracles.check_reports(reports, specs, lambda _kind: self.grid)
        saved = oracles.read_json(os.path.join(round_dir, "graphs.json"))["graphs"]
        rebuilt = polar.evaluation.memorize_suite(polar.distiller.load_episodes(os.path.join(round_dir, "episodes.jsonl")))
        if sorted(saved) != sorted(rebuilt):
            problems.append("graphs.json holds other scenarios than the episodes")
        else:
            problems += [f"graphs.json: {sid} differs from memorize_suite" for sid in sorted(saved)
                         if saved[sid] != json.loads(json.dumps(rebuilt[sid].to_json()))]
        return problems


WORKLOADS = {"runall": RunAll, "lifelong": Lifelong, "replay": Replay}
