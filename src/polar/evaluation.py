"""Acquisition, memorization, baseline execution, and metrics.

Each scenario is an isolated little universe: its acquisition episodes are
memorized into their own graph (object ids repeat across scenarios, so a
shared graph would cross-contaminate facts). The evaluation stage rebuilds
the scenario's world, relocates the gold object to its evaluation position,
and runs one episode per spec under the requested context mode.

Each mode is one row of `MODES`: the inputs it needs, how it builds its
grounding context, the grounder that reads it and the recall column its
table row shows (README's "Evaluation modes" lists them). A missing input
raises ConfigurationError, as does an episodes file that lacks an episode
the graph names; rows still report every recall their inputs allow.

memorize_suite and evaluate take one MemorySettings: the graphs are built
with its encoder and thresholds, and evaluation encodes and retrieves with
its encoder and k. Metrics: SR (ending within SUCCESS_RADIUS_M of gold), SPL
(1/N · Σ S·l/max(p,l), where p counts forward meters), CM (ending at a
same-category non-gold instance instead), and recall@k for the semantic,
BM25, and dense retrievers. For multi-episode gold sets the raw recalls
are the fraction of gold episodes retrieved.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable

from .agent import (
    CategoryMatcher,
    GroundingDecision,
    NaiveMatcher,
    OraclePlanner,
    SUCCESS_RADIUS_M,
    ground_target,
    run_episode,
)
from .distiller import (
    EpisodeLog,
    digest_found_in,
    memorize,
    no_prior_room,
    rendered_found_in,
    summarize_episodic,
    summary_digest,
    trajectory_last_room,
    trajectory_text,
)
from .encoder import EncoderConfig
from .errors import ConfigurationError, ParseError, RejectedInput
from .fileio import FORMAT_VERSION, MALFORMED, atomic_write_text, dump_json, load_json, record_from_json, record_to_json
from .graph import MemoryGraph
from .retrieval import DEFAULT_SETTINGS, MemorySettings, RetrievalResult, raw_retrieve, recall_at_k, retrieve
from .scenarios import ScenarioSpec
from .world import AgentState, World, cached_world

RAW_SAMPLE_SIZE = 15


def world_for_spec(spec: ScenarioSpec) -> World:
    """The World that gen_scenarios built this spec's suite in."""
    return cached_world(spec.world_seed, spec.world_n_rooms, spec.world_objects)


# -- acquisition + memorization ---------------------------------------------------


def acquire(spec: ScenarioSpec) -> list[EpisodeLog]:
    """Execute every acquisition script with explicit grounding; logs feed memorization."""
    world = world_for_spec(spec)
    logs = []
    for idx, script in enumerate(sorted(spec.scripts, key=lambda s: (s.timestamp, s.target_object_id))):
        staged = world
        obj = world.objects.get(script.target_object_id)
        if obj is None:
            raise RejectedInput(f"{spec.scenario_id}: unknown object {script.target_object_id!r}")
        if script.object_position != obj.position:
            staged = world.move_object(script.target_object_id, script.object_position)
        decision = GroundingDecision(script.target_object_id, obj.category, None, "acquisition: target given explicitly")
        log = run_episode(
            staged,
            script.instruction,
            decision,
            gold_object_id=script.target_object_id,
            start=AgentState(script.agent_start, script.agent_heading),
            episode_id=f"{spec.scenario_id}:acq:{idx:02d}",
            timestamp=script.timestamp,
            facts=script.facts,
            reference_feature=obj.feature,
        )
        logs.append(log)
    return logs


def group_by_scenario(episodes: list[EpisodeLog]) -> dict[str, list[EpisodeLog]]:
    groups: dict[str, list[EpisodeLog]] = {}
    for episode in episodes:
        scenario_id = episode.episode_id.split(":", 1)[0]
        groups.setdefault(scenario_id, []).append(episode)
    return groups


def memorize_suite(episodes: list[EpisodeLog], settings: MemorySettings = DEFAULT_SETTINGS) -> dict[str, MemoryGraph]:
    """One isolated graph per scenario, episodes ingested in timestamp order."""
    graphs = {}
    for scenario_id, group in sorted(group_by_scenario(episodes).items()):
        graph = MemoryGraph(theta_dedup=settings.theta_dedup, theta_obj=settings.theta_obj)
        for episode in sorted(group, key=lambda e: (e.timestamp, e.episode_id)):
            memorize(episode, graph, encoder_config=settings.encoder)
        graphs[scenario_id] = graph
    return graphs


def save_graphs(graphs: dict[str, MemoryGraph], path: str) -> None:
    dump_json(path, {"format_version": FORMAT_VERSION, "graphs": {k: g.to_json() for k, g in sorted(graphs.items())}})


def load_graphs(path: str) -> dict[str, MemoryGraph]:
    return {k: MemoryGraph.from_json(g) for k, g in load_json(path, "graphs", dict).items()}


# -- evaluation modes ------------------------------------------------------------


@dataclass(frozen=True)
class Mode:
    """One evaluation mode. `context` takes a spec's inputs by keyword (spec, seed,
    world, graph, logs, result: the moved world, graph, acquisition logs and
    retrieval result, None where not given) and keeps those it reads."""

    needs_graph: bool
    needs_episodes: bool
    context: Callable[..., object]
    grounder: Callable[[EncoderConfig], object]  # builds an object whose ground(instruction, context) decides
    recall: str | None  # the recall column render_table shows


def _raw_sample(spec: ScenarioSpec, logs: list[EpisodeLog], seed: int, **_) -> list[EpisodeLog]:
    """Seeded 15-episode sample that always contains every gold episode."""
    rng = random.Random(f"{seed}:{spec.scenario_id}:raw")
    gold = [e for e in logs if e.target_object_id == spec.gold_object_id]
    others = sorted(
        (e for e in logs if e.target_object_id != spec.gold_object_id), key=lambda e: e.episode_id
    )
    take = min(max(RAW_SAMPLE_SIZE - len(gold), 0), len(others))
    sample = gold + rng.sample(others, take)
    return sorted(sample, key=lambda e: (e.timestamp, e.episode_id))


def _rerendered(result: RetrievalResult, graph: MemoryGraph, render: Callable | None) -> RetrievalResult:
    """The retrieval result with each candidate's episodic renderings made anew:
    `render` of each of its active episodic nodes, or none when `render` is None."""
    candidates = []
    for cand in result.candidates:
        renderings = []
        if render is not None:
            for epi_id, _ts in graph.neighbors(cand.object_id, kind="episodic", active_only=True):
                renderings.append(render(graph.episodic[epi_id]))
        candidates.append(replace(cand, episodic_memories=renderings))
    return RetrievalResult(result.hits, candidates)


def _raw_trajectories(result: RetrievalResult, graph: MemoryGraph, logs: list[EpisodeLog], **_) -> RetrievalResult:
    by_id = {e.episode_id: e for e in logs}
    missing = sorted(node.episode_id for node in graph.episodic.values() if node.episode_id not in by_id)
    if missing:
        raise ConfigurationError(f"the graph names episode {missing[0]!r}, which the episodes lack")
    return _rerendered(result, graph, lambda node: trajectory_text(by_id[node.episode_id]))


def _polar(needs_episodes: bool, context: Callable[..., object], reader: Callable[[str], str | None]) -> Mode:
    return Mode(True, needs_episodes, context, lambda _encoder: OraclePlanner(reader), "semantic")


MODES: dict[str, Mode] = {
    "no-prior": Mode(
        False, False, lambda world, **_: tuple(sorted({o.category for o in world.objects.values()})),
        CategoryMatcher, None,
    ),
    "raw-interaction": Mode(False, True, _raw_sample, lambda _encoder: NaiveMatcher(), "bm25"),
    "polar": _polar(False, lambda result, **_: result, rendered_found_in),
    "polar-instruction-only": _polar(False, lambda result, graph, **_: _rerendered(result, graph, None), no_prior_room),
    "polar-raw-trajectory": _polar(True, _raw_trajectories, trajectory_last_room),
    "polar-summary": _polar(
        False, lambda result, graph, **_: _rerendered(result, graph, summary_digest), digest_found_in
    ),
}


# -- metrics -----------------------------------------------------------------------


_RECALLS = ("semantic", "bm25", "dense")


@dataclass
class MetricsReport:
    """One mode's rows over a suite, and the aggregates computed from them once, at
    construction: n, SR, SPL and CM are the row means of success, spl and cm (None
    without rows), and each recall is the mean over the rows that have that
    retriever's value (None when none has)."""

    mode: str
    kind: str
    rows: list[dict]
    n: int = field(init=False)
    sr: float | None = field(init=False)
    spl: float | None = field(init=False)
    cm: float | None = field(init=False)
    recall: dict[str, float | None] = field(init=False)

    def __post_init__(self):
        n = self.n = len(self.rows)
        self.sr, self.spl, self.cm = (
            sum(r[column] for r in self.rows) / n if n else None for column in ("success", "spl", "cm")
        )
        self.recall = {}
        for name in _RECALLS:
            present = [r[f"recall_{name}"] for r in self.rows if r[f"recall_{name}"] is not None]
            self.recall[name] = sum(present) / len(present) if present else None

    def to_json(self) -> dict:
        return record_to_json(self)


def spl_term(success: bool, path_m: float, shortest_m: float) -> float:
    """One episode's SPL contribution: S · l / max(p, l), degenerate p=l=0 scores S."""
    if not success:
        return 0.0
    denom = max(path_m, shortest_m)
    return 1.0 if denom <= 0 else shortest_m / denom


def evaluate(
    specs: list[ScenarioSpec],
    mode: str,
    settings: MemorySettings = DEFAULT_SETTINGS,
    *,
    seed: int = 0,
    graphs: dict[str, MemoryGraph] | None = None,
    episodes: dict[str, list[EpisodeLog]] | None = None,
    only_retrieval_hits: bool = False,
) -> MetricsReport:
    """One episode per spec under `mode`; `seed` keys raw-interaction's episode sample."""
    if mode not in MODES:
        raise RejectedInput(f"unknown evaluation mode {mode!r}; expected one of {', '.join(MODES)}")
    rows = []
    for spec in sorted(specs, key=lambda s: s.scenario_id):
        rows.append(
            _evaluate_one(
                spec,
                mode,
                settings,
                seed=seed,
                graph=(graphs or {}).get(spec.scenario_id),
                logs=(episodes or {}).get(spec.scenario_id),
            )
        )
    if only_retrieval_hits:
        rows = [r for r in rows if _all_retrievers_hit(r)]
    kinds = sorted({s.kind for s in specs})
    return MetricsReport(mode, kinds[0] if len(kinds) == 1 else ("mixed" if kinds else "-"), rows)


def _all_retrievers_hit(row: dict) -> bool:
    values = [row[f"recall_{name}"] for name in _RECALLS if row[f"recall_{name}"] is not None]
    return bool(values) and all(v >= 1.0 for v in values)


def _evaluate_one(
    spec: ScenarioSpec,
    mode: str,
    settings: MemorySettings,
    *,
    seed: int,
    graph: MemoryGraph | None,
    logs: list[EpisodeLog] | None,
) -> dict:
    row = MODES[mode]
    if row.needs_graph and graph is None:
        raise ConfigurationError(f"mode {mode!r} needs a memorized graph for {spec.scenario_id!r} (run memorize first)")
    if row.needs_episodes and not logs:
        raise ConfigurationError(f"mode {mode!r} needs acquisition episodes for {spec.scenario_id!r}")
    eval_world = world_for_spec(spec).move_object(spec.gold_object_id, spec.eval_gold_position)
    retrieval_result = None
    if graph is not None:
        retrieval_result = retrieve(graph, spec.eval_instruction, settings.k, encoder_config=settings.encoder)
    context = row.context(spec=spec, seed=seed, world=eval_world, graph=graph, logs=logs, result=retrieval_result)
    decision = ground_target(row.grounder(settings.encoder), spec.eval_instruction, context)

    log = run_episode(
        eval_world,
        spec.eval_instruction,
        decision,
        gold_object_id=spec.gold_object_id,
        start=AgentState(spec.eval_agent_start, spec.eval_agent_heading),
        episode_id=f"{spec.scenario_id}:eval",
        timestamp=max(s.timestamp for s in spec.scripts) + 1 if spec.scripts else 1,
    )
    path_m = summarize_episodic(log).path_length_m
    shortest_m = eval_world.shortest_path_length(spec.eval_agent_start, spec.eval_gold_position)
    reachable = not math.isinf(shortest_m)
    near_decoy = any(
        o.category == eval_world.objects[spec.gold_object_id].category
        and o.object_id != spec.gold_object_id
        and math.hypot(log.final_position[0] - o.position[0], log.final_position[1] - o.position[1])
        <= SUCCESS_RADIUS_M + 1e-9
        for o in eval_world.objects.values()
    )
    recall = dict.fromkeys(_RECALLS)
    if retrieval_result is not None:
        recall["semantic"] = float(recall_at_k(retrieval_result, gold_object_id=spec.gold_object_id))
    gold_ids = [e.episode_id for e in logs or [] if e.target_object_id == spec.gold_object_id]
    for name in ("bm25", "dense") if gold_ids else ():
        ranked = raw_retrieve(logs, spec.eval_instruction, settings.k, name, encoder_config=settings.encoder)
        recall[name] = sum(recall_at_k(ranked, gold_episode_id=g) for g in gold_ids) / len(gold_ids)
    return {
        "spec_id": spec.scenario_id,
        "kind": spec.kind,
        "success": int(log.success),
        "path_m": path_m,
        "shortest_m": shortest_m if reachable else None,
        "spl": spl_term(log.success, path_m, shortest_m) if reachable else 0.0,
        "cm": int(near_decoy and not log.success),
        "grounded_object_id": decision.chosen_object_id,
        "grounding_correct": int(decision.chosen_object_id == spec.gold_object_id),
        "steps": len(log.trajectory) - 1,
        "recall_semantic": recall["semantic"],
        "recall_bm25": recall["bm25"],
        "recall_dense": recall["dense"],
    }


# -- reporting ---------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def render_table(reports: list[MetricsReport]) -> str:
    header = f"{'mode':<24}{'kind':<24}{'N':>5}{'SR':>9}{'SPL':>9}{'CM':>9}{'recall@5':>10}"
    lines = [header, "-" * len(header)]
    for report in reports:
        recall = report.recall.get(MODES[report.mode].recall)
        lines.append(
            f"{report.mode:<24}{report.kind:<24}{report.n:>5}"
            f"{_fmt(report.sr):>9}{_fmt(report.spl):>9}{_fmt(report.cm):>9}{_fmt(recall):>10}"
        )
    return "\n".join(lines) + "\n"


def write_report(reports: list[MetricsReport], json_path: str, table_path: str | None = None) -> str:
    dump_json(json_path, {"format_version": FORMAT_VERSION, "reports": [r.to_json() for r in reports]})
    table = render_table(reports)
    if table_path:
        atomic_write_text(table_path, table)
    return table


def load_reports(path: str) -> list[MetricsReport]:
    """Each stored report rebuilt from its mode, kind and rows; ParseError unless
    the mode is an evaluation mode and the rebuilt report equals the stored one."""
    reports = []
    for doc in load_json(path, "reports", list):
        try:
            report = record_from_json(MetricsReport, doc)
        except MALFORMED as exc:
            raise ParseError(f"malformed metrics report: {exc}") from exc
        if report.mode not in MODES:
            raise ParseError(f"metrics report of unknown evaluation mode {report.mode!r}")
        if report.to_json() != doc:
            raise ParseError(f"metrics report {report.mode}/{report.kind} differs from the report its rows give")
        reports.append(report)
    return reports
