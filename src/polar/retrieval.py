"""Retrieval over the memory graph plus raw-episode baselines.

The graph path scores every semantic node that still has an active linking
edge against the instruction embedding, keeps the top k, and expands each hit
through its active edges into candidate objects carrying all of their
active statements and episodic renderings. The raw
baselines (Okapi BM25 and dense cosine) rank whole episode documents —
raw instruction plus the flat trajectory token stream — with no
distillation, for head-to-head recall comparisons.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .distiller import EpisodeLog, trajectory_text
from .encoder import EncoderConfig, DEFAULT_ENCODER, cosine, encode
from .errors import RejectedInput
from .graph import THETA_DEDUP, THETA_OBJ, MemoryGraph

DEFAULT_K = 5
BM25_K1 = 1.2
BM25_B = 0.75


@dataclass(frozen=True)
class MemorySettings:
    """The choices memory is built and searched under: the encoder that embeds
    statements and queries, the graph's dedup and object thresholds, and top-k.
    Generation's guard, memorize_suite and evaluate each take one of these."""

    encoder: EncoderConfig = DEFAULT_ENCODER
    theta_dedup: float = THETA_DEDUP
    theta_obj: float = THETA_OBJ
    k: int = DEFAULT_K

    def __post_init__(self):
        if self.k < 1:
            raise RejectedInput(f"k must be >= 1, got {self.k}")


DEFAULT_SETTINGS = MemorySettings()


@dataclass
class SemanticHit:
    node_id: str
    score: float
    timestamp: int  # newest linking edge
    object_ids: list[str]  # its active linking objects in `neighbors` order: newest edge first, then id


@dataclass
class CandidateStatement:
    text: str
    score: float
    timestamp: int
    node_id: str


@dataclass
class CandidateObject:
    object_id: str
    category: str
    statements: list[CandidateStatement]
    episodic_memories: list[str] = field(default_factory=list)  # renderings, newest first


@dataclass
class RetrievalResult:
    hits: list[SemanticHit]
    candidates: list[CandidateObject]


def retrieve_semantic(
    graph: MemoryGraph,
    instruction: str,
    k: int = DEFAULT_K,
    *,
    encoder_config: EncoderConfig = DEFAULT_ENCODER,
) -> list[SemanticHit]:
    """Top-k semantic nodes by cosine; ties break to newer edges, then node id."""
    if k < 1:
        raise RejectedInput(f"k must be >= 1, got {k}")
    return _rank_semantic(graph, encode(instruction, encoder_config), k)


def _rank_semantic(graph: MemoryGraph, query: np.ndarray, k: int) -> list[SemanticHit]:
    """retrieve_semantic for an already encoded query."""
    hits = []
    shortlist = graph.shortlist(query, k)
    for node_id, score in zip(shortlist, graph.statement_scores(query, shortlist)):
        linking = graph.neighbors(node_id, kind="object")
        hits.append(SemanticHit(node_id, score, linking[0][1], [obj for obj, _ in linking]))
    hits.sort(key=lambda h: (-h.score, -h.timestamp, h.node_id))
    return hits[:k]


def assemble_candidates(
    graph: MemoryGraph,
    hits: list[SemanticHit],
    *,
    instruction_embedding: np.ndarray,
) -> list[CandidateObject]:
    """Expand hits into deduplicated candidate objects, in first-hit order.

    Expansion follows each hit's `object_ids`, its active linking objects, and
    then their active edges, so every candidate carries at least one active
    statement. Statement scores are cosines against the instruction
    embedding, all from one `statement_scores` call.
    """
    linked: dict[str, list[tuple[str, int]]] = {}  # candidate id -> its active statements, in first-hit order
    for hit in hits:
        for object_id in hit.object_ids:
            if object_id not in linked:
                linked[object_id] = graph.neighbors(object_id, kind="semantic", active_only=True)
    scores = iter(graph.statement_scores(instruction_embedding, [sid for links in linked.values() for sid, _ in links]))
    return [
        CandidateObject(
            object_id,
            graph.objects[object_id].category,
            [CandidateStatement(graph.semantic[sid].statement, next(scores), ts, sid) for sid, ts in links],
            [graph.episodic[epi_id].rendered_text for epi_id, _ in graph.neighbors(object_id, kind="episodic")],
        )
        for object_id, links in linked.items()
    ]


def retrieve(
    graph: MemoryGraph,
    instruction: str,
    k: int = DEFAULT_K,
    *,
    encoder_config: EncoderConfig = DEFAULT_ENCODER,
) -> RetrievalResult:
    """retrieve_semantic + assemble_candidates in one call, encoding the instruction once."""
    if k < 1:
        raise RejectedInput(f"k must be >= 1, got {k}")
    query = encode(instruction, encoder_config)
    hits = _rank_semantic(graph, query, k)
    return RetrievalResult(hits, assemble_candidates(graph, hits, instruction_embedding=query))


# -- raw-episode baselines --------------------------------------------------


def episode_document(episode: EpisodeLog) -> str:
    return f"{episode.instruction} {trajectory_text(episode)}"


def tokenize(text: str) -> list[str]:
    """Lower-cased whitespace tokens: the lexical view of BM25 and raw grounding."""
    return text.lower().split()


def _bm25_scores(docs: list[list[str]], query: list[str]) -> list[float]:
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df: Counter = Counter()
    for doc in docs:
        df.update(set(doc))
    scores = []
    for doc in docs:
        counts = Counter(doc)
        norm = BM25_K1 * (1 - BM25_B + BM25_B * len(doc) / avgdl)
        score = 0.0
        for term in query:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf * (BM25_K1 + 1) / (tf + norm)
        scores.append(score)
    return scores


def raw_retrieve(
    episodes: list[EpisodeLog],
    instruction: str,
    k: int = DEFAULT_K,
    mode: str = "bm25",
    *,
    encoder_config: EncoderConfig = DEFAULT_ENCODER,
) -> list[tuple[str, float]]:
    """Rank raw episode documents; returns (episode_id, score), best first."""
    if k < 1:
        raise RejectedInput(f"k must be >= 1, got {k}")
    if mode not in ("bm25", "dense"):
        raise RejectedInput(f"unknown raw retrieval mode {mode!r}")
    if not episodes:
        return []
    docs = [(e.episode_id, episode_document(e)) for e in episodes]
    if mode == "bm25":
        scores = _bm25_scores([tokenize(text) for _, text in docs], tokenize(instruction))
    else:
        query = encode(instruction, encoder_config)
        scores = [cosine(query, encode(text, encoder_config)) for _, text in docs]
    ranked = sorted(zip(docs, scores), key=lambda row: (-row[1], row[0][0]))
    return [(episode_id, score) for (episode_id, _), score in ranked[:k]]


def recall_at_k(
    result: RetrievalResult | list[tuple[str, float]],
    *,
    gold_object_id: str | None = None,
    gold_episode_id: str | None = None,
) -> int:
    """1 iff gold is present: object-level for graph results, episode-level for raw."""
    if isinstance(result, RetrievalResult):
        if gold_object_id is None:
            raise RejectedInput("graph results need gold_object_id")
        return int(any(c.object_id == gold_object_id for c in result.candidates))
    if gold_episode_id is None:
        raise RejectedInput("raw results need gold_episode_id")
    return int(any(episode_id == gold_episode_id for episode_id, _ in result))
