"""Turns finished episodes into memory: semantic statements plus an episodic record.

The distiller is deterministic and calls no model. Each user fact (key,
value) from the episode becomes one single-fact statement rendered from a
fixed template, and the trajectory is compressed into a small structured
record: outcome, room order, where the target was found, and a rendering
that also carries the meters walked. The graph stores only that record's
outcome, rooms and rendering. A second fact arriving later under the same
key supersedes the earlier statement's edge for that object rather than
editing history.

`parse_statement` inverts STATEMENT_TEMPLATE into (key, value) for both
supersession (keys) and grounding (value tokens). It is memoised, since
every ingest re-reads the object's active statements. Each episodic rendering
a polar evaluation mode hands the planner sits next to the reader that takes
the prior room back out of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .encoder import EncoderConfig, DEFAULT_ENCODER, encode
from .errors import ParseError, RejectedInput
from .fileio import MALFORMED, atomic_write_text, read_json_lines, record_from_json, record_to_json
from .graph import MemoryGraph
from .world import MOVE_FORWARD, check_heading

STATEMENT_TEMPLATE = "user: {key} = {value} refers to {category} {object_id}"


@dataclass
class TrajectoryStep:
    """One step of an episode; visible_object_ids are the watched objects in view."""

    position: tuple[float, float]
    heading: int
    action: str
    room: str
    visible_object_ids: list[str] = field(default_factory=list)


@dataclass
class EpisodeLog:
    """Everything one episode produced, sufficient to re-derive its memory."""

    episode_id: str
    timestamp: int
    instruction: str
    facts: list[tuple[str, str]]
    reference_feature: np.ndarray | None
    target_object_id: str
    target_category: str
    trajectory: list[TrajectoryStep]
    success: bool
    final_position: tuple[float, float]

    def validate(self) -> None:
        if not self.trajectory:
            raise RejectedInput(f"episode {self.episode_id!r} has an empty trajectory")
        for heading in sorted({step.heading for step in self.trajectory}):
            check_heading(heading)


@dataclass
class EpisodicSummary:
    success: bool
    room_sequence: list[str]
    found_room: str | None
    path_length_m: float
    rendered_text: str


def render_statement(key: str, value: str, category: str, object_id: str) -> str:
    return STATEMENT_TEMPLATE.format(key=key, value=value, category=category, object_id=object_id)


@lru_cache(maxsize=16384)
def parse_statement(text: str) -> tuple[str, str] | None:
    """(fact key, fact value) of a templated statement; None if not template-shaped."""
    if not text.startswith("user: ") or " refers to " not in text:
        return None
    key, sep, value = text[len("user: ") :].rsplit(" refers to ", 1)[0].partition(" = ")
    return (key, value) if sep else None


def summarize_episodic(episode: EpisodeLog) -> EpisodicSummary:
    """Deterministic trajectory compression; path length counts successful forward moves."""
    if not episode.trajectory:
        raise RejectedInput("cannot summarize an empty trajectory")
    room_sequence: list[str] = []
    for step in episode.trajectory:
        if step.room not in room_sequence:
            room_sequence.append(step.room)
    forward = 0
    prev = episode.trajectory[0].position
    for step in episode.trajectory[1:]:
        if step.action == MOVE_FORWARD and step.position != prev:
            forward += 1
        prev = step.position
    path_length_m = 1.0 * forward
    found_room = episode.trajectory[-1].room if episode.success else None
    rendered = (
        f"outcome={'success' if episode.success else 'failure'}; "
        f"searched={','.join(room_sequence)}; "
        f"found_in={found_room if found_room is not None else 'none'}; "
        f"length={path_length_m}m"
    )
    return EpisodicSummary(episode.success, room_sequence, found_room, path_length_m, rendered)


def parse_rendered_summary(text: str) -> dict:
    """Inverse of the episodic rendering; returns {} when text is not in that shape."""
    out = {}
    for part in text.split("; "):
        if "=" not in part:
            return {}
        key, value = part.split("=", 1)
        out[key] = value
    if set(out) != {"outcome", "searched", "found_in", "length"}:
        return {}
    return out


# -- renderings and their prior-room readers (each reader: None when no room) ----


def rendered_found_in(rendering: str) -> str | None:
    """The room a successful episodic rendering found its target in."""
    parsed = parse_rendered_summary(rendering)
    return parsed["found_in"] if parsed.get("outcome") == "success" and parsed["found_in"] != "none" else None


def summary_digest(record) -> str:
    """One-line digest of an episodic record (anything with success, found_room and room_sequence)."""
    rooms = ", ".join(record.room_sequence)
    if record.success and record.found_room:
        return f"found it in {record.found_room} after searching {rooms}"
    return f"failed after searching {rooms}"


def digest_found_in(digest: str) -> str | None:
    if digest.startswith("found it in "):
        return digest[len("found it in ") :].split(" after searching", 1)[0]
    return None


def trajectory_text(episode: EpisodeLog) -> str:
    """Flat `room action` token stream, one pair per step."""
    return " ".join(f"{s.room} {s.action}" for s in episode.trajectory)


def trajectory_last_room(text: str) -> str | None:
    """The room of a trajectory text's last step, whether or not the episode succeeded."""
    tokens = text.split()
    return tokens[-2] if len(tokens) >= 2 else None


def no_prior_room(rendering: str) -> None:
    """Instruction-only grounding reads no room: its candidates carry no renderings."""
    return None


def memorize_facts(
    graph: MemoryGraph,
    object_ref: str,
    facts: list[tuple[str, str]],
    category: str,
    object_id: str,
    timestamp: int,
    encoder_config: EncoderConfig,
) -> None:
    """Link one statement per fact to object_ref, in the facts' order. Each names
    `category object_id`; a new value under a key supersedes that key's stale
    active statements."""
    for key, value in facts:
        text = render_statement(key, value, category, object_id)
        stale = []
        for sem_id, _ts in graph.neighbors(object_ref, kind="semantic", active_only=True):
            statement = graph.semantic[sem_id].statement
            parsed = parse_statement(statement)
            if parsed and parsed[0] == key and statement != text:
                stale.append(sem_id)
        new_id = graph.add_semantic(object_ref, text, encode(text, encoder_config), timestamp)
        for old_id in stale:
            if old_id != new_id:
                graph.supersede(object_ref, old_id, new_id, timestamp)


def memorize(
    episode: EpisodeLog,
    graph: MemoryGraph,
    *,
    encoder_config: EncoderConfig = DEFAULT_ENCODER,
) -> None:
    """Distill one episode into the graph: upsert the object, link statements
    (superseding stale same-key facts), and append the episodic record.

    Pure function of (episode, graph state): replaying the same episodes from
    an empty graph rebuilds an identical snapshot.
    """
    episode.validate()
    t = episode.timestamp
    object_ref = graph.upsert_object(
        episode.target_category,
        object_id=episode.target_object_id,
        reference_feature=episode.reference_feature,
    )
    memorize_facts(
        graph, object_ref, episode.facts, episode.target_category, episode.target_object_id, t, encoder_config
    )
    summary = summarize_episodic(episode)
    graph.add_episodic(
        object_ref,
        episode_id=episode.episode_id,
        success=summary.success,
        room_sequence=summary.room_sequence,
        found_room=summary.found_room,
        rendered_text=summary.rendered_text,
        timestamp=t,
    )


# -- episode files (one JSON object per line) ------------------------------


def episode_from_json(doc: dict) -> EpisodeLog:
    try:
        episode = record_from_json(EpisodeLog, doc)
    except MALFORMED as exc:
        raise ParseError(f"malformed episode record: {exc}") from exc
    episode.validate()
    return episode


def save_episodes(episodes: list[EpisodeLog], path: str) -> None:
    lines = [json.dumps(record_to_json(e), sort_keys=True) for e in episodes]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_episodes(path: str) -> list[EpisodeLog]:
    episodes = []
    for lineno, doc in read_json_lines(path):
        try:
            episodes.append(episode_from_json(doc))
        except (ParseError, RejectedInput) as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return episodes
