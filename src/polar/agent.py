"""Hierarchical navigation policy over retrieved memory.

Grounding runs once, before the episode. Each grounder takes (instruction,
context) and raises GroundingFailed on an empty context, which
`ground_target` turns into an ungrounded sweep. `OraclePlanner` scores each
retrieved candidate by summed instruction-statement cosine, lets candidates
inherit the score of a retrieved statement from another candidate when they
share a fact-value token (joint composition), and breaks exact ties toward
the newest statement edge, then the smallest object id; its reader takes the
prior room from the winner's newest rendering that names one. `NaiveMatcher`
matches raw episode logs by lexical overlap, `CategoryMatcher` the world's
category vocabulary.

`run_episode` then executes that decision, alternating a room-level plan
(prior room first, else a nearest-unvisited sweep over the scene graph) with
low-level steering: descend the goal's grid distance field one 1 m stride at
a time, quantized to 30-degree headings, scanning each searched room with
three right turns so the three 90-degree views cover a full circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .distiller import EpisodeLog, TrajectoryStep, parse_statement, rendered_found_in
from .encoder import EncoderConfig, cosine, encode
from .errors import ExplorationExhausted, GroundingFailed, RejectedInput
from .retrieval import CandidateObject, RetrievalResult, episode_document, tokenize
from .world import (
    ACTION_START,
    MOVE_FORWARD,
    STOP,
    STRIDE_M,
    TURN_LEFT,
    TURN_RIGHT,
    AgentState,
    Observation,
    SceneGraph,
    World,
    check_heading,
)

MAX_STEPS = 700  # an episode's step cap
SUCCESS_RADIUS_M = 2.0  # an episode succeeds when it ends this close to gold

_EPS = 1e-9


@dataclass
class GroundingDecision:
    chosen_object_id: str  # empty for category-only (no-prior) grounding and ungrounded sweeps
    chosen_category: str
    prior_room: str | None
    rationale: str


def _turn_toward(current: int, target: int) -> str:
    delta = (target - current) % 360
    return TURN_RIGHT if delta <= 180 else TURN_LEFT


def sweep_room(scene_graph: SceneGraph, prior: str | None, visited: set[str], current_room: str) -> str:
    if prior and prior in scene_graph.waypoints and prior not in visited:
        return prior
    unvisited = [r for r in scene_graph.rooms if r not in visited]
    if not unvisited:
        raise ExplorationExhausted("every room has been searched")
    # graph distance first; ties (common around a hallway hub) prefer
    # destination rooms over high-degree connectors, then the nearest waypoint,
    # so the sweep searches dead-end rooms before drifting back to the spine
    here = scene_graph.waypoints[current_room]
    unvisited.sort(
        key=lambda room: (
            scene_graph.hop_distance(current_room, room),
            len(scene_graph.neighbors(room)),
            math.hypot(scene_graph.waypoints[room][0] - here[0], scene_graph.waypoints[room][1] - here[1]),
            room,
        )
    )
    return unvisited[0]


class OraclePlanner:
    """Transparent deterministic grounding over retrieved candidates (no model calls).

    Statement scores are the cosines retrieval computed against the instruction
    it encoded; grounding encodes nothing itself. `reader` takes the prior room
    out of one episodic rendering; the default reads polar's stored renderings.
    """

    def __init__(self, reader: Callable[[str], str | None] = rendered_found_in):
        self.reader = reader

    def ground(self, instruction: str, context: RetrievalResult) -> GroundingDecision:
        if not context.candidates:
            raise GroundingFailed("no retrieved candidates to ground against")
        node_texts = {st.node_id: st.text for cand in context.candidates for st in cand.statements}
        scored = []
        for cand in context.candidates:
            score, latest = self._score(cand, context, node_texts)
            scored.append((-score, -latest, cand.object_id, cand, score))
        scored.sort(key=lambda row: row[:3])
        _, _, _, best, score = scored[0]
        rooms = (self.reader(rendering) for rendering in best.episodic_memories)  # newest first
        return GroundingDecision(
            best.object_id,
            best.category,
            next((room for room in rooms if room is not None), None),
            f"statement-similarity score {score:.6f} over {len(context.candidates)} candidates",
        )

    def _score(self, cand: CandidateObject, context: RetrievalResult, node_texts: dict[str, str]) -> tuple[float, int]:
        own_nodes = set()
        own_value_tokens: set[str] = set()
        score = 0.0
        latest = -1
        for st in cand.statements:
            own_nodes.add(st.node_id)
            latest = max(latest, st.timestamp)
            score += st.score
            parsed = parse_statement(st.text)
            if parsed and parsed[1]:
                own_value_tokens.update(tokenize(parsed[1]))
        # joint composition: inherit each foreign retrieved statement at most once
        for hit in context.hits:
            if hit.node_id in own_nodes:
                continue
            text = node_texts.get(hit.node_id)
            parsed = parse_statement(text) if text else None
            if parsed and set(tokenize(parsed[1])) & own_value_tokens:
                score += hit.score
        return score, latest


class NaiveMatcher:
    """Raw-interaction grounding: lexical overlap against whole episode documents."""

    def ground(self, instruction: str, context: list[EpisodeLog]) -> GroundingDecision:
        if not context:
            raise GroundingFailed("no raw episodes to match against")
        query = set(tokenize(instruction))
        scored = []
        for ep in context:
            overlap = len(query & set(tokenize(episode_document(ep))))
            scored.append((-overlap, -ep.timestamp, ep.episode_id, ep, overlap))
        scored.sort(key=lambda row: row[:3])
        _, _, _, best, overlap = scored[0]
        prior = best.trajectory[-1].room if best.success and best.trajectory else None
        return GroundingDecision(
            best.target_object_id,
            best.target_category,
            prior,
            f"token overlap {overlap} with episode {best.episode_id}",
        )


class CategoryMatcher:
    """No-prior grounding: the category the instruction names last, else the
    category nearest to it under `encoder_config`; the episode locks onto the
    first instance of it sighted."""

    def __init__(self, encoder_config: EncoderConfig):
        self.encoder_config = encoder_config

    def ground(self, instruction: str, context: tuple[str, ...]) -> GroundingDecision:
        if not context:
            raise GroundingFailed("no known categories for category-only grounding")
        tokens = tokenize(instruction)
        positions = {}
        for category in context:
            lowered = category.lower()
            if lowered in tokens:
                positions[category] = max(i for i, t in enumerate(tokens) if t == lowered)
        if positions:
            # the object noun tends to close the sentence: latest mention wins
            category = max(sorted(positions), key=lambda c: positions[c])
            how = "parsed from instruction"
        else:
            query = encode(instruction, self.encoder_config)
            category = min(sorted(context), key=lambda c: -cosine(query, encode(c, self.encoder_config)))
            how = "nearest category by similarity"
        return GroundingDecision("", category, None, f"category-only grounding ({how})")


def ground_target(grounder, instruction: str, context) -> GroundingDecision:
    """`grounder.ground(instruction, context)`; when grounding fails, the episode
    still runs, as an ungrounded sweep."""
    try:
        return grounder.ground(instruction, context)
    except GroundingFailed as exc:
        return GroundingDecision("", "", None, f"grounding unavailable: {exc}")


def plan_high(scene_graph: SceneGraph, prior: str | None, visited: set[str], current_room: str) -> list[str]:
    """Rooms to traverse toward the sweep's next room, ending with it."""
    room = sweep_room(scene_graph, prior, visited, current_room)
    path = scene_graph.bfs_path(current_room, room)
    if path is None:
        raise ExplorationExhausted(f"room {room!r} is unreachable from {current_room!r}")
    # searching the room one already stands in still means reaching its
    # waypoint: a scan only covers the whole room from its center
    return path or [room]


def _steer_action(world: World, state: AgentState, goal: tuple[float, float]) -> str | None:
    """One action descending the goal's distance field; None when no stride improves.

    The stride taken has the lowest field value, then the fewest turns, then the
    smallest heading; descents come in heading order, so a tie keeps the first."""
    current = state.heading
    best = None
    for value, heading in world.descents(state.position, goal):
        delta = (heading - current) % 360
        turns = min(delta, 360 - delta) // 30  # turns to face heading
        if best is None or value < best_value or (value == best_value and turns < best_turns):
            best, best_value, best_turns = heading, value, turns
    if best is None:
        return None
    if best == current:
        return MOVE_FORWARD
    return _turn_toward(current, best)


def plan_low(
    world: World,
    state: AgentState,
    observation: Observation,
    waypoint: tuple[float, float],
    decision: GroundingDecision,
    target_position: tuple[float, float] | None = None,
) -> str | None:
    """Single low-level action: stop on the target, else descend toward it or the
    waypoint; None when no stride gets closer to the goal."""
    if decision.chosen_object_id:
        seen = observation.find(decision.chosen_object_id)
        if seen is not None and seen <= SUCCESS_RADIUS_M + _EPS:
            return STOP
    goal = waypoint if target_position is None else target_position
    return _steer_action(world, state, goal)


def _visible_ids(observation: Observation) -> list[str]:
    return sorted({oid for view in observation.views for oid, _cat, _d in view})


def _watch(world: World, decision: GroundingDecision) -> frozenset[str]:
    """The objects whose sightings the episode reads: the chosen object, else the
    chosen category's instances (until one is sighted), else none."""
    if decision.chosen_object_id:
        return frozenset((decision.chosen_object_id,))
    category = decision.chosen_category
    return frozenset(oid for oid, obj in world.objects.items() if category and obj.category == category)


def run_episode(
    world: World,
    instruction: str,
    decision: GroundingDecision,
    *,
    gold_object_id: str,
    start: AgentState,
    episode_id: str = "episode",
    timestamp: int = 0,
    facts: list[tuple[str, str]] | None = None,
    reference_feature=None,
) -> EpisodeLog:
    """Explore/approach the grounded target until STOP, exhaustion, or the step cap.

    The caller grounds first (`ground_target`, or an explicit decision for
    acquisition episodes). The world computes sightings only of the decision's
    watch set (`_watch`), so each step's `visible_object_ids` lists the watched
    objects in view. Success is judged purely by the final position against the
    gold object.
    """
    if gold_object_id not in world.objects:
        raise RejectedInput(f"unknown gold object {gold_object_id!r}")
    if not world.is_free(start.position):
        raise RejectedInput(f"start position {start.position} is not free space")
    check_heading(start.heading)
    scene_graph = world.build_scene_graph()

    state = AgentState(start.position, start.heading, 0)
    watch = _watch(world, decision)
    observation = world.observe(state, watch=watch)
    room = world.room_of(state.position) or ""  # the room of state.position
    trajectory = [TrajectoryStep(state.position, state.heading, ACTION_START, room, _visible_ids(observation))]
    working = decision
    target_sighted = False
    visited: set[str] = set()
    plan: list[str] = []
    scan_left = 0  # rooms are searched from their waypoints, spawn room included
    stall = 0
    done = False

    while not done and state.steps_taken < MAX_STEPS:
        if not working.chosen_object_id and working.chosen_category:
            # category-only grounding locks onto the first instance sighted
            for view in observation.views:
                for oid, category, _d in view:
                    if category == working.chosen_category:
                        working = replace(working, chosen_object_id=oid)
                        watch = _watch(world, working)
                        break
                if working.chosen_object_id:
                    break
        target_position = None
        if working.chosen_object_id and working.chosen_object_id in world.objects:
            if observation.find(working.chosen_object_id) is not None:
                target_sighted = True
            if target_sighted:
                target_position = world.objects[working.chosen_object_id].position

        if target_position is not None:
            action = plan_low(world, state, observation, state.position, working, target_position)
        elif scan_left > 0:
            action = TURN_RIGHT
            scan_left -= 1
            if scan_left == 0:
                visited.add(room)
                plan = []
        else:
            if not plan:
                try:
                    plan = plan_high(scene_graph, working.prior_room, visited, room)
                except ExplorationExhausted:
                    break
                if not plan:
                    scan_left = 3
                    continue
            # room entry closes an intermediate leg; the last leg needs its waypoint area
            while len(plan) > 1 and room == plan[0]:
                plan.pop(0)
            waypoint = scene_graph.waypoints[plan[-1] if len(plan) == 1 else plan[0]]
            final_leg = len(plan) == 1
            arrived = final_leg and world.shortest_path_length(state.position, waypoint) <= STRIDE_M + _EPS
            action = None if arrived else plan_low(world, state, observation, waypoint, working)
            if action is None and final_leg:
                # the last leg ends in a scan once the waypoint is near or no stride
                # gets closer; the target is unsighted here, so plan_low cannot STOP
                scan_left = 3
                plan = []
                continue
        if action is None:
            action = TURN_RIGHT  # no stride gets closer: turn in place

        if stall > 12:  # a full turn without progress: give up on this goal locally
            target_sighted = False
            scan_left = 3
            plan = []
            stall = 0
            continue
        state, observation, done = world.step(state, action, watch)
        moved = action == MOVE_FORWARD and not observation.blocked
        if moved:
            room = world.room_of(state.position) or ""
        stall = 0 if moved or action == STOP else stall + 1
        trajectory.append(TrajectoryStep(state.position, state.heading, action, room, _visible_ids(observation)))

    gold = world.objects[gold_object_id]
    distance = math.hypot(state.position[0] - gold.position[0], state.position[1] - gold.position[1])
    return EpisodeLog(
        episode_id=episode_id,
        timestamp=timestamp,
        instruction=instruction,
        facts=list(facts or []),
        reference_feature=reference_feature,
        target_object_id=gold_object_id,
        target_category=gold.category,
        trajectory=trajectory,
        success=distance <= SUCCESS_RADIUS_M + _EPS,
        final_position=state.position,
    )
