import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_descents, reference_ground, reference_segment_free, reference_steer, reference_turn_count
from polar import agent
from polar.agent import (
    CategoryMatcher,
    GroundingDecision,
    NaiveMatcher,
    OraclePlanner,
    MAX_STEPS,
    SUCCESS_RADIUS_M,
    _steer_action,
    sweep_room,
    _turn_toward,
    ground_target,
    plan_high,
    run_episode,
)
from polar.cli import main as cli_main
from polar.distiller import EpisodeLog, TrajectoryStep, memorize, no_prior_room, trajectory_last_room
from polar.encoder import DEFAULT_ENCODER, EncoderConfig, encode
from polar import evaluation
from polar.evaluation import MODES, evaluate
from polar.errors import ExplorationExhausted, GroundingFailed, RejectedInput
from polar.graph import MemoryGraph
from polar.retrieval import MemorySettings, retrieve
from polar.scenarios import _KEY_POOL, _VALUE_POOL, ScenarioSpec, _acq_instruction, _eval_instruction, gen_scenarios
from polar.world import (
    ACTION_START,
    HEADINGS,
    MOVE_FORWARD,
    STOP,
    STRIDE_M,
    TURN_LEFT,
    TURN_RIGHT,
    VISIBILITY_HALF_ANGLE_DEG,
    VISIBILITY_RANGE_M,
    WALL,
    AgentState,
    SceneGraph,
    World,
    angle_diff_deg,
    bearing_deg,
    gen_world,
    heading_vector,
)


def _scene() -> SceneGraph:
    # hallway hub with one two-room branch: den - hallway - kitchen - pantry
    rooms = ["hallway", "kitchen", "pantry", "den"]
    edges = [("hallway", "kitchen"), ("kitchen", "pantry"), ("den", "hallway")]
    waypoints = {"hallway": (5.0, 5.0), "kitchen": (9.0, 5.0), "pantry": (13.0, 5.0), "den": (1.0, 5.0)}
    return SceneGraph(rooms, edges, waypoints)


def _decision(prior=None):
    return GroundingDecision("mug_01", "mug", prior, "test")


def test_turn_math():
    assert reference_turn_count(0, 90) == 3
    assert reference_turn_count(0, 330) == 1
    assert _turn_toward(0, 60) == TURN_RIGHT
    assert _turn_toward(0, 300) == TURN_LEFT


# -- steering ------------------------------------------------------------------

_STEER_WORLD = gen_world(4, 8, [("lamp", 3), ("keys", 2)])
_STEER_WORLDS = (
    _STEER_WORLD,
    _STEER_WORLD.move_object("lamp_01", _STEER_WORLD.build_scene_graph().waypoints["hallway"]),
)


@st.composite
def _point_in_cell(draw, cells):
    """A point anywhere inside one of the given (iy, ix) cells, corners included."""
    iy, ix = cells[draw(st.integers(0, len(cells) - 1))]
    fx, fy = (draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)) for _ in range(2))
    res = _STEER_WORLD.resolution
    # a fraction just below 1 can round up onto the next cell's edge: keep it inside
    return tuple(min((int(i) + f) * res, math.nextafter((int(i) + 1) * res, 0.0)) for i, f in ((ix, fx), (iy, fy)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_descents_and_steering_sequences_match_scalar_loop(data):
    """Positions reused with new goals and goal cells reached through different goal
    points, on two Worlds of one grid: the cached descents must never go stale, and
    a step forward that reuses them moves exactly when the stride is free."""
    free = _STEER_WORLD._nav.free_cells
    positions = data.draw(st.lists(_point_in_cell(free), min_size=1, max_size=3))
    # goal cells may be walls, whose points snap to the nearest free cell
    ny, nx = _STEER_WORLD.grid.shape
    cells = data.draw(st.lists(st.tuples(st.integers(0, ny - 1), st.integers(0, nx - 1)), min_size=1, max_size=3))
    steps = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(positions) - 1), _point_in_cell(cells), st.sampled_from(HEADINGS), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    for at, goal, heading, moved in steps:
        world = _STEER_WORLDS[moved]
        pos = positions[at]
        assert list(world.descents(pos, goal)) == reference_descents(world, pos, goal)
        state = AgentState(pos, heading)
        assert _steer_action(world, state, goal) == reference_steer(world, state, goal)
        ux, uy = heading_vector(heading)
        end = (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)
        moved_to, observation, _ = world.step(state, MOVE_FORWARD, frozenset())
        free = reference_segment_free(world, pos, end)
        assert (moved_to.position, observation.blocked) == ((end, False) if free else (pos, True))


def test_steering_tie_keeps_the_smaller_heading():
    """Strides 30 and 330 descend equally far (the grid mirrors about the agent's
    column, and a wall cell blocks heading 0); facing 180, each is five turns away."""
    grid = np.full((21, 21), WALL, dtype=np.int16)
    grid[1:-1, 1:-1] = 0
    grid[6, 10] = WALL
    world = World(grid, ["hallway"], [])
    pos, goal = world.cell_center((10, 4)), world.cell_center((10, 16))
    values = {heading: value for value, heading in world.descents(pos, goal)}
    assert 0 not in values and values[30] == values[330] == min(values.values())
    state = AgentState(pos, 180)
    assert _steer_action(world, state, goal) == reference_steer(world, state, goal) == TURN_LEFT


# -- sweep policy --------------------------------------------------------------


def test_sweep_prefers_unvisited_prior_room():
    assert sweep_room(_scene(), "pantry", set(), "hallway") == "pantry"


def test_sweep_skips_visited_prior_room():
    room = sweep_room(_scene(), "pantry", {"pantry"}, "hallway")
    assert room != "pantry"


def test_sweep_orders_by_hops_then_degree():
    scene = _scene()
    # the spawn room itself is searched first (0 hops)
    assert sweep_room(scene, None, set(), "hallway") == "hallway"
    # then: den and kitchen are both 1 hop, but den is a degree-1 dead end
    # while kitchen is a degree-2 connector, so den wins the tie
    assert sweep_room(scene, None, {"hallway"}, "hallway") == "den"
    assert sweep_room(scene, None, {"hallway", "den"}, "hallway") == "kitchen"
    assert sweep_room(scene, None, {"hallway", "den", "kitchen"}, "hallway") == "pantry"


def test_sweep_exhaustion_raises():
    scene = _scene()
    with pytest.raises(ExplorationExhausted):
        sweep_room(scene, None, set(scene.rooms), "hallway")


def test_plan_high_returns_route_ending_at_choice():
    scene = _scene()
    assert plan_high(scene, "pantry", set(), "hallway") == ["kitchen", "pantry"]
    # searching the current room still routes to its waypoint
    assert plan_high(scene, None, set(), "hallway") == ["hallway"]


# -- grounding -----------------------------------------------------------------


def _graph_with(statements: dict[str, list[str]], renderings: dict[str, list[tuple[int, str]]] | None = None):
    g = MemoryGraph()
    for t, (object_id, texts) in enumerate(sorted(statements.items()), start=1):
        g.upsert_object(object_id.split("_")[0], object_id=object_id)
        for text in texts:
            g.add_semantic(object_id, text, encode(text), t)
    for object_id, rows in (renderings or {}).items():
        for t, text in rows:
            g.add_episodic(
                object_id, episode_id=f"{object_id}:{t}", success=True,
                room_sequence=["kitchen"], found_room="kitchen", rendered_text=text, timestamp=t,
            )
    return g


def test_oracle_planner_grounds_best_statement_match():
    g = _graph_with(
        {
            "mug_01": ["user: color = crimson refers to mug mug_01"],
            "mug_02": ["user: color = teal refers to mug mug_02"],
        }
    )
    result = retrieve(g, "find my crimson mug", k=5)
    decision = OraclePlanner().ground("find my crimson mug", result)
    assert decision.chosen_object_id == "mug_01"


def test_oracle_planner_recency_breaks_statement_ties():
    # identical statements except the object id embed near-identically; the
    # newer edge must win (the latest-assignment rule)
    g = _graph_with(
        {
            "mug_01": ["user: owner = casey refers to mug mug_01"],
            "mug_02": ["user: owner = casey refers to mug mug_02"],
        }
    )
    result = retrieve(g, "find my casey mug", k=5)
    decision = OraclePlanner().ground("find my casey mug", result)
    assert decision.chosen_object_id == "mug_02"  # ingested later


def test_oracle_planner_reads_prior_room_from_episodic_rendering():
    g = _graph_with(
        {"mug_01": ["user: color = crimson refers to mug mug_01"]},
        renderings={
            "mug_01": [
                (1, "outcome=failure; searched=den; found_in=none; length=4.0m"),
                (2, "outcome=success; searched=den,kitchen; found_in=kitchen; length=7.0m"),
            ]
        },
    )
    result = retrieve(g, "find my crimson mug", k=5)
    decision = OraclePlanner().ground("find my crimson mug", result)
    assert decision.prior_room == "kitchen"  # newest success wins


def test_oracle_planner_instruction_only_has_no_prior():
    g = _graph_with(
        {"mug_01": ["user: color = crimson refers to mug mug_01"]},
        renderings={"mug_01": [(1, "outcome=success; searched=kitchen; found_in=kitchen; length=2.0m")]},
    )
    result = retrieve(g, "find my crimson mug", k=5)
    decision = OraclePlanner(no_prior_room).ground("find my crimson mug", result)
    assert decision.prior_room is None


def test_oracle_planner_rejects_empty_context():
    with pytest.raises(GroundingFailed):
        OraclePlanner().ground("find it", retrieve_result_empty())


def retrieve_result_empty():
    from polar.retrieval import RetrievalResult

    return RetrievalResult([], [])


_GROUND_OBJECTS = ("mug_01", "mug_02", "mug_03", "vase_01")
_GROUND_ROOMS = ("kitchen", "den", "pantry")
_POLAR_MODES = [mode for mode, row in MODES.items() if isinstance(row.grounder(DEFAULT_ENCODER), OraclePlanner)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_oracle_planner_matches_reencoding_reference(data):
    """Grounding over memorized graphs reads retrieval's cosines yet decides exactly
    like a planner that encodes every statement again. Small pools make shared
    statement nodes (one value on two objects), restatements that supersede, and
    two-value cues that inherit scores across candidates common."""
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(_GROUND_OBJECTS), st.sampled_from(_KEY_POOL[:2]), st.sampled_from(_VALUE_POOL[:4]),
                st.booleans(), st.sampled_from(_GROUND_ROOMS),
            ),
            min_size=1,
            max_size=10,
        )
    )
    graph, logs = MemoryGraph(), []
    for t, (object_id, key, value, success, room) in enumerate(rows, start=1):
        category = object_id.split("_")[0]
        steps = [
            TrajectoryStep((0.5, 0.5), 0, ACTION_START, "hallway", []),
            TrajectoryStep((1.5, 0.5), 0, MOVE_FORWARD, room, [object_id]),
            TrajectoryStep((1.5, 0.5), 0, STOP, room, [object_id]),
        ]
        episode = EpisodeLog(f"ep:{t:02d}", t, _acq_instruction(category, object_id, key, value), [(key, value)],
                             None, object_id, category, steps, success, (1.5, 0.5))
        memorize(episode, graph)
        logs.append(episode)
    values = data.draw(st.lists(st.sampled_from(_VALUE_POOL[:4]), min_size=1, max_size=2, unique=True))
    instruction = _eval_instruction(values, data.draw(st.sampled_from(("mug", "vase"))))
    row = MODES[data.draw(st.sampled_from(sorted(_POLAR_MODES)))]
    result = retrieve(graph, instruction, data.draw(st.integers(1, 5)))
    context = row.context(graph=graph, logs=logs, result=result)
    planner = row.grounder(DEFAULT_ENCODER)
    decision = planner.ground(instruction, context)
    expected = reference_ground(instruction, context, planner.reader)
    assert (decision.chosen_object_id, decision.prior_room, decision.rationale) == expected


def test_the_mode_table_has_four_polar_rows():
    assert _POLAR_MODES == ["polar", "polar-instruction-only", "polar-raw-trajectory", "polar-summary"]


def test_oracle_planner_takes_the_newest_room_its_reader_finds():
    result = retrieve(_graph_with({"mug_01": ["user: color = crimson refers to mug mug_01"]}), "find my crimson mug", 5)
    [cand] = result.candidates
    newest_first = ["START", "den STOP", "kitchen STOP"]  # the first names no room
    swapped = dataclasses.replace(result, candidates=[dataclasses.replace(cand, episodic_memories=newest_first)])
    assert OraclePlanner(trajectory_last_room).ground("find my crimson mug", swapped).prior_room == "den"
    assert OraclePlanner().ground("find my crimson mug", swapped).prior_room is None  # none is an episodic rendering
    bare = dataclasses.replace(result, candidates=[dataclasses.replace(cand, episodic_memories=[])])
    assert OraclePlanner(trajectory_last_room).ground("find my crimson mug", bare).prior_room is None


def test_naive_matcher_overlap_and_recency():
    def ep(episode_id, instruction, t, room="kitchen"):
        steps = [TrajectoryStep((0.5, 0.5), 0, ACTION_START, room, []), TrajectoryStep((0.5, 0.5), 0, STOP, room, [])]
        return EpisodeLog(episode_id, t, instruction, [], None, f"obj_{episode_id}", "mug", steps, True, (0.5, 0.5))

    matcher = NaiveMatcher()
    eps = [ep("a", "take note of this crimson mug", 1), ep("b", "take note of this teal vase", 2)]
    decision = matcher.ground("find my crimson mug", eps)
    assert decision.chosen_object_id == "obj_a"
    assert decision.prior_room == "kitchen"
    # equal overlap: later timestamp wins
    tie = [ep("old", "same words here", 1), ep("new", "same words here", 5)]
    assert matcher.ground("same words here", tie).chosen_object_id == "obj_new"
    with pytest.raises(GroundingFailed):
        matcher.ground("find it", [])


def test_category_only_parses_last_mentioned_category():
    matcher = CategoryMatcher(DEFAULT_ENCODER)
    d = matcher.ground("move the vase then find my mug", ("mug", "vase"))
    assert d.chosen_category == "mug"
    assert d.chosen_object_id == ""
    d = matcher.ground("find my cup", ("mug", "vase"))
    assert d.chosen_category in ("mug", "vase")  # similarity fallback
    with pytest.raises(GroundingFailed):
        matcher.ground("find it", ())


def test_ground_target_turns_a_grounding_failure_into_a_sweep():
    assert ground_target(CategoryMatcher(DEFAULT_ENCODER), "find my mug", ("mug",)).chosen_category == "mug"
    for grounder, empty in (
        (CategoryMatcher(DEFAULT_ENCODER), ()),  # no category vocabulary at all
        (NaiveMatcher(), []),
        (OraclePlanner(), retrieve_result_empty()),
    ):
        with pytest.raises(GroundingFailed) as failed:
            grounder.ground("find it", empty)
        decision = ground_target(grounder, "find it", empty)
        assert (decision.chosen_object_id, decision.chosen_category, decision.prior_room) == ("", "", None)
        assert decision.rationale == f"grounding unavailable: {failed.value}"


# -- episode loop ----------------------------------------------------------------


def test_run_episode_with_explicit_decision_reaches_target():
    world = gen_world(0, 5, [("mug", 2), ("vase", 1)])
    gold = "mug_01"
    start = AgentState(world.build_scene_graph().waypoints["hallway"], 0)
    decision = GroundingDecision(gold, "mug", None, "given")
    log = run_episode(world, "go to the mug", decision, gold_object_id=gold, start=start)
    assert log.success
    assert len(log.trajectory) - 1 <= MAX_STEPS
    gx, gy = world.objects[gold].position
    fx, fy = log.final_position
    assert math.hypot(fx - gx, fy - gy) <= SUCCESS_RADIUS_M + 1e-9
    assert all(s.heading % 30 == 0 for s in log.trajectory)
    assert log.trajectory[0].action == ACTION_START


def test_run_episode_is_deterministic():
    world = gen_world(1, 5, [("mug", 1)])
    start = AgentState(world.build_scene_graph().waypoints["hallway"], 90)
    decision = GroundingDecision("mug_01", "mug", None, "given")
    runs = [
        run_episode(world, "go", decision, gold_object_id="mug_01", start=start)
        for _ in range(2)
    ]
    assert [(s.position, s.heading, s.action) for s in runs[0].trajectory] == [
        (s.position, s.heading, s.action) for s in runs[1].trajectory
    ]


def test_run_episode_respects_step_cap(monkeypatch):
    world = gen_world(2, 6, [("mug", 1)])
    start = AgentState(world.build_scene_graph().waypoints["hallway"], 0)
    # grounding that can never be satisfied: category-only lock on a category
    # that is not in the world forces a full exploration sweep
    decision = GroundingDecision("", "unicorn", None, "given")
    monkeypatch.setattr(agent, "MAX_STEPS", 40)
    log = run_episode(world, "find the unicorn", decision, gold_object_id="mug_01", start=start)
    assert len(log.trajectory) - 1 <= 40


def test_run_episode_validates_inputs():
    world = gen_world(0, 5, [("mug", 1)])
    start = AgentState(world.build_scene_graph().waypoints["hallway"], 0)
    with pytest.raises(RejectedInput):
        run_episode(world, "go", _decision(), gold_object_id="ghost", start=start)
    with pytest.raises(RejectedInput):
        run_episode(world, "go", _decision(), gold_object_id="mug_01",
                    start=AgentState((0.0, 0.0), 0))
    # no turn from 45 reaches a stride heading
    for heading in (45, -30, 360):
        with pytest.raises(RejectedInput, match=f"heading {heading} is not a multiple of 30"):
            run_episode(world, "go", _decision(), gold_object_id="mug_01", start=AgentState(start.position, heading))


def _walk(log: EpisodeLog) -> tuple:
    """Everything of an episode but its views."""
    steps = [(s.position, s.heading, s.action, s.room) for s in log.trajectory]
    return steps, log.success, log.final_position


def _run_fully_observed(world, instruction, decision, **rest) -> EpisodeLog:
    """run_episode on observations of every object, whatever the watch set."""
    full_observe = World.observe

    def observe_all(self, state, blocked=False, watch=None):
        return full_observe(self, state, blocked)

    with mock.patch.object(World, "observe", observe_all):
        return run_episode(world, instruction, decision, **rest)


def _assert_watched_equals_full(world, instruction, decision, **rest) -> EpisodeLog:
    """The watched episode walks as the fully observed one does, and each step's
    ids are the full view's ids of watched objects (of the chosen one, once known)."""
    watched = run_episode(world, instruction, decision, **rest)
    full = _run_fully_observed(world, instruction, decision, **rest)
    assert _walk(watched) == _walk(full)
    watch = agent._watch(world, decision)
    for w, f in zip(watched.trajectory, full.trajectory):
        if decision.chosen_object_id:
            assert w.visible_object_ids == [oid for oid in f.visible_object_ids if oid in watch]
        else:
            assert set(w.visible_object_ids) <= set(f.visible_object_ids) & watch
    return watched


def test_watched_episodes_match_fully_observed_ones_over_run_all_seed0(tmp_path, monkeypatch, capsys):
    """All 360 acquisition and 75 evaluation episodes of `run-all --seed 0`."""
    episodes = []

    def checked_run_episode(world, instruction, decision, **rest):
        episodes.append(_assert_watched_equals_full(world, instruction, decision, **rest))
        return episodes[-1]

    monkeypatch.setattr(evaluation, "run_episode", checked_run_episode)
    assert cli_main(["run-all", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(episodes) == 435


_EPISODE_WORLDS = [gen_world(0, 5, [("mug", 2), ("vase", 1)]), gen_world(4, 8, [("lamp", 3), ("keys", 2), ("watch", 1)])]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_watched_episodes_match_fully_observed_ones_for_any_decision(data):
    """Grounded (right, wrong or unknown object), category-only (present or absent
    category) and ungrounded decisions, from random starts, with or without a prior room."""
    world = _EPISODE_WORLDS[data.draw(st.integers(0, len(_EPISODE_WORLDS) - 1))]
    ids = sorted(world.objects)
    categories = sorted({obj.category for obj in world.objects.values()})
    kind = data.draw(st.sampled_from(["grounded", "category", "ungrounded"]))
    if kind == "grounded":
        oid = data.draw(st.sampled_from(ids + ["ghost_01"]))
        decision = GroundingDecision(oid, oid.split("_")[0], None, "drawn")
    elif kind == "category":
        decision = GroundingDecision("", data.draw(st.sampled_from(categories + ["unicorn"])), None, "drawn")
    else:
        decision = GroundingDecision("", "", None, "drawn")
    decision = dataclasses.replace(decision, prior_room=data.draw(st.none() | st.sampled_from(world.room_names)))
    iy, ix = world._nav.free_cells[data.draw(st.integers(0, len(world._nav.free_cells) - 1))]
    start = AgentState(world.cell_center((int(ix), int(iy))), data.draw(st.sampled_from(HEADINGS)))
    gold = data.draw(st.sampled_from(ids))
    _assert_watched_equals_full(world, "find it", decision, gold_object_id=gold, start=start)


def test_acquire_traces_only_watched_sightlines():
    """One fixed spec's acquisition traces a sightline at most once per distinct
    (position, watched object) pair that falls in a view cone; every acquisition
    episode watches its target alone."""
    spec = gen_scenarios(0, "compositional-single", 1)[0]
    with mock.patch.object(World, "line_of_sight", autospec=True, side_effect=World.line_of_sight) as los:
        logs = evaluation.acquire(spec)
    pairs = set()
    scripts = sorted(spec.scripts, key=lambda s: (s.timestamp, s.target_object_id))
    for script, log in zip(scripts, logs):
        ox, oy = script.object_position
        for step in log.trajectory:
            (px, py), heading = step.position, step.heading
            dist = math.hypot(ox - px, oy - py)
            if dist < 1e-9 or not np.hypot(ox - px, oy - py) <= VISIBILITY_RANGE_M + 1e-9:
                continue
            bearing = bearing_deg(step.position, script.object_position)
            views = ((heading + offset) % 360 for offset in (0, -90, 90))
            if any(angle_diff_deg(bearing, view) <= VISIBILITY_HALF_ANGLE_DEG + 1e-9 for view in views):
                pairs.add((step.position, script.target_object_id, script.object_position))
    assert 0 < los.call_count <= len(pairs)


def _probe_spec(objects: list[tuple[str, int]], instruction: str) -> ScenarioSpec:
    """A script-free spec in gen_world(0, 5, objects): gold is the first object id,
    the agent starts in the hallway."""
    world = gen_world(0, 5, objects)
    gold = sorted(world.objects)[0]
    start = world.build_scene_graph().waypoints["hallway"]
    return ScenarioSpec("probe-000", "distractor", 0, 5, objects, [], instruction, gold,
                        world.objects[gold].position, start, 0)


def _evaluate_recording_decisions(monkeypatch, spec, mode, **kwargs):
    """evaluate() on one spec, plus the decision each episode was run with."""
    decisions = []

    def recording_run_episode(world, instruction, decision, **rest):
        decisions.append(decision)
        return run_episode(world, instruction, decision, **rest)

    monkeypatch.setattr(evaluation, "run_episode", recording_run_episode)
    monkeypatch.setattr(agent, "MAX_STEPS", 30)
    report = evaluate([spec], mode, **kwargs)
    return report.rows, decisions


def test_run_episode_grounding_failure_degrades_gracefully(monkeypatch):
    # an empty memory graph retrieves no candidates: grounding fails, the episode
    # still runs (and cannot succeed deliberately, only by luck of the sweep)
    spec = _probe_spec([("mug", 1)], "find it")
    graphs = {spec.scenario_id: MemoryGraph()}
    [row], [decision] = _evaluate_recording_decisions(monkeypatch, spec, "polar", graphs=graphs)
    assert (decision.chosen_object_id, decision.chosen_category, decision.prior_room) == ("", "", None)
    assert decision.rationale.startswith("grounding unavailable: ")
    assert row["grounded_object_id"] == "" and row["grounding_correct"] == 0
    assert row["steps"] >= 1


def test_run_episode_no_prior_grounding_uses_the_callers_encoder(monkeypatch):
    categories = tuple(f"c{i}x" for i in range(40))
    instruction = "find my thing c7 zz"  # names no category: the similarity fallback decides
    small = EncoderConfig(dim=64)
    want = CategoryMatcher(small).ground(instruction, categories).chosen_category
    assert want == "c15x" and want != CategoryMatcher(DEFAULT_ENCODER).ground(instruction, categories).chosen_category
    spec = _probe_spec([(c, 1) for c in categories], instruction)
    _, [decision] = _evaluate_recording_decisions(monkeypatch, spec, "no-prior", settings=MemorySettings(encoder=small))
    assert decision.chosen_category == want
