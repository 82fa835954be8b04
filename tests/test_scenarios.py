import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar.errors import GenerationError, ParseError, RejectedInput
from polar.fileio import record_to_json
from polar.scenarios import (
    FILLER_COUNT,
    KINDS,
    ScenarioSpec,
    _hidden_from_hallway,
    _pick_start,
    gen_scenarios,
    load_specs,
    save_specs,
)
from polar.world import HEADINGS, VISIBILITY_RANGE_M, World, gen_world


@pytest.fixture(scope="module")
def one_of_each():
    return {kind: gen_scenarios(0, kind, 2) for kind in KINDS}


def test_gen_scenarios_validation():
    with pytest.raises(RejectedInput):
        gen_scenarios(0, "impossible-kind", 1)
    with pytest.raises(RejectedInput):
        gen_scenarios(0, "distractor", 0)


def test_gen_scenarios_refuses_spec_whose_memory_grounds_a_distractor():
    # spec 3 of this suite: memorized, retrieved and grounded, the cue picks another headphones
    with pytest.raises(GenerationError, match=r"grounds 'headphones_01', not gold 'headphones_02'"):
        gen_scenarios(253, "distractor", 5)


def test_gen_scenarios_deterministic():
    a = gen_scenarios(3, "compositional-single", 3)
    b = gen_scenarios(3, "compositional-single", 3)
    assert [record_to_json(s) for s in a] == [record_to_json(s) for s in b]


def test_suite_shares_world_chassis(one_of_each):
    for kind, specs in one_of_each.items():
        assert len(specs) == 2
        chassis = {(s.world_seed, s.world_n_rooms, tuple(s.world_objects)) for s in specs}
        assert len(chassis) == 1
        assert [s.scenario_id for s in specs] == [f"{kind}-s0-000", f"{kind}-s0-001"]


def test_scripts_cover_fillers_then_kind(one_of_each):
    extra_scripts = {
        "compositional-single": 1,
        "temporal-context": 2,  # the same key restated with a newer value
        "temporal-object": 2,
        "compositional-joint": 4,  # 2 scripts on gold + 1 each on two decoys
        "distractor": 3,
    }
    for kind, specs in one_of_each.items():
        for spec in specs:
            filler_ids = {f"{category}_01" for category, _ in spec.world_objects[1:]}
            assert len(filler_ids) == FILLER_COUNT
            assert sum(s.target_object_id in filler_ids for s in spec.scripts) == FILLER_COUNT
            assert len(spec.scripts) == FILLER_COUNT + extra_scripts[kind]
            stamps = [s.timestamp for s in spec.scripts]
            assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)
            assert spec.gold_object_id in {s.target_object_id for s in spec.scripts}


def test_gold_position_differs_from_acquisition(one_of_each):
    for specs in one_of_each.values():
        for spec in specs:
            world = gen_world(spec.world_seed, spec.world_n_rooms, list(spec.world_objects))
            assert world.is_free(spec.eval_gold_position)
            assert world.is_free(spec.eval_agent_start)
            assert spec.eval_agent_heading % 30 == 0


def test_temporal_object_gold_is_latest_assignment(one_of_each):
    for spec in one_of_each["temporal-object"]:
        cue_key, cue_value = spec.scripts[-1].facts[0]
        carriers = [s for s in spec.scripts if (cue_key, cue_value) in s.facts]
        assert len(carriers) == 2  # same cue assigned twice
        assert spec.gold_object_id == max(carriers, key=lambda s: s.timestamp).target_object_id
        assert carriers[0].target_object_id != carriers[1].target_object_id


def test_temporal_context_restates_same_key(one_of_each):
    for spec in one_of_each["temporal-context"]:
        gold_scripts = [s for s in spec.scripts if s.target_object_id == spec.gold_object_id]
        assert len(gold_scripts) == 2
        (k1, v1), (k2, v2) = gold_scripts[0].facts[0], gold_scripts[1].facts[0]
        assert k1 == k2 and v1 != v2
        assert v2 in spec.eval_instruction  # the newer value is the cue


def test_distractor_has_three_same_category_instances(one_of_each):
    for spec in one_of_each["distractor"]:
        category = dict((c, n) for c, n in spec.world_objects)
        gold_cat = spec.gold_object_id.rsplit("_", 1)[0]
        assert category[gold_cat] == 3


def test_joint_gold_relocates_to_neighbor_of_found_room(one_of_each):
    for spec in one_of_each["compositional-joint"]:
        world = gen_world(spec.world_seed, spec.world_n_rooms, list(spec.world_objects))
        scene = world.build_scene_graph()
        gold_scripts = [s for s in spec.scripts if s.target_object_id == spec.gold_object_id]
        base_room = world.room_of(gold_scripts[-1].object_position)
        eval_room = world.room_of(spec.eval_gold_position)
        assert eval_room != base_room
        assert eval_room in scene.neighbors(base_room)
        assert eval_room != "hallway"


def test_joint_gold_is_hidden_from_hallway(one_of_each):
    for spec in one_of_each["compositional-joint"]:
        world = gen_world(spec.world_seed, spec.world_n_rooms, list(spec.world_objects))
        assert _hidden_from_hallway(world, spec.eval_gold_position)


def test_hidden_from_hallway_rejects_corridor_cells():
    world = gen_world(0, 6, [])
    hallway_wp = world.build_scene_graph().waypoints["hallway"]
    assert not _hidden_from_hallway(world, hallway_wp)


def _reference_hidden_from_hallway(world, pos):
    """The 41 x 41 cell scan around pos: each cell centre within view range whose
    room is the hallway is tested for a sightline to pos, in row-major order."""
    cx, cy = world.cell_of(pos)
    reach = int(math.ceil(VISIBILITY_RANGE_M / world.resolution))
    height, width = world.grid.shape
    for iy in range(max(0, cy - reach), min(height, cy + reach + 1)):
        for ix in range(max(0, cx - reach), min(width, cx + reach + 1)):
            center = world.cell_center((ix, iy))
            if math.hypot(center[0] - pos[0], center[1] - pos[1]) > VISIBILITY_RANGE_M:
                continue
            if world.room_of(center) != "hallway":
                continue
            if world.line_of_sight(center, pos):
                return False
    return True


# worlds of run-all seeds whose compositional-joint generation has a long tail
_SEED_WORLDS = [gen_world(seed, 6) for seed in (188, 195, 23)]


@st.composite
def _seed_world_positions(draw):
    """A seed world and a cell centre of it, or any position up to 1 m outside its grid."""
    world = _SEED_WORLDS[draw(st.integers(0, len(_SEED_WORLDS) - 1))]
    ny, nx = world.grid.shape
    if draw(st.booleans()):
        return world, world.cell_center((draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))))
    w, h = world.bounds_m
    return world, (draw(st.floats(-1.0, w + 1.0)), draw(st.floats(-1.0, h + 1.0)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_seed_world_positions())
def test_hidden_from_hallway_matches_the_cell_scan(world_pos):
    """Same answer and the same sightlines traced, in the same order, as the scan."""
    world, pos = world_pos
    traced = []
    for check in (_hidden_from_hallway, _reference_hidden_from_hallway):
        with mock.patch.object(World, "line_of_sight", autospec=True, side_effect=World.line_of_sight) as los:
            traced.append((check(world, pos), [call.args[1:] for call in los.call_args_list]))
    assert traced[0] == traced[1]


def _reference_pick_start(rng, world, rooms=None, avoid=()):
    """The start draw over a list of the room's margin-1 cell centres, less the used
    ones by tuple membership."""
    room = rng.choice(sorted(rooms) if rooms else sorted(world.room_names))
    used = set(avoid)
    candidates = [c for c in world.room_centers(room, margin=1).tolist() if tuple(c) not in used]
    if not candidates:
        raise GenerationError(f"no free start cell left in room {room!r}")
    return tuple(rng.choice(candidates)), rng.choice(HEADINGS)


_START_WORLDS = [gen_world(seed, 6) for seed in (0, 23, 188)]


@st.composite
def _start_draws(draw):
    """A world, a room list (or None), used starts and an rng seed. Used starts are cell
    centres of any room, points next to them, and all of one room's candidates."""
    world = _START_WORLDS[draw(st.integers(0, len(_START_WORLDS) - 1))]
    rooms = draw(st.none() | st.lists(st.sampled_from(world.room_names), min_size=1, max_size=3, unique=True))
    centers = [tuple(c) for room in world.room_names for c in world.room_centers(room, margin=1).tolist()]
    avoid = draw(st.lists(st.sampled_from(centers), max_size=25))
    nudged = draw(st.lists(st.sampled_from(centers), max_size=3))
    avoid += [(x, math.nextafter(y, math.inf)) for x, y in nudged] + [(x + 0.125, y) for x, y in nudged]
    if draw(st.booleans()):
        full = draw(st.sampled_from(rooms or world.room_names))
        avoid += [tuple(c) for c in world.room_centers(full, margin=1).tolist()]
    return world, rooms, draw(st.permutations(avoid)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_start_draws())
def test_pick_start_matches_the_list_filter(start_draw):
    """The same start and heading, the same GenerationError and the same rng state after."""
    world, rooms, avoid, seed = start_draw
    outcomes = []
    for pick in (_pick_start, _reference_pick_start):
        rng = random.Random(seed)
        try:
            outcome = pick(rng, world, rooms, avoid)
        except GenerationError as exc:
            outcome = str(exc)
        outcomes.append((outcome, rng.getstate()))
    assert outcomes[0] == outcomes[1]
    start = outcomes[0][0]
    if not isinstance(start, str):
        assert all(type(v) is float for v in start[0]) and start[0] not in set(avoid)


def test_pick_start_refuses_a_room_with_every_cell_used():
    world = _START_WORLDS[0]
    room = "kitchen"
    avoid = [tuple(c) for c in world.room_centers(room, margin=1).tolist()]
    with pytest.raises(GenerationError, match="no free start cell left in room 'kitchen'"):
        _pick_start(random.Random(0), world, [room], avoid)
    start, _heading = _pick_start(random.Random(0), world, [room], avoid[1:])
    assert start == avoid[0]


def test_eval_instruction_names_category(one_of_each):
    for specs in one_of_each.values():
        for spec in specs:
            category = spec.gold_object_id.rsplit("_", 1)[0]
            assert spec.eval_instruction.startswith("find my ")
            assert spec.eval_instruction.endswith(f" {category}")


def test_eval_start_never_reuses_an_acquisition_start(one_of_each):
    # every spawn cell is drawn while avoiding the earlier ones
    for specs in one_of_each.values():
        for spec in specs:
            starts = [s.agent_start for s in spec.scripts] + [spec.eval_agent_start]
            assert len(set(starts)) == len(starts)


def test_spec_round_trip(tmp_path, one_of_each):
    specs = [s for group in one_of_each.values() for s in group]
    path = tmp_path / "specs.json"
    save_specs(specs, str(path))
    loaded = load_specs(str(path))
    assert [record_to_json(s) for s in loaded] == [record_to_json(s) for s in specs]


def test_load_specs_rejects_bad_documents(tmp_path):
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"format_version": 9, "specs": []}))
    with pytest.raises(ParseError):
        load_specs(str(path))
    path.write_text("{oops")
    with pytest.raises(ParseError):
        load_specs(str(path))
    path.write_text(json.dumps({"format_version": 1, "specs": {}}))
    with pytest.raises(ParseError):
        load_specs(str(path))


def test_spec_from_json_rejects_missing_fields(tmp_path, one_of_each):
    doc = record_to_json(one_of_each["distractor"][0])
    del doc["scripts"]
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"format_version": 1, "specs": [doc]}))
    with pytest.raises(ParseError, match=r"\[0\]\.scripts: missing"):
        load_specs(str(path))
