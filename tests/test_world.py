import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import dijkstra_oracle, reference_cell, reference_descents, reference_steer, reference_strides
from polar.agent import _steer_action
from polar.errors import ParseError, RejectedInput
from polar.world import (
    HEADINGS,
    MOVE_FORWARD,
    RESOLUTION,
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
    cached_world,
    clear_of,
    gen_world,
    heading_vector,
)


def test_heading_math():
    # compass convention: 0 points +y, angles grow clockwise
    assert heading_vector(0) == pytest.approx((0.0, 1.0))
    assert heading_vector(90) == pytest.approx((1.0, 0.0))
    assert heading_vector(180) == pytest.approx((0.0, -1.0))
    assert heading_vector(270) == pytest.approx((-1.0, 0.0))
    assert bearing_deg((0, 0), (0, 1)) == pytest.approx(0.0)
    assert bearing_deg((0, 0), (1, 0)) == pytest.approx(90.0)
    assert bearing_deg((0, 0), (1, 1)) == pytest.approx(45.0)
    assert angle_diff_deg(350, 10) == pytest.approx(20.0)
    assert angle_diff_deg(10, 350) == pytest.approx(20.0)
    with pytest.raises(RejectedInput):
        heading_vector(45)


def test_gen_world_is_deterministic():
    spec = [("mug", 2), ("vase", 1)]
    a = gen_world(3, 6, spec)
    b = gen_world(3, 6, spec)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_gen_world_structure(small_world):
    w = small_world
    assert w.room_names[0] == "hallway"
    assert len(w.room_names) == 5
    assert len(set(w.room_names)) == 5
    # outer border is all wall
    assert (w.grid[0, :] == WALL).all() and (w.grid[-1, :] == WALL).all()
    assert (w.grid[:, 0] == WALL).all() and (w.grid[:, -1] == WALL).all()
    # every room label appears somewhere
    labels = set(np.unique(w.grid))
    assert labels == set(range(len(w.room_names))) | {WALL}


def test_gen_world_room_sides_between_4_and_8_m(small_world):
    for label in range(1, len(small_world.room_names)):
        cells = np.argwhere(small_world.grid == label)
        height = (cells[:, 0].max() - cells[:, 0].min() + 1) * RESOLUTION
        width = (cells[:, 1].max() - cells[:, 1].min() + 1) * RESOLUTION
        assert 4.0 <= width <= 8.0 and 4.0 <= height <= 8.0


def test_objects_land_in_rooms_with_unit_features(small_world):
    assert sorted(small_world.objects) == ["mug_01", "mug_02", "vase_01"]
    for obj in small_world.objects.values():
        assert small_world.room_of(obj.position) not in (None, "hallway")
        assert float(np.linalg.norm(obj.feature)) == pytest.approx(1.0)


def test_gen_world_without_spec_has_no_objects():
    assert gen_world(0, 5).objects == {}


def test_rooms_are_connected(small_world):
    hallway_wp = small_world.build_scene_graph().waypoints["hallway"]
    for room, wp in small_world.build_scene_graph().waypoints.items():
        assert small_world.room_of(wp) == room
        assert math.isfinite(small_world.shortest_path_length(hallway_wp, wp))


def test_step_forward_moves_one_meter(small_world):
    w = small_world
    start = AgentState(w.build_scene_graph().waypoints["hallway"], 0)
    state, obs, done = w.step(start, MOVE_FORWARD)
    assert not done and not obs.blocked
    assert state.position[0] == pytest.approx(start.position[0])
    assert state.position[1] == pytest.approx(start.position[1] + 1.0)
    assert state.steps_taken == 1


def test_step_turns_and_stop(small_world):
    w = small_world
    start = AgentState(w.build_scene_graph().waypoints["hallway"], 0)
    left, _, _ = w.step(start, TURN_LEFT)
    right, _, _ = w.step(start, TURN_RIGHT)
    assert (left.heading, right.heading) == (330, 30)
    assert left.position == start.position
    _, _, done = w.step(start, STOP)
    assert done
    with pytest.raises(RejectedInput):
        w.step(start, "FLY")


def test_step_into_wall_blocks_without_moving(small_world):
    w = small_world
    # walk from the hallway waypoint until something blocks
    state = AgentState(w.build_scene_graph().waypoints["hallway"], 0)
    for _ in range(200):
        nxt, obs, _ = w.step(state, MOVE_FORWARD)
        if obs.blocked:
            assert nxt.position == state.position
            return
        state = nxt
    pytest.fail("never hit a wall walking in a straight line")


def test_observation_front_view_sees_nearby_object(small_world):
    w = small_world
    obj = w.objects["mug_01"]
    pos = (obj.position[0] - 2.0, obj.position[1])
    if not w.is_free(pos):
        pytest.skip("sampled cell is a wall in this layout")
    obs = w.observe(AgentState(pos, 90))  # the object sits due east
    assert obs.find("mug_01") == pytest.approx(2.0)
    front_ids = [oid for oid, _, _ in obs.front]
    assert "mug_01" in front_ids


def test_observation_respects_range(small_world):
    w = small_world
    obj = w.objects["mug_01"]
    pos = (obj.position[0] - (VISIBILITY_RANGE_M + 1.0), obj.position[1])
    if w.is_free(pos):
        obs = w.observe(AgentState(pos, 0))
        assert obs.find("mug_01") is None


def test_observation_views_cover_270_not_rear(small_world):
    w = small_world
    # find a probe cell 2 m from an object with clear line of sight; `facing`
    # is the compass bearing from the probe toward the object
    probes = [
        (obj, probe, facing)
        for obj in w.objects.values()
        for probe, facing in (
            ((obj.position[0] + 2.0, obj.position[1]), 270),
            ((obj.position[0] - 2.0, obj.position[1]), 90),
            ((obj.position[0], obj.position[1] + 2.0), 180),
            ((obj.position[0], obj.position[1] - 2.0), 0),
        )
        if w.is_free(probe) and w.line_of_sight(probe, obj.position)
    ]
    assert probes, "no clear 2 m probe next to any object"
    obj, probe, facing = probes[0]
    # facing the object: the front view itself reports it
    front = w.observe(AgentState(probe, facing)).front
    assert obj.object_id in [oid for oid, _, _ in front]
    # object abeam: still covered by the side views
    assert w.observe(AgentState(probe, (facing + 90) % 360)).find(obj.object_id) is not None
    assert w.observe(AgentState(probe, (facing - 90) % 360)).find(obj.object_id) is not None
    # facing directly away: the rear 90-degree gap hides it from all three views
    assert w.observe(AgentState(probe, (facing + 180) % 360)).find(obj.object_id) is None


def test_line_of_sight_blocked_by_walls(small_world):
    w = small_world
    # a free cell, a wall cell, then a free cell along one row: the straight
    # segment between the two free centers must cross the wall
    triple = None
    height, width = w.grid.shape
    for iy in range(1, height - 1):
        for ix in range(1, width - 3):
            if w.grid[iy, ix] != WALL and w.grid[iy, ix + 1] == WALL and w.grid[iy, ix + 2] != WALL:
                triple = (ix, iy)
                break
        if triple:
            break
    assert triple, "no free-wall-free run in the grid"
    ix, iy = triple
    a, b = w.cell_center((ix, iy)), w.cell_center((ix + 2, iy))
    assert not w.line_of_sight(a, b)
    assert w.line_of_sight(a, a)


def test_line_of_sight_symmetry():
    w = gen_world(1, 6, [])
    free = np.argwhere(w.grid != WALL)
    rng = random.Random(7)
    for _ in range(200):
        (ay, ax), (by, bx) = rng.choice(free), rng.choice(free)
        a, b = w.cell_center((ax, ay)), w.cell_center((bx, by))
        assert w.line_of_sight(a, b) == w.line_of_sight(b, a)


def test_shortest_path_matches_dijkstra_oracle():
    for seed in (0, 2):
        w = gen_world(seed, 5, [])
        sg = w.build_scene_graph()
        start = sg.waypoints["hallway"]
        oracle = dijkstra_oracle(w.grid, w.cell_of(start), w.resolution)
        rng = random.Random(seed)
        free = np.argwhere(w.grid != WALL)
        for _ in range(25):
            gy, gx = rng.choice(free)
            goal = w.cell_center((gx, gy))
            got = w.shortest_path_length(start, goal)
            assert got == pytest.approx(oracle[(gx, gy)], abs=1e-9)


def test_distance_field_validates_bounds(small_world):
    with pytest.raises(RejectedInput):
        small_world.distance_field((-1.0, 2.0))
    with pytest.raises(RejectedInput):
        small_world.shortest_path_length((0.5, 0.5), (1e9, 1e9))


def test_descents_refuse_a_position_outside_the_grid():
    world = gen_world(0, 6)
    goal = world.build_scene_graph().waypoints["hallway"]
    w, h = world.bounds_m
    for pos in [(-0.3, 3.1), (3.1, -0.3), (w, 3.1), (3.1, h), (w + 5.0, h + 5.0)]:
        with pytest.raises(RejectedInput, match="outside world bounds"):
            world.descents(pos, goal)


def test_field_views_are_kept_and_evicted_with_their_fields():
    nav = gen_world(0, 6)._nav  # a fresh grid: no field cached yet
    limit = nav._MAX_FIELDS
    cells = [(int(ix), int(iy)) for iy, ix in nav.free_cells[: limit + 10]]
    for cell in cells:
        field, view = nav.field(cell), nav.flat_field(cell)
        assert isinstance(view, memoryview) and view.readonly
        assert np.shares_memory(np.asarray(view), field)  # the field's own buffer, no copy
        assert np.asarray(view).reshape(field.shape).tobytes() == field.tobytes()
    assert len(nav.fields) == limit
    assert list(nav.fields) == cells[-limit:]
    assert all(isinstance(view, memoryview) for _field, view in nav.fields.values())


def test_scene_graph_paths(small_world):
    sg = small_world.build_scene_graph()
    assert sg.bfs_path("hallway", "hallway") == []
    for room in sg.rooms:
        if room == "hallway":
            continue
        path = sg.bfs_path("hallway", room)
        assert path is not None and path[-1] == room
        assert sg.hop_distance("hallway", room) == len(path)
    with pytest.raises(RejectedInput):
        sg.bfs_path("hallway", "attic")


def test_every_room_touches_the_hallway(small_world):
    sg = small_world.build_scene_graph()
    for room in sg.rooms:
        if room != "hallway":
            assert "hallway" in sg.neighbors(room)


def test_move_object_copies_world_and_shares_nav(small_world):
    w = small_world
    sg = w.build_scene_graph()
    target = sg.waypoints["kitchen"]
    moved = w.move_object("vase_01", target)
    assert moved is not w
    assert moved.objects["vase_01"].position == target
    assert w.objects["vase_01"].position != target  # original untouched
    assert moved._nav is w._nav  # nav cache shared: same immutable grid
    with pytest.raises(RejectedInput):
        w.move_object("ghost", target)
    with pytest.raises(RejectedInput):
        w.move_object("vase_01", (0.0, 0.0))  # wall cell


def test_room_cells_margin(small_world):
    w = small_world
    full = w.room_cells("kitchen")
    inner = w.room_cells("kitchen", margin=3)
    assert set(inner) < set(full)
    label = w.room_names.index("kitchen")
    assert all(w.grid[iy, ix] == label for ix, iy in full)


def test_world_round_trip(tmp_path, small_world):
    path = tmp_path / "world.json"
    small_world.save(str(path))
    loaded = World.load(str(path))
    assert json.dumps(loaded.to_json(), sort_keys=True) == json.dumps(small_world.to_json(), sort_keys=True)


def test_world_load_rejects_bad_documents(tmp_path, small_world):
    doc = small_world.to_json()
    doc["format_version"] = 42
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        World.load(str(path))
    path.write_text("{not json")
    with pytest.raises(ParseError):
        World.load(str(path))


@pytest.mark.parametrize("field, value", [("position", ["0.5", 1.0]), ("position", [True, 1.0]), ("resolution", "0.25")])
def test_world_load_refuses_quoted_numbers(tmp_path, small_world, field, value):
    doc = small_world.to_json()
    if field == "position":
        doc["objects"][0]["position"] = value
    else:
        doc[field] = value
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        World.load(str(path))


def test_render_ascii_shape(small_world):
    art = small_world.render_ascii()
    *rows, legend = art.splitlines()
    assert len(rows) == small_world.grid.shape[0]
    assert all(len(line) == small_world.grid.shape[1] for line in rows)
    assert art.count("*") == len(small_world.objects)
    assert "a=hallway" in legend


def test_duplicate_object_ids_rejected(small_world):
    objs = list(small_world.objects.values())
    with pytest.raises(RejectedInput):
        World(small_world.grid, small_world.room_names, [objs[0], objs[0]])


def test_world_load_rejects_grid_without_wall_border():
    grid = np.zeros((6, 6), dtype=np.int16)  # all free: no wall ring
    doc = World(grid.copy(), ["hallway"], []).to_json()
    with pytest.raises(ParseError, match="ring of wall cells"):
        World.from_json(doc)
    grid = np.full((6, 6), WALL, dtype=np.int16)
    grid[1:5, 1:6] = 0  # one free cell on the right edge
    with pytest.raises(ParseError, match="ring of wall cells"):
        World.from_json(World(grid.copy(), ["hallway"], []).to_json())
    grid[1:5, 5] = WALL
    assert World.from_json(World(grid.copy(), ["hallway"], []).to_json()).line_of_sight((0.375, 0.375), (1.125, 1.125))
    doc["grid_rows"] = []
    with pytest.raises(ParseError):
        World.from_json(doc)


def test_world_load_rejects_more_than_twelve_rooms():
    names = [f"room_{i}" for i in range(13)]
    grid = np.full((3, 15), WALL, dtype=np.int16)
    grid[1, 1:14] = np.arange(13)
    with pytest.raises(ParseError, match="at most 12 rooms"):
        World.from_json(World(grid.copy(), names, []).to_json())
    grid[1, 13] = WALL
    loaded = World.from_json(World(grid.copy(), names[:12], []).to_json())
    assert "l=room_11" in loaded.render_ascii()


# -- differential tests: array paths against the scalar per-sample loops ------------------

_DIFF_WORLDS = [
    gen_world(0, 5, [("mug", 2), ("vase", 1)]),
    gen_world(4, 8, [("lamp", 3), ("keys", 2), ("watch", 1), ("shoes", 1)]),
    gen_world(9, 3, [("bottle", 2), ("pillow", 2)]),
]


def _reference_observe(world, state):
    """The per-view observation loop: bearing and sightline tested per object and view."""
    positions = np.array([o.position for o in world.objects.values()]).reshape(-1, 2)
    deltas = positions - np.array(state.position)
    near = np.flatnonzero(np.hypot(deltas[:, 0], deltas[:, 1]) <= VISIBILITY_RANGE_M + 1e-9)
    objects = list(world.objects.values())
    views = []
    for offset in (0, -90, 90):
        view_heading = (state.heading + offset) % 360
        visible = []
        for i in near:
            obj = objects[i]
            dist = math.hypot(obj.position[0] - state.position[0], obj.position[1] - state.position[1])
            if dist < 1e-9:
                if offset != 0:
                    continue
            elif angle_diff_deg(bearing_deg(state.position, obj.position), view_heading) > (
                VISIBILITY_HALF_ANGLE_DEG + 1e-9
            ):
                continue
            if dist >= 1e-9 and not world.line_of_sight(state.position, obj.position):
                continue
            visible.append((obj.object_id, obj.category, dist))
        visible.sort(key=lambda row: (row[2], row[0]))
        views.append(visible)
    return views


@st.composite
def _world_positions(draw, margin_m=0.0):
    """A world and a position in it (see _positions)."""
    world = _DIFF_WORLDS[draw(st.integers(0, len(_DIFF_WORLDS) - 1))]
    return world, draw(_positions(world, margin_m))


@st.composite
def _positions(draw, world, margin_m=0.0):
    """A position in world: anywhere, on exact cell corners and edges, inside
    cells that touch a wall, on or near an object, or at 45 degrees from one."""
    ny, nx = world.grid.shape
    res = world.resolution
    kind = draw(st.sampled_from(["any", "corner", "edge", "by_wall", "object", "diagonal"]))
    if kind == "any":
        pos = (
            draw(st.floats(-margin_m, nx * res + margin_m, exclude_max=True)),
            draw(st.floats(-margin_m, ny * res + margin_m, exclude_max=True)),
        )
    elif kind in ("corner", "edge"):
        ix, iy = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        frac = 0.0 if kind == "corner" else draw(st.floats(0.0, 1.0, exclude_max=True))
        pos = (ix * res, (iy + frac) * res) if draw(st.booleans()) else ((ix + frac) * res, iy * res)
    elif kind == "by_wall":
        free = world.grid != WALL
        walled = np.zeros_like(free)
        walled[1:-1, 1:-1] = ~(free[:-2, 1:-1] & free[2:, 1:-1] & free[1:-1, :-2] & free[1:-1, 2:])
        cells = np.argwhere(free & walled)
        iy, ix = cells[draw(st.integers(0, len(cells) - 1))]
        pos = (
            (ix + draw(st.floats(0.0, 1.0, exclude_max=True))) * res,
            (iy + draw(st.floats(0.0, 1.0, exclude_max=True))) * res,
        )
    else:
        obj = draw(st.sampled_from(sorted(world.objects.values(), key=lambda o: o.object_id)))
        if kind == "object":
            step = draw(st.sampled_from([0.0, 1e-12, 0.25, 1.0, 4.9999999995, 5.0]))
        else:
            step = draw(st.sampled_from([0.5, 1.0, 2.0, 3.5]))
        sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (0, 1)]))
        pos = (obj.position[0] + sx * step, obj.position[1] + sy * step)
    return pos


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_world_positions(margin_m=1.5))
def test_segment_free_matches_grid_reference_per_heading(world_pos):
    world, pos = world_pos
    got = []
    for heading in HEADINGS:
        ux, uy = heading_vector(heading)
        end = (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)
        got.append((world.segment_free(pos, end), world.cell_of(end)))
    assert got == reference_strides(world, pos)


@st.composite
def _edge_positions(draw):
    """A world and a position on, just inside or just past an edge of its grid."""
    world = _DIFF_WORLDS[draw(st.integers(0, len(_DIFF_WORLDS) - 1))]
    ny, nx = world.grid.shape
    coords = []
    for size in (nx * world.resolution, ny * world.resolution):
        edges = [-0.25, math.nextafter(0.0, -1.0), -0.0, 0.0, math.nextafter(size, 0.0), size]
        edges += [math.nextafter(size, math.inf), size + 0.25]
        coords.append(draw(st.sampled_from(edges) | st.floats(0.0, size, exclude_max=True)))
    return world, tuple(coords)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_world_positions(margin_m=1.5) | _edge_positions())
def test_cell_reads_match_grid_reference(world_pos):
    world, pos = world_pos
    label = reference_cell(world, pos)
    assert world.in_bounds(pos) == (label is not None)
    assert world.is_free(pos) == (label is not None and label != WALL)
    assert world.room_of(pos) == (None if label in (None, WALL) else world.room_names[label])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_world_positions(), st.sampled_from(HEADINGS), st.integers(0, 10**6))
def test_steer_action_matches_scalar_steering_loop(world_pos, heading, goal_pick):
    world, pos = world_pos
    if not world.in_bounds(pos):
        return
    free_cells = world._nav.free_cells
    gy, gx = free_cells[goal_pick % len(free_cells)]
    goal = world.cell_center((int(gx), int(gy)))
    state = AgentState(pos, heading)
    assert _steer_action(world, state, goal) == reference_steer(world, state, goal)


# worlds of run-all seeds whose scenario generation has a long tail
_SEED_WORLDS = [gen_world(seed, 6, [("mug", 3), ("vase", 1)]) for seed in (188, 195, 23)]


@st.composite
def _seed_world_positions(draw):
    """A seed world and a free cell centre of it, or any position in its grid."""
    world = _SEED_WORLDS[draw(st.integers(0, len(_SEED_WORLDS) - 1))]
    if draw(st.booleans()):
        free_cells = world._nav.free_cells
        iy, ix = free_cells[draw(st.integers(0, len(free_cells) - 1))]
        return world, world.cell_center((int(ix), int(iy)))
    w, h = world.bounds_m
    return world, (draw(st.floats(0.0, w, exclude_max=True)), draw(st.floats(0.0, h, exclude_max=True)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_seed_world_positions(), st.integers(0, 10**6))
def test_field_view_reads_match_numpy_indexed_reads(world_pos, goal_pick):
    """descents and shortest_path_length read the flat field views; the references
    index the ny x nx field with numpy."""
    world, pos = world_pos
    free_cells = world._nav.free_cells
    gy, gx = free_cells[goal_pick % len(free_cells)]
    goal = world.cell_center((int(gx), int(gy)))
    assert list(world.descents(pos, goal)) == reference_descents(world, pos, goal)
    ix, iy = world._nav.snap(pos)
    got = world.shortest_path_length(pos, goal)
    assert type(got) is float and got == float(world.distance_field(goal)[iy, ix])


_FIVE_METRES = [(5.0, 0.0), (0.0, -5.0), (3.0, 4.0), (-4.0, 3.0), (-3.0, -4.0), (4.0, -3.0)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _seed_world_positions(),
    st.sampled_from(_FIVE_METRES),
    st.sampled_from([-1e-9, 0.0, 5e-16, 1e-9, 2e-9]),
    st.sampled_from(HEADINGS),
)
def test_observe_range_at_five_metres_matches_numpys_hypot(world_pos, offset, stretch, heading):
    """An object moved to exactly (or about) 5 m from the agent: observe decides its
    range as the per-view loop's np.hypot test does, watched or not."""
    world, pos = world_pos
    scale = 1.0 + stretch
    target = (pos[0] + offset[0] * scale, pos[1] + offset[1] * scale)
    assume(world.is_free(target))
    world = world.move_object("vase_01", target)
    state = AgentState(pos, heading)
    want = _reference_observe(world, state)
    assert list(world.observe(state).views) == want
    assert list(world.observe(state, watch=frozenset({"vase_01"})).views) == _watched(want, {"vase_01"})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_world_positions(), st.sampled_from(HEADINGS))
def test_observe_matches_per_view_loop(world_pos, heading):
    world, pos = world_pos
    if not world.in_bounds(pos):
        return
    state = AgentState(pos, heading)
    got = list(world.observe(state).views)
    assert got == _reference_observe(world, state)


# each generated world beside a copy with one object moved: both share one nav cache
_MOVED_WORLDS = [
    world.move_object(min(world.objects), world.build_scene_graph().waypoints[world.room_names[-1]])
    for world in _DIFF_WORLDS
]


def _watched(views, watch):
    """views cut to the rows of objects in watch (every row when watch is None)."""
    return [[row for row in view if watch is None or row[0] in watch] for view in views]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_observe_sequences_match_uncached_loop(data):
    """Every heading in turn at one position, positions revisited out of order, on
    the moved-object copy and with another watch set (or none): the cached sightings
    must never go stale, and a watched observation is the full one cut to its watch."""
    pick = data.draw(st.integers(0, len(_DIFF_WORLDS) - 1))
    worlds = (_DIFF_WORLDS[pick], _MOVED_WORLDS[pick])
    pool = data.draw(st.lists(_positions(worlds[0]).filter(worlds[0].in_bounds), min_size=1, max_size=3))
    ids = sorted(worlds[0].objects) + ["ghost_01"]
    watches = st.none() | st.frozensets(st.sampled_from(ids))
    visits = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.booleans(), st.permutations(HEADINGS), watches),
            min_size=1,
            max_size=6,
        )
    )
    for at, moved, headings, watch in visits:
        world = worlds[moved]
        for heading in headings:
            state = AgentState(pool[at], heading)
            got = list(world.observe(state, watch=watch).views)
            assert got == _watched(_reference_observe(world, state), watch)


def test_in_place_scan_traces_each_sightline_at_most_once():
    world = gen_world(4, 8, [("lamp", 3), ("keys", 2), ("watch", 1), ("shoes", 1)])  # fresh: nothing cached
    objects = list(world.objects.values())

    def in_range(pos):
        return [o for o in objects if math.hypot(o.position[0] - pos[0], o.position[1] - pos[1]) <= VISIBILITY_RANGE_M]

    free = world._nav.free_centers.tolist()
    pos = tuple(max(free, key=lambda c: len(in_range(c))))
    assert len(in_range(pos)) >= 2
    state = AgentState(pos, 0)
    with mock.patch.object(World, "line_of_sight", autospec=True, side_effect=World.line_of_sight) as los:
        observations = [world.observe(state)]  # the START entry
        for _ in range(3):
            state, observation, _ = world.step(state, TURN_RIGHT)
            observations.append(observation)
    targets = [call.args[2] for call in los.call_args_list]
    assert targets, "no object fell in a view cone"
    assert len(targets) == len(set(targets)) <= len(in_range(pos))
    for heading, observation in zip((0, 30, 60, 90), observations):
        got = list(observation.views)
        assert got == _reference_observe(world, AgentState(pos, heading))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_world_positions(), st.sampled_from(HEADINGS), st.data())
def test_watched_range_test_matches_the_full_one_at_the_boundary(world_pos, heading, data):
    """Positions on and near the 5 m range of an object: watching that object alone
    sees it exactly when the full observation does."""
    world, pos = world_pos
    if not world.in_bounds(pos):
        return
    oid = data.draw(st.sampled_from(sorted(world.objects)))
    state = AgentState(pos, heading)
    full = world.observe(state)
    assert list(world.observe(state, watch=frozenset((oid,))).views) == _watched(full.views, {oid})


# positions about 5 m from small_world's mug_01, found by stepping y one ulp at a time
# around the range circle, where numpy's and math's hypot disagree on the range test
@pytest.mark.parametrize("pos", [(10.012507175897758, 0.6117991773768973), (9.424451501935113, 1.0335823812640983)])
def test_watched_range_test_is_numpys_where_math_hypot_differs(small_world, pos):
    mug = small_world.objects["mug_01"].position
    dx, dy = mug[0] - pos[0], mug[1] - pos[1]
    limit = VISIBILITY_RANGE_M + 1e-9
    assert bool(np.hypot(dx, dy) <= limit) != (math.hypot(dx, dy) <= limit)
    state = AgentState(pos, 30)
    want = _watched(_reference_observe(small_world, state), {"mug_01"})
    assert list(small_world.observe(state, watch=frozenset({"mug_01"})).views) == want


def test_room_centers_are_computed_once_per_grid_and_read_only(small_world):
    moved = small_world.move_object("vase_01", small_world.build_scene_graph().waypoints["kitchen"])
    for margin in (0, 1, 3):
        centers = small_world.room_centers("kitchen", margin)
        assert not centers.flags.writeable
        assert moved.room_centers("kitchen", margin) is centers
        cells = sorted(small_world.room_cells("kitchen", margin))
        assert centers.tolist() == [[(ix + 0.5) * RESOLUTION, (iy + 0.5) * RESOLUTION] for ix, iy in cells]
        with pytest.raises(ValueError):
            centers[0, 0] = 0.0
    with pytest.raises(RejectedInput):
        small_world.room_centers("attic")


def _reference_neighbors(scene, room):
    """SceneGraph.neighbors as a scan of every edge."""
    return sorted([b for a, b in scene.edges if a == room] + [a for a, b in scene.edges if b == room])


def _reference_bfs_path(scene, src, dst):
    """SceneGraph.bfs_path as a breadth-first search per call, stopping at dst."""
    if src == dst:
        return []
    prev = {src: src}
    queue = [src]
    while queue:
        here = queue.pop(0)
        for nxt in _reference_neighbors(scene, here):
            if nxt in prev:
                continue
            prev[nxt] = here
            if nxt == dst:
                path = [dst]
                while prev[path[-1]] != src:
                    path.append(prev[path[-1]])
                return list(reversed(path))
            queue.append(nxt)
    return None


_ROOMS = ("hallway", "kitchen", "den", "pantry", "study", "attic")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, len(_ROOMS)),
    st.lists(st.tuples(st.sampled_from(_ROOMS), st.sampled_from(_ROOMS)), max_size=12),
    st.lists(st.tuples(st.sampled_from(_ROOMS), st.sampled_from(_ROOMS)), min_size=1, max_size=8),
)
def test_scene_graph_tables_match_per_call_search(n_rooms, edges, queries):
    """Neighbour lists and hop trees built once give the per-call scan's results,
    with duplicate edges, self-loops, unreachable rooms and edges to unknown rooms."""
    rooms = list(_ROOMS[:n_rooms])
    scene = SceneGraph(rooms, edges, {room: (float(i), 0.0) for i, room in enumerate(rooms)})
    for room in _ROOMS:
        assert scene.neighbors(room) == _reference_neighbors(scene, room)
    for src, dst in queries:
        if src not in rooms or dst not in rooms:
            with pytest.raises(RejectedInput):
                scene.bfs_path(src, dst)
            with pytest.raises(RejectedInput):
                scene.hop_distance(src, dst)
            continue
        path = _reference_bfs_path(scene, src, dst)
        assert scene.bfs_path(src, dst) == path
        assert scene.hop_distance(src, dst) == (len(path) if path is not None else len(rooms) + 1)


def test_line_of_sight_is_false_past_every_edge():
    world = gen_world(0, 6)
    width, height = world.bounds_m
    inside = world.build_scene_graph().waypoints["hallway"]
    for outside in ((-0.3, 2.0), (width + 0.3, 2.0), (width, 2.0), (2.0, -0.3), (2.0, height + 0.3), (2.0, height)):
        assert not world.line_of_sight(inside, outside)
        assert not world.line_of_sight(outside, inside)
        assert not world.line_of_sight(outside, outside)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=8),
    st.sampled_from([1e-9, 1.0, 2.5]),
)
def test_clear_of_matches_hypot_on_cell_centers(cells, points, min_m):
    centers = np.array([((ix + 0.5) * RESOLUTION, (iy + 0.5) * RESOLUTION) for ix, iy in cells])
    points = [((ix + 0.5) * RESOLUTION, (iy + 0.5) * RESOLUTION) for ix, iy in points]
    want = [all(math.hypot(c[0] - p[0], c[1] - p[1]) >= min_m for p in points) for c in centers.tolist()]
    assert clear_of(centers, points, min_m).tolist() == want


# -- the stride table and the two-way Dijkstra graph ----------------------------

# the worlds run-all builds for seeds 0, 23 and 188 (a grid depends on the seed alone)
_TABLE_WORLDS = [gen_world(seed, 6, [("mug", 3), ("vase", 1)]) for seed in (0, 23, 188)]


def _cell_coordinate(draw, i: int, res: float) -> float:
    """A coordinate of cell i: its low edge, 1 ulp inside either edge, its centre or
    anywhere inside it (its high edge belongs to the next cell)."""
    low, high = i * res, (i + 1) * res
    edges = [low, math.nextafter(low, math.inf), (low + high) / 2, math.nextafter(high, 0.0)]
    return draw(st.sampled_from(edges) | st.floats(low, high, exclude_max=True))


@st.composite
def _table_cell_points(draw):
    """A table world, any cell of it (wall-ring cells included) and a point in that cell."""
    world = _TABLE_WORLDS[draw(st.integers(0, len(_TABLE_WORLDS) - 1))]
    ny, nx = world.grid.shape
    ix, iy = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
    res = world.resolution
    return world, (ix, iy), (_cell_coordinate(draw, ix, res), _cell_coordinate(draw, iy, res))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_table_cell_points())
def test_a_vouched_stride_is_free_from_every_point_of_its_cell(world_cell_pos):
    world, (ix, iy), pos = world_cell_pos
    assert world.cell_of(pos) == (ix, iy)
    tables = world._nav.free_strides()
    nx = world.grid.shape[1]
    for heading, table in zip(HEADINGS, tables):
        ux, uy = heading_vector(heading)
        end = (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)
        if table[iy * nx + ix]:
            assert world.segment_free(pos, end), (heading, pos)
            assert world._nav.vouches(pos, heading)
        else:
            assert not world._nav.vouches(pos, heading)


def test_a_vouched_stride_is_free_from_each_corner_of_its_cell():
    """Every vouched (cell, heading) pair of the three worlds and of an open grid with no
    wall ring, from the four corners of the cell that lie in it: its low edges and 1 ulp
    inside its high edges."""
    vouched = 0
    open_grid = World(np.zeros((12, 14), dtype=np.int16), ["hallway"], [])
    for world in [*_TABLE_WORLDS, open_grid]:
        ny, nx = world.grid.shape
        res = world.resolution
        for heading, table in zip(HEADINGS, world._nav.free_strides()):
            ux, uy = heading_vector(heading)
            for index in [i for i, byte in enumerate(table) if byte]:
                iy, ix = divmod(index, nx)
                for x in (ix * res, math.nextafter((ix + 1) * res, 0.0)):
                    for y in (iy * res, math.nextafter((iy + 1) * res, 0.0)):
                        assert world.segment_free((x, y), (x + STRIDE_M * ux, y + STRIDE_M * uy)), (heading, x, y)
                vouched += 1
    assert vouched


def test_the_stride_table_vouches_for_most_free_strides_from_cell_centres():
    """A table of zeros would be exact too, and useless: on the run-all seed 0 world the
    table vouches for most strides that are free from a free cell's centre."""
    world = _TABLE_WORLDS[0]
    nav = world._nav
    free = vouched = 0
    for iy, ix in nav.free_cells.tolist():
        pos = world.cell_center((ix, iy))
        for heading in HEADINGS:
            ux, uy = heading_vector(heading)
            if world.segment_free(pos, (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)):
                free += 1
                vouched += nav.vouches(pos, heading)
    assert vouched > 0.85 * free


def test_vouches_is_false_outside_the_grid():
    world = _TABLE_WORLDS[0]
    w, h = world.bounds_m
    for pos in [(-0.1, 3.0), (3.0, -1e-300), (w, 3.0), (3.0, h), (math.nan, 3.0)]:
        assert not any(world._nav.vouches(pos, heading) for heading in HEADINGS)


def test_the_stride_table_is_built_once_per_grid_and_shared_by_moved_worlds():
    world = gen_world(5, 6, [("mug", 1)])
    assert world._nav._free_strides is None  # built on first use
    moved = world.move_object("mug_01", world.build_scene_graph().waypoints["hallway"])
    tables = moved._nav.free_strides()
    assert world._nav.free_strides() is tables
    ny, nx = world.grid.shape
    assert len(tables) == len(HEADINGS)
    assert all(type(table) is bytes and len(table) == ny * nx and set(table) <= {0, 1} for table in tables)


@st.composite
def _table_world_walks(draw):
    """A table world, two Worlds of its grid, and a list of (which world, position,
    goal, heading) steps whose positions and goals repeat."""
    world = _TABLE_WORLDS[draw(st.integers(0, len(_TABLE_WORLDS) - 1))]
    moved = world.move_object("vase_01", world.build_scene_graph().waypoints["hallway"])
    res = world.resolution

    def point(cells):
        iy, ix = cells[draw(st.integers(0, len(cells) - 1))]
        return (_cell_coordinate(draw, int(ix), res), _cell_coordinate(draw, int(iy), res))

    free = world._nav.free_cells.tolist()
    positions = [point(free) for _ in range(draw(st.integers(1, 3)))]
    goals = [point(free) for _ in range(draw(st.integers(1, 3)))]
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(positions), st.sampled_from(goals), st.sampled_from(HEADINGS)),
            min_size=1,
            max_size=10,
        )
    )
    return (world, moved), steps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_table_world_walks())
def test_descents_and_steps_match_the_reference_without_the_table(walk):
    """Sequences of descents, steps forward and distance reads on two Worlds of one grid
    equal the table-free references, so no cached stride or table byte goes stale."""
    worlds, steps = walk
    for moved, pos, goal, heading in steps:
        world = worlds[moved]
        assert list(world.descents(pos, goal)) == reference_descents(world, pos, goal)
        ix, iy = world._nav.snap(pos)
        assert world.shortest_path_length(pos, goal) == float(world.distance_field(goal)[iy, ix])
        ux, uy = heading_vector(heading)
        end = (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)
        state, observation, _ = world.step(AgentState(pos, heading), MOVE_FORWARD, frozenset())
        free = reference_strides(world, pos)[HEADINGS.index(heading)][0]
        assert (state.position, observation.blocked) == ((end, False) if free else (pos, True))


def test_fields_match_the_one_way_undirected_reference():
    """The two-way graph holds each one-way edge of the old graph in both directions,
    and its directed fields equal the old undirected ones bit for bit, from every 37th
    free cell of the three worlds."""
    from scipy.sparse import triu
    from scipy.sparse.csgraph import dijkstra

    for world in _TABLE_WORLDS:
        nav = world._nav
        one_way = triu(nav.csr, k=1).tocsr()
        assert (nav.csr != nav.csr.T).nnz == 0 and nav.csr.nnz == 2 * one_way.nnz
        nx = nav.shape[1]
        for iy, ix in nav.free_cells[::37].tolist():
            want = dijkstra(one_way, directed=False, indices=iy * nx + ix).reshape(nav.shape)
            assert nav.field((ix, iy)).tobytes() == want.tobytes()


def test_cached_worlds_of_one_seed_share_one_nav_cache(monkeypatch):
    """The worlds of one seed and room count differ only in their objects: they share
    one grid and nav cache, and each still equals the World gen_world builds alone."""
    import polar.world

    monkeypatch.setattr(polar.world, "_WORLD_CACHE", {})
    requests = [(0, 6, [("mug", 1)]), (0, 6, [("vase", 2), ("mug", 1)]), (1, 6, [("mug", 1)]), (0, 5, [("mug", 1)])]
    a, b, c, d = (cached_world(*request) for request in requests)
    assert b._nav is a._nav and b.grid is a.grid
    assert c._nav is not a._nav and d._nav is not a._nav
    for world, request in zip((a, b, c, d), requests):
        assert json.dumps(world.to_json()) == json.dumps(gen_world(*request).to_json())
    assert gen_world(1, 6, [], a._nav)._nav is not a._nav  # another grid builds its own
