"""Seeded scenario suites: acquisition scripts plus one evaluation task each.

Five scenario kinds probe different memory behaviors. Compositional-single
plants one cue fact on the gold object; compositional-joint splits the cue
across two acquisition scripts and gives each half to a later same-category
decoy, so only the full script set identifies gold and any strict subset
ties gold with a newer decoy (recency then prefers the decoy); distractor
suites add same-category instances with their own facts; temporal-context
re-states the same fact key with a new value (must NOT collapse into the
old statement node, or supersession never fires); temporal-object reuses
one cue verbatim on a second object so both share a deduplicated statement
node and grounding is decided purely by edge recency.

Every spec also carries 12 filler scripts about other objects so retrieval
and raw-interaction sampling face noise. Cue values come from pools of
globally unique words: candidate score inheritance keys on fact-value
tokens, so value words must never collide across objects by accident.
The generator checks each construction under the MemorySettings the suite
will run with. Statements a kind must merge into one node (or keep apart) are
checked against the dedup threshold, and the facts of the spec's scripts are
ingested, retrieved and grounded with the real distiller, retrieval and planner
code: a spec whose memory does not ground gold is refused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .agent import OraclePlanner, sweep_room
from .encoder import cosine, encode
from .errors import GenerationError, ParseError, RejectedInput
from .distiller import memorize_facts, render_statement
from .fileio import FORMAT_VERSION, MALFORMED, dump_json, load_json, record_from_json, record_to_json
from .graph import MemoryGraph
from .retrieval import DEFAULT_SETTINGS, MemorySettings, retrieve
from .world import HEADINGS, VISIBILITY_RANGE_M, SceneGraph, World, cached_world, check_heading, clear_of

KINDS = (
    "compositional-single",
    "compositional-joint",
    "distractor",
    "temporal-context",
    "temporal-object",
)
FILLER_COUNT = 12
DEFAULT_N_ROOMS = 6

_CATEGORY_POOL = (
    "mug",
    "backpack",
    "shoes",
    "vase",
    "lamp",
    "bottle",
    "pillow",
    "notebook",
    "headphones",
    "jacket",
    "umbrella",
    "keys",
    "watch",
)
_KEY_POOL = (
    "trip to-go",
    "morning routine",
    "office setup",
    "gym kit",
    "travel kit",
    "reading nook",
    "coffee ritual",
    "weekend hike",
    "desk drawer",
    "guest visits",
    "picnic set",
    "night stand",
    "garden work",
    "school run",
    "art corner",
    "music den",
)
_VALUE_POOL = (
    "cobalt",
    "maroon",
    "saffron",
    "indigo",
    "crimson",
    "turquoise",
    "lavender",
    "charcoal",
    "emerald",
    "amber",
    "scarlet",
    "violet",
    "magenta",
    "olive",
    "teal",
    "burgundy",
    "periwinkle",
    "mustard",
    "coral",
    "aquamarine",
    "tangerine",
    "chartreuse",
    "cerulean",
    "sienna",
    "ochre",
    "fuchsia",
    "viridian",
    "umber",
    "garnet",
    "topaz",
    "onyx",
    "jasper",
)


@dataclass
class AcquisitionScript:
    instruction: str
    facts: list[tuple[str, str]]
    target_object_id: str
    timestamp: int
    object_position: tuple[float, float]
    agent_start: tuple[float, float]
    agent_heading: int


@dataclass
class ScenarioSpec:
    scenario_id: str
    kind: str
    world_seed: int
    world_n_rooms: int
    world_objects: list[tuple[str, int]]
    scripts: list[AcquisitionScript]
    eval_instruction: str
    gold_object_id: str
    eval_gold_position: tuple[float, float]
    eval_agent_start: tuple[float, float]
    eval_agent_heading: int


def _acq_instruction(category: str, object_id: str, key: str, value: str) -> str:
    return f"take note of this {category} {object_id} for {key} = {value}"


def _eval_instruction(values: list[str], category: str) -> str:
    return f"find my {' '.join(values)} {category}"


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _hidden_from_hallway(world: World, pos: tuple[float, float]) -> bool:
    """True when no hallway cell centre within view range has line of sight to pos.

    Passing traffic on the corridor spine is what turns searches into lucky
    glimpses; doorway cones from adjacent rooms only matter once a room is
    being searched anyway. A numpy prefilter keeps the grid's memoised hallway
    centres within view range plus a slack; the exact `_dist` test then decides,
    and sightlines are traced in row-major cell order until one is clear.
    """
    centers = world.room_centers("hallway")
    offsets = centers - pos
    near = centers[(offsets * offsets).sum(axis=1) <= (VISIBILITY_RANGE_M + 1e-6) ** 2]
    for center in near[np.lexsort((near[:, 0], near[:, 1]))].tolist():
        center = tuple(center)
        if _dist(center, pos) <= VISIBILITY_RANGE_M and world.line_of_sight(center, pos):
            return False
    return True


def _pick_cell(
    rng: random.Random,
    world: World,
    room: str,
    *,
    margin: int = 3,
    keep_clear: list[tuple[float, float]] = (),
    min_clear: float = 1.0,
    far_from: list[tuple[float, float]] = (),
    min_far: float = 2.5,
    hidden: bool = False,
) -> tuple[float, float]:
    centers = world.room_centers(room, margin=margin)
    keep = clear_of(centers, keep_clear, min_clear) & clear_of(centers, far_from, min_far)
    candidates = centers[keep].tolist()
    if not candidates:
        raise GenerationError(f"no placement cell satisfies the clearances in room {room!r}")
    if not hidden:
        return tuple(rng.choice(candidates))
    # sightline hiding is costly to test, so probe a seeded shuffle lazily
    for pos in rng.sample(candidates, len(candidates)):
        if _hidden_from_hallway(world, tuple(pos)):
            return tuple(pos)
    raise GenerationError(f"no placement cell in room {room!r} is hidden from hallway sightlines")


def _pick_start(
    rng: random.Random, world: World, rooms: list[str] | None = None, avoid: list[tuple[float, float]] = ()
) -> tuple[tuple[float, float], int]:
    """A start and a heading: a cell centre of one of rooms (any room by default)
    that is not in avoid, the starts drawn before. The candidates keep
    room_centers' order, on which the rng draws depend.

    room_centers sorts by x, then y, so the cell keys ix * ny + iy of the
    candidates increase. A used start drops the candidate at its own cell key's
    binary-search position when the two are exactly equal, as a tuple match
    would: a point equal to a cell centre lies in that cell, and a point that is
    no candidate drops nothing."""
    room = rng.choice(sorted(rooms) if rooms else sorted(world.room_names))
    centers = world.room_centers(room, margin=1)
    keep = np.ones(len(centers), dtype=bool)
    if len(avoid) and len(centers):
        res, ny = world.resolution, world.grid.shape[0]
        keys = centers[:, 0] // res * ny + centers[:, 1] // res
        used = np.asarray(avoid, dtype=np.float64).reshape(-1, 2)
        at = np.searchsorted(keys, used[:, 0] // res * ny + used[:, 1] // res).clip(max=len(keys) - 1)
        keep[at[(centers[at] == used).all(axis=1)]] = False
    candidates = np.flatnonzero(keep)
    if not len(candidates):
        raise GenerationError(f"no free start cell left in room {room!r}")
    return tuple(centers[rng.choice(candidates)].tolist()), rng.choice(HEADINGS)


def _sweep_path_m(
    world: World,
    scene: SceneGraph,
    pos: tuple[float, float],
    current: str,
    visited: set[str],
    goal_room: str,
) -> float:
    """Meters a nearest-first sweep walks before reaching goal_room's waypoint."""
    total = 0.0
    for _ in range(len(scene.rooms) + 1):
        room = sweep_room(scene, None, visited, current)
        waypoint = scene.waypoints[room]
        total += world.shortest_path_length(pos, waypoint)
        visited.add(room)
        pos, current = waypoint, room
        if room == goal_room:
            return total
    return math.inf


def _shortcut_gap_m(
    world: World, scene: SceneGraph, start: tuple[float, float], start_room: str, base_room: str, eval_room: str
) -> float:
    """Meters the prior-room shortcut saves: a nearest-first sweep from start to
    eval_room, less the walk to base_room plus the sweep on from there."""
    sweep = _sweep_path_m(world, scene, start, start_room, {start_room}, eval_room)
    return sweep - (
        world.shortest_path_length(start, scene.waypoints[base_room])
        + _sweep_path_m(world, scene, scene.waypoints[base_room], base_room, {start_room, base_room}, eval_room)
    )


def _joint_rooms(world: World, scene: SceneGraph, base_room: str, margin_m: float = 3.0) -> list[tuple[str, str]]:
    """Rank (gold's eval room, agent start room) pairs by how far the
    remembered-room shortcut beats a nearest-first sweep; keep clear winners."""
    neighbors = sorted(r for r in scene.neighbors(base_room) if r != "hallway")
    if not neighbors:
        raise GenerationError(f"room {base_room!r} has no non-hallway neighbor to relocate the target into")
    ranked = []
    for eval_room in neighbors:
        for start_room in scene.rooms:
            if start_room in ("hallway", base_room, eval_room):
                continue
            gap = _shortcut_gap_m(world, scene, scene.waypoints[start_room], start_room, base_room, eval_room)
            ranked.append((-gap, eval_room, start_room))
    ranked.sort()
    pairs = [(e, s) for neg_gap, e, s in ranked if -neg_gap >= margin_m]
    if not pairs:
        raise GenerationError(
            f"no start/eval room pair gives the prior-room shortcut a {margin_m:.1f} m head start "
            f"(best {-ranked[0][0]:.2f} m)"
        )
    return pairs


# -- construction guards: each is checked under the suite's memory settings ------


def _guard_dedup(settings: MemorySettings, a: str, b: str, want_shared: bool, what: str) -> None:
    sim = cosine(encode(a, settings.encoder), encode(b, settings.encoder))
    theta = settings.theta_dedup
    if want_shared and sim < theta:
        raise GenerationError(f"{what}: statements must collapse into one node but cosine {sim:.4f} < {theta}")
    if not want_shared and sim >= theta:
        raise GenerationError(f"{what}: statements must stay distinct but cosine {sim:.4f} >= {theta}")


def _guard_grounds_gold(
    settings: MemorySettings, world: World, scripts: list[AcquisitionScript], instruction: str, gold: str, what: str
) -> None:
    """Ingest the scripts' facts in acquisition's order, then retrieve and ground the
    instruction with the real code; gold must be the object grounded. The choice reads
    only statements and their edge timestamps, so no episodic record is made."""
    graph = MemoryGraph(theta_dedup=settings.theta_dedup, theta_obj=settings.theta_obj)
    for script in sorted(scripts, key=lambda s: (s.timestamp, s.target_object_id)):
        obj = world.objects[script.target_object_id]
        object_ref = graph.upsert_object(obj.category, object_id=obj.object_id)
        memorize_facts(graph, object_ref, script.facts, obj.category, obj.object_id, script.timestamp, settings.encoder)
    result = retrieve(graph, instruction, settings.k, encoder_config=settings.encoder)
    grounded = OraclePlanner().ground(instruction, result).chosen_object_id
    if grounded != gold:
        raise GenerationError(f"{what}: memory grounds {grounded!r}, not gold {gold!r}, for {instruction!r}")


# -- generation ----------------------------------------------------------------


def gen_scenarios(
    seed: int,
    kind: str,
    n: int,
    *,
    n_rooms: int = DEFAULT_N_ROOMS,
    settings: MemorySettings = DEFAULT_SETTINGS,
) -> list[ScenarioSpec]:
    """Deterministic suite of n specs of one kind, all sharing a world chassis."""
    if kind not in KINDS:
        raise RejectedInput(f"unknown scenario kind {kind!r}; expected one of {', '.join(KINDS)}")
    if n < 1:
        raise RejectedInput(f"n must be >= 1, got {n}")
    suite_rng = random.Random(f"{seed}:{kind}:suite")
    categories = list(_CATEGORY_POOL)
    main_category = categories.pop(suite_rng.randrange(len(categories)))
    instances = {
        "compositional-single": 1,
        "temporal-context": 1,
        "temporal-object": 2,
        "compositional-joint": 3,
        "distractor": 3,
    }[kind]
    filler_categories = categories[:FILLER_COUNT]
    world_objects = [(main_category, instances)] + [(c, 1) for c in filler_categories]
    world = cached_world(seed, n_rooms, world_objects)
    scene = world.build_scene_graph()
    specs = []
    for i in range(n):
        rng = random.Random(f"{seed}:{kind}:{i}")
        spec = _gen_one(
            rng, f"{kind}-s{seed}-{i:03d}", kind, seed, n_rooms, world_objects, world, scene,
            main_category, filler_categories, settings,
        )
        specs.append(spec)
    return specs


def _gen_one(
    rng: random.Random,
    scenario_id: str,
    kind: str,
    world_seed: int,
    n_rooms: int,
    world_objects: list[tuple[str, int]],
    world: World,
    scene,
    main_category: str,
    filler_categories: list[str],
    settings: MemorySettings,
) -> ScenarioSpec:
    main_ids = sorted(o.object_id for o in world.objects.values() if o.category == main_category)
    keys = rng.sample(_KEY_POOL, FILLER_COUNT + 2)
    filler_keys, spare_keys = keys[:FILLER_COUNT], keys[FILLER_COUNT:]
    words = rng.sample(_VALUE_POOL, FILLER_COUNT + 5)
    filler_values, spare_values = words[:FILLER_COUNT], words[FILLER_COUNT:]

    scripts: list[AcquisitionScript] = []
    used_starts: list[tuple[float, float]] = []

    def add_script(target_id: str, key: str, value: str, timestamp: int, position=None) -> None:
        obj = world.objects[target_id]
        start, heading = _pick_start(rng, world, avoid=used_starts)
        used_starts.append(start)
        scripts.append(
            AcquisitionScript(
                _acq_instruction(obj.category, target_id, key, value),
                [(key, value)],
                target_id,
                timestamp,
                position if position is not None else obj.position,
                start,
                heading,
            )
        )

    for j, category in enumerate(filler_categories):
        add_script(f"{category}_01", filler_keys[j], filler_values[j], j + 1)
    t = FILLER_COUNT + 1
    base_positions = [o.position for o in world.objects.values()]

    if kind == "compositional-single":
        gold = main_ids[0]
        key, value = spare_keys[0], spare_values[0]
        add_script(gold, key, value, t)
        eval_instruction = _eval_instruction([value], main_category)
        eval_room = world.room_of(world.objects[gold].position)

    elif kind == "compositional-joint":
        shuffled = rng.sample(main_ids, 3)
        # gold must admit a relocation room whose prior shortcut beats the sweep
        # AND a placement cell hidden from the hallway; try instances in drawn order
        joint_placement = None
        for candidate in shuffled:
            base = world.room_of(world.objects[candidate].position)
            try:
                pairs = _joint_rooms(world, scene, base)
            except GenerationError:
                continue
            rivals = [world.objects[o].position for o in main_ids if o != candidate]
            for room_pair in pairs:
                try:
                    pos = _pick_cell(
                        rng, world, room_pair[0],
                        keep_clear=base_positions, min_clear=1.0,
                        far_from=rivals, min_far=2.5, hidden=True,
                    )
                except GenerationError:
                    continue
                joint_placement = (candidate, base, room_pair[0], room_pair[1], pos)
                break
            if joint_placement:
                break
        if joint_placement is None:
            raise GenerationError(f"{scenario_id}: no instance admits a hidden prior-shortcut placement")
        gold = joint_placement[0]
        decoy_a, decoy_b = [o for o in shuffled if o != gold]
        (k1, v1), (k2, v2) = (spare_keys[0], spare_values[0]), (spare_keys[1], spare_values[1])
        add_script(gold, k1, v1, t)
        add_script(gold, k2, v2, t + 1)
        add_script(decoy_a, k1, v1, t + 2)  # dedups into gold's first statement, newer edge
        add_script(decoy_b, k2, v2, t + 3)
        eval_instruction = _eval_instruction([v1, v2], main_category)
        s1 = render_statement(k1, v1, main_category, gold)
        s2 = render_statement(k2, v2, main_category, gold)
        _guard_dedup(settings, s1, render_statement(k1, v1, main_category, decoy_a), True, scenario_id)
        _guard_dedup(settings, s2, render_statement(k2, v2, main_category, decoy_b), True, scenario_id)
        _guard_dedup(settings, s1, s2, False, scenario_id)

    elif kind == "distractor":
        shuffled = rng.sample(main_ids, 3)
        gold = shuffled[0]  # uniform over instances, independent of geometry
        key, value = spare_keys[0], spare_values[0]
        add_script(gold, key, value, t)
        for off, other in enumerate(shuffled[1:]):
            add_script(other, spare_keys[1], spare_values[1 + off], t + 1 + off)
        eval_instruction = _eval_instruction([value], main_category)
        gold_text = render_statement(key, value, main_category, gold)
        for off, other in enumerate(shuffled[1:]):
            other_text = render_statement(spare_keys[1], spare_values[1 + off], main_category, other)
            _guard_dedup(settings, gold_text, other_text, False, scenario_id)
        eval_room = world.room_of(world.objects[gold].position)

    elif kind == "temporal-context":
        gold = main_ids[0]
        key = spare_keys[0]
        old_value = f"{spare_values[0]} {spare_values[1]}"
        new_value = f"{spare_values[2]} {spare_values[3]}"
        add_script(gold, key, old_value, t)
        second_position = _pick_cell(
            rng, world, world.room_of(world.objects[gold].position),
            keep_clear=base_positions, min_clear=1.0,
        )
        add_script(gold, key, new_value, t + 1, position=second_position)
        eval_instruction = _eval_instruction([new_value], main_category)
        old_text = render_statement(key, old_value, main_category, gold)
        new_text = render_statement(key, new_value, main_category, gold)
        _guard_dedup(settings, old_text, new_text, False, scenario_id)  # supersession must fire
        eval_room = world.room_of(world.objects[gold].position)

    else:  # temporal-object
        first, second = rng.sample(main_ids, 2)
        gold = second  # the cue's latest assignment
        key, value = spare_keys[0], spare_values[0]
        add_script(first, key, value, t)
        add_script(second, key, value, t + 1)
        eval_instruction = _eval_instruction([value], main_category)
        first_text = render_statement(key, value, main_category, first)
        _guard_dedup(settings, first_text, render_statement(key, value, main_category, second), True, scenario_id)
        eval_room = world.room_of(world.objects[gold].position)

    _guard_grounds_gold(settings, world, scripts, eval_instruction, gold, scenario_id)

    same_category = [
        o.position for o in world.objects.values() if o.category == main_category and o.object_id != gold
    ]
    if kind == "compositional-joint":
        # the ablation shortcut: gold is re-homed next door to where acquisition
        # found it, the start room is picked so the remembered room saves real
        # distance over a sweep, and the object is hidden from hallway sightlines
        # so neither mode can luck into an early glimpse
        _, base_room, eval_room, start_room, eval_gold_position = joint_placement
        eval_start, eval_heading = _pick_start(rng, world, rooms=[start_room], avoid=used_starts)
        gap = _shortcut_gap_m(world, scene, eval_start, start_room, base_room, eval_room)
        if gap <= 0:
            raise GenerationError(f"{scenario_id}: prior-room shortcut saves no distance (gap {gap:.2f} m)")
    else:
        eval_gold_position = _pick_cell(
            rng, world, eval_room,
            keep_clear=base_positions, min_clear=1.0,
            far_from=same_category, min_far=2.5,
        )
        eval_start, eval_heading = _pick_start(rng, world, avoid=used_starts)

    return ScenarioSpec(
        scenario_id=scenario_id,
        kind=kind,
        world_seed=world_seed,
        world_n_rooms=n_rooms,
        world_objects=list(world_objects),
        scripts=scripts,
        eval_instruction=eval_instruction,
        gold_object_id=gold,
        eval_gold_position=eval_gold_position,
        eval_agent_start=eval_start,
        eval_agent_heading=eval_heading,
    )


# -- persistence -----------------------------------------------------------------


def save_specs(specs: list[ScenarioSpec], path: str) -> None:
    dump_json(path, {"format_version": FORMAT_VERSION, "specs": [record_to_json(s) for s in specs]})


def load_specs(path: str) -> list[ScenarioSpec]:
    try:
        specs = record_from_json(list[ScenarioSpec], load_json(path, "specs", list))
    except MALFORMED as exc:
        raise ParseError(f"malformed scenario spec {exc}") from exc
    for spec in specs:
        try:
            for heading in [script.agent_heading for script in spec.scripts] + [spec.eval_agent_heading]:
                check_heading(heading)
        except RejectedInput as exc:
            raise ParseError(f"malformed scenario spec {spec.scenario_id!r}: {exc}") from exc
    return specs
