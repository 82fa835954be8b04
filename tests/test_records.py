"""The typed record codec, `fileio.record_to_json` and `record_from_json`.

Besides its own cases, the specs, graph snapshot and world files are each read
with every value swapped for another JSON value (or dropped), and the loader must
raise exactly where the hand-written parser it replaced raises and otherwise load
what that parser built. Those parsers are kept below as the reference oracles; the
episode record has its own such test in test_distiller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from polar.encoder import EncoderConfig, encode
from polar.errors import ParseError, RejectedInput
from polar.fileio import (
    MALFORMED,
    FieldError,
    as_bool,
    as_float,
    as_int,
    as_text,
    as_vector,
    check_version,
    record_from_json,
    record_to_json,
)
from polar.graph import THETA_DEDUP, THETA_OBJ, Edge, EpisodicNode, MemoryGraph, ObjectNode, SemanticNode, _Counters
from polar.graph import _check_units, _frozen
from polar.scenarios import AcquisitionScript, ScenarioSpec, gen_scenarios, load_specs
from polar.world import HEADINGS, MAX_ROOMS, RESOLUTION, WALL, ObjectInstance, World

# -- the codec --------------------------------------------------------------------


@dataclass
class _Inner:
    name: str
    weights: np.ndarray | None


@dataclass
class _Outer:
    count: int
    scale: float
    flag: bool
    pair: tuple[str, int]
    tags: tuple[str, ...]
    points: list[tuple[float, float]]
    inner: list[_Inner]
    extra: dict
    note: str | None = None


def _outer() -> _Outer:
    inners = [_Inner("a", np.array([0.5, 0.25])), _Inner("b", None)]
    return _Outer(3, 0.5, True, ("k", 2), ("x", "y"), [(1.0, 2.0), (0.5, 0.0)], inners, {"any": [1, None]}, "n")


def _text(record) -> str:
    return json.dumps(record_to_json(record), sort_keys=True)


def test_record_round_trips_through_its_json():
    record = _outer()
    doc = record_to_json(record)
    assert doc["pair"] == ["k", 2] and doc["points"] == [[1.0, 2.0], [0.5, 0.0]]
    assert doc["inner"] == [{"name": "a", "weights": [0.5, 0.25]}, {"name": "b", "weights": None}]
    loaded = record_from_json(_Outer, json.loads(json.dumps(doc)))
    assert loaded.pair == ("k", 2) and loaded.tags == ("x", "y") and loaded.points == [(1.0, 2.0), (0.5, 0.0)]
    assert _text(loaded) == _text(record)


def test_unknown_keys_are_ignored_and_only_a_none_default_may_be_absent():
    doc = record_to_json(_outer())
    doc["retired_field"] = 1
    del doc["note"]
    assert record_from_json(_Outer, doc).note is None
    del doc["tags"]
    with pytest.raises(FieldError, match="^tags: missing$"):
        record_from_json(_Outer, doc)


def test_integers_widen_to_floats_in_every_float_position():
    doc = record_to_json(_outer())
    doc["scale"], doc["points"], doc["inner"][0]["weights"] = 1, [[1, 2], [3, 4.5]], [1, 0]
    record = record_from_json(_Outer, doc)
    assert type(record.scale) is float and record.points == [(1.0, 2.0), (3.0, 4.5)]
    assert {type(v) for point in record.points for v in point} == {float}
    assert record.inner[0].weights.dtype == np.float64


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("count", True, "count: expected an integer, got bool"),
        ("scale", "0.5", "scale: expected a number, got str"),
        ("flag", "false", "flag: expected a boolean, got str"),
        ("pair", "k2", "pair: expected a list of 2, got str"),
        ("pair", ["k", 2, 3], "pair: expected a list of 2, got a list of 3"),
        ("pair", ["k", "2"], r"pair\[1\]: expected an integer, got str"),
        ("tags", {"x": 1}, "tags: expected a list, got dict"),
        ("points", [[1.0, 2.0], "12"], r"points\[1\]: expected a list of 2, got str"),
        ("inner", [{"name": "a", "weights": ["0.5"]}], r"inner\[0\]\.weights: expected a list of numbers, got a list"),
        ("inner", [{"name": "a", "weights": None}, {"weights": None}], r"inner\[1\]\.name: missing"),
        ("inner", [{"name": "a", "weights": 0.5}], r"inner\[0\]\.weights: expected a list of numbers, got float"),
        ("inner", [[]], r"inner\[0\]: expected an object, got list"),
        ("extra", [], "extra: expected an object, got list"),
        ("note", 5, "note: expected a string, got int"),
    ],
)
def test_a_value_of_the_wrong_json_type_is_refused_by_its_path(key, value, message):
    doc = record_to_json(_outer())
    doc[key] = value
    with pytest.raises(FieldError, match=f"^{message}"):
        record_from_json(_Outer, doc)


def test_a_list_of_records_reads_as_each_record_reads():
    """Lists of records are read a column at a time; any list the per-record reading
    refuses is refused with the index of the first record it refuses."""
    rows = [record_to_json(_Inner(f"n{i}", np.array([float(i)]))) for i in range(5)]
    assert [_text(r) for r in record_from_json(list[_Inner], rows)] == [
        _text(record_from_json(_Inner, row)) for row in rows
    ]
    rows[3]["name"] = 3
    with pytest.raises(FieldError, match=r"^\[3\]\.name: expected a string"):
        record_from_json(list[_Inner], rows)
    with pytest.raises(FieldError, match=r"^\[2\]: expected an object, got list"):
        record_from_json(list[_Inner], [rows[0], rows[1], []])


@pytest.mark.parametrize("value", [["0.1", 0.2], [True, 0.2], [None, 0.2], 0, 0.5, "0.5", [[0.1, 0.2]], {"a": 1}])
def test_as_vector_takes_only_a_list_of_numbers(value):
    with pytest.raises(TypeError, match="expected a list of numbers"):
        as_vector(value)
    vector = as_vector([1, 0.5, 1e308])
    assert vector.dtype == np.float64 and vector.shape == (3,)


# -- each file against the parser it replaced -------------------------------------


def _reference_spec_from_json(doc: dict) -> ScenarioSpec:
    """The scenario spec parser as it read before the codec."""
    try:
        return ScenarioSpec(
            scenario_id=as_text(doc["scenario_id"]),
            kind=as_text(doc["kind"]),
            world_seed=as_int(doc["world_seed"]),
            world_n_rooms=as_int(doc["world_n_rooms"]),
            world_objects=[(as_text(c), as_int(k)) for c, k in doc["world_objects"]],
            scripts=[
                AcquisitionScript(
                    instruction=as_text(s["instruction"]),
                    facts=[(as_text(k), as_text(v)) for k, v in s["facts"]],
                    target_object_id=as_text(s["target_object_id"]),
                    timestamp=as_int(s["timestamp"]),
                    object_position=(as_float(s["object_position"][0]), as_float(s["object_position"][1])),
                    agent_start=(as_float(s["agent_start"][0]), as_float(s["agent_start"][1])),
                    agent_heading=as_int(s["agent_heading"]),
                )
                for s in doc["scripts"]
            ],
            eval_instruction=as_text(doc["eval_instruction"]),
            gold_object_id=as_text(doc["gold_object_id"]),
            eval_gold_position=(as_float(doc["eval_gold_position"][0]), as_float(doc["eval_gold_position"][1])),
            eval_agent_start=(as_float(doc["eval_agent_start"][0]), as_float(doc["eval_agent_start"][1])),
            eval_agent_heading=as_int(doc["eval_agent_heading"]),
        )
    except MALFORMED as exc:
        raise ParseError(f"malformed scenario spec: {exc}") from exc


def _reference_graph_from_json(doc: dict) -> MemoryGraph:
    """MemoryGraph.from_json as it read before the codec."""
    check_version(doc, "graph snapshot")
    try:
        thresholds = doc.get("thresholds", {})
        g = MemoryGraph(
            theta_dedup=as_float(thresholds.get("theta_dedup", THETA_DEDUP)),
            theta_obj=as_float(thresholds.get("theta_obj", THETA_OBJ)),
        )
        counters = doc["counters"]
        g.counters = _Counters(as_int(counters["object"]), as_int(counters["semantic"]), as_int(counters["episodic"]))
        for row in doc["object_nodes"]:
            feat = row["reference_feature"]
            g.objects[row["object_id"]] = ObjectNode(
                as_text(row["object_id"]),
                as_text(row["category"]),
                None if feat is None else _frozen(np.array(feat, dtype=np.float64)),
            )
        for row in doc["semantic_nodes"]:
            g.semantic[row["node_id"]] = SemanticNode(
                as_text(row["node_id"]),
                as_text(row["statement"]),
                _frozen(np.array(row["embedding"], dtype=np.float64)),
            )
        for row in doc["episodic_nodes"]:
            g.episodic[row["node_id"]] = EpisodicNode(
                as_text(row["node_id"]),
                as_text(row["episode_id"]),
                as_bool(row["success"]),
                [as_text(room) for room in row["room_sequence"]],
                None if row["found_room"] is None else as_text(row["found_room"]),
                as_text(row["rendered_text"]),
            )
        for kind, nodes in (("object", g.objects), ("semantic", g.semantic), ("episodic", g.episodic)):
            if len(nodes) != len(doc[f"{kind}_nodes"]):
                raise ValueError(f"two {kind} nodes share an id")
        for row in doc["edges"]:
            g.edges.append(Edge(row["src"], row["dst"], row["kind"], as_int(row["timestamp"]), as_bool(row["active"])))
        for node in g.semantic.values():
            if node.embedding.ndim != 1:
                raise ValueError(f"embedding of {node.node_id!r} is not a vector")
            g._add_row(node, float(np.linalg.norm(node.embedding)))
        _check_units(g._row_ids, g._norms[: len(g._row_ids)], "semantic embedding")
        featured = [n for n in g.objects.values() if n.reference_feature is not None]
        if featured:
            features = np.stack([n.reference_feature for n in featured])
            if features.ndim != 2:
                raise ValueError("reference features must be vectors")
            _check_units([n.object_id for n in featured], np.linalg.norm(features, axis=1), "reference_feature")
            g._feature_shape = features.shape[1:]
        g._validate_structure()
    except (*MALFORMED, RejectedInput) as exc:
        raise ParseError(f"malformed graph snapshot: {exc}") from exc
    for edge in g.edges:
        g._index_edge(edge)
    return g


def _reference_world_from_json(doc: dict) -> World:
    """World.from_json as it read before the codec."""
    check_version(doc, "world")
    try:
        room_names = [as_text(name) for name in doc["room_names"]]
        rows = []
        width = None
        for encoded in doc["grid_rows"]:
            row: list[int] = []
            for count, value in encoded:
                if value != WALL and not (0 <= value < len(room_names)):
                    raise ParseError(f"cell label {value} out of range")
                row.extend([value] * count)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError("ragged run-length rows")
            rows.append(row)
        grid = np.array(rows, dtype=np.int16)
        objects = [
            ObjectInstance(
                as_text(o["object_id"]),
                as_text(o["category"]),
                (as_float(o["position"][0]), as_float(o["position"][1])),
                None if o.get("feature") is None else np.asarray(o["feature"], dtype=np.float64),
            )
            for o in doc["objects"]
        ]
        if len(room_names) > MAX_ROOMS:
            raise ParseError(f"at most {MAX_ROOMS} rooms are supported, got {len(room_names)}")
        if grid.ndim != 2 or grid.size == 0:
            raise ParseError("world grid is empty")
        if (grid[[0, -1], :] != WALL).any() or (grid[:, [0, -1]] != WALL).any():
            raise ParseError("world grid must be enclosed by a ring of wall cells")
        world = World(grid, room_names, objects, as_float(doc.get("resolution", RESOLUTION)))
    except (*MALFORMED, RejectedInput) as exc:
        raise ParseError(f"malformed world file: {exc}") from exc
    for obj in objects:
        if not world.is_free(obj.position):
            raise ParseError(f"object {obj.object_id!r} at {obj.position} is not on a free cell")
    return world


def _spec_doc() -> dict:
    return record_to_json(gen_scenarios(0, "compositional-single", 1)[0])


def _graph_doc() -> dict:
    g = MemoryGraph()
    g.upsert_object("mug", object_id="mug_01", reference_feature=np.eye(4)[0])
    g.upsert_object("vase", object_id="vase_01")
    for timestamp, fact in ((1, "color = red"), (2, "location = the kitchen shelf")):
        text = f"user: {fact} refers to mug mug_01"
        g.add_semantic("mug_01", text, encode(text, EncoderConfig(dim=16)), timestamp)
    g.supersede("mug_01", "sem_0001", "sem_0002", 2)
    g.add_episodic(
        "mug_01", episode_id="s:acq:00", success=True, room_sequence=["hallway", "kitchen"], found_room="kitchen",
        rendered_text="r", timestamp=2,
    )
    return g.to_json()


def _world_doc() -> dict:
    grid = np.full((5, 6), WALL, dtype=np.int16)
    grid[1:4, 1:3] = 0
    grid[1:4, 3:5] = 1
    mug = ObjectInstance("mug_01", "mug", (0.375, 0.375), np.array([0.6, 0.8]))
    return World(grid, ["hallway", "kitchen"], [mug, ObjectInstance("vase_01", "vase", (1.125, 0.625))]).to_json()


def _load_specs_doc(tmp_path, doc: dict) -> list[ScenarioSpec]:
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"format_version": 1, "specs": [doc]}), encoding="utf-8")
    return load_specs(str(path))


def _paths(value, path=()):
    """Every key and index path into a JSON value, containers before their contents."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


_HUGE = "__1e400__"  # written as the bare literal 1e400, which reads as inf
_DROP = object()
_SWAPS = (None, True, False, 0, -7, 30.9, _HUGE, "", "x", "12", "60.0", [], ["a", "b"], [1, 2], {}, {"a": 1}, _DROP)

# the keys that hold a list, a list of pairs, and a vector of numbers
_LISTS = {
    "world_objects", "scripts", "facts", "room_names", "objects",
    "object_nodes", "semantic_nodes", "episodic_nodes", "edges", "room_sequence",
}
_PAIRS = {"world_objects", "facts"}
_VECTORS = {"reference_feature", "embedding", "feature"}


def _mutated(doc: dict, path: tuple, value) -> dict:
    """doc with the value at path swapped (or dropped), as the file would read."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if value is _DROP:
        del container[last]
    else:
        container[last] = value
    return json.loads(json.dumps(doc).replace(f'"{_HUGE}"', "1e400"))


def _intended_difference(path: tuple, value) -> bool:
    """The mutations the codec refuses and the reference parsers may load: a list read
    from a string or an object, a pair from a string, a vector that is not a list of
    numbers, a grid count or label that is not an integer, and a spec's start heading
    that is an integer off the 30-degree grid."""
    if value is _DROP:
        return False
    value = float("inf") if value == _HUGE else value
    if path[-1] in ("agent_heading", "eval_agent_heading"):
        return type(value) is int and value not in HEADINGS
    if "grid_rows" in path:  # a list of rows of [count, label] integer pairs
        depth = len(path) - path.index("grid_rows")
        if depth == 4:
            return type(value) is not int
        return not (isinstance(value, list) and (depth < 3 or [type(v) for v in value] == [int, int]))
    last, parent = path[-1], path[-2] if len(path) > 1 else None
    if isinstance(value, (str, dict)) and (last in _LISTS or (parent in _PAIRS and type(last) is int)):
        return True
    if last in _VECTORS:
        return value is not None and not (isinstance(value, list) and {type(v) for v in value} <= {int, float})
    return parent in _VECTORS and type(last) is int and type(value) not in (int, float)


def _outcome(load, doc: dict) -> str | None:
    """The loaded value's JSON text (NaN compares as text), or None where it raises ParseError."""
    try:
        loaded = load(doc)
    except ParseError:
        return None
    doc = loaded.to_json() if hasattr(loaded, "to_json") else [record_to_json(r) for r in loaded]
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("name", ["specs", "graph", "world"])
def test_loader_raises_where_the_reference_parser_raises(tmp_path, name):
    """Each value of a valid document swapped for another JSON value (or dropped): the
    loader raises ParseError exactly where the reference parser raises, and otherwise
    loads what it builds; every intended difference is refused."""
    make, load, reference = {
        "specs": (_spec_doc, lambda d: _load_specs_doc(tmp_path, d), lambda d: [_reference_spec_from_json(d)]),
        "graph": (_graph_doc, MemoryGraph.from_json, _reference_graph_from_json),
        "world": (_world_doc, World.from_json, _reference_world_from_json),
    }[name]
    doc = make()
    loaded = refused = intended = 0
    for path in _paths(doc):
        for value in _SWAPS:
            mutated = _mutated(doc, path, value)
            got = _outcome(load, mutated)
            if _intended_difference(path, value):
                assert got is None, (path, value)
                intended += _outcome(reference, mutated) is not None
                continue
            assert got == _outcome(reference, mutated), (path, value)
            loaded += got is not None
            refused += got is None
    assert loaded and refused and intended


@pytest.mark.parametrize(
    "path, value",
    [
        (("specs", 0, "world_objects"), ""),
        (("specs", 0, "scripts", 0, "facts"), {}),
        (("specs", 0, "scripts", 0, "facts", 0), "ab"),
    ],
)
def test_load_specs_wants_lists_of_pairs(tmp_path, path, value):
    doc = _mutated({"format_version": 1, "specs": [_spec_doc()]}, path, value)
    _reference_spec_from_json(doc["specs"][0])
    file = tmp_path / "specs.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=r"\[0\]\.(world_objects|scripts\[0\]\.facts)"):
        load_specs(str(file))


@pytest.mark.parametrize(
    "path, value, match",
    [
        (("objects", 0, "feature"), ["0.6", "0.8"], r"\[0\]\.feature: expected a list of numbers"),
        (("grid_rows", 1, 1, 1), True, r"\[1\]\[1\]\[1\]: expected an integer, got bool"),
        (("grid_rows", 1, 2, 1), 1.0, r"\[1\]\[2\]\[1\]: expected an integer, got float"),
    ],
)
def test_world_load_wants_a_feature_of_numbers_and_integer_cells(tmp_path, path, value, match):
    doc = _mutated(_world_doc(), path, value)
    _reference_world_from_json(doc)
    file = tmp_path / "world.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=match):
        World.load(str(file))
