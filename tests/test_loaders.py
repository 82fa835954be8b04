"""Fuzz every file loader: whatever the bytes, only ParseError may escape.

Inputs are random bytes, random JSON values, and valid documents with one
key dropped or one value swapped for another JSON type or the literal 1e400.
"""

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar.cli import _load_config
from polar.distiller import EpisodeLog, TrajectoryStep, load_episodes
from polar.encoder import EncoderConfig, encode
from polar.errors import ParseError, RejectedInput
from polar.evaluation import MetricsReport, load_graphs, load_reports
from polar.graph import MemoryGraph
from polar.fileio import record_to_json
from polar.scenarios import gen_scenarios, load_specs
from polar.world import ACTION_START, STOP, World, gen_world

_HUGE = "__1e400__"  # written to the file as the bare literal 1e400
_DROP = object()
_SWAPS = (None, True, 0, "x", [], {}, _HUGE, _DROP)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


def _graph_doc() -> dict:
    g = MemoryGraph()
    g.upsert_object("mug", object_id="mug_01", reference_feature=np.eye(4)[0])
    text = "user: color = red refers to mug mug_01"
    g.add_semantic("mug_01", text, encode(text, EncoderConfig(dim=16)), 1)
    g.add_episodic(
        "mug_01", episode_id="s:acq:00", success=True, room_sequence=["hallway"], found_room="hallway",
        rendered_text="r", timestamp=1,
    )
    return g.to_json()


# one row as evaluate writes it
_REPORT_ROW = {
    "spec_id": "s", "kind": "distractor", "success": 1, "path_m": 4.0, "shortest_m": 3.5, "spl": 0.875, "cm": 0,
    "grounded_object_id": "mug_01", "grounding_correct": 1, "steps": 9,
    "recall_semantic": 1.0, "recall_bm25": None, "recall_dense": 0.5,
}


def _episode_doc(i: int) -> dict:
    steps = [TrajectoryStep((0.5, 0.5), 0, ACTION_START, "hallway", ["mug_01"]), TrajectoryStep((0.5, 0.5), 30, STOP, "hallway")]
    episode = EpisodeLog(f"s:acq:{i:02d}", i, "note the mug", [("color", "red")], np.eye(4)[1], "mug_01", "mug", steps, True, (0.5, 0.5))
    return record_to_json(episode)


# name -> (loader, valid document, exceptions the loader may raise); a list document is JSON lines
_CASES = {
    "World.load": (World.load, lambda: gen_world(0, 3, [("mug", 1)]).to_json(), (ParseError,)),
    "MemoryGraph.load": (MemoryGraph.load, _graph_doc, (ParseError,)),
    "load_specs": (
        load_specs,
        lambda: {"format_version": 1, "specs": [record_to_json(gen_scenarios(0, "compositional-single", 1)[0])]},
        (ParseError,),
    ),
    "load_graphs": (load_graphs, lambda: {"format_version": 1, "graphs": {"s": _graph_doc()}}, (ParseError,)),
    "load_reports": (
        load_reports,
        lambda: {
            "format_version": 1,
            "reports": [MetricsReport("polar", "distractor", [_REPORT_ROW]).to_json()],
        },
        (ParseError,),
    ),
    "load_episodes": (load_episodes, lambda: [_episode_doc(0), _episode_doc(1)], (ParseError,)),
    "_load_config": (
        _load_config,
        lambda: {"seed": 1, "n": 2, "kinds": ["distractor"], "theta_dedup": 0.9, "encoder_mode": "builtin", "out_dir": "o"},
        (ParseError, RejectedInput),
    ),
}


@functools.lru_cache(maxsize=None)
def _valid(name: str):
    doc = _CASES[name][1]()
    return doc, sorted(_paths(doc), key=repr)


def _paths(doc, prefix=()):
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _encode(doc, lines: bool) -> bytes:
    text = "".join(json.dumps(row) + "\n" for row in (doc if lines else [doc]))
    return text.replace(json.dumps(_HUGE), "1e400").encode("utf-8")


def _mutated(doc, path, swap):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if swap is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = swap
    return doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("name", sorted(_CASES))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_loader_raises_only_parse_error(fuzz_file, name, data):
    loader, _, allowed = _CASES[name]
    doc, paths = _valid(name)
    lines = name == "load_episodes"
    raw = data.draw(
        st.one_of(
            st.binary(max_size=64),
            _json_values.map(lambda value: _encode(value, lines=False)),
            st.tuples(st.sampled_from(paths), st.sampled_from(_SWAPS)).map(
                lambda change: _encode(_mutated(doc, *change), lines)
            ),
        )
    )
    fuzz_file.write_bytes(raw)
    try:
        loader(str(fuzz_file))
    except allowed:
        pass


@pytest.mark.parametrize("name", sorted(_CASES))
def test_loader_accepts_its_valid_document(tmp_path, name):
    loader, _, _ = _CASES[name]
    path = tmp_path / "input"
    path.write_bytes(_encode(_valid(name)[0], lines=name == "load_episodes"))
    loader(str(path))


@pytest.mark.parametrize(
    "path",
    [("specs", 0, "world_objects", 0, 0), ("specs", 0, "scripts", 0, "facts", 0, 0), ("specs", 0, "scripts", 0, "facts", 0, 1)],
)
def test_load_specs_takes_no_number_for_text(tmp_path, path):
    file = tmp_path / "input"
    file.write_bytes(_encode(_mutated(_valid("load_specs")[0], path, 5), lines=False))
    with pytest.raises(ParseError):
        load_specs(str(file))
