import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polar.distiller import (
    EpisodeLog,
    TrajectoryStep,
    digest_found_in,
    episode_from_json,
    load_episodes,
    memorize,
    no_prior_room,
    parse_rendered_summary,
    parse_statement,
    render_statement,
    rendered_found_in,
    save_episodes,
    summarize_episodic,
    summary_digest,
    trajectory_last_room,
    trajectory_text,
)
from polar.errors import ParseError, RejectedInput
from polar.evaluation import acquire
from polar.fileio import MALFORMED, as_bool, as_float, as_int, as_text, record_to_json
from polar.graph import MemoryGraph
from polar.scenarios import gen_scenarios
from polar.world import ACTION_START, MOVE_FORWARD, STOP, TURN_RIGHT


def _step(pos, action, room, heading=0):
    return TrajectoryStep(pos, heading, action, room, [])


def _episode(
    episode_id="ep-1",
    timestamp=1,
    facts=(("color", "crimson"),),
    target="mug_01",
    success=True,
) -> EpisodeLog:
    trajectory = [
        _step((0.5, 0.5), ACTION_START, "hallway"),
        _step((1.5, 0.5), MOVE_FORWARD, "hallway"),
        _step((1.5, 0.5), MOVE_FORWARD, "hallway"),  # blocked: position unchanged
        _step((2.5, 0.5), MOVE_FORWARD, "kitchen"),
        _step((2.5, 0.5), TURN_RIGHT, "kitchen", heading=30),
        _step((2.5, 0.5), STOP, "kitchen", heading=30),
    ]
    return EpisodeLog(
        episode_id=episode_id,
        timestamp=timestamp,
        instruction="take note of this mug",
        facts=list(facts),
        reference_feature=None,
        target_object_id=target,
        target_category="mug",
        trajectory=trajectory,
        success=success,
        final_position=(2.5, 0.5),
    )


def test_statement_template_round_trip():
    text = render_statement("color", "crimson red", "mug", "mug_01")
    assert text == "user: color = crimson red refers to mug mug_01"
    assert parse_statement(text) == ("color", "crimson red")


def test_statement_parsers_reject_foreign_text():
    assert parse_statement("a mug is on the desk") is None
    assert parse_statement("user: but no separator") is None
    assert parse_statement("user: but no separator refers to mug mug_01") is None


def test_trajectory_text_pairs_room_and_action():
    assert trajectory_text(_episode()) == (
        "hallway START hallway MOVE_FORWARD hallway MOVE_FORWARD "
        "kitchen MOVE_FORWARD kitchen TURN_RIGHT kitchen STOP"
    )


def test_validate_rejects_empty_or_skewed_trajectories():
    ep = _episode()
    ep.trajectory = []
    with pytest.raises(RejectedInput):
        ep.validate()
    ep = _episode()
    ep.trajectory[1].heading = 45  # not a multiple of 30
    with pytest.raises(RejectedInput):
        ep.validate()


def _statement_texts(graph: MemoryGraph) -> list[str]:
    return [graph.semantic[sid].statement for sid in sorted(graph.semantic)]


def test_memorize_one_statement_per_fact():
    g = MemoryGraph()
    memorize(_episode(facts=[("color", "red"), ("location", "desk")]), g)
    assert _statement_texts(g) == [
        "user: color = red refers to mug mug_01",
        "user: location = desk refers to mug mug_01",
    ]
    assert [parse_statement(text)[0] for text in _statement_texts(g)] == ["color", "location"]


def test_summarize_episodic_counts_only_effective_forward_moves():
    s = summarize_episodic(_episode())
    assert s.path_length_m == 2.0  # one forward was blocked
    assert s.room_sequence == ["hallway", "kitchen"]
    assert s.found_room == "kitchen"
    parsed = parse_rendered_summary(s.rendered_text)
    assert parsed == {
        "outcome": "success",
        "searched": "hallway,kitchen",
        "found_in": "kitchen",
        "length": "2.0m",
    }


def test_summarize_failure_has_no_found_room():
    s = summarize_episodic(_episode(success=False))
    assert s.found_room is None
    assert parse_rendered_summary(s.rendered_text)["found_in"] == "none"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(("hallway", "kitchen", "bedroom_1", "living_room")), min_size=1, max_size=6), st.booleans())
def test_each_rendering_round_trips_through_its_reader(rooms, success):
    """Each rendering a polar mode hands the planner gives back, through its own reader,
    the room the episode ended in: the two summaries only on success, the raw trajectory
    either way. Instruction-only grounding renders nothing and reads no room."""
    actions = [ACTION_START] + [MOVE_FORWARD] * (len(rooms) - 1)
    steps = [_step((0.5 + i, 0.5), action, room) for i, (action, room) in enumerate(zip(actions, rooms))]
    episode = _episode(success=success)
    episode.trajectory = steps + [_step(steps[-1].position, STOP, rooms[-1])]
    summary = summarize_episodic(episode)
    found = rooms[-1] if success else None
    assert rendered_found_in(summary.rendered_text) == found
    assert digest_found_in(summary_digest(summary)) == found
    assert trajectory_last_room(trajectory_text(episode)) == rooms[-1]
    assert no_prior_room(summary.rendered_text) is None
    # the two summary readers take no room out of each other's rendering
    assert rendered_found_in(summary_digest(summary)) is None
    assert digest_found_in(summary.rendered_text) is None


def test_parse_rendered_summary_rejects_foreign_text():
    assert parse_rendered_summary("not a summary") == {}
    assert parse_rendered_summary("outcome=success; searched=a") == {}


def test_memorize_wires_object_statements_and_episode():
    g = MemoryGraph()
    memorize(_episode(facts=[("color", "red"), ("location", "desk")]), g)
    assert set(g.objects) == {"mug_01"}
    assert len(g.semantic) == 2 and len(g.episodic) == 1
    assert len(g.neighbors("mug_01", kind="semantic")) == 2
    assert len(g.neighbors("mug_01", kind="episodic")) == 1
    assert all(edge.active for edge in g.edges)


def test_memorize_same_key_new_value_supersedes():
    g = MemoryGraph()
    memorize(_episode(timestamp=1, facts=[("color", "deep crimson red")]), g)
    memorize(_episode(episode_id="ep-2", timestamp=2, facts=[("color", "pale sky blue")]), g)
    assert set(g.objects) == {"mug_01"}
    active = g.neighbors("mug_01", kind="semantic")
    assert len(active) == 1
    assert parse_statement(g.semantic[active[0][0]].statement) == ("color", "pale sky blue")
    stale = [sid for sid, _ in g.neighbors("mug_01", kind="semantic", active_only=False) if sid != active[0][0]]
    assert [parse_statement(g.semantic[sid].statement) for sid in stale] == [("color", "deep crimson red")]
    inactive = [edge for edge in g.edges if not edge.active]
    assert [(edge.src, edge.dst) for edge in inactive] == [("mug_01", stale[0])]  # old fact kept as history


def test_memorize_is_idempotent_for_semantics_append_only_for_episodes():
    g = MemoryGraph()
    ep = _episode()
    memorize(ep, g)
    texts_before, episodic_before = _statement_texts(g), len(g.episodic)
    memorize(ep, g)
    assert _statement_texts(g) == texts_before
    assert len(g.neighbors("mug_01", kind="semantic")) == 1
    assert set(g.objects) == {"mug_01"}
    assert len(g.episodic) == episodic_before + 1


def test_memorize_names_the_episode_target_but_links_the_matched_object():
    feat = np.zeros(32)
    feat[3] = 1.0
    first, second = _episode(), _episode(episode_id="ep-2", timestamp=2, target="mug_09", facts=[("size", "large")])
    first.reference_feature = second.reference_feature = feat
    g = MemoryGraph()
    memorize(first, g)
    memorize(second, g)
    assert set(g.objects) == {"mug_01"}  # the feature matched, so no mug_09 node
    linked = [g.semantic[sid].statement for sid, _ in g.neighbors("mug_01", kind="semantic")]
    assert "user: size = large refers to mug mug_09" in linked


def test_memorize_replay_rebuilds_identical_graph():
    episodes = [
        _episode(timestamp=1, facts=[("color", "deep crimson red")]),
        _episode(episode_id="ep-2", timestamp=2, facts=[("color", "pale sky blue")]),
        _episode(episode_id="ep-3", timestamp=3, target="mug_02", facts=[("size", "large")]),
    ]
    a, b = MemoryGraph(), MemoryGraph()
    for ep in episodes:
        memorize(ep, a)
        memorize(ep, b)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_episode_jsonl_round_trip(tmp_path):
    feat = np.zeros(32)
    feat[3] = 1.0
    eps = [_episode(), _episode(episode_id="ep-2", timestamp=2)]
    eps[0].reference_feature = feat
    path = tmp_path / "episodes.jsonl"
    save_episodes(eps, str(path))
    loaded = load_episodes(str(path))
    assert [record_to_json(e) for e in loaded] == [record_to_json(e) for e in eps]


def test_load_episodes_reports_bad_line(tmp_path):
    path = tmp_path / "episodes.jsonl"
    good = json.dumps(record_to_json(_episode()))
    path.write_text(good + "\n{broken\n")
    with pytest.raises(ParseError):
        load_episodes(str(path))


def test_episode_from_json_rejects_missing_fields():
    doc = record_to_json(_episode())
    del doc["trajectory"]
    with pytest.raises(ParseError):
        episode_from_json(doc)


def _reference_episode_from_json(doc: dict) -> EpisodeLog:
    """The record parser as it read before the lean trajectory loop, with one check
    call per value: as_text per field and per visible id, as_int and as_float per
    number. The oracle for the lean one."""
    try:
        feat = doc["reference_feature"]
        episode = EpisodeLog(
            episode_id=as_text(doc["episode_id"]),
            timestamp=as_int(doc["timestamp"]),
            instruction=as_text(doc["instruction"]),
            facts=[(as_text(k), as_text(v)) for k, v in doc["facts"]],
            reference_feature=None if feat is None else np.asarray(feat, dtype=np.float64),
            target_object_id=as_text(doc["target_object_id"]),
            target_category=as_text(doc["target_category"]),
            trajectory=[
                TrajectoryStep(
                    position=(as_float(s["position"][0]), as_float(s["position"][1])),
                    heading=as_int(s["heading"]),
                    action=as_text(s["action"]),
                    room=as_text(s["room"]),
                    visible_object_ids=[as_text(oid) for oid in s["visible_object_ids"]],
                )
                for s in doc["trajectory"]
            ],
            success=as_bool(doc["success"]),
            final_position=(as_float(doc["final_position"][0]), as_float(doc["final_position"][1])),
        )
    except MALFORMED as exc:
        raise ParseError(f"malformed episode record: {exc}") from exc
    episode.validate()
    return episode


def _staged_record() -> dict:
    """An acquisition record as `polar acquire` writes it, cut to three steps and
    a three-float feature so that every field can be mutated in turn."""
    doc = json.loads(json.dumps(record_to_json(acquire(gen_scenarios(0, "compositional-single", 1)[0])[0])))
    doc["trajectory"] = doc["trajectory"][:3]
    doc["reference_feature"] = doc["reference_feature"][:3]
    assert any(step["visible_object_ids"] for step in doc["trajectory"])
    return doc


def _paths(value, path=()):
    """Every key and index path into a JSON value, containers before their contents."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


_HUGE = "__1e400__"  # written to the file as the bare literal 1e400, which reads as inf
_DROP = object()
_SWAPS = (None, True, False, 0, -7, 30.9, _HUGE, "", "x", "12", "60.0", [], ["a", "b"], [1, 2], {}, {"a": 1}, _DROP)


def _mutated(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if value is _DROP:
        del container[last]
    else:
        container[last] = value
    return doc


def _record_text(episode: EpisodeLog) -> str:
    return json.dumps(record_to_json(episode), sort_keys=True)  # compares a NaN feature as text


def _parse_or_error(parse, doc: dict):
    try:
        return _record_text(parse(doc))
    except (ParseError, RejectedInput):
        return None


def _intended_difference(path: tuple, value) -> bool:
    """The mutations the record codec refuses and the reference parser may load, each
    tested below: an id list or the facts read from a string or an object, a fact pair
    read from a string, and a feature that is not a list of numbers."""
    if value is _DROP:
        return False
    value = float("inf") if value == _HUGE else value
    if path[-1] in ("visible_object_ids", "facts") and isinstance(value, (str, dict)):
        return True
    if path[:1] == ("facts",) and len(path) == 2:
        return isinstance(value, str)
    if path == ("reference_feature",):
        return value is not None and not (isinstance(value, list) and {type(v) for v in value} <= {int, float})
    return path[:1] == ("reference_feature",) and type(value) not in (int, float)


def _line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True).replace(f'"{_HUGE}"', "1e400")


def test_lean_parser_raises_where_the_reference_raises(tmp_path):
    """Each field of a staged record swapped for another JSON value (or dropped): the
    lean parser raises ParseError on line 2 exactly where the reference parser raises,
    and otherwise loads the episode the reference parser builds. The intended
    differences (_intended_difference) have their own tests below."""
    staged = _staged_record()
    path_file = tmp_path / "episodes.jsonl"
    first_line = json.dumps(staged, sort_keys=True)
    checked = raised = 0
    for path in _paths(staged):
        for value in _SWAPS:
            if _intended_difference(path, value):
                continue
            doc = _mutated(staged, path, value)
            line = _line(doc)
            path_file.write_text(first_line + "\n" + line + "\n", encoding="utf-8")
            expected = _parse_or_error(_reference_episode_from_json, json.loads(line))
            if expected is None:
                with pytest.raises(ParseError) as info:
                    load_episodes(str(path_file))
                assert info.value.line == 2, (path, value)
                raised += 1
            else:
                assert _record_text(load_episodes(str(path_file))[1]) == expected, (path, value)
            checked += 1
    assert raised > 0 and checked - raised > 0


@pytest.mark.parametrize("ids", ["keys_01", {"keys_01": 1}, ""])
def test_lean_parser_wants_a_list_of_visible_ids(ids):
    """Intended difference from the reference parser, which reads a string as its
    characters and an object as its keys."""
    doc = _mutated(_staged_record(), ("trajectory", 0, "visible_object_ids"), ids)
    _reference_episode_from_json(doc)
    with pytest.raises(ParseError, match="visible_object_ids"):
        episode_from_json(doc)


@pytest.mark.parametrize("field", ["facts", "reference_feature"])
def test_codec_refuses_the_mutations_the_differential_test_skips(field):
    """Intended differences from the reference parser, which reads facts from a string
    or an object (a pair from a two-character string) and a feature from strings,
    booleans, null or a lone number: the codec refuses every one of them, naming the
    field, and the reference parser loads some."""
    staged = _staged_record()
    refused = loaded = 0
    for path in _paths(staged):
        for value in _SWAPS:
            if path[0] != field or not _intended_difference(path, value):
                continue
            doc = json.loads(_line(_mutated(staged, path, value)))
            with pytest.raises(ParseError, match=field):
                episode_from_json(doc)
            refused += 1
            loaded += _parse_or_error(_reference_episode_from_json, doc) is not None
    assert refused > loaded > 0
