import math

import pytest

from conftest import unit_vec
from polar.distiller import EpisodeLog, TrajectoryStep
from polar.encoder import cosine, encode
from polar.errors import RejectedInput
from polar.graph import MemoryGraph
from polar.retrieval import (
    _bm25_scores,
    assemble_candidates,
    episode_document,
    raw_retrieve,
    recall_at_k,
    retrieve,
    retrieve_semantic,
)
from polar.world import ACTION_START, STOP

DIM = 256  # graph embeddings must match the default encoder width for retrieval


def _mini_episode(episode_id, instruction, room="hallway", success=True, target="mug_01"):
    trajectory = [
        TrajectoryStep((0.5, 0.5), 0, ACTION_START, room, []),
        TrajectoryStep((0.5, 0.5), 0, STOP, room, []),
    ]
    return EpisodeLog(
        episode_id=episode_id,
        timestamp=1,
        instruction=instruction,
        facts=[],
        reference_feature=None,
        target_object_id=target,
        target_category="mug",
        trajectory=trajectory,
        success=success,
        final_position=(0.5, 0.5),
    )


# -- BM25 oracle --------------------------------------------------------------


def test_bm25_matches_hand_computed_scores():
    # 3 docs of length 5, query "red mug": every tf is 1 and every doc norm is
    # k1*(1-b+b*5/5) = 1.2, so each hit contributes exactly its idf:
    #   idf(red) = ln(1 + (3-2+0.5)/(2+0.5)) = ln(1.6)
    #   idf(mug) = ln(1 + (3-1+0.5)/(1+0.5)) = ln(8/3)
    docs = [
        "find red mug hallway stop".split(),
        "find blue vase kitchen stop".split(),
        "note red vase hallway stop".split(),
    ]
    scores = _bm25_scores(docs, "red mug".split())
    assert scores[0] == pytest.approx(1.4508328822574618, abs=1e-12)  # ln(1.6)+ln(8/3)
    assert scores[1] == 0.0
    assert scores[2] == pytest.approx(0.47000362924573563, abs=1e-12)  # ln(1.6)


def test_bm25_term_frequency_saturates():
    docs = [["mug"] * 1, ["mug"] * 8]
    one, eight = _bm25_scores(docs, ["mug"])
    # more repetitions score higher but sublinearly (bounded by k1+1 times idf)
    assert eight > one
    idf = math.log(1 + (2 - 2 + 0.5) / (2 + 0.5))
    assert eight < idf * (1.2 + 1)


def test_raw_retrieve_bm25_ranks_matching_episode_first():
    eps = [
        _mini_episode("ep-a", "take note of this crimson mug"),
        _mini_episode("ep-b", "take note of this teal vase"),
        _mini_episode("ep-c", "water the plants"),
    ]
    ranked = raw_retrieve(eps, "find my crimson mug", k=3)
    assert ranked[0][0] == "ep-a"
    assert [r[0] for r in ranked][:1] == ["ep-a"]
    assert ranked[0][1] > ranked[1][1] >= ranked[2][1]


def test_raw_retrieve_ties_break_by_episode_id():
    eps = [_mini_episode("ep-b", "same text"), _mini_episode("ep-a", "same text")]
    ranked = raw_retrieve(eps, "unrelated query", k=2)
    assert [r[0] for r in ranked] == ["ep-a", "ep-b"]


def test_raw_retrieve_dense_mode_prefers_verbatim_overlap():
    eps = [
        _mini_episode("ep-a", "find my crimson mug"),
        _mini_episode("ep-b", "totally different words"),
    ]
    ranked = raw_retrieve(eps, "find my crimson mug", k=2, mode="dense")
    assert ranked[0][0] == "ep-a"


def test_raw_retrieve_validation_and_edges():
    eps = [_mini_episode("ep-a", "x")]
    assert raw_retrieve([], "q") == []
    assert len(raw_retrieve(eps, "q", k=5)) == 1  # k clips to corpus size
    with pytest.raises(RejectedInput):
        raw_retrieve(eps, "q", k=0)
    with pytest.raises(RejectedInput):
        raw_retrieve(eps, "q", mode="sparse")


def test_episode_document_is_instruction_plus_trajectory():
    ep = _mini_episode("ep-a", "find the mug")
    assert episode_document(ep) == "find the mug hallway START hallway STOP"


# -- graph retrieval ----------------------------------------------------------


def _two_node_graph():
    # theta_dedup > 1 disables dedup so identical embeddings stay distinct nodes
    g = MemoryGraph(theta_dedup=1.01)
    g.upsert_object("mug", object_id="mug_01")
    g.upsert_object("mug", object_id="mug_02")
    old = g.add_semantic("mug_01", "statement one", unit_vec(DIM), 1)
    new = g.add_semantic("mug_02", "statement two", unit_vec(DIM), 7)
    return g, old, new


def test_retrieve_semantic_equal_scores_break_to_newer_edge():
    g, old, new = _two_node_graph()
    hits = retrieve_semantic(g, "anything", k=2)
    assert [h.node_id for h in hits] == [new, old]


def test_retrieve_semantic_k_and_validation():
    g, _, _ = _two_node_graph()
    assert len(retrieve_semantic(g, "anything", k=1)) == 1
    with pytest.raises(RejectedInput):
        retrieve_semantic(g, "anything", k=0)


def test_retrieve_semantic_skips_unlinked_nodes():
    g = MemoryGraph(theta_dedup=1.01)
    g.upsert_object("mug", object_id="mug_01")
    old = g.add_semantic("mug_01", "old fact", unit_vec(DIM), 1)
    new = g.add_semantic("mug_01", "new fact", unit_vec(DIM, 1.0), 2)
    g.supersede("mug_01", old, new, 2)
    ids = [h.node_id for h in retrieve_semantic(g, "anything", k=5)]
    assert old not in ids and new in ids


def test_assemble_candidates_dedups_and_orders_by_first_hit():
    g, old, new = _two_node_graph()
    g.add_semantic("mug_01", "statement two point five", unit_vec(DIM), 3)  # second node on mug_01
    hits = retrieve_semantic(g, "anything", k=5)
    candidates = assemble_candidates(g, hits, instruction_embedding=encode("anything"))
    ids = [c.object_id for c in candidates]
    assert ids == sorted(set(ids), key=ids.index)  # no duplicates
    assert set(ids) == {"mug_01", "mug_02"}
    mug1 = next(c for c in candidates if c.object_id == "mug_01")
    assert len(mug1.statements) == 2


def test_retrieve_scores_statements_against_instruction():
    g = MemoryGraph()
    g.upsert_object("mug", object_id="mug_01")
    text = "user: color = crimson refers to mug mug_01"
    g.add_semantic("mug_01", text, encode(text), 1)
    result = retrieve(g, "find my crimson mug", k=5)
    assert result.candidates[0].object_id == "mug_01"
    st = result.candidates[0].statements[0]
    assert st.text == text
    assert st.score == cosine(encode("find my crimson mug"), encode(text))


def test_candidates_carry_episodic_renderings_newest_first():
    g = MemoryGraph()
    g.upsert_object("mug", object_id="mug_01")
    text = "user: color = crimson refers to mug mug_01"
    g.add_semantic("mug_01", text, encode(text), 1)
    for t, rendering in ((1, "first"), (2, "second")):
        g.add_episodic(
            "mug_01", episode_id=f"ep-{t}", success=True,
            room_sequence=["kitchen"], found_room="kitchen", rendered_text=rendering, timestamp=t,
        )
    result = retrieve(g, "crimson mug", k=5)
    assert result.candidates[0].episodic_memories == ["second", "first"]


def test_recall_at_k_contracts():
    g, _, _ = _two_node_graph()
    result = retrieve(g, "statement", k=5)
    assert recall_at_k(result, gold_object_id="mug_01") == 1
    assert recall_at_k(result, gold_object_id="ghost") == 0
    assert recall_at_k([("ep-1", 1.0)], gold_episode_id="ep-1") == 1
    assert recall_at_k([("ep-1", 1.0)], gold_episode_id="ep-2") == 0
    with pytest.raises(RejectedInput):
        recall_at_k(result)
    with pytest.raises(RejectedInput):
        recall_at_k([("ep-1", 1.0)])
