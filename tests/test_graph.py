import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_vec
from polar.encoder import cosine, cosine_from_norms, encode
from polar.errors import NotFound, ParseError, RejectedInput
from polar.graph import EDGE_EPISODIC, EDGE_SEMANTIC, Edge, MemoryGraph, SemanticNode, THETA_DEDUP, THETA_OBJ
from polar.retrieval import _rank_semantic


DIM = 8


def _graph(**kw) -> MemoryGraph:
    return MemoryGraph(**kw)


def _add_epi(g, obj, *, t, success=True, rooms=("hallway", "kitchen"), episode_id="ep"):
    return g.add_episodic(
        obj,
        episode_id=episode_id,
        success=success,
        room_sequence=list(rooms),
        found_room=rooms[-1] if success else None,
        rendered_text="outcome=success; searched=hallway,kitchen; found_in=kitchen; length=3.0m",
        timestamp=t,
    )


# -- object upsert -----------------------------------------------------------


def test_upsert_needs_id_or_feature():
    with pytest.raises(RejectedInput):
        _graph().upsert_object("mug")


def test_upsert_exact_id_wins_and_never_mutates():
    g = _graph()
    a = g.upsert_object("mug", object_id="mug_01")
    assert a == "mug_01"
    node = g.objects["mug_01"]
    assert g.upsert_object("vase", object_id="mug_01", reference_feature=unit_vec(DIM)) == "mug_01"
    assert g.objects["mug_01"] is node and node.category == "mug" and node.reference_feature is None
    assert len(g.objects) == 1


def test_upsert_feature_match_at_threshold():
    g = _graph()
    base = unit_vec(DIM)
    g.upsert_object("mug", object_id="mug_01", reference_feature=base)
    near = unit_vec(DIM, math.acos(THETA_OBJ) - 1e-6)  # cosine just above theta_obj
    far = unit_vec(DIM, math.acos(THETA_OBJ) + 1e-3)  # cosine just below
    assert g.upsert_object("mug", reference_feature=near) == "mug_01"
    new_id = g.upsert_object("mug", reference_feature=far)
    assert new_id != "mug_01" and new_id in g.objects


def test_upsert_feature_respects_category():
    g = _graph()
    base = unit_vec(DIM)
    g.upsert_object("mug", object_id="mug_01", reference_feature=base)
    assert g.upsert_object("vase", reference_feature=base) != "mug_01"


def test_upsert_allocates_sequential_ids():
    g = _graph()
    a = g.upsert_object("mug", reference_feature=unit_vec(DIM))
    b = g.upsert_object("vase", reference_feature=unit_vec(DIM, math.pi / 2))
    assert (a, b) == ("obj_0001", "obj_0002")


def test_upsert_rejects_non_unit_feature():
    with pytest.raises(RejectedInput):
        _graph().upsert_object("mug", reference_feature=np.ones(DIM))


def test_upsert_keeps_one_feature_dimension_so_the_graph_reloads():
    g = _graph()
    g.upsert_object("mug", reference_feature=unit_vec(DIM))
    reloaded = MemoryGraph.from_json(g.to_json())
    for graph in (g, reloaded):
        with pytest.raises(RejectedInput):
            graph.upsert_object("vase", reference_feature=unit_vec(DIM + 1))  # another category, too
        with pytest.raises(RejectedInput):
            graph.upsert_object("vase", reference_feature=unit_vec(DIM)[None, :])
        assert len(graph.objects) == 1
    assert reloaded.to_json() == g.to_json()


# -- semantic nodes ----------------------------------------------------------


def test_add_semantic_dedups_near_identical():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    a = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    b = g.add_semantic("mug_01", "color = red (restated)", unit_vec(DIM, math.acos(THETA_DEDUP) - 1e-6), 2)
    assert a == b
    assert len(g.semantic) == 1
    assert g.semantic[a].statement == "color = red"  # first ingested text kept


def test_add_semantic_below_threshold_creates_new_node():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    a = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    b = g.add_semantic("mug_01", "location = desk", unit_vec(DIM, math.acos(THETA_DEDUP) + 1e-3), 2)
    assert a != b
    assert len(g.semantic) == 2


def test_add_semantic_scores_only_statements_near_the_threshold():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    with mock.patch("polar.graph.cosine_from_norms", wraps=cosine_from_norms) as scored:
        far = g.add_semantic("mug_01", "location = desk", unit_vec(DIM, math.acos(THETA_DEDUP) + 1e-3), 2)
        assert scored.call_count == 0  # nothing within theta_dedup: no exact rescoring at all
        # within theta_dedup of both stored statements: both are scored, the closer one wins
        got = g.add_semantic("mug_01", "color = red (restated)", unit_vec(DIM, math.acos(THETA_DEDUP) - 1e-6), 3)
        assert scored.call_count == 2
    assert far == "sem_0002" and got == "sem_0002"


def test_add_semantic_dedup_tie_goes_to_first_sorted_id():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    g.counters.semantic = 9999
    a, b = np.zeros(DIM), np.zeros(DIM)
    a[0] = b[0] = math.cos(0.35)
    a[2] = b[3] = math.sin(0.35)  # a and b stay apart (cosine 0.883); both score exactly cos(0.35) to e0
    assert [g.add_semantic("mug_01", s, v, 1) for s, v in (("a", a), ("b", b))] == ["sem_9999", "sem_10000"]
    assert g.add_semantic("mug_01", "c", unit_vec(DIM), 2) == "sem_10000"  # sorts before sem_9999


def test_add_semantic_relink_is_idempotent():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    edges = len(g.edges)
    g.add_semantic("mug_01", "color = red", unit_vec(DIM), 2)
    assert len(g.edges) == edges  # active link already present


def test_add_semantic_validation():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    with pytest.raises(NotFound):
        g.add_semantic("ghost", "x", unit_vec(DIM), 1)
    with pytest.raises(RejectedInput):
        g.add_semantic("mug_01", "", unit_vec(DIM), 1)
    with pytest.raises(RejectedInput):
        g.add_semantic("mug_01", "x", np.ones(DIM) * 2, 1)


# -- episodic nodes ----------------------------------------------------------


def test_episodic_append_only_never_merges():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    a = _add_epi(g, "mug_01", t=1)
    b = _add_epi(g, "mug_01", t=2)
    assert a != b
    assert len(g.episodic) == 2


def test_episodic_validation():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    with pytest.raises(RejectedInput):
        g.add_episodic(
            "mug_01", episode_id="e", success=True, room_sequence=["a"], found_room=None, rendered_text="r",
            timestamp=1,
        )
    with pytest.raises(RejectedInput):
        g.add_episodic(
            "mug_01", episode_id="e", success=False, room_sequence=["a"], found_room="a", rendered_text="r",
            timestamp=1,
        )
    with pytest.raises(NotFound):
        _add_epi(g, "ghost", t=1)


# -- supersession ------------------------------------------------------------


def test_supersede_keeps_single_active_edge_and_history():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    old = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    new = g.add_semantic("mug_01", "color = blue", unit_vec(DIM, 1.0), 2)
    g.supersede("mug_01", old, new, 3)
    actives = [e for e in g.edges if e.active and e.kind == EDGE_SEMANTIC]
    assert [(e.src, e.dst, e.timestamp) for e in actives] == [("mug_01", new, 3)]
    # history retained: the deactivated edges are still present
    inactive = [e for e in g.edges if not e.active]
    assert {(e.src, e.dst) for e in inactive} == {("mug_01", old), ("mug_01", new)}
    assert old in g.semantic  # superseded node is history, not deleted


def test_supersede_missing_edges_raise():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    old = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    with pytest.raises(NotFound):
        g.supersede("mug_01", old, "sem_9999", 2)
    new = g.add_semantic("mug_01", "color = blue", unit_vec(DIM, 1.0), 2)
    g.supersede("mug_01", old, new, 3)
    with pytest.raises(NotFound):
        g.supersede("mug_01", old, new, 4)  # old edge no longer active


# -- neighbors ---------------------------------------------------------------


def test_neighbors_order_filter_and_reverse():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    s1 = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    s2 = g.add_semantic("mug_01", "location = desk", unit_vec(DIM, 1.0), 5)
    e1 = _add_epi(g, "mug_01", t=3)
    assert g.neighbors("mug_01", kind="semantic") == [(s2, 5), (s1, 1)]  # newest first
    assert g.neighbors("mug_01", kind="episodic") == [(e1, 3)]
    assert g.neighbors("mug_01") == [(s2, 5), (e1, 3), (s1, 1)]
    assert g.neighbors(s1) == [("mug_01", 1)]  # reverse query yields objects
    g.supersede("mug_01", s1, s2, 6)
    assert g.neighbors("mug_01", kind="semantic") == [(s2, 6)]
    assert g.neighbors("mug_01", kind="semantic", active_only=False) == [(s2, 6), (s2, 5), (s1, 1)]


def test_neighbors_errors():
    g = _graph()
    g.upsert_object("mug", object_id="mug_01")
    with pytest.raises(NotFound):
        g.neighbors("ghost")
    with pytest.raises(RejectedInput):
        g.neighbors("mug_01", kind="telepathic")


# -- persistence -------------------------------------------------------------


def _populated() -> MemoryGraph:
    g = _graph()
    g.upsert_object("mug", object_id="mug_01", reference_feature=unit_vec(DIM))
    old = g.add_semantic("mug_01", "color = red", unit_vec(DIM), 1)
    new = g.add_semantic("mug_01", "color = blue", unit_vec(DIM, 1.0), 2)
    g.supersede("mug_01", old, new, 2)
    _add_epi(g, "mug_01", t=2)
    return g


def test_round_trip_identity(tmp_path):
    g = _populated()
    path = tmp_path / "graph.json"
    g.save(str(path))
    loaded = MemoryGraph.load(str(path))
    assert json.dumps(loaded.to_json(), sort_keys=True) == json.dumps(g.to_json(), sort_keys=True)
    assert loaded.theta_dedup == THETA_DEDUP and loaded.theta_obj == THETA_OBJ


def test_older_snapshots_with_unread_keys_still_load():
    """A version-1 snapshot written before the unread keys were dropped loads, and
    saving it again gives today's document."""
    doc = _populated().to_json()
    old = json.loads(json.dumps(doc))
    old["clock"] = 2
    for nodes in ("object_nodes", "semantic_nodes", "episodic_nodes"):
        for row in old[nodes]:
            row["created_at"] = 1
    for row in old["episodic_nodes"]:
        row.update(instruction="find it", unpromising_rooms=["hallway"], path_length_m=3.0)
    assert MemoryGraph.from_json(old).to_json() == doc


def test_load_rejects_bad_version(tmp_path):
    doc = _populated().to_json()
    doc["format_version"] = 99
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        MemoryGraph.load(str(path))


def test_load_rejects_truncated_json(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_populated().to_json())[:40])
    with pytest.raises(ParseError):
        MemoryGraph.load(str(path))


def test_load_rejects_dangling_edge():
    doc = _populated().to_json()
    doc["edges"].append({"src": "mug_01", "dst": "sem_9999", "kind": EDGE_SEMANTIC, "timestamp": 3, "active": True})
    with pytest.raises(ParseError):
        MemoryGraph.from_json(doc)


def test_load_rejects_duplicate_active_edges():
    doc = _populated().to_json()
    live = next(e for e in doc["edges"] if e["active"])
    doc["edges"].append(dict(live))
    with pytest.raises(ParseError):
        MemoryGraph.from_json(doc)


@pytest.mark.parametrize(
    "embedding",
    [[math.nan] + [0.0] * (DIM - 1), [1.0] + [0.0] * DIM, [[1.0] + [0.0] * (DIM - 1)], [0.0] * DIM,
     [2.0] + [0.0] * (DIM - 1)],
)
def test_load_rejects_bad_embeddings(embedding):
    doc = _populated().to_json()
    # not finite, another length, not a vector, and the zero and non-unit vectors that ingest refuses
    doc["semantic_nodes"][0]["embedding"] = embedding
    with pytest.raises(ParseError):
        MemoryGraph.from_json(doc)


def test_load_rejects_unknown_edge_kind():
    doc = _populated().to_json()
    doc["edges"][0]["kind"] = "object->psychic"
    with pytest.raises(ParseError):
        MemoryGraph.from_json(doc)


@pytest.mark.parametrize(
    "nodes, field, value",
    [("object_nodes", "category", "lamp"), ("semantic_nodes", "statement", "color = green"),
     ("episodic_nodes", "episode_id", "ep-again")],
)
def test_load_rejects_duplicate_node_ids(nodes, field, value):
    doc = _populated().to_json()
    doc[nodes].append({**doc[nodes][0], field: value})  # a later row must not replace the first
    with pytest.raises(ParseError, match="share an id"):
        MemoryGraph.from_json(doc)


@pytest.mark.parametrize("field, value, match", [("found_room", None, "found_room"), ("success", False, "found_room")])
def test_load_rejects_episodic_records_that_add_episodic_refuses(field, value, match):
    doc = _populated().to_json()
    doc["episodic_nodes"][0][field] = value  # a success with no room, a failure with one
    with pytest.raises(ParseError, match=match):
        MemoryGraph.from_json(doc)
    row = {k: v for k, v in doc["episodic_nodes"][0].items() if k != "node_id"}
    with pytest.raises(RejectedInput, match=match):
        _populated().add_episodic("mug_01", **row, timestamp=3)


@pytest.mark.parametrize("feature", [[0.0] * DIM, [2.0] + [0.0] * (DIM - 1), [math.nan] + [0.0] * (DIM - 1)])
def test_load_rejects_non_unit_reference_features(feature):
    doc = _populated().to_json()
    doc["object_nodes"][0]["reference_feature"] = feature  # upsert_object refuses each of these
    with pytest.raises(ParseError, match="unit norm"):
        MemoryGraph.from_json(doc)


def test_stored_vectors_are_read_only_and_callers_keep_theirs():
    g = _graph()
    feature, embedding = unit_vec(DIM), unit_vec(DIM, 1.0)
    g.upsert_object("mug", object_id="mug_01", reference_feature=feature)
    sem_id = g.add_semantic("mug_01", "color = red", embedding, 1)
    for graph in (g, MemoryGraph.from_json(g.to_json())):
        for stored in (graph.objects["mug_01"].reference_feature, graph.semantic[sem_id].embedding):
            with pytest.raises(ValueError):
                stored[0] = 0.5  # a write would make the stored norm stale
    feature[0] = embedding[0] = 0.5  # the caller's arrays are still its own and writable
    assert g.objects["mug_01"].reference_feature[0] == 1.0


# -- indexes against a full scan ---------------------------------------------


class _ScanGraph(MemoryGraph):
    """Reference graph without indexes: dedup scores every statement with cosine()
    in sorted-id order, and edge lookups scan the whole edge list."""

    def add_semantic(self, object_ref, statement, embedding, timestamp):
        emb = np.asarray(embedding, dtype=np.float64)
        best_id, best_score = None, -2.0
        for sid in sorted(self.semantic):
            score = cosine(emb, self.semantic[sid].embedding)
            if score > best_score:
                best_id, best_score = sid, score
        if best_id is not None and best_score >= self.theta_dedup:
            node_id = best_id
        else:
            node_id = f"sem_{self.counters.semantic:04d}"
            self.counters.semantic += 1
            self.semantic[node_id] = SemanticNode(node_id, statement, emb)
        if self._active_edge(object_ref, node_id) is None:
            self.edges.append(Edge(object_ref, node_id, EDGE_SEMANTIC, timestamp, True))
        return node_id

    def supersede(self, object_ref, old_id, new_id, timestamp):
        old_edge = self._active_edge(object_ref, old_id)
        old_edge.active = False
        existing = self._active_edge(object_ref, new_id)
        if existing is not None:
            if existing.timestamp == timestamp:
                return
            existing.active = False
        self.edges.append(Edge(object_ref, new_id, EDGE_SEMANTIC, timestamp, True))

    def _active_edge(self, src, dst):
        return next((e for e in self.edges if e.active and e.src == src and e.dst == dst), None)

    def _add_edge(self, edge):
        self.edges.append(edge)


def _scan_neighbors(graph, node_id, active_only):
    if node_id in graph.objects:
        rows = [(e.dst, e.timestamp) for e in graph.edges if e.src == node_id and (e.active or not active_only)]
    else:
        rows = [(e.src, e.timestamp) for e in graph.edges if e.dst == node_id and (e.active or not active_only)]
    return sorted(rows, key=lambda r: (-r[1], r[0]))


def _scan_hits(graph, query, k):
    hits = []
    for node_id in sorted(graph.semantic):
        linking = _scan_neighbors(graph, node_id, True)
        if linking:
            score = cosine(query, graph.semantic[node_id].embedding)
            hits.append((node_id, score, linking[0][1], [obj for obj, _ in linking]))  # newest edge first
    hits.sort(key=lambda h: (-h[1], -h[2], h[0]))
    return [(node_id, score.hex(), ts, objs) for node_id, score, ts, objs in hits[:k]]


_LATTICE = st.lists(st.sampled_from([-1.0, 0.0, 0.0, 1.0, 2.0]), min_size=DIM, max_size=DIM).filter(any)
_ANGLES = (0.0, 0.35, math.acos(THETA_DEDUP) - 1e-6, math.acos(THETA_DEDUP), math.acos(THETA_DEDUP) + 1e-6, 1.0)
# "axis": cos(a) e_i + sin(a) e_j, whose cosine against e_i is exactly cos(a), so
# statements and queries tie exactly, sit on THETA_DEDUP or 1e-6 either side of it;
# "copy": an earlier vector again; "lattice": a vector of small integers, normalized.
_EMBEDDING = st.one_of(
    st.tuples(st.just("axis"), st.integers(0, 1), st.integers(2, DIM - 1), st.sampled_from(_ANGLES)),
    st.tuples(st.just("copy"), st.integers(0, 60)),
    st.tuples(st.just("lattice"), _LATTICE),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("semantic"), st.integers(0, 2), _EMBEDDING, st.integers(0, 1)),
        st.tuples(st.just("episodic"), st.integers(0, 2), st.integers(0, 1)),
        st.tuples(st.just("supersede"), st.integers(0, 60), st.integers(0, 60), st.integers(0, 1)),
        st.tuples(st.just("retrieve"), _EMBEDDING, st.integers(1, 4)),
    ),
    max_size=40,
)
_OBJECTS = ("mug_01", "mug_02", "vase_01")


def _embedding(spec, pool):
    if spec[0] == "axis":
        _, i, j, angle = spec
        v = np.zeros(DIM)
        v[i], v[j] = math.cos(angle), math.sin(angle)
        return v
    if spec[0] == "copy":
        return pool[spec[1] % len(pool)].copy() if pool else unit_vec(DIM)
    return np.asarray(spec[1]) / np.linalg.norm(spec[1])


def _replay(ops, graphs, pool, t):
    """Apply ops to every graph in turn; every retrieval must agree bit for bit."""
    for op in ops:
        t += op[-1] if op[0] in ("semantic", "episodic", "supersede") else 0
        if op[0] == "semantic":
            emb = _embedding(op[2], pool)
            pool.append(emb)
            ids = {g.add_semantic(_OBJECTS[op[1]], f"fact {len(pool)}", emb, t) for g in graphs}
            assert len(ids) == 1
        elif op[0] == "episodic":
            for g in graphs:
                _add_epi(g, _OBJECTS[op[1]], t=t, episode_id=f"ep{t}")
        elif op[0] == "supersede":
            live = sorted((e.src, e.dst) for e in graphs[0].edges if e.active and e.kind == EDGE_SEMANTIC)
            if live:
                src, old = live[op[1] % len(live)]
                new = sorted(graphs[0].semantic)[op[2] % len(graphs[0].semantic)]
                for g in graphs:
                    g.supersede(src, old, new, t)
        else:
            query = _embedding(op[1], pool)
            pool.append(query)
            _, _, k = op
            want = _scan_hits(graphs[0], query, k)
            for g in graphs[1:]:
                got = _rank_semantic(g, query, k)
                assert [(h.node_id, h.score.hex(), h.timestamp, h.object_ids) for h in got] == want
    return t


@settings(max_examples=150, deadline=None)
@given(
    before=_OPS,
    after=_OPS,
    # 1.5 never merges, so duplicates tie; 1.0 merges only clamped or exact duplicates
    theta_dedup=st.sampled_from([THETA_DEDUP, 1.5, 1.0]),
    first_id=st.sampled_from([1, 9990, 9998]),  # ids past sem_9999 sort before older ones
)
def test_indexes_match_full_scan(before, after, theta_dedup, first_id):
    scan, indexed = _ScanGraph(theta_dedup=theta_dedup), _graph(theta_dedup=theta_dedup)
    for g in (scan, indexed):
        g.counters.semantic = first_id
        for oid in _OBJECTS:
            g.upsert_object(oid.split("_")[0], object_id=oid)
    pool: list[np.ndarray] = []
    t = _replay(before, [scan, indexed], pool, 1)
    reloaded = MemoryGraph.from_json(indexed.to_json())
    _replay(after, [scan, indexed, reloaded], pool, t)
    doc = scan.to_json()
    assert indexed.to_json() == doc and reloaded.to_json() == doc
    for g in (indexed, reloaded):
        for node_id in [*g.objects, *g.semantic, *g.episodic]:
            for active_only in (True, False):
                assert g.neighbors(node_id, active_only=active_only) == _scan_neighbors(scan, node_id, active_only)


@settings(max_examples=100, deadline=None)
@given(statements=st.lists(_LATTICE, min_size=1, max_size=12), queries=st.lists(_LATTICE, max_size=4))
def test_statement_scores_match_cosine_bit_for_bit(statements, queries):
    g = _graph(theta_dedup=1.5)  # never merges, so every vector gets a node
    g.upsert_object("mug", object_id="mug_01")
    ids = [g.add_semantic("mug_01", f"fact {i}", _embedding(("lattice", v), []), i) for i, v in enumerate(statements)]
    reloaded = MemoryGraph.from_json(json.loads(json.dumps(g.to_json())))
    raw = [np.asarray(q, dtype=np.float64) for q in queries]  # queries need not be unit norm
    for query in [np.zeros(DIM), *raw, *(q / np.linalg.norm(q) for q in raw)]:
        for graph in (g, reloaded):
            want = [cosine(query, graph.semantic[sid].embedding).hex() for sid in ids]
            assert [score.hex() for score in graph.statement_scores(query, ids)] == want
            assert [score.hex() for score in graph.statement_scores(query, ids[::-1])] == want[::-1]


def test_statement_scores_of_encoded_statements_and_the_empty_query():
    g = MemoryGraph()
    g.upsert_object("mug", object_id="mug_01")
    texts = ["user: color = crimson refers to mug mug_01", "user: owner = ana refers to mug mug_01", "x"]
    ids = [g.add_semantic("mug_01", text, encode(text), 1) for text in texts]
    reloaded = MemoryGraph.from_json(g.to_json())
    for query in (encode(""), encode("find my crimson mug"), encode(texts[1])):
        want = [cosine(query, encode(text)).hex() for text in texts]
        assert [score.hex() for score in g.statement_scores(query, ids)] == want
        assert [score.hex() for score in reloaded.statement_scores(query, ids)] == want
    assert g.statement_scores(encode(""), ids) == [0.0, 0.0, 0.0]
    with pytest.raises(RejectedInput):
        g.statement_scores(np.ones(DIM), ids)
