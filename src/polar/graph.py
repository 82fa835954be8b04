"""Object-centric memory graph.

Three node kinds: ObjectNode (a physical thing, keyed by a stable id and
optionally carrying a visual reference feature), SemanticNode (one
natural-language statement about an object, embedded for retrieval), and
EpisodicNode (the distilled record of one past episode). Edges always run
object -> semantic or object -> episodic, carry the episode timestamp, and
are never deleted: superseding a fact deactivates the old edge and adds a
new active one, so history stays queryable.

Snapshots. `to_json` stores only what some reader uses: the thresholds, the
id counters (new ids after a reload), each node's fields and each edge with
its timestamp (the `neighbors` order), every record through the record codec. Keys that older version-1 snapshots
carry and nothing reads are ignored on load.

Indexes. Besides the edge list, the graph keeps three edge indexes in step
with every mutation: the edges out of each object, the edges into each node,
and the one active edge of each (object, node) pair. `neighbors` and
supersession therefore cost O(degree), not O(edges). Semantic embeddings
are also copied into one bucket-major dim x S matrix with a vector of their
norms, grown by doubling, and every statement keeps a count of its active
linking edges. A hashed embedding of a short text has few nonzero buckets,
so a query reads only those rows of the matrix. `from_json` rebuilds all
of it.

Exactness. A matrix-vector product does not round like `encoder.cosine`, so
the matrix only cuts; the statements that survive a cut are scored exactly
by `statement_scores`, in sorted node-id order, and matrix row order never
decides a tie. That score is `cosine()`'s own dot product and formula with
the query's norm computed once per call and each statement's norm read from
the stored vector. `np.linalg.norm` of the same float64 array always returns
the same bits, and stored vectors are read-only, so a stored norm is the one
`cosine()` would recompute and every score is bit-identical to it. Dedup
keeps every statement whose approximate cosine reaches `theta_dedup -
_SHORTLIST_MARGIN`, so a new statement with no near neighbour costs one
matvec and no exact score. Retrieval (`shortlist`) keeps every linked
statement within _SHORTLIST_MARGIN of the k-th best approximate score.
The margin is far above a matvec's rounding error, so each cut holds the
exact winner and all its ties; scores, dedup choices and tie-breaks are
bit-identical to a full scalar scan.

Single-writer discipline: one ingestion sequence mutates a graph at a time;
concurrent readers are safe between mutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import cosine, cosine_from_norms
from .errors import NotFound, ParseError, RejectedInput
from .fileio import FORMAT_VERSION, MALFORMED, as_float, check_version, dump_json, read_json
from .fileio import record_from_json, record_to_json

THETA_DEDUP = 0.92  # statements at or above this cosine collapse to one node
THETA_OBJ = 0.95  # reference features at or above this cosine are the same object

EDGE_SEMANTIC = "object->semantic"
EDGE_EPISODIC = "object->episodic"

_UNIT_TOL = 1e-6
_SHORTLIST_MARGIN = 1e-9  # matrix cosines of 256-dim unit vectors differ from cosine() by about 4e-16
_MIN_ROWS = 16  # first capacity of the embedding matrix


@dataclass
class ObjectNode:
    object_id: str
    category: str
    reference_feature: np.ndarray | None


@dataclass
class SemanticNode:
    node_id: str
    statement: str
    embedding: np.ndarray


@dataclass
class EpisodicNode:
    node_id: str
    episode_id: str
    success: bool
    room_sequence: list[str]
    found_room: str | None
    rendered_text: str

    def __post_init__(self):
        """The record check that add_episodic and from_json share (RejectedInput)."""
        if self.success != (self.found_room is not None):
            raise RejectedInput("found_room must be present exactly when success is true")


@dataclass
class Edge:
    src: str
    dst: str
    kind: str
    timestamp: int
    active: bool = True


def _check_unit(vec: np.ndarray, what: str) -> float:
    """The norm of vec, which must be within _UNIT_TOL of 1."""
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise RejectedInput(f"{what} must be unit norm, got {norm:.6f}")
    return norm


def _frozen(vec: np.ndarray) -> np.ndarray:
    """vec made read-only, so no write can make a stored norm stale."""
    vec.setflags(write=False)
    return vec


def _check_units(ids: list[str], norms: np.ndarray, what: str) -> None:
    """ValueError naming the first id whose norm is not within _UNIT_TOL of 1 (NaN is not)."""
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))
    if len(bad):
        raise ValueError(f"{what} of {ids[bad[0]]!r} must be unit norm, got {norms[bad[0]]:.6f}")


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """Copy of a lengthened to `size` along its last axis."""
    out = np.zeros((*a.shape[:-1], size), a.dtype)
    out[..., : a.shape[-1]] = a
    return out


@dataclass
class _Counters:
    object: int = 1
    semantic: int = 1
    episodic: int = 1


@dataclass
class _Snapshot:
    """The records of a graph snapshot; its format_version and thresholds are read apart."""

    counters: _Counters
    object_nodes: list[ObjectNode]
    semantic_nodes: list[SemanticNode]
    episodic_nodes: list[EpisodicNode]
    edges: list[Edge]


class MemoryGraph:
    """Mutable in-memory graph with snapshot persistence."""

    def __init__(self, theta_dedup: float = THETA_DEDUP, theta_obj: float = THETA_OBJ):
        self.theta_dedup = theta_dedup
        self.theta_obj = theta_obj
        self.objects: dict[str, ObjectNode] = {}
        self.semantic: dict[str, SemanticNode] = {}
        self.episodic: dict[str, EpisodicNode] = {}
        self.edges: list[Edge] = []
        self.counters = _Counters()
        self._out: dict[str, list[Edge]] = {}  # object id -> its edges, in edge-list order
        self._in: dict[str, list[Edge]] = {}  # node id -> edges into it, in edge-list order
        self._active: dict[tuple[str, str], Edge] = {}  # (src, dst) -> the active edge
        self._row_ids: list[str] = []  # statement index -> semantic node id
        self._rows: dict[str, int] = {}  # semantic node id -> statement index
        self._columns = np.zeros((0, 0))  # dim x capacity: column r holds statement r's embedding
        self._norms = np.zeros(0)
        self._active_links = np.zeros(0, dtype=np.int64)  # active edges into each statement
        self._feature_shape: tuple[int, ...] | None = None  # of every reference feature, as from_json needs

    # -- mutation ---------------------------------------------------------

    def upsert_object(
        self,
        category: str,
        *,
        object_id: str | None = None,
        reference_feature: np.ndarray | None = None,
    ) -> str:
        """Return the id of an existing matching object or create a new node.

        Exact object_id match wins; otherwise a reference feature is matched
        by cosine against same-category objects at theta_obj. Existing nodes
        are never mutated.
        """
        if object_id is None and reference_feature is None:
            raise RejectedInput("upsert_object needs an object_id or a reference_feature")
        if object_id is not None and object_id in self.objects:
            return object_id
        if reference_feature is not None:
            feat = np.asarray(reference_feature, dtype=np.float64)
            if feat.ndim != 1 or self._feature_shape not in (None, feat.shape):
                raise RejectedInput(f"reference_feature must be a vector of the graph's one length, got {feat.shape}")
            _check_unit(feat, "reference_feature")
            best_id, best_score = None, -2.0
            for oid in sorted(self.objects):
                node = self.objects[oid]
                if node.category != category or node.reference_feature is None:
                    continue
                score = cosine(feat, node.reference_feature)
                if score > best_score:
                    best_id, best_score = oid, score
            if best_id is not None and best_score >= self.theta_obj:
                return best_id
            reference_feature = _frozen(feat.copy())  # asarray may have returned the caller's array
            self._feature_shape = feat.shape
        if object_id is None:
            object_id = f"obj_{self.counters.object:04d}"
            self.counters.object += 1
        self.objects[object_id] = ObjectNode(object_id, category, reference_feature)
        return object_id

    def add_semantic(self, object_ref: str, statement: str, embedding: np.ndarray, timestamp: int) -> str:
        """Link object_ref to a statement node, deduplicating near-identical statements.

        If an existing node's embedding is within theta_dedup cosine, the object is
        linked to it instead of a new node; an already-active link is left untouched.
        Returns the linked node id.
        """
        if object_ref not in self.objects:
            raise NotFound(f"unknown object {object_ref!r}")
        if not statement:
            raise RejectedInput("statement must be non-empty")
        emb = _frozen(np.array(embedding, dtype=np.float64))  # the node owns its copy
        if emb.ndim != 1:
            raise RejectedInput(f"statement embedding must be a vector, got shape {emb.shape}")
        norm = _check_unit(emb, "statement embedding")
        near = np.flatnonzero(self._approx_cosines(emb) >= self.theta_dedup - _SHORTLIST_MARGIN)
        best_id, best_score = None, -2.0
        if len(near):
            near_ids = sorted(self._row_ids[r] for r in near)
            for sid, score in zip(near_ids, self.statement_scores(emb, near_ids)):
                if score > best_score:
                    best_id, best_score = sid, score
        if best_id is not None and best_score >= self.theta_dedup:
            node_id = best_id
        else:
            node_id = f"sem_{self.counters.semantic:04d}"
            self.counters.semantic += 1
            self.semantic[node_id] = SemanticNode(node_id, statement, emb)
            self._add_row(self.semantic[node_id], norm)
        if self._active_edge(object_ref, node_id) is None:
            self._add_edge(Edge(object_ref, node_id, EDGE_SEMANTIC, timestamp, True))
        return node_id

    def add_episodic(
        self,
        object_ref: str,
        *,
        episode_id: str,
        success: bool,
        room_sequence: list[str],
        found_room: str | None,
        rendered_text: str,
        timestamp: int,
    ) -> str:
        """Append an episodic record for object_ref. Episodic nodes are never merged."""
        if object_ref not in self.objects:
            raise NotFound(f"unknown object {object_ref!r}")
        node = EpisodicNode(
            f"epi_{self.counters.episodic:04d}",
            episode_id,
            success,
            list(room_sequence),
            found_room,
            rendered_text,
        )
        self.counters.episodic += 1
        self.episodic[node.node_id] = node
        self._add_edge(Edge(object_ref, node.node_id, EDGE_EPISODIC, timestamp, True))
        return node.node_id

    def supersede(self, object_ref: str, old_id: str, new_id: str, timestamp: int) -> None:
        """Deactivate the active edge object_ref -> old_id and activate one to new_id.

        The old node and edge records stay in the graph as history.
        """
        if new_id not in self.semantic:
            raise NotFound(f"unknown semantic node {new_id!r}")
        old_edge = self._active_edge(object_ref, old_id)
        if old_edge is None or old_edge.kind != EDGE_SEMANTIC:
            raise NotFound(f"no active semantic edge {object_ref!r} -> {old_id!r}")
        self._deactivate(old_edge)
        existing = self._active_edge(object_ref, new_id)
        if existing is not None:
            if existing.timestamp == timestamp:
                return
            self._deactivate(existing)  # keep at most one active edge per pair; old record stays
        self._add_edge(Edge(object_ref, new_id, EDGE_SEMANTIC, timestamp, True))

    # -- queries ----------------------------------------------------------

    def neighbors(self, node_id: str, kind: str | None = None, active_only: bool = True) -> list[tuple[str, int]]:
        """(neighbor id, edge timestamp) pairs, newest edge first, ids ascending on ties.

        For an object node, kind filters the destination ("semantic" / "episodic");
        for a semantic or episodic node the linking objects come back.
        """
        if node_id in self.objects:
            want = {None: None, "semantic": EDGE_SEMANTIC, "episodic": EDGE_EPISODIC}.get(kind, "bad")
            if want == "bad":
                raise RejectedInput(f"unknown neighbor kind {kind!r}")
            rows = [
                (e.dst, e.timestamp)
                for e in self._out.get(node_id, ())
                if (want is None or e.kind == want) and (e.active or not active_only)
            ]
        elif node_id in self.semantic or node_id in self.episodic:
            if kind not in (None, "object"):
                raise RejectedInput(f"reverse queries only yield objects, not {kind!r}")
            rows = [(e.src, e.timestamp) for e in self._in.get(node_id, ()) if e.active or not active_only]
        else:
            raise NotFound(f"unknown node {node_id!r}")
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows

    def shortlist(self, query: np.ndarray, k: int) -> list[str]:
        """Sorted ids of every linked statement that may rank among the k best by cosine to query.

        Only statements with an active linking edge count. The ids come from one
        matrix-vector product and include every statement within
        _SHORTLIST_MARGIN of the k-th best approximate score, so the exact top k
        by `statement_scores` (bit-identical to cosine()) and all of its ties
        are in it.
        """
        rows = np.flatnonzero(self._active_links[: len(self._row_ids)])
        if len(rows) == 0:
            return []
        approx = self._approx_cosines(query)[rows]
        if len(rows) > k:
            cutoff = np.partition(approx, len(rows) - k)[len(rows) - k]
            rows = rows[approx >= cutoff - _SHORTLIST_MARGIN]
        return sorted(self._row_ids[r] for r in rows)

    def statement_scores(self, query: np.ndarray, node_ids: list[str]) -> list[float]:
        """Exact cosine of query against each statement in node_ids, in that order.

        Bit-identical to `cosine(query, embedding)`: the same dot product and
        formula, with the query's norm computed once and each statement's norm
        read from the stored vector instead of recomputed.
        """
        if not node_ids:
            return []
        query = self._as_query(query)
        query_norm = float(np.linalg.norm(query))
        norms, rows, semantic = self._norms, self._rows, self.semantic
        return [
            cosine_from_norms(query, semantic[sid].embedding, query_norm, float(norms[rows[sid]])) for sid in node_ids
        ]

    def _as_query(self, query: np.ndarray) -> np.ndarray:
        """query as float64, with the dimension every stored statement has."""
        query = np.asarray(query, dtype=np.float64)
        if query.shape != self._columns.shape[:1]:
            raise RejectedInput(f"dimension mismatch: {query.shape} vs {self._columns.shape[:1]}")
        return query

    def _approx_cosines(self, query: np.ndarray) -> np.ndarray:
        """Matvec cosine of query against every stored statement; zero norms score 0."""
        n = len(self._row_ids)
        if n == 0:
            return np.zeros(0)
        query = self._as_query(query)
        buckets = np.flatnonzero(query)
        dots = query[buckets] @ self._columns[buckets, :n]
        denom = self._norms[:n] * float(np.linalg.norm(query))
        return np.divide(dots, denom, out=np.zeros(n), where=denom > 0)

    def _active_edge(self, src: str, dst: str) -> Edge | None:
        return self._active.get((src, dst))

    def _add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._index_edge(edge)

    def _index_edge(self, edge: Edge) -> None:
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)
        if edge.active:
            self._active[(edge.src, edge.dst)] = edge
        if edge.kind == EDGE_SEMANTIC:
            self._active_links[self._rows[edge.dst]] += edge.active

    def _deactivate(self, edge: Edge) -> None:
        edge.active = False
        del self._active[(edge.src, edge.dst)]
        if edge.kind == EDGE_SEMANTIC:
            self._active_links[self._rows[edge.dst]] -= 1

    def _add_row(self, node: SemanticNode, norm: float) -> None:
        """Copy node's embedding, whose norm is `norm`, into the next column of the matrix."""
        n = len(self._row_ids)
        if n == 0:
            self._columns = np.zeros((node.embedding.shape[0], 0))
        if n == self._columns.shape[1]:
            self._columns, self._norms, self._active_links = (
                _grown(a, max(_MIN_ROWS, 2 * n)) for a in (self._columns, self._norms, self._active_links)
            )
        self._columns[:, n] = node.embedding
        self._norms[n] = norm
        self._rows[node.node_id] = n
        self._row_ids.append(node.node_id)

    # -- persistence ------------------------------------------------------

    def to_json(self) -> dict:
        nodes = ([index[k] for k in sorted(index)] for index in (self.objects, self.semantic, self.episodic))
        doc = record_to_json(_Snapshot(self.counters, *nodes, self.edges))
        doc["format_version"] = FORMAT_VERSION
        doc["thresholds"] = {"theta_dedup": self.theta_dedup, "theta_obj": self.theta_obj}
        return doc

    def save(self, path: str) -> None:
        dump_json(path, self.to_json())

    @classmethod
    def from_json(cls, doc: dict) -> "MemoryGraph":
        check_version(doc, "graph snapshot")
        try:
            thresholds = doc.get("thresholds", {})
            g = cls(
                theta_dedup=as_float(thresholds.get("theta_dedup", THETA_DEDUP)),
                theta_obj=as_float(thresholds.get("theta_obj", THETA_OBJ)),
            )
            snapshot = record_from_json(_Snapshot, doc)
            g.counters, g.edges = snapshot.counters, snapshot.edges
            g.objects = {n.object_id: n for n in snapshot.object_nodes}
            g.semantic = {n.node_id: n for n in snapshot.semantic_nodes}
            g.episodic = {n.node_id: n for n in snapshot.episodic_nodes}
            for kind, nodes in (("object", g.objects), ("semantic", g.semantic), ("episodic", g.episodic)):
                if len(nodes) != len(getattr(snapshot, f"{kind}_nodes")):
                    raise ValueError(f"two {kind} nodes share an id")
            for node in g.semantic.values():
                g._add_row(node, float(np.linalg.norm(_frozen(node.embedding))))
            _check_units(g._row_ids, g._norms[: len(g._row_ids)], "semantic embedding")
            featured = [n for n in g.objects.values() if n.reference_feature is not None]
            if featured:
                features = np.stack([_frozen(n.reference_feature) for n in featured])  # one dimension per snapshot
                _check_units([n.object_id for n in featured], np.linalg.norm(features, axis=1), "reference_feature")
                g._feature_shape = features.shape[1:]
            g._validate_structure()
        except (*MALFORMED, RejectedInput) as exc:
            raise ParseError(f"malformed graph snapshot: {exc}") from exc
        for edge in g.edges:
            g._index_edge(edge)
        return g

    @classmethod
    def load(cls, path: str) -> "MemoryGraph":
        return cls.from_json(read_json(path))

    def _validate_structure(self) -> None:
        active_pairs = set()
        for e in self.edges:
            if e.src not in self.objects:
                raise ParseError(f"dangling edge source {e.src!r}")
            if e.kind == EDGE_SEMANTIC:
                if e.dst not in self.semantic:
                    raise ParseError(f"dangling edge destination {e.dst!r}")
            elif e.kind == EDGE_EPISODIC:
                if e.dst not in self.episodic:
                    raise ParseError(f"dangling edge destination {e.dst!r}")
            else:
                raise ParseError(f"unknown edge kind {e.kind!r}")
            if e.active:
                if (e.src, e.dst) in active_pairs:
                    raise ParseError(f"multiple active edges for {e.src!r} -> {e.dst!r}")
                active_pairs.add((e.src, e.dst))
