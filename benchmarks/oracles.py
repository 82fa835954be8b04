"""Correctness oracles written apart from polar, run outside the timed phase.

They read the program's artifacts (JSON files, or a graph's node and edge
records) and recompute what the program claims with their own code: a
heap-based Dijkstra over the saved occupancy grid, the SPL formula, report
means, the latest-assignment rule for temporal cues, a brute-force semantic
ranking over a graph snapshot with an FNV-1a hashed encoder of their own,
and the graph invariants. Each check returns a list of problems; empty
means the outputs are correct.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter

import numpy as np

WALL = -1
TOL = 1e-9
GROUNDING_KINDS = ("compositional-single", "distractor", "temporal-context", "temporal-object")
TEMPORAL_KINDS = ("temporal-context", "temporal-object")


# -- navigation metric --------------------------------------------------------


class Grid:
    """Occupancy grid decoded from a world.json file (rows run-length encoded)."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.res = float(doc["resolution"])
        self.cells = []
        for encoded in doc["grid_rows"]:
            row = []
            for count, value in encoded:
                row.extend([value != WALL] * count)
            self.cells.append(row)
        self.ny = len(self.cells)
        self.nx = len(self.cells[0])
        self._fields: dict[tuple[int, int], dict] = {}

    def free(self, ix: int, iy: int) -> bool:
        return 0 <= ix < self.nx and 0 <= iy < self.ny and self.cells[iy][ix]

    def snap(self, pos) -> tuple[int, int]:
        """The cell holding pos when free, else the free cell whose center is nearest
        (first in row-major order on exact ties)."""
        ix, iy = int(pos[0] // self.res), int(pos[1] // self.res)
        if self.free(ix, iy):
            return (ix, iy)
        best, best_d2 = None, math.inf
        for cy in range(self.ny):
            for cx in range(self.nx):
                if self.cells[cy][cx]:
                    d2 = ((cx + 0.5) * self.res - pos[0]) ** 2 + ((cy + 0.5) * self.res - pos[1]) ** 2
                    if d2 < best_d2:
                        best, best_d2 = (cx, cy), d2
        return best

    def distances_from(self, source: tuple[int, int]) -> dict:
        """Meters to every reachable cell: 8-connected, diagonals only across a free 2x2 block."""
        cached = self._fields.get(source)
        if cached is not None:
            return cached
        straight, diagonal = self.res, self.res * math.sqrt(2.0)
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, (x, y) = heapq.heappop(heap)
            if d > dist[(x, y)]:
                continue
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    nx_, ny_ = x + dx, y + dy
                    if not self.free(nx_, ny_):
                        continue
                    if dx and dy:
                        if not (self.free(x + dx, y) and self.free(x, y + dy)):
                            continue
                        nd = d + diagonal
                    else:
                        nd = d + straight
                    if nd < dist.get((nx_, ny_), math.inf):
                        dist[(nx_, ny_)] = nd
                        heapq.heappush(heap, (nd, (nx_, ny_)))
        self._fields[source] = dist
        return dist

    def shortest_m(self, start, goal) -> float:
        return self.distances_from(self.snap(goal)).get(self.snap(start), math.inf)


# -- evaluation reports ---------------------------------------------------------


def latest_assignment(spec: dict) -> str:
    """The newest acquisition script whose fact value equals the evaluation cue."""
    category = spec["eval_instruction"].rsplit(" ", 1)[-1]
    cue = spec["eval_instruction"][len("find my ") : -(len(category) + 1)]
    carriers = [s for s in spec["scripts"] if any(value == cue for _key, value in s["facts"])]
    if not carriers:
        return ""
    return max(carriers, key=lambda s: s["timestamp"])["target_object_id"]


def check_reports(reports: list[dict], specs: dict[str, dict], grid_for_kind) -> list[str]:
    """Row and aggregate checks for every report of one metrics.json file."""
    problems = []
    for report in reports:
        rows = report["rows"]
        where = f"{report['mode']}/{report['kind']}"
        if report["n"] != len(rows):
            problems.append(f"{where}: n={report['n']} but {len(rows)} rows")
            continue
        for row in rows:
            spec = specs.get(row["spec_id"])
            if spec is None:
                problems.append(f"{where}: row for unknown spec {row['spec_id']}")
                continue
            want = grid_for_kind(spec["kind"]).shortest_m(spec["eval_agent_start"], spec["eval_gold_position"])
            got = row["shortest_m"]
            if got is None or abs(got - want) > TOL:
                problems.append(f"{where} {row['spec_id']}: shortest_m {got} != Dijkstra {want}")
                continue
            spl = 0.0 if not row["success"] else (1.0 if max(row["path_m"], got) <= 0 else got / max(row["path_m"], got))
            if abs(row["spl"] - spl) > TOL:
                problems.append(f"{where} {row['spec_id']}: spl {row['spl']} != {spl}")
            if report["mode"] == "polar" and spec["kind"] in GROUNDING_KINDS:
                if row["grounded_object_id"] != spec["gold_object_id"]:
                    problems.append(f"{where} {row['spec_id']}: grounded {row['grounded_object_id']} != gold")
                if spec["kind"] in TEMPORAL_KINDS and row["grounded_object_id"] != latest_assignment(spec):
                    problems.append(f"{where} {row['spec_id']}: grounded object is not the latest assignment")
        n = len(rows)
        for field, column in (("sr", "success"), ("spl", "spl"), ("cm", "cm")):
            mean = sum(r[column] for r in rows) / n if n else None
            if (mean is None) != (report[field] is None) or (mean is not None and abs(report[field] - mean) > TOL):
                problems.append(f"{where}: {field}={report[field]} but the row mean is {mean}")
    return problems


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- memory graph -----------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def hashed_embedding(text: str, dim: int = 256, ngram: int = 3) -> np.ndarray:
    """Signed feature hashing of character trigrams, L2-normalized."""
    lowered = text.lower()
    grams = [lowered] if len(lowered) < ngram else [lowered[i : i + ngram] for i in range(len(lowered) - ngram + 1)]
    vec = np.zeros(dim)
    for gram in grams:
        h = _fnv1a(gram.encode("utf-8"))
        vec[h % dim] += 1.0 if h >> 63 == 0 else -1.0
    return vec / np.linalg.norm(vec)


def brute_force_ranking(graph, query: np.ndarray) -> list[tuple[str, float, int]]:
    """(node id, score, newest active edge) of every semantic node with an active edge,
    best first by dot product, ties broken toward the newer edge, then the smaller id.
    Scores one stored embedding at a time, so the check adds no matrix to the peak RSS."""
    newest: dict[str, int] = {}
    for edge in graph.edges:
        if edge.active and edge.dst in graph.semantic:
            newest[edge.dst] = max(newest.get(edge.dst, -1), edge.timestamp)
    scores = {node_id: float(graph.semantic[node_id].embedding @ query) for node_id in newest}
    ranked = sorted(newest, key=lambda node_id: (-scores[node_id], -newest[node_id], node_id))
    return [(node_id, scores[node_id], newest[node_id]) for node_id in ranked]


def check_hits(hits, ranking: list[tuple[str, float, int]], k: int) -> list[str]:
    """Program hits against the brute-force top k, allowing swaps within exact score ties."""
    expected = ranking[:k]
    scores = {node_id: score for node_id, score, _ts in ranking}
    if len(hits) != len(expected):
        return [f"{len(hits)} hits, brute force has {len(expected)}"]
    problems = []
    for hit, (node_id, score, _ts) in zip(hits, expected):
        if abs(hit.score - score) > TOL:
            problems.append(f"hit {hit.node_id} score {hit.score} != brute force {score}")
        elif hit.node_id != node_id and abs(scores.get(hit.node_id, math.inf) - score) > 1e-12:
            problems.append(f"hit {hit.node_id} where brute force ranks {node_id}")
    return problems


def statement_key(text: str) -> str | None:
    if not text.startswith("user: ") or " = " not in text:
        return None
    return text[len("user: ") :].split(" = ", 1)[0]


def check_graph(graph) -> list[str]:
    """Graph invariants: one active edge per pair and an exact JSON round trip."""
    pairs = Counter((e.src, e.dst) for e in graph.edges if e.active)
    problems = [f"{n} active edges {src} -> {dst}" for (src, dst), n in pairs.items() if n > 1]
    before = json.dumps(graph.to_json(), sort_keys=True)
    after = json.dumps(type(graph).from_json(json.loads(before)).to_json(), sort_keys=True)
    if before != after:
        problems.append("graph snapshot does not round-trip through JSON")
    return problems


def facts_without_statement(graph, latest_facts: dict, theta_dedup: float) -> list[tuple[tuple[str, str], str]]:
    """((object, key), why) for every latest fact that does not have exactly one active
    statement of its key on its object, within theta_dedup of the fact's rendering."""
    active_by_object: dict[str, list[str]] = {}
    for e in graph.edges:
        if e.active and e.dst in graph.semantic:
            active_by_object.setdefault(e.src, []).append(e.dst)
    lost = []
    for (object_id, key), (category, value) in sorted(latest_facts.items()):
        carriers = [n for n in active_by_object.get(object_id, []) if statement_key(graph.semantic[n].statement) == key]
        if len(carriers) != 1:
            lost.append(((object_id, key), f"{len(carriers)} active statements"))
            continue
        rendering = f"user: {key} = {value} refers to {category} {object_id}"
        similarity = float(graph.semantic[carriers[0]].embedding @ hashed_embedding(rendering))
        if similarity < theta_dedup - TOL:
            lost.append(((object_id, key), f"active statement is {similarity:.4f} from the latest value"))
    return lost


def key_collision(graph, object_id: str, key: str, category: str, value: str, timestamp: int,
                  theta_dedup: float) -> set[tuple[str, str]]:
    """Checked right after the fact `key = value` about object_id was memorized at
    timestamp. Empty when the object holds exactly one active statement of the key
    within theta_dedup of the fact's rendering. Otherwise dedup merged the fact into a
    statement of another key, possibly one about another object: returns the fact's
    (object, key) pair and the pair of every other key that the object gained an
    active statement of at timestamp."""
    latest = {(object_id, key): (category, value)}
    if not facts_without_statement(graph, latest, theta_dedup):
        return set()
    gained = {statement_key(graph.semantic[e.dst].statement) for e in graph.edges
              if e.active and e.src == object_id and e.timestamp == timestamp and e.dst in graph.semantic}
    return {(object_id, key)} | {(object_id, k) for k in gained if k is not None}
