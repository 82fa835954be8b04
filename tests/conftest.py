"""Shared fixtures and independent oracles for the test suite."""

import heapq
import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from polar.agent import _turn_toward
from polar.distiller import parse_statement
from polar.encoder import DEFAULT_ENCODER, cosine, encode
from polar.world import HEADINGS, MOVE_FORWARD, STRIDE_M, WALL, World, gen_world, heading_vector


def dijkstra_oracle(grid: np.ndarray, start: tuple[int, int], resolution: float = 0.25) -> dict[tuple[int, int], float]:
    """Plain heapq Dijkstra over an occupancy grid, (ix, iy) cells -> meters.

    8-connected; diagonal moves are allowed only when the full 2x2 block is
    free, so paths never cut wall corners.
    """
    ny, nx = grid.shape
    straight = resolution
    diagonal = resolution * math.sqrt(2.0)

    def free(ix, iy):
        return 0 <= ix < nx and 0 <= iy < ny and grid[iy, ix] != WALL

    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, (ix, iy) = heapq.heappop(heap)
        if d > dist.get((ix, iy), math.inf):
            continue
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (ix + dx, iy + dy)
            if free(*nxt) and d + straight < dist.get(nxt, math.inf):
                dist[nxt] = d + straight
                heapq.heappush(heap, (d + straight, nxt))
        for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            nxt = (ix + dx, iy + dy)
            if (
                free(*nxt)
                and free(ix + dx, iy)
                and free(ix, iy + dy)
                and d + diagonal < dist.get(nxt, math.inf)
            ):
                dist[nxt] = d + diagonal
                heapq.heappush(heap, (d + diagonal, nxt))
    return dist


def unit_vec(dim: int, angle_from_e0: float = 0.0) -> np.ndarray:
    """Unit vector in the e0/e1 plane at a chosen angle: cosine against e0 is cos(angle)."""
    v = np.zeros(dim)
    v[0] = math.cos(angle_from_e0)
    v[1] = math.sin(angle_from_e0)
    return v


def reference_cell(world, pos):
    """The grid label under pos, read from world.grid with bounds from its shape;
    None outside the grid."""
    ny, nx = world.grid.shape
    res = world.resolution
    if not (0.0 <= pos[0] < nx * res and 0.0 <= pos[1] < ny * res):
        return None
    return int(world.grid[int(pos[1] // res), int(pos[0] // res)])


def reference_segment_free(world, p0, p1):
    """Every 0.25 m sample p0 + t*(p1 - p0), t = i/n, lands on a free cell."""
    res = world.resolution
    n = max(1, math.ceil(math.hypot(p1[0] - p0[0], p1[1] - p0[1]) / res - 1e-9))
    for i in range(1, n + 1):
        t = i / n
        label = reference_cell(world, (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])))
        if label is None or label == WALL:
            return False
    return True


def reference_strides(world, pos):
    """Per heading: whether the stride is free, by the grid reference, and the cell of its end."""
    res = world.resolution
    rows = []
    for heading in HEADINGS:
        ux, uy = heading_vector(heading)
        end = (pos[0] + STRIDE_M * ux, pos[1] + STRIDE_M * uy)
        rows.append((reference_segment_free(world, pos, end), (int(end[0] // res), int(end[1] // res))))
    return rows


def reference_descents(world, pos, goal):
    """(field value, heading) per free stride that gets closer, from the scalar strides."""
    dist_field = world.distance_field(goal)
    cx, cy = world.cell_of(pos)
    here = dist_field[cy, cx]
    return [
        (dist_field[iy, ix], heading)
        for heading, (free, (ix, iy)) in zip(HEADINGS, reference_strides(world, pos))
        if free and dist_field[iy, ix] < here - 1e-9
    ]


def reference_turn_count(current: int, target: int) -> int:
    """Turns of TURN_DEG from one heading to another, the short way round."""
    delta = (target - current) % 360
    return min(delta, 360 - delta) // 30


def reference_steer(world, state, goal):
    """The per-heading steering loop over the reference strides."""
    best = None
    for value, heading in reference_descents(world, state.position, goal):
        key = (value, reference_turn_count(state.heading, heading), heading)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    if best[2] == state.heading:
        return MOVE_FORWARD
    return _turn_toward(state.heading, best[2])


def reference_ground(instruction, context, reader, encoder_config=DEFAULT_ENCODER):
    """Statement-similarity grounding that encodes every candidate statement again
    instead of reading the cosines retrieval stored: (chosen id, prior room, rationale).

    A candidate scores the summed cosine of its own statements plus, once each, the
    hit score of every foreign retrieved statement sharing one of its value tokens;
    ties go to the newest statement edge, then the smallest object id. The prior room
    is the first room `reader` finds in the winner's renderings, newest first."""
    query = encode(instruction, encoder_config)
    node_texts = {s.node_id: s.text for cand in context.candidates for s in cand.statements}
    scored = []
    for cand in context.candidates:
        own_nodes, own_values, score, latest = set(), set(), 0.0, -1
        for statement in cand.statements:
            own_nodes.add(statement.node_id)
            latest = max(latest, statement.timestamp)
            score += cosine(query, encode(statement.text, encoder_config))
            parsed = parse_statement(statement.text)
            if parsed and parsed[1]:
                own_values.update(parsed[1].lower().split())
        for hit in context.hits:
            if hit.node_id in own_nodes:
                continue
            parsed = parse_statement(node_texts[hit.node_id]) if hit.node_id in node_texts else None
            if parsed and set(parsed[1].lower().split()) & own_values:
                score += hit.score
        scored.append((-score, -latest, cand.object_id, cand, score))
    scored.sort(key=lambda row: row[:3])
    _, _, _, best, score = scored[0]
    rationale = f"statement-similarity score {score:.6f} over {len(context.candidates)} candidates"
    prior = None
    for rendering in best.episodic_memories:
        prior = reader(rendering)
        if prior is not None:
            break
    return best.object_id, prior, rationale


@pytest.fixture(scope="session")
def small_world() -> World:
    return gen_world(0, 5, [("mug", 2), ("vase", 1)])


# -- stub JSON-over-POST service -------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with the canned (status, body) of its path; status None
    writes the body as raw bytes with no HTTP status line."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests.append((self.path, json.loads(body)))
        status, reply = self.server.replies.get(self.path, (404, b""))
        if status is not None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


class StubService:
    def __init__(self, server: HTTPServer):
        self.server = server

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.server.server_port}{path}"

    def reply(self, path: str, body=None, status: int | None = 200) -> str:
        """Serve body (JSON-encoded unless bytes) at path; returns the path's URL."""
        raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.server.replies[path] = (status, raw)
        return self.url(path)

    @property
    def requests(self) -> list[tuple[str, object]]:
        return self.server.requests


@pytest.fixture(scope="session")
def _stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def stub(_stub_server) -> StubService:
    """One in-process HTTP server on 127.0.0.1, its canned replies reset per test."""
    _stub_server.replies = {}
    _stub_server.requests = []
    return StubService(_stub_server)


@pytest.fixture
def refused_url() -> str:
    """A localhost URL on a port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/"


@pytest.fixture
def silent_url():
    """A localhost URL whose listener accepts connections but never answers."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/"
