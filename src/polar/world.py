"""Deterministic 2D house world on a 0.25 m occupancy grid.

Rooms are axis-aligned rectangles hung off a 2 m corridor spine, each with
a 1 m doorway to the corridor; consecutive rooms on the same side also get
a 1 m connecting doorway, so the scene graph is richer than a pure star.
The agent moves in 1.0 m strides along headings that are multiples of 30
degrees (0 = +y, clockwise positive, so heading 90 = +x) and observes
front/left/right views: a +-45 degree cone, 5.0 m range, occlusion by wall
cells via grid ray casting. Worlds are immutable after generation; moving
an object between evaluation stages returns a new World sharing the grid
and navigation caches, as do the cached worlds of one house. A turn leaves
the position unchanged, so it reuses that position's sightings and stride
descents and only reruns the view cones; a move along a stride that descents
found free is not tested again. A per-grid stride table vouches for the
strides whose every sample lies in free cells, so those skip the segment test
too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .errors import GenerationError, ParseError, RejectedInput
from .fileio import FORMAT_VERSION, MALFORMED, as_float, check_version, dump_json, read_json
from .fileio import record_from_json, record_to_json

RESOLUTION = 0.25
STRIDE_M = 1.0
TURN_DEG = 30
VISIBILITY_RANGE_M = 5.0
VISIBILITY_HALF_ANGLE_DEG = 45.0
FEATURE_DIM = 32
WALL = -1
MAX_ROOMS = 12  # render_ascii has one symbol per room

ACTION_START = "START"  # pseudo-action tagging the spawn entry of a trajectory
MOVE_FORWARD = "MOVE_FORWARD"
TURN_LEFT = "TURN_LEFT"
TURN_RIGHT = "TURN_RIGHT"
STOP = "STOP"
LOW_LEVEL_ACTIONS = (MOVE_FORWARD, TURN_LEFT, TURN_RIGHT, STOP)

_HALF_SQRT3 = math.sqrt(3.0) / 2.0
# Exact direction table keeps strides bit-identical across platforms (no libm trig).
_HEADING_VECTORS = {
    0: (0.0, 1.0),
    30: (0.5, _HALF_SQRT3),
    60: (_HALF_SQRT3, 0.5),
    90: (1.0, 0.0),
    120: (_HALF_SQRT3, -0.5),
    150: (0.5, -_HALF_SQRT3),
    180: (0.0, -1.0),
    210: (-0.5, -_HALF_SQRT3),
    240: (-_HALF_SQRT3, -0.5),
    270: (-1.0, 0.0),
    300: (-_HALF_SQRT3, 0.5),
    330: (-0.5, _HALF_SQRT3),
}
HEADINGS = tuple(sorted(_HEADING_VECTORS))

_ROOM_NAME_POOL = (
    "kitchen",
    "living_room",
    "bedroom",
    "bathroom",
    "office",
    "dining_room",
    "study",
    "laundry_room",
    "pantry",
    "nursery",
    "garage",
)

_EPS = 1e-9
_IN_RANGE = VISIBILITY_RANGE_M + _EPS  # an object is in view range up to this distance
# (heading, dx, dy) of each STRIDE_M stride, in HEADINGS order
_STRIDES = tuple((h, STRIDE_M * _HEADING_VECTORS[h][0], STRIDE_M * _HEADING_VECTORS[h][1]) for h in HEADINGS)


def heading_vector(heading: int) -> tuple[float, float]:
    try:
        return _HEADING_VECTORS[heading % 360]
    except KeyError:
        raise RejectedInput(f"heading must be a multiple of 30, got {heading}") from None


def check_heading(heading: int) -> None:
    """RejectedInput unless heading is one of HEADINGS, the multiples of TURN_DEG in
    [0, 330]: a start facing any other heading never turns onto a stride."""
    if heading not in _HEADING_VECTORS:
        raise RejectedInput(f"heading {heading} is not a multiple of {TURN_DEG} in [0, 330]")


def bearing_deg(from_pos: tuple[float, float], to_pos: tuple[float, float]) -> float:
    """Compass bearing (0 = +y, clockwise) from one position to another."""
    dx = to_pos[0] - from_pos[0]
    dy = to_pos[1] - from_pos[1]
    return math.degrees(math.atan2(dx, dy)) % 360.0


def angle_diff_deg(a: float, b: float) -> float:
    """Smallest absolute difference between two angles in degrees."""
    return abs(((a - b) + 180.0) % 360.0 - 180.0)


@dataclass
class ObjectInstance:
    object_id: str
    category: str
    position: tuple[float, float]
    feature: np.ndarray | None = None


@dataclass
class AgentState:
    position: tuple[float, float]
    heading: int
    steps_taken: int = 0


@dataclass
class Observation:
    """What each 90-degree view sees: (object_id, category, distance m) rows
    sorted by distance, then id."""

    front: list[tuple[str, str, float]]
    left: list[tuple[str, str, float]]
    right: list[tuple[str, str, float]]
    blocked: bool = False

    @property
    def views(self) -> tuple[list, list, list]:
        return (self.front, self.left, self.right)

    def find(self, object_id: str) -> float | None:
        """Distance to object_id if visible in any view, else None."""
        best = None
        for view in self.views:
            for oid, _cat, dist in view:
                if oid == object_id and (best is None or dist < best):
                    best = dist
        return best


@dataclass
class SceneGraph:
    """Room adjacency. Neighbour lists and each source room's breadth-first tree
    are built once, so a scene graph must not change after construction."""

    rooms: list[str]
    edges: list[tuple[str, str]]
    waypoints: dict[str, tuple[float, float]]
    _adjacency: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _trees: dict[str, tuple[dict[str, str], dict[str, int]]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        adjacency: dict[str, list[str]] = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        self._adjacency = {room: sorted(out) for room, out in adjacency.items()}

    def neighbors(self, room: str) -> list[str]:
        return list(self._adjacency.get(room, ()))

    def _tree(self, src: str, dst: str) -> tuple[dict[str, str], dict[str, int]]:
        """(predecessor, hops) of every room reachable from src, visiting neighbours
        in sorted order; src and dst must both be rooms."""
        if src not in self.waypoints or dst not in self.waypoints:
            raise RejectedInput(f"unknown room {src!r} or {dst!r}")
        tree = self._trees.get(src)
        if tree is None:
            prev = {src: src}
            hops = {src: 0}
            queue = [src]
            for here in queue:
                for nxt in self._adjacency.get(here, ()):
                    if nxt not in prev:
                        prev[nxt] = here
                        hops[nxt] = hops[here] + 1
                        queue.append(nxt)
            tree = self._trees[src] = (prev, hops)
        return tree

    def bfs_path(self, src: str, dst: str) -> list[str] | None:
        """Rooms to traverse after src, ending at dst; [] when src == dst."""
        prev = self._tree(src, dst)[0]
        if dst not in prev:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path[-2::-1]

    def hop_distance(self, src: str, dst: str) -> int:
        return self._tree(src, dst)[1].get(dst, len(self.rooms) + 1)


class _NavCache:
    """Shared per-grid navigation state: sparse 8-connected graph, distance fields,
    the scene graph, room centres and the stride table. All of it is fixed by the
    grid, the room names and the resolution, so Worlds that agree on those share one.

    The graph holds both directions of every edge, so each Dijkstra call runs
    directed and scipy converts nothing per field. Each cached distance field is
    kept with a flat read-only memoryview of the same buffer (index iy * nx + ix),
    so scalar readers (`descents`, `shortest_path_length`) get Python floats
    without numpy indexing. The view is no copy, and it is cached and evicted
    together with its field.

    The stride table (`free_strides`) holds one `bytes` per `_STRIDES` heading,
    one byte per cell, built on first use and shared by moved copies. A byte is 1
    when every cell that meets the box spanned by the cell and its copy moved by
    the stride (dx, dy), grown by 1e-6 m along each axis the stride moves on, lies
    inside the grid and is free. That box holds every sample `segment_free` tests
    for the stride from any point (x, y) of the cell, so a byte of 1 means the
    stride is free; a 0 says nothing, and the caller tests the segment. Rounding
    is monotone: along an axis with dx >= 0 each sample x + t * (end - x) is at
    least x (exactly x when dx is 0), and at most the end, which is x + dx to
    within about 1e-14 m; an axis with dx <= 0 mirrors that.
    """

    _MAX_FIELDS = 64

    def __init__(self, grid: np.ndarray, room_names: list[str], resolution: float):
        self.grid = grid
        self.room_names = room_names  # the scene graph and room centres name rooms by these
        self.res = resolution
        ny, nx = grid.shape
        self.shape = (ny, nx)
        free = grid != WALL
        idx = np.arange(ny * nx).reshape(ny, nx)
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        straight = resolution
        diagonal = resolution * math.sqrt(2.0)
        m = free[:, :-1] & free[:, 1:]
        rows.append(idx[:, :-1][m])
        cols.append(idx[:, 1:][m])
        data.append(np.full(int(m.sum()), straight))
        m = free[:-1, :] & free[1:, :]
        rows.append(idx[:-1, :][m])
        cols.append(idx[1:, :][m])
        data.append(np.full(int(m.sum()), straight))
        # diagonals only when the full 2x2 block is free: no cutting wall corners
        block = free[:-1, :-1] & free[:-1, 1:] & free[1:, :-1] & free[1:, 1:]
        rows.append(idx[:-1, :-1][block])
        cols.append(idx[1:, 1:][block])
        data.append(np.full(int(block.sum()), diagonal))
        rows.append(idx[:-1, 1:][block])
        cols.append(idx[1:, :-1][block])
        data.append(np.full(int(block.sum()), diagonal))
        n = ny * nx
        rows, cols, data = np.concatenate(rows), np.concatenate(cols), np.concatenate(data)
        self.csr = coo_matrix(
            (np.concatenate((data, data)), (np.concatenate((rows, cols)), np.concatenate((cols, rows)))), shape=(n, n)
        ).tocsr()
        self.free = free
        free_cells = np.argwhere(free)  # (iy, ix)
        self.free_centers = (free_cells[:, ::-1] + 0.5) * resolution  # (x, y)
        self.free_cells = free_cells
        self.fields: dict[tuple[int, int], tuple[np.ndarray, memoryview]] = {}  # goal cell -> (field, flat view)
        self.scene_graph: SceneGraph | None = None
        # plain lists and floats: every scalar cell read (is_free, room_of,
        # segment_free, line_of_sight) goes through rows and bounds
        self.rows = grid.tolist()
        self.bounds = (nx * resolution, ny * resolution)  # (w, h) in meters
        self.last_descents: tuple[tuple, tuple] | None = None  # last ((x, y, goal cell), descents)
        self.room_centers: dict[tuple[str, int], np.ndarray] = {}  # (room, margin) -> read-only centers
        self._free_strides: tuple[bytes, ...] | None = None

    def free_strides(self) -> tuple[bytes, ...]:
        """The stride table: per `_STRIDES` heading, byte iy * nx + ix is 1 when the
        stride from any point of cell (ix, iy) is free (see the class docstring)."""
        if self._free_strides is None:
            ny, nx = self.shape
            walls = np.zeros((ny + 1, nx + 1), dtype=np.int32)  # walls[j, i]: wall cells with iy < j, ix < i
            walls[1:, 1:] = np.cumsum(np.cumsum(~self.free, axis=0, dtype=np.int32), axis=1)
            tables = []
            for _heading, dx, dy in _STRIDES:
                x0, x1, x_in = self._box_cells(nx, dx)
                y0, y1, y_in = self._box_cells(ny, dy)
                box_walls = walls[y1][:, x1] - walls[y0][:, x1] - walls[y1][:, x0] + walls[y0][:, x0]
                tables.append(((box_walls == 0) & y_in[:, None] & x_in[None, :]).astype(np.uint8).tobytes())
            self._free_strides = tuple(tables)
        return self._free_strides

    def vouches(self, pos: tuple[float, float], heading: int) -> bool:
        """True when the stride table says the STRIDE_M stride from pos along heading
        (a multiple of TURN_DEG) is free; False outside the grid."""
        x, y = pos
        w, h = self.bounds
        if not (0.0 <= x < w and 0.0 <= y < h):
            return False
        return self.free_strides()[heading % 360 // TURN_DEG][int(y // self.res) * self.shape[1] + int(x // self.res)] == 1

    def _box_cells(self, n: int, d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Along one axis of n cells, for each cell i: the first cell and one past the
        last cell that meet [i * res + min(0, d), (i + 1) * res + max(0, d)] grown by
        1e-6 m on the side d moves to (both clipped into the grid), and whether that
        span lies inside the grid. Samples never pass the start on the other side."""
        i = np.arange(n)
        first = np.floor((i * self.res + d - 1e-6) / self.res).astype(np.intp) if d < 0 else i
        last = np.floor(((i + 1) * self.res + d + 1e-6) / self.res).astype(np.intp) if d > 0 else i
        return np.clip(first, 0, n - 1), np.clip(last, 0, n - 1) + 1, (first >= 0) & (last < n)

    def field(self, cell: tuple[int, int]) -> np.ndarray:
        """Meters from the goal cell (ix, iy) to every cell, as an ny x nx array."""
        return (self.fields.get(cell) or self._add_field(cell))[0]

    def flat_field(self, cell: tuple[int, int]) -> memoryview:
        """field(cell) as a flat read-only view: index iy * nx + ix reads a Python float."""
        return (self.fields.get(cell) or self._add_field(cell))[1]

    def _add_field(self, cell: tuple[int, int]) -> tuple[np.ndarray, memoryview]:
        ix, iy = cell
        dist = _csgraph_dijkstra(self.csr, directed=True, indices=iy * self.shape[1] + ix)
        if len(self.fields) >= self._MAX_FIELDS:
            self.fields.pop(next(iter(self.fields)))
        entry = self.fields[cell] = (dist.reshape(self.shape), memoryview(dist).toreadonly())
        return entry

    def snap(self, pos: tuple[float, float]) -> tuple[int, int]:
        """Nearest free cell (ix, iy) to a position."""
        ix = int(pos[0] // self.res)
        iy = int(pos[1] // self.res)
        if 0 <= iy < self.shape[0] and 0 <= ix < self.shape[1] and self.rows[iy][ix] != WALL:
            return (ix, iy)
        d2 = (self.free_centers[:, 0] - pos[0]) ** 2 + (self.free_centers[:, 1] - pos[1]) ** 2
        best = int(np.argmin(d2))
        iy, ix = self.free_cells[best]
        return (int(ix), int(iy))


_WORLD_CACHE: dict[tuple, "World"] = {}


def cached_world(seed: int, n_rooms: int, objects_spec: list[tuple[str, int]]) -> "World":
    """gen_world, built once per distinct request. A World's grid and objects never change,
    so scenario generation, acquisition and evaluation of one suite all share one World.
    The house is drawn before the objects, so the worlds of one seed and room count share
    their grid, and with it one nav cache (see gen_world)."""
    key = (seed, n_rooms, tuple(tuple(row) for row in objects_spec))
    world = _WORLD_CACHE.get(key)
    if world is None:
        if len(_WORLD_CACHE) >= 16:
            _WORLD_CACHE.clear()
        twin = next((w for (s, n, _objects), w in _WORLD_CACHE.items() if (s, n) == (seed, n_rooms)), None)
        world = _WORLD_CACHE[key] = gen_world(seed, n_rooms, list(key[2]), twin and twin._nav)
    return world


class World:
    """Occupancy-grid world whose grid, rooms and objects never change; cells hold a
    room index or WALL. Reads fill two last-key caches, so a World is not for
    concurrent use. Each caches only what its key and owner fix, so a hit equals a
    recomputation: `_sightings`, the in-range objects of the last observed
    (position, watch set) (fixed by those and this World's objects), and the
    grid-shared `_NavCache.last_descents`, the strides from the last position that
    descend to the last goal cell (fixed by those and the grid, which moved copies
    and the cached worlds of one house share). Every descending stride is a free
    one, so `step` moves along it without testing it again, as it does along a
    stride the nav cache's stride table vouches for. A watch set limits sightings
    to the objects a policy reads; without one, `observe` sees every object. Scalar
    distance reads (`descents`, `shortest_path_length`) go through the nav cache's
    flat field views, one Python float per read."""

    def __init__(
        self,
        grid: np.ndarray,
        room_names: list[str],
        objects: list[ObjectInstance],
        resolution: float = RESOLUTION,
        _nav: _NavCache | None = None,
    ):
        grid = np.asarray(grid, dtype=np.int16)
        grid.setflags(write=False)
        self.grid = grid
        self.room_names = list(room_names)
        self.objects: dict[str, ObjectInstance] = {}
        for obj in objects:
            if obj.object_id in self.objects:
                raise RejectedInput(f"duplicate object id {obj.object_id!r}")
            self.objects[obj.object_id] = obj
        self.resolution = resolution
        self._nav = _nav if _nav is not None else _NavCache(grid, self.room_names, resolution)
        self._sightings: tuple[tuple, list] | None = None  # last observed (x, y, watch), its sightings

    # -- geometry ----------------------------------------------------------

    @property
    def bounds_m(self) -> tuple[float, float]:
        return self._nav.bounds

    def cell_of(self, pos: tuple[float, float]) -> tuple[int, int]:
        return (int(pos[0] // self.resolution), int(pos[1] // self.resolution))

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        return ((cell[0] + 0.5) * self.resolution, (cell[1] + 0.5) * self.resolution)

    def in_bounds(self, pos: tuple[float, float]) -> bool:
        w, h = self._nav.bounds
        return 0.0 <= pos[0] < w and 0.0 <= pos[1] < h

    def is_free(self, pos: tuple[float, float]) -> bool:
        if not self.in_bounds(pos):
            return False
        ix, iy = self.cell_of(pos)
        return self._nav.rows[iy][ix] != WALL

    def room_of(self, pos: tuple[float, float]) -> str | None:
        if not self.in_bounds(pos):
            return None
        ix, iy = self.cell_of(pos)
        label = self._nav.rows[iy][ix]
        return None if label == WALL else self.room_names[label]

    def segment_free(self, p0: tuple[float, float], p1: tuple[float, float]) -> bool:
        # every 0.25 m sample along the segment must land in free space; the
        # is_free test is inlined because descents calls this 12 times per position
        res = self.resolution
        w, h = self._nav.bounds
        rows = self._nav.rows
        dx = p1[0] - p0[0]
        dy = p1[1] - p0[1]
        n = max(1, math.ceil(math.hypot(dx, dy) / res - _EPS))
        for i in range(1, n + 1):
            t = i / n
            x = p0[0] + t * dx
            y = p0[1] + t * dy
            if not (0.0 <= x < w and 0.0 <= y < h) or rows[int(y // res)][int(x // res)] == WALL:
                return False
        return True

    def line_of_sight(self, a: tuple[float, float], b: tuple[float, float]) -> bool:
        """True when no wall cell lies on the straight segment a -> b (grid traversal)."""
        if not (self.in_bounds(a) and self.in_bounds(b)):
            return False
        grid = self._nav.rows
        ix, iy = self.cell_of(a)
        tx, ty = self.cell_of(b)
        if grid[iy][ix] == WALL or grid[ty][tx] == WALL:
            return False
        dx = b[0] - a[0]
        dy = b[1] - a[1]
        step_x = 1 if dx > 0 else (-1 if dx < 0 else 0)
        step_y = 1 if dy > 0 else (-1 if dy < 0 else 0)
        res = self.resolution
        t_max_x = ((ix + (step_x > 0)) * res - a[0]) / dx if step_x else math.inf
        t_delta_x = res / abs(dx) if step_x else math.inf
        t_max_y = ((iy + (step_y > 0)) * res - a[1]) / dy if step_y else math.inf
        t_delta_y = res / abs(dy) if step_y else math.inf
        guard = abs(tx - ix) + abs(ty - iy) + 4
        while (ix, iy) != (tx, ty) and guard > 0:
            guard -= 1
            if abs(t_max_x - t_max_y) < 1e-12:
                # exact corner crossing: blocked if both flanking cells are walls
                if grid[iy][ix + step_x] == WALL and grid[iy + step_y][ix] == WALL:
                    return False
                ix += step_x
                iy += step_y
                t_max_x += t_delta_x
                t_max_y += t_delta_y
            elif t_max_x < t_max_y:
                ix += step_x
                t_max_x += t_delta_x
            else:
                iy += step_y
                t_max_y += t_delta_y
            if grid[iy][ix] == WALL:
                return False
        return True

    # -- dynamics ----------------------------------------------------------

    def step(
        self, state: AgentState, action: str, watch: frozenset[str] | None = None
    ) -> tuple[AgentState, "Observation", bool]:
        """Apply one low-level action; returns (new state, observation of watch, done).

        A forward stride skips the segment test when `descents` found it free from
        this position or its stride-table byte is 1: every sample `segment_free` would
        test lies in a box of free cells (see `_NavCache`), so the move is the one the
        test gives."""
        if action not in LOW_LEVEL_ACTIONS:
            raise RejectedInput(f"unknown action {action!r}")
        position = state.position
        heading = state.heading
        blocked = False
        done = False
        if action == MOVE_FORWARD:
            ux, uy = heading_vector(heading)
            target = (position[0] + STRIDE_M * ux, position[1] + STRIDE_M * uy)
            last = self._nav.last_descents
            descended = (
                last is not None
                and last[0][0] == position[0]
                and last[0][1] == position[1]
                and any(h == heading for _value, h in last[1])
            )
            if descended or self._nav.vouches(position, heading) or self.segment_free(position, target):
                position = target
            else:
                blocked = True
        elif action == TURN_LEFT:
            heading = (heading - TURN_DEG) % 360
        elif action == TURN_RIGHT:
            heading = (heading + TURN_DEG) % 360
        else:
            done = True
        new_state = AgentState(position, heading, state.steps_taken + 1)
        return new_state, self.observe(new_state, blocked=blocked, watch=watch), done

    def observe(self, state: AgentState, blocked: bool = False, watch: frozenset[str] | None = None) -> Observation:
        """The three views from state, of the objects in watch, or of every object
        when watch is None."""
        pos = state.position
        key = (pos[0], pos[1], watch)
        if self._sightings is None or self._sightings[0] != key:
            # per in-range object: [row, position, bearing (None when on top of it), line of sight]
            sightings: list[list] = []
            for obj in self.objects.values():  # in object order, which category lock-on reads
                if watch is not None and obj.object_id not in watch:
                    continue
                dx = obj.position[0] - pos[0]
                dy = obj.position[1] - pos[1]
                dist = math.hypot(dx, dy)
                # the range test is numpy's hypot: math.hypot differs from it in the last
                # bit for some offsets, so numpy decides within 1e-6 m of the bound
                if dist <= _IN_RANGE - 1e-6 or (dist <= _IN_RANGE + 1e-6 and np.hypot(dx, dy) <= _IN_RANGE):
                    bearing = None if dist < _EPS else bearing_deg(pos, obj.position)
                    sightings.append([(obj.object_id, obj.category, dist), obj.position, bearing, None])
            self._sightings = (key, sightings)
        sightings = self._sightings[1]
        visible: list[list[tuple[str, str, float]]] = [[], [], []]
        if not sightings:
            return Observation(*visible, blocked)
        view_headings = [(state.heading + offset) % 360 for offset in (0, -90, 90)]
        for sighting in sightings:
            row, position, bearing, clear = sighting
            if bearing is None:
                visible[0].append(row)  # on top of the object: front view only
                continue
            in_cone = [
                k
                for k, view_heading in enumerate(view_headings)
                if angle_diff_deg(bearing, view_heading) <= VISIBILITY_HALF_ANGLE_DEG + _EPS
            ]
            if not in_cone:
                continue
            if clear is None:  # traced the first time the object falls in a view cone
                clear = sighting[3] = self.line_of_sight(pos, position)
            if clear:
                for k in in_cone:
                    visible[k].append(row)
        for rows in visible:
            if len(rows) > 1:
                rows.sort(key=lambda row: (row[2], row[0]))
        return Observation(*visible, blocked)

    # -- navigation metric ---------------------------------------------------

    def _goal_cell(self, goal: tuple[float, float]) -> tuple[int, int]:
        if not self.in_bounds(goal):
            raise RejectedInput(f"goal {goal} outside world bounds {self.bounds_m}")
        return self._nav.snap(goal)

    def distance_field(self, goal: tuple[float, float]) -> np.ndarray:
        """Meters-to-goal per cell (inf where unreachable); cached per goal cell."""
        return self._nav.field(self._goal_cell(goal))

    def descents(self, pos: tuple[float, float], goal: tuple[float, float]) -> tuple[tuple[float, int], ...]:
        """(distance-field value, heading) of every free STRIDE_M stride from pos that
        ends closer to goal, in HEADINGS order; pos must lie inside the grid.

        The last (pos, goal cell) is cached on the grid's shared nav cache, so turns
        in place while steering reuse it, and `step` moves along its strides untested.
        A stride whose stride-table byte is 1 is free without a segment test: every
        sample of it lies in a box of free cells (see `_NavCache`), so the answer is
        the one `segment_free` gives.
        """
        nav = self._nav
        cell = self._goal_cell(goal)
        key = (pos[0], pos[1], cell)
        if nav.last_descents is None or nav.last_descents[0] != key:
            x, y = pos
            w, h = nav.bounds
            if not (0.0 <= x < w and 0.0 <= y < h):
                raise RejectedInput(f"position {pos} outside world bounds {nav.bounds}")
            flat = nav.flat_field(cell)
            res = self.resolution
            nx = nav.shape[1]
            here = int(y // res) * nx + int(x // res)
            limit = flat[here] - _EPS
            found = []
            for (heading, dx, dy), free in zip(_STRIDES, nav.free_strides()):
                ex = x + dx  # the end as step moves
                ey = y + dy
                vouched = free[here]  # a vouched stride is free, and its end lies inside the grid
                # a stride that ends outside the grid is never free: its last sample is its
                # end up to rounding, outside or on the grid's ring of wall cells
                if vouched or (0.0 <= ex < w and 0.0 <= ey < h):
                    # the field read is cheaper than the segment test, so it goes first
                    value = flat[int(ey // res) * nx + int(ex // res)]
                    if value < limit and (vouched or self.segment_free(pos, (ex, ey))):
                        found.append((value, heading))
            nav.last_descents = (key, tuple(found))
        return nav.last_descents[1]

    def shortest_path_length(self, start: tuple[float, float], goal: tuple[float, float]) -> float:
        """8-connected grid distance in meters between the nearest free cells."""
        if not self.in_bounds(start):
            raise RejectedInput(f"start {start} outside world bounds {self.bounds_m}")
        nav = self._nav
        ix, iy = nav.snap(start)
        return nav.flat_field(self._goal_cell(goal))[iy * nav.shape[1] + ix]

    # -- scene graph ---------------------------------------------------------

    def build_scene_graph(self) -> SceneGraph:
        if self._nav.scene_graph is not None:
            return self._nav.scene_graph
        grid = self.grid
        edges: set[tuple[str, str]] = set()
        a, b = grid[:, :-1], grid[:, 1:]
        mask = (a != WALL) & (b != WALL) & (a != b)
        for la, lb in zip(a[mask].tolist(), b[mask].tolist()):
            edges.add(tuple(sorted((self.room_names[la], self.room_names[lb]))))
        a, b = grid[:-1, :], grid[1:, :]
        mask = (a != WALL) & (b != WALL) & (a != b)
        for la, lb in zip(a[mask].tolist(), b[mask].tolist()):
            edges.add(tuple(sorted((self.room_names[la], self.room_names[lb]))))
        waypoints = {}
        for label, name in enumerate(self.room_names):
            cells = np.argwhere(grid == label)  # (iy, ix)
            if cells.size == 0:
                raise GenerationError(f"room {name!r} has no free cells")
            centers = (cells[:, ::-1] + 0.5) * self.resolution
            centroid = centers.mean(axis=0)
            d2 = ((centers - centroid) ** 2).sum(axis=1)
            order = np.lexsort((cells[:, 1], cells[:, 0], d2))
            best = centers[order[0]]
            waypoints[name] = (float(best[0]), float(best[1]))
        graph = SceneGraph(list(self.room_names), sorted(edges), waypoints)
        self._nav.scene_graph = graph
        return graph

    # -- object relocation ---------------------------------------------------

    def move_object(self, object_id: str, new_position: tuple[float, float]) -> "World":
        """New World with one object relocated; grid and caches are shared."""
        if object_id not in self.objects:
            raise RejectedInput(f"unknown object {object_id!r}")
        if not self.is_free(new_position):
            raise RejectedInput(f"target position {new_position} is not free space")
        objects = [
            replace(obj, position=new_position) if obj.object_id == object_id else obj
            for obj in self.objects.values()
        ]
        return World(self.grid, self.room_names, objects, self.resolution, _nav=self._nav)

    # -- room queries ----------------------------------------------------------

    def room_cells(self, room: str, margin: int = 0) -> list[tuple[int, int]]:
        """Free cells (ix, iy) of a room, optionally eroded margin cells from any wall."""
        if room not in self.room_names:
            raise RejectedInput(f"unknown room {room!r}")
        label = self.room_names.index(room)
        mask = self.grid == label
        if margin:
            free = self.grid != WALL
            eroded = free.copy()
            for _ in range(margin):
                inner = eroded.copy()
                inner[1:, :] &= eroded[:-1, :]
                inner[:-1, :] &= eroded[1:, :]
                inner[:, 1:] &= eroded[:, :-1]
                inner[:, :-1] &= eroded[:, 1:]
                inner[0, :] = inner[-1, :] = False
                inner[:, 0] = inner[:, -1] = False
                eroded = inner
            mask = mask & eroded
        iy, ix = np.nonzero(mask)
        return list(zip(ix.tolist(), iy.tolist()))

    def room_centers(self, room: str, margin: int = 0) -> np.ndarray:
        """Centers (x, y) of room_cells(room, margin), sorted by x, then y: computed
        once per grid, room and margin, and read-only."""
        centers = self._nav.room_centers.get((room, margin))
        if centers is None:
            cells = np.array(self.room_cells(room, margin), dtype=np.intp).reshape(-1, 2)
            cells = cells[np.lexsort((cells[:, 1], cells[:, 0]))]
            centers = (cells + 0.5) * self.resolution
            centers.setflags(write=False)
            self._nav.room_centers[(room, margin)] = centers
        return centers

    # -- persistence -----------------------------------------------------------

    def to_json(self) -> dict:
        rows = []
        for row in self.grid:
            encoded: list[list[int]] = []
            for value in row.tolist():
                if encoded and encoded[-1][1] == value:
                    encoded[-1][0] += 1
                else:
                    encoded.append([1, value])
            rows.append(encoded)
        return {
            "format_version": FORMAT_VERSION,
            "resolution": self.resolution,
            "room_names": self.room_names,
            "grid_rows": rows,
            "objects": [record_to_json(o) for o in self.objects.values()],
        }

    def save(self, path: str) -> None:
        dump_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "World":
        return cls.from_json(read_json(path))

    @classmethod
    def from_json(cls, doc: dict) -> "World":
        check_version(doc, "world")
        try:
            room_names = record_from_json(list[str], doc["room_names"])
            rows = []
            width = None
            for encoded in record_from_json(list[list[tuple[int, int]]], doc["grid_rows"]):
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
            objects = record_from_json(list[ObjectInstance], doc["objects"])
            if len(room_names) > MAX_ROOMS:
                raise ParseError(f"at most {MAX_ROOMS} rooms are supported, got {len(room_names)}")
            if grid.ndim != 2 or grid.size == 0:
                raise ParseError("world grid is empty")
            if (grid[[0, -1], :] != WALL).any() or (grid[:, [0, -1]] != WALL).any():
                raise ParseError("world grid must be enclosed by a ring of wall cells")
            world = cls(grid, room_names, objects, as_float(doc.get("resolution", RESOLUTION)))
        except (*MALFORMED, RejectedInput) as exc:
            raise ParseError(f"malformed world file: {exc}") from exc
        for obj in objects:
            if not world.is_free(obj.position):
                raise ParseError(f"object {obj.object_id!r} at {obj.position} is not on a free cell")
        return world

    def render_ascii(self) -> str:
        """Debug map, top row = max y. Rooms a..l, walls '#', objects '*'."""
        symbols = "abcdefghijkl"
        ny, nx = self.grid.shape
        canvas = [["#" if self.grid[iy, ix] == WALL else symbols[self.grid[iy, ix]] for ix in range(nx)] for iy in range(ny)]
        for obj in self.objects.values():
            ix, iy = self.cell_of(obj.position)
            canvas[iy][ix] = "*"
        lines = ["".join(row) for row in reversed(canvas)]
        legend = ", ".join(f"{symbols[i]}={name}" for i, name in enumerate(self.room_names))
        return "\n".join(lines + [legend])


# -- generation ----------------------------------------------------------------


def _cells(meters: float) -> int:
    return int(round(meters / RESOLUTION))


def gen_world(
    seed: int, n_rooms: int = 5, objects_spec: list[tuple[str, int]] | None = None, _nav: _NavCache | None = None
) -> World:
    """Generate a corridor-spine house with n_rooms total rooms (corridor included)
    and the requested objects, all placement seeded and deterministic.

    Same-category instances land in distinct rooms while enough rooms exist;
    objects keep a 0.75 m margin from walls and 1 m from each other. A `_nav` of an
    equal grid and room list is shared instead of building one: a nav cache holds only
    what those fix.
    """
    if not 2 <= n_rooms <= MAX_ROOMS:
        raise RejectedInput(f"n_rooms must be in [2, {MAX_ROOMS}], got {n_rooms}")
    rng = random.Random(seed)
    side_count = n_rooms - 1
    names = ["hallway"] + list(_ROOM_NAME_POOL[:side_count])
    # depths start at 5.5 m so every room keeps a back strip beyond the 5 m
    # visibility range of corridor traffic (objects there can't be glimpsed
    # in passing and must be searched for)
    sizes = [
        (_cells(rng.choice((4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0))), _cells(rng.choice((5.5, 6.0, 6.5, 7.0))))
        for _ in range(side_count)
    ]
    above = list(range(0, side_count, 2))
    below = list(range(1, side_count, 2))

    def side_width(indices: list[int]) -> int:
        return sum(sizes[i][0] for i in indices) + max(0, len(indices) - 1)

    interior_w = max(side_width(above), side_width(below), _cells(6.0))
    max_above = max((sizes[i][1] for i in above), default=0)
    max_below = max((sizes[i][1] for i in below), default=0)
    corridor_h = _cells(2.0)
    cy0 = max_below + 2
    cy_top = cy0 + corridor_h
    ny = cy_top + 1 + max_above + 1
    nx = interior_w + 2
    grid = np.full((ny, nx), WALL, dtype=np.int16)
    grid[cy0:cy_top, 1 : nx - 1] = 0  # corridor spine

    spans: dict[int, tuple[int, int]] = {}

    def carve_side(indices: list[int], is_above: bool) -> None:
        x = 1
        prev: int | None = None
        for i in indices:
            w, d = sizes[i]
            label = i + 1
            if is_above:
                y0, y1 = cy_top + 1, cy_top + 1 + d
                wall_y = cy_top
            else:
                y0, y1 = cy0 - 1 - d, cy0 - 1
                wall_y = cy0 - 1
            grid[y0:y1, x : x + w] = label
            spans[i] = (x, x + w)
            door_x = x + w // 2 - 2
            grid[wall_y, door_x : door_x + 4] = 0  # 1 m doorway to the corridor
            if prev is not None:
                shared = min(d, sizes[prev][1])
                door_y0 = (y0 if is_above else cy0 - 1 - shared) + shared // 2 - 2
                grid[door_y0 : door_y0 + 4, x - 1] = label  # 1 m door to same-side neighbor
            prev = i
            x += w + 1

    carve_side(above, True)
    carve_side(below, False)

    if _nav is not None and (_nav.room_names, _nav.res) == (names, RESOLUTION) and np.array_equal(_nav.grid, grid):
        world = World(_nav.grid, names, [], _nav=_nav)
    else:
        world = World(grid, names, [])

    # object placement: per-category round-robin over side rooms keeps duplicates apart
    objects: list[ObjectInstance] = []
    placed: list[tuple[float, float]] = []
    side_rooms = [names[i + 1] for i in range(side_count)]
    centers = {room: world.room_centers(room, margin=3) for room in side_rooms}
    counters: dict[str, int] = {}
    for category, count in objects_spec or []:
        if count < 1:
            raise RejectedInput(f"object count for {category!r} must be >= 1")
        offset = rng.randrange(len(side_rooms))
        for j in range(count):
            counters[category] = counters.get(category, 0) + 1
            object_id = f"{category}_{counters[category]:02d}"
            position = None
            for attempt in range(len(side_rooms)):
                room = side_rooms[(offset + j + attempt) % len(side_rooms)]
                candidates = centers[room][clear_of(centers[room], placed, 1.0)].tolist()
                if candidates:
                    position = tuple(rng.choice(candidates))
                    break
            if position is None:
                raise GenerationError(
                    f"cannot place object {object_id!r}: no free cell 1 m clear of others"
                )
            placed.append(position)
            feature = _random_unit(rng, FEATURE_DIM)
            objects.append(ObjectInstance(object_id, category, position, feature))
    return World(world.grid, names, objects, _nav=world._nav)


def clear_of(centers: np.ndarray, points, min_m: float) -> np.ndarray:
    """Mask of the rows of centers (m x 2) that lie at least min_m from every point.

    At the 0.25 m resolution every offset between cell centers is an exact
    multiple of 0.25 m, so the squared distance and min_m**2 compare exactly
    as math.hypot(...) >= min_m does.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    offsets = centers[:, None, :] - points[None, :, :]
    return ((offsets * offsets).sum(axis=2) >= min_m * min_m).all(axis=1)


def _random_unit(rng: random.Random, dim: int) -> np.ndarray:
    while True:
        vec = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
        norm = float(np.linalg.norm(vec))
        if norm > 1e-6:
            return vec / norm
