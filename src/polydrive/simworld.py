"""Deterministic 2D urban world: grid road networks, traffic lights,
kinematic car agents, crossing pedestrians and a rule-following expert
autopilot.  One world is owned by one simulation loop; everything is
seeded and replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec, kernels
from .errors import InvalidInputError, SpawnError

TICK = 0.1
LANE_WIDTH = 3.5
LANE_OFFSET = LANE_WIDTH / 2.0  # centerline offset from the road axis
HALF_ROAD = LANE_WIDTH  # two lanes, one per direction
CORE_RADIUS = 7.0  # junction core: lanes are pulled back this far
CORE_OCCUPIED_RADIUS = 7.2
NC_ZONE_RADIUS = 15.0  # junction zone of the navigation command
STUB_LEN = 30.0
WHEELBASE = 2.5
SPEED_LIMIT = 8.33  # hard world cap, m/s
TARGET_SPEED = 5.56  # autopilot target, 20 kph
PED_SPEED = 1.2
PED_CROSSING_CLEARANCE = 12.0  # peds wait at the kerb until cars are this far
CAR_RADIUS = 1.2
PED_RADIUS = 0.4
LOOKAHEAD = 4.0
TURN_RADIUS = 5.0  # junction connector radius; min feasible is WHEELBASE/tan(MAX_STEER)
FOLLOW_GAP = 8.0
PED_GAP = 6.0
STOP_MARGIN = 2.5
JUNCTION_SPEED = 4.0  # cap while traversing a junction connector
BRAKE_COMFORT = 1.8  # m/s^2 used to shape the approach speed profile
GREEN_S = 10.0
RED_S = 8.0
CYCLE_S = GREEN_S + RED_S
MAX_STEER = 0.5
ACCEL_MIN = -4.0
ACCEL_MAX = 2.0
TURN_DEG = 30.0  # a heading change beyond this, either way, is a left or right turn
LOG_FORMAT_VERSION = 2
_U1 = np.dtype("u1")  # trace light phases


@dataclass
class Node:
    node_id: int
    pos: np.ndarray
    kind: str  # "junction" | "boundary"
    lit: bool


@dataclass
class Segment:
    seg_id: int
    node_a: int
    node_b: int
    axis: int  # 0: x-aligned, 1: y-aligned, 2: diagonal


@dataclass
class Lane:
    lane_id: int
    seg_id: int
    from_node: int
    to_node: int
    p0: np.ndarray
    p1: np.ndarray
    direction: np.ndarray
    length: float

    @property
    def heading(self) -> float:
        return float(np.arctan2(self.direction[1], self.direction[0]))


@dataclass
class Crosswalk:
    node_id: int
    p0: np.ndarray
    p1: np.ndarray


def heading_turn(h_in, h_out) -> tuple[float, str]:
    """The signed heading change from h_in to h_out, wrapped to [-pi, pi),
    and the turn it makes: left or right beyond TURN_DEG, else cross.  One
    rule for lane links and for navigation commands."""
    d = (h_out - h_in + np.pi) % (2 * np.pi) - np.pi
    turn = "left" if d > np.deg2rad(TURN_DEG) else "right" if d < -np.deg2rad(TURN_DEG) else "cross"
    return d, turn


def _turn_of(h_in: float, h_out: float) -> str | None:
    """Classify a lane-to-lane transition; None marks a forbidden U-turn."""
    d, turn = heading_turn(h_in, h_out)
    return None if abs(d) > np.deg2rad(150) else turn


class RoadNetwork:
    """Directed-lane road graph with junction cores and crosswalks."""

    def __init__(self, town_id: str, nodes, segments, lanes, crosswalks):
        self.town_id = town_id
        self.nodes = nodes
        self.segments = segments
        self.lanes = lanes
        self.crosswalks = crosswalks
        # Cached geometry arrays for the kernels.
        self.seg_a = np.array([nodes[s.node_a].pos for s in segments])
        self.seg_b = np.array([nodes[s.node_b].pos for s in segments])
        self.lane_p0 = np.array([l.p0 for l in lanes])
        self.lane_dir = np.array([l.direction for l in lanes])
        self.lane_len = np.array([l.length for l in lanes])
        # nearest_lane's columns; the unit vectors u over the Python-float
        # norm (dx*dx + dy*dy) ** 0.5, as segment_features takes its lengths.
        d = [(l.p1[0] - l.p0[0], l.p1[1] - l.p0[1]) for l in lanes]
        n = [(dx * dx + dy * dy) ** 0.5 for dx, dy in d]
        u = np.array([(dx / m, dy / m) for (dx, dy), m in zip(d, n)])
        self.lane_cols = (*self.lane_p0.T, *u.T, *self.lane_dir.T, self.lane_len + 1.0)
        # Lanes off the axes: only their heading dot can round (nearest_lane).
        self.lane_skewed = np.flatnonzero(~np.isin(self.lane_dir, (-1.0, 0.0, 1.0)).all(axis=1))
        self._successors: dict[int, list[tuple[int, str]]] = {}
        by_from: dict[int, list[Lane]] = {}
        for l in lanes:
            by_from.setdefault(l.from_node, []).append(l)
        for l in lanes:
            succ = []
            for m in by_from.get(l.to_node, []):
                if m.to_node == l.from_node and m.seg_id == l.seg_id:
                    continue  # U-turn onto the reverse lane
                turn = _turn_of(l.heading, m.heading)
                if turn is not None:
                    succ.append((m.lane_id, turn))
            self._successors[l.lane_id] = sorted(succ)
        self.junction_ids = [n.node_id for n in nodes if n.kind == "junction"]
        self.junction_pos = np.array([nodes[i].pos for i in self.junction_ids])
        # Lanes between two junctions, where cars spawn and routes start.
        self.internal_lanes = [
            l.lane_id for l in lanes
            if nodes[l.from_node].kind == "junction" and nodes[l.to_node].kind == "junction"
        ]
        self._route_pieces: dict[tuple[int | None, int], tuple] = {}

    # -- queries -----------------------------------------------------------

    def successors(self, lane_id: int) -> list[tuple[int, str]]:
        return self._successors[lane_id]

    def signal_axis(self, seg_id: int) -> int:
        """The light group of an approach on segment seg_id: its axis, but
        diagonal approaches share the axis-0 (x-aligned) group."""
        axis = self.segments[seg_id].axis
        return axis if axis != 2 else 0

    def lane_ends_at_junction(self, lane_id: int) -> bool:
        return self.nodes[self.lanes[lane_id].to_node].kind == "junction"

    def onward(self, lane_id: int) -> list[tuple[int, str]]:
        """The successors that end at a junction, so a route can go on."""
        return [(m, turn) for m, turn in self._successors[lane_id] if self.lane_ends_at_junction(m)]

    def nearest_junction(self, xy) -> tuple[int, float]:
        d = np.linalg.norm(self.junction_pos - np.asarray(xy), axis=1)
        k = int(np.argmin(d))
        return self.junction_ids[k], float(d[k])

    def nearest_lane(self, xy, c, s):
        """Per position of xy (B, 2) with heading cos c and sin s (B,): the best
        lane (id, progress s, signed lateral offset), or None outside every
        lane corridor (e.g. in a junction core).  A lane counts where lane_dir
        @ (c, s) > 0; that matvec may round apart from the elementwise dot, so
        a row whose dot on a skewed lane lies within 1e-12 of 0 takes its own
        matvec (along the axes both are exact)."""
        x0, y0, ux, uy, dx, dy, s_end = self.lane_cols
        rx, ry = xy[:, :1] - x0, xy[:, 1:] - y0
        along = rx * ux + ry * uy
        lat = -rx * uy + ry * ux
        dist = np.abs(lat)
        dot = c[:, None] * dx + s[:, None] * dy
        if len(self.lane_skewed):
            for b in np.flatnonzero((np.abs(dot[:, self.lane_skewed]) <= 1e-12).any(axis=1)):
                dot[b] = self.lane_dir @ np.array([c[b], s[b]])
        ok = (dist <= LANE_WIDTH * 0.75) & (along >= -1.0) & (along <= s_end) & (dot > 0.0)
        dist[~ok] = np.inf
        return [
            (k, float(a[k]), float(l[k])) if o[k] else None
            for k, a, l, o in zip(dist.argmin(axis=1).tolist(), along, lat, ok)
        ]


def build_town(town_id: str) -> RoadNetwork:
    """Construct one of the two fixed towns.

    train: 4x4 junction grid, 100 m blocks, boundary stubs on the perimeter
    (40 road segments, 16 junctions).  test: 3x5 grid, 70 m blocks, plus one
    diagonal connector; topologically distinct from the train town.
    """
    if town_id == "train":
        nx_, ny_, block, diagonal = 4, 4, 100.0, None
    elif town_id == "test":
        nx_, ny_, block, diagonal = 3, 5, 70.0, ((0, 0), (1, 1))
    else:
        raise InvalidInputError(f"unknown town {town_id!r}")

    nodes: list[Node] = []
    grid: dict[tuple[int, int], int] = {}
    for i in range(nx_):
        for j in range(ny_):
            grid[(i, j)] = len(nodes)
            nodes.append(
                Node(len(nodes), np.array([i * block, j * block]), "junction", True)
            )

    segments: list[Segment] = []

    def add_segment(a: int, b: int, axis: int):
        segments.append(Segment(len(segments), a, b, axis))

    for i in range(nx_):
        for j in range(ny_):
            if i + 1 < nx_:
                add_segment(grid[(i, j)], grid[(i + 1, j)], 0)
            if j + 1 < ny_:
                add_segment(grid[(i, j)], grid[(i, j + 1)], 1)
    if diagonal is not None:
        add_segment(grid[diagonal[0]], grid[diagonal[1]], 2)

    # Boundary stubs: one per missing grid neighbor on the perimeter.
    for i in range(nx_):
        for j in range(ny_):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if (i + di, j + dj) in grid:
                    continue
                direction = np.array([di, dj], dtype=float)
                pos = nodes[grid[(i, j)]].pos + direction * STUB_LEN
                stub = Node(len(nodes), pos, "boundary", False)
                nodes.append(stub)
                add_segment(grid[(i, j)], stub.node_id, 0 if di else 1)

    lanes: list[Lane] = []
    for seg in segments:
        pa = nodes[seg.node_a].pos.astype(float)
        pb = nodes[seg.node_b].pos.astype(float)
        for from_n, to_n in ((seg.node_a, seg.node_b), (seg.node_b, seg.node_a)):
            a = nodes[from_n].pos.astype(float)
            b = nodes[to_n].pos.astype(float)
            d = b - a
            length = float(np.linalg.norm(d))
            u = d / length
            right = np.array([u[1], -u[0]])
            pull_a = CORE_RADIUS if nodes[from_n].kind == "junction" else 0.0
            pull_b = CORE_RADIUS if nodes[to_n].kind == "junction" else 0.0
            p0 = a + u * pull_a + right * LANE_OFFSET
            p1 = b - u * pull_b + right * LANE_OFFSET
            lanes.append(
                Lane(
                    len(lanes),
                    seg.seg_id,
                    from_n,
                    to_n,
                    p0,
                    p1,
                    u,
                    float(np.linalg.norm(p1 - p0)),
                )
            )

    crosswalks: list[Crosswalk] = []
    for seg in segments:
        for node_id in (seg.node_a, seg.node_b):
            node = nodes[node_id]
            if node.kind != "junction":
                continue
            other = seg.node_b if node_id == seg.node_a else seg.node_a
            u = nodes[other].pos - node.pos
            u = u / np.linalg.norm(u)
            right = np.array([u[1], -u[0]])
            # Far enough out that a car stopped at the stop line (1.5 m behind
            # the core boundary) keeps > 2 m clearance from the walking line.
            center = node.pos + u * (CORE_RADIUS + 5.0)
            half = HALF_ROAD + 1.5
            crosswalks.append(Crosswalk(node_id, center - right * half, center + right * half))

    return RoadNetwork(town_id, nodes, segments, lanes, crosswalks)


# -- traffic lights ---------------------------------------------------------


@dataclass(frozen=True)
class LightGroup:
    """One signal group: a junction approach axis with its own cycle."""

    node_id: int
    axis: int  # 0: x-aligned approaches, 1: y-aligned
    green: float
    red: float
    offset: float

    def is_green(self, clock: float) -> bool:
        return (clock + self.offset) % (self.green + self.red) < self.green

    def time_to_red(self, clock: float) -> float:
        """Remaining green time; 0 when already red."""
        phase = (clock + self.offset) % (self.green + self.red)
        return max(0.0, self.green - phase)


def make_light_groups(network: RoadNetwork, rng: np.random.Generator) -> list[LightGroup]:
    """Two complementary groups per lit junction.

    The y-axis group runs the nominal 10 s green / 8 s red cycle; the x-axis
    group gets the complementary window (8 s green / 10 s red, shifted) so
    conflicting approaches are never green together.  Diagonal approaches
    map onto the x-axis group.
    """
    groups: list[LightGroup] = []
    for node in network.nodes:
        if not node.lit:
            continue
        offset = float(rng.uniform(0.0, CYCLE_S))
        groups.append(LightGroup(node.node_id, 1, GREEN_S, RED_S, offset))
        # (clock + offset + RED_S) % cycle < RED_S  <=>  y-group phase in
        # [GREEN_S, cycle): exactly the y-group's red window.
        groups.append(LightGroup(node.node_id, 0, RED_S, GREEN_S, offset + RED_S))
    return groups


# -- routes -----------------------------------------------------------------


@dataclass
class RouteEvent:
    s_stop: float  # arc length of the stop line (end of the incoming lane)
    s_exit: float  # arc length where the outgoing lane begins
    node_id: int
    axis: int  # approach axis of the incoming lane
    turn: str  # "left" | "right" | "cross"
    lit: bool


class Route:
    """A lane sequence flattened into a waypoint polyline with junction events.
    The polyline's vertices and arc lengths are Python floats, which the
    per-tick kernels read fastest; points and cumlen give them as arrays."""

    def __init__(self, network: RoadNetwork, lane_ids: list[int]):
        self.network = network
        self.lane_ids: list[int] = []
        self.point_list: list[tuple[float, float]] = []
        self.cumlen_list: list[float] = []
        self.events: list[RouteEvent] = []
        self._spans: tuple[int, list] = (-1, [])
        for lid in lane_ids:
            self.extend(lid)

    @property
    def points(self) -> np.ndarray:
        return np.array(self.point_list).reshape(-1, 2)

    @property
    def cumlen(self) -> np.ndarray:
        return np.array(self.cumlen_list)

    @property
    def length(self) -> float:
        return self.cumlen_list[-1] if self.cumlen_list else 0.0

    def extend(self, lane_id: int) -> None:
        prev_id = self.lane_ids[-1] if self.lane_ids else None
        pts, steps, n_conn, event = _route_piece(self.network, prev_id, lane_id)
        # np.cumsum adds in sequence, so going on from the last value gives
        # the bits of a sum over the whole route.
        cum = np.cumsum(np.concatenate([self.cumlen_list[-1:] if self.lane_ids else [0.0], steps]))
        self.point_list += pts
        self.cumlen_list += cum[1:].tolist()
        if event is not None:  # from the stop line to the connector's last point
            self.events.append(RouteEvent(float(cum[0]), float(cum[n_conn]), *event))
        self.lane_ids.append(lane_id)

    def point_at(self, s: float):
        x, y, ux, uy = kernels.polyline_point(self.point_list, self.cumlen_list, float(s))
        return np.array([x, y]), np.array([ux, uy])

    def project(self, xy, s_prev: float) -> float:
        s, _ = kernels.polyline_project(
            self.point_list, self.cumlen_list, float(s_prev), float(xy[0]), float(xy[1]), 8.0, 20.0
        )
        return s

    def junction_spans(self) -> list[tuple[float, float]]:
        """Arc-length intervals (lo, hi), sorted, where the route runs within
        NC_ZONE_RADIUS of a junction.

        Solved per segment from |a + t (b - a) - c| = NC_ZONE_RADIUS, with t
        mapped to arc length the way point_at maps it back, and joined where
        they touch.  Computed on first use, and again once the route has grown.
        """
        n_points, spans = self._spans
        if n_points == len(self.point_list):
            return spans
        points, cumlen = self.points, self.cumlen
        start, seg_len = cumlen[:-1, None], np.diff(cumlen)[:, None]
        dx, dy = np.diff(points, axis=0).T[:, :, None]
        jx, jy = self.network.junction_pos.T
        rx = points[:-1, 0, None] - jx
        ry = points[:-1, 1, None] - jy
        qa = dx * dx + dy * dy
        qb = rx * dx + ry * dy
        disc = qb * qb - qa * (rx * rx + ry * ry - NC_ZONE_RADIUS * NC_ZONE_RADIUS)
        root = np.sqrt(np.maximum(disc, 0.0))
        t0 = np.maximum((-qb - root) / qa, 0.0)
        t1 = np.minimum((-qb + root) / qa, 1.0)
        lo = start + t0 * seg_len
        hi = np.where(t1 >= 1.0, cumlen[1:, None], start + t1 * seg_len)
        seg, junction = np.nonzero((disc > 0.0) & (t0 < t1))
        order = np.lexsort((seg, junction))  # by junction, then along the route
        seg, junction = seg[order], junction[order]
        lo, hi = lo[seg, junction], hi[seg, junction]
        first = np.ones(junction.size, dtype=bool)
        first[1:] = (junction[1:] != junction[:-1]) | (lo[1:] > hi[:-1])
        last = np.roll(first, -1)
        spans = sorted(zip(lo[first].tolist(), hi[last].tolist()))
        self._spans = (len(points), spans)
        return spans

    def next_event(self, s: float) -> RouteEvent | None:
        """The junction event ahead, or the one up to 0.3 m past its stop
        line, which the car is committed to."""
        for ev in self.events:
            if ev.s_stop > s - 0.3 and s < ev.s_exit:
                return ev
            if ev.s_stop > s:
                return ev
        return None


def _route_piece(net: RoadNetwork, prev_id: int | None, lane_id: int) -> tuple:
    """The (x, y) points a route ending on lane prev_id (None: empty) gains
    from lane_id, their steps from the point before, how many are connector
    points, and the event's fields after s_stop, s_exit: built once per lane
    pair and network, as a route always ends on its last lane's p1."""
    if (prev_id, lane_id) in net._route_pieces:
        return net._route_pieces[(prev_id, lane_id)]
    lane = net.lanes[lane_id]
    if prev_id is None:
        parts, last, anchor, event = [np.vstack([lane.p0, lane.p1])], None, lane.p0, None
    else:
        prev = net.lanes[prev_id]
        node = net.nodes[prev.to_node]
        conn, s_join = _connector(prev.p1, prev.direction, lane)
        join = lane.p0 + lane.direction * s_join
        parts, last, anchor = [conn, np.vstack([join, lane.p1])], prev.p1, prev.p1
        turn = _turn_of(prev.heading, lane.heading) or "cross"
        event = (node.node_id, net.signal_axis(prev.seg_id), turn, node.lit)
    keep, sizes = [], []
    for part in parts:
        for p in part:
            if last is not None and np.linalg.norm(p - last) <= 1e-9:
                continue
            keep.append(p)
            last = p
        sizes.append(len(keep))
    pts = np.array(keep).reshape(-1, 2)
    steps = np.linalg.norm(np.diff(np.vstack([anchor, pts]), axis=0), axis=1)
    piece = net._route_pieces[(prev_id, lane_id)] = ([(x, y) for x, y in pts.tolist()], steps, sizes[0], event)
    return piece


def _left_normal(h: float) -> np.ndarray:
    return np.array([-np.sin(h), np.cos(h)])


def _dubins_csc(p0, h0, p1, h1, radius: float):
    """Shortest arc-straight-arc path between two poses.

    Returns (waypoints, largest_arc_sweep_rad) or None when no circle
    tangent exists.  Constant-radius arcs keep the path drivable by a
    kinematic bicycle with a bounded steering angle.
    """
    best = None
    best_total = np.inf
    for s0 in (1.0, -1.0):
        c0 = p0 + radius * s0 * _left_normal(h0)
        for s1 in (1.0, -1.0):
            c1 = p1 + radius * s1 * _left_normal(h1)
            d = c1 - c0
            dist = float(np.hypot(d[0], d[1]))
            theta = float(np.arctan2(d[1], d[0]))
            if s0 == s1:
                th = theta
            else:
                if dist < 2.0 * radius:
                    continue
                th = theta + s0 * float(np.arcsin(2.0 * radius / dist))
            a = c0 - radius * s0 * _left_normal(th)
            b = c1 - radius * s1 * _left_normal(th)
            straight = float(np.dot([np.cos(th), np.sin(th)], b - a))
            if straight < -1e-6:
                continue
            sw0 = (s0 * (th - h0)) % (2.0 * np.pi)
            sw1 = (s1 * (h1 - th)) % (2.0 * np.pi)
            if sw0 > 2.0 * np.pi - 1e-6:
                sw0 = 0.0
            if sw1 > 2.0 * np.pi - 1e-6:
                sw1 = 0.0
            total = radius * (sw0 + sw1) + max(straight, 0.0)
            if total < best_total:
                best_total = total
                best = (s0, c0, sw0, s1, c1, sw1, a, b, th)
    if best is None:
        return None
    s0, c0, sw0, s1, c1, sw1, a, b, th = best
    pts = [np.asarray(p0, dtype=float)]

    def _arc(center, side, h_start, sweep):
        n = max(2, int(np.ceil(radius * sweep / 0.6)))
        for phi in np.linspace(0.0, sweep, n + 1)[1:]:
            h = h_start + side * phi
            pts.append(center - radius * side * _left_normal(h))

    _arc(c0, s0, h0, sw0)
    run = float(np.linalg.norm(b - a))
    if run > 1e-6:
        n = max(1, int(np.ceil(run)))
        for t in np.linspace(0.0, 1.0, n + 1)[1:]:
            pts.append(a + t * (b - a))
    _arc(c1, s1, th, sw1)
    pts.append(np.asarray(p1, dtype=float))
    return np.array(pts), float(max(sw0, sw1))


def _connector(p1, d1, lane: Lane) -> tuple[np.ndarray, float]:
    """Drivable waypoints joining a lane end to the next lane.

    The join point is advanced along the target lane until the connector
    needs no arc beyond ~200 degrees, which keeps sharp merges (the 135
    degree diagonal-road turns) from doubling back on themselves.
    Returns (waypoints, join arc length along the target lane).
    """
    p1 = np.asarray(p1, dtype=float)
    h0 = float(np.arctan2(d1[1], d1[0]))
    h1 = lane.heading
    s_max = max(lane.length - 5.0, 0.0)
    for s_join in np.arange(0.0, min(20.0, s_max) + 1e-9, 2.0):
        q = lane.p0 + lane.direction * s_join
        res = _dubins_csc(p1, h0, q, h1, TURN_RADIUS)
        if res is not None and res[1] <= 3.5:
            return res[0], float(s_join)
    res = _dubins_csc(p1, h0, lane.p0, h1, TURN_RADIUS)
    if res is None:  # pragma: no cover - poses at identical positions
        return np.vstack([p1, lane.p0]), 0.0
    return res[0], 0.0


# -- agents and world -------------------------------------------------------


@dataclass
class AgentState:
    agent_id: int
    kind: str  # "car" | "pedestrian"
    x: float
    y: float
    heading: float
    speed: float
    route: Route | None = None
    route_s: float = 0.0
    # Pedestrian crossing state.
    ped_path: tuple[np.ndarray, np.ndarray] | None = None
    ped_target: int = 1
    ped_dwell: tuple[float, float] = (5.0, 5.0)
    ped_wait: float = 0.0

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


def clamp(x: float, lo: float, hi: float) -> float:
    """np.clip for one Python float, bit for bit: a bound ties to x, NaN passes."""
    return min(max(x, lo), hi)


def pure_pursuit_steer(agent: AgentState) -> float:
    route = agent.route
    tx, ty, _, _ = kernels.polyline_point(route.point_list, route.cumlen_list, agent.route_s + LOOKAHEAD)
    dx = tx - agent.x
    dy = ty - agent.y
    c, s = float(np.cos(agent.heading)), float(np.sin(agent.heading))
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    dist_sq = lx * lx + ly * ly
    if dist_sq < 1e-12:
        return 0.0
    steer = float(np.arctan2(2.0 * WHEELBASE * ly, dist_sq))
    return clamp(steer, -MAX_STEER, MAX_STEER)


def traffic_ahead(ego, c, s, cars, peds) -> tuple[float, float, float]:
    """The expert's traffic rule for one ego (x, y, heading, speed) whose
    heading has np.cos c and np.sin s: (leader gap, leader relative speed,
    crossing pedestrian distance), inf, 0.0 and inf where there is none.
    Trig stays on numpy, whose bits the recorded episodes carry.

    cars : (x, y, heading, speed) rows.  The leader is the nearest car in
           the ego's +-2.2 m corridor up to 25 m ahead, heading the same way;
           of equal gaps, the first.  The ego's own row sits at 0.0 ahead,
           so it may be among them and never leads.
    peds : (x, y, cos heading, sin heading, speed) rows.  A pedestrian counts
           up to 16 m ahead and 3 m to either side, 6 m while it walks toward
           the centerline, and gives 0.0 while alongside and still closing.
    """
    x, y, h, v = ego
    gap, rel_v = math.inf, 0.0
    for bx, by, bh, bv in cars:
        dx, dy = bx - x, by - y
        lx = c * dx + s * dy
        if 0.0 < lx <= 25.0 and lx < gap and abs(-s * dx + c * dy) <= 2.2:
            # Oncoming traffic is handled by lane geometry and junction
            # exclusion, not by the follow gap.
            cos_dh = float(np.cos(bh - h))
            if cos_dh > 0.0:
                gap, rel_v = lx, bv * cos_dh - v
    ped_d = math.inf
    for px, py, pc, ps, pv in peds:
        dx, dy = px - x, py - y
        lx = c * dx + s * dy
        if -3.0 < lx <= 16.0:
            ly = -s * dx + c * dy
            approaching = ly * (pv * (-s * pc + c * ps)) < -1e-9  # toward the centerline
            if abs(ly) <= (6.0 if approaching else 3.0):
                if 0.0 < lx:
                    if lx < ped_d:
                        ped_d = lx
                elif approaching:  # alongside: hold the stop until it has passed
                    ped_d = 0.0
    return gap, rel_v, ped_d


def _nearer_than(dx: float, dy: float, radius: float) -> bool:
    """Whether np.linalg.norm((dx, dy)) < radius, bit for bit.

    That 1-D norm is a BLAS dot, which may round differently in the last bit
    from the float distance; so the float distance decides unless it lies
    within 1e-6 m of the radius, and there the 1-D norm does.  A zero
    distance is exact either way.
    """
    d = (dx * dx + dy * dy) ** 0.5
    if d == 0.0 or abs(d - radius) > 1e-6:
        return d < radius
    return float(np.linalg.norm(np.array([dx, dy]))) < radius


def _at_kerb(ped: AgentState) -> bool:
    """Whether a pedestrian stands at the kerb its crossing leg starts from."""
    kx, ky = ped.ped_path[1 - ped.ped_target].tolist()
    return _nearer_than(kx - ped.x, ky - ped.y, 1e-6)


class World:
    """Road network plus agents, lights and a clock, stepped at 0.1 s."""

    def __init__(self, network: RoadNetwork, agents, light_groups, seed: int):
        self.network = network
        self.agents: list[AgentState] = agents
        self.light_groups = light_groups
        self._groups_by_node: dict[tuple[int, int], LightGroup] = {
            (g.node_id, g.axis): g for g in light_groups
        }
        self.clock = 0.0
        self.seed = seed
        self.rng = np.random.default_rng((seed, 0xE0))
        self._traffic: dict[int, tuple[float, float, float]] | None = None

    @property
    def cars(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind == "car"]

    @property
    def pedestrians(self) -> list[AgentState]:
        return [a for a in self.agents if a.kind == "pedestrian"]

    def light_green(self, node_id: int, axis: int) -> bool:
        group = self._groups_by_node.get((node_id, axis))
        if group is None:
            return True
        return group.is_green(self.clock)

    def light_time_to_red(self, node_id: int, axis: int) -> float:
        group = self._groups_by_node.get((node_id, axis))
        if group is None:
            return np.inf
        return group.time_to_red(self.clock)

    def traffic(self) -> dict[int, tuple[float, float, float]]:
        """Per car id at this tick, by traffic_ahead, kept until the world
        steps: leader gap and relative speed, and crossing pedestrian
        distance (inf, 0.0 and inf where there is none)."""
        if self._traffic is None:
            cars = self.cars
            rows = [(a.x, a.y, a.heading, a.speed) for a in cars]
            heading = [a.heading for a in cars]
            # A pedestrian standing at its kerb is yielding (it will not step
            # off while a car is near) and does not gate traffic.
            peds = [p for p in self.pedestrians
                    if p.ped_path is None or p.speed != 0.0 or not _at_kerb(p)]
            walking = [p.heading for p in peds]
            walkers = [(p.x, p.y, pc, ps, p.speed) for p, pc, ps in
                       zip(peds, np.cos(walking).tolist(), np.sin(walking).tolist())]
            self._traffic = {
                a.agent_id: traffic_ahead(row, c, s, rows, walkers)
                for a, row, c, s in zip(cars, rows, np.cos(heading).tolist(), np.sin(heading).tolist())
            }
        return self._traffic

    def snapshot(self) -> np.ndarray:
        return np.array([[a.x, a.y, a.heading, a.speed] for a in self.agents])

    def log_row(self) -> tuple[float, np.ndarray, list[bool]]:
        """This tick's clock, agent states and light phases, as an EpisodeLog
        records them before the world steps."""
        return self.clock, self.snapshot(), [g.is_green(self.clock) for g in self.light_groups]

    # -- stepping ----------------------------------------------------------

    def commands(self, ego_command=None) -> np.ndarray:
        """(agents, 2) steer and accel: ego_command or the autopilot's per car."""
        rows = [(0.0, 0.0)] * len(self.agents)
        for i, agent in enumerate(self.agents):
            if agent.kind == "car":
                rows[i] = ego_command if i == 0 and ego_command is not None else autopilot_command(agent, self)
        return np.array(rows, dtype=np.float64).reshape(-1, 2)

    def step(self, ego_command=None):
        cmds = self.commands(ego_command)
        moved = iter(kernels.integrate_cars(
            [(a.x, a.y, a.heading, a.speed) for a in self.cars],
            [cmd for a, cmd in zip(self.agents, cmds.tolist()) if a.kind == "car"],
            TICK, WHEELBASE, SPEED_LIMIT,
        ))
        for agent in self.agents:
            if agent.kind != "car":
                self._step_pedestrian(agent)
                continue
            agent.x, agent.y, agent.heading, agent.speed = next(moved)
            if agent.route is not None and len(agent.route.cumlen_list) >= 2:
                agent.route_s = agent.route.project((agent.x, agent.y), agent.route_s)
                self._maybe_extend_route(agent)
        self.clock += TICK
        self._traffic = None
        return cmds

    def _maybe_extend_route(self, agent: AgentState) -> None:
        route = agent.route
        while route.length - agent.route_s < 60.0:
            succ = self.network.onward(route.lane_ids[-1])
            if not succ:
                break
            pick = succ[int(self.rng.integers(len(succ)))]
            route.extend(pick[0])

    def _car_near(self, xy, radius: float) -> bool:
        """Whether any car is closer than radius, by np.linalg.norm per car."""
        x, y = xy
        return any(_nearer_than(car.x - x, car.y - y, radius) for car in self.cars)

    def _step_pedestrian(self, ped: AgentState) -> None:
        if ped.ped_path is None:
            ped.speed = 0.0
            return
        if ped.ped_wait > 0.0:
            ped.ped_wait = max(0.0, ped.ped_wait - TICK)
            ped.speed = 0.0
            return
        # Look both ways: a crossing leg only starts once every car is clear
        # of the kerb; once committed, the cars' pedestrian gates take over.
        if _at_kerb(ped) and self._car_near((ped.x, ped.y), PED_CROSSING_CLEARANCE):
            ped.speed = 0.0
            return
        tx, ty = ped.ped_path[ped.ped_target].tolist()
        dx, dy = tx - ped.x, ty - ped.y
        dist = float(np.linalg.norm(np.array([dx, dy])))  # a BLAS dot: its bits move the walker
        step = PED_SPEED * TICK
        if dist <= step:
            ped.x, ped.y = tx, ty
            ped.ped_wait = ped.ped_dwell[ped.ped_target]
            ped.ped_target = 1 - ped.ped_target
            ped.speed = 0.0
        else:
            ux, uy = dx / dist, dy / dist
            ped.x += ux * step
            ped.y += uy * step
            ped.heading = float(np.arctan2(uy, ux))
            ped.speed = PED_SPEED


def autopilot_command(agent: AgentState, world: World) -> tuple[float, float]:
    """Expert policy: pure pursuit plus rule-based speed control.

    Stops before red (or about-to-switch) lights, keeps an 8 m gap to the
    leader, yields to crossing pedestrians and enforces one-car-at-a-time
    junction cores (priority to the lowest waiting agent id).  The agent is
    one of the world's cars; its leader and pedestrian come from
    ``World.traffic``.
    """
    route = agent.route
    if route is None or len(route.cumlen_list) < 2:
        return (0.0, 0.0)
    if route.length - agent.route_s < 1.0:
        # Route exhausted: brake to a stop.
        return (0.0, clamp(-2.5 * agent.speed, ACCEL_MIN, 0.0))

    steer = pure_pursuit_steer(agent)
    stop_distances: list[float] = []

    ev = route.next_event(agent.route_s)
    if ev is not None:
        d = ev.s_stop - agent.route_s
        if -0.3 <= d <= 50.0:
            must_stop = False
            if ev.lit and d > 0.3:
                if not world.light_green(ev.node_id, ev.axis):
                    must_stop = True
                else:
                    eta = d / max(agent.speed, 1.0)
                    if world.light_time_to_red(ev.node_id, ev.axis) < eta + 0.8:
                        must_stop = True
            if not must_stop and 0.3 < d <= 15.0:
                if not _may_enter_junction(agent, world, ev, d):
                    must_stop = True
            if must_stop:
                stop_distances.append(d - STOP_MARGIN)

    # inf where no car or pedestrian is ahead: such a stop never binds.
    gap, _, ped_d = world.traffic()[agent.agent_id]
    stop_distances += [gap - FOLLOW_GAP, ped_d - PED_GAP]

    v_target = TARGET_SPEED
    if ev is not None and ev.s_stop - 2.0 <= agent.route_s <= ev.s_exit:
        v_target = JUNCTION_SPEED
    for d in stop_distances:
        if d < np.inf:  # the speed of an infinite stop distance never binds
            v_target = min(v_target, math.sqrt(2.0 * BRAKE_COMFORT * max(d, 0.0)))
    accel = clamp(2.5 * (v_target - agent.speed), ACCEL_MIN, ACCEL_MAX)
    return (steer, accel)


def _may_enter_junction(agent: AgentState, world: World, ev: RouteEvent, d: float) -> bool:
    nx, ny = world.network.nodes[ev.node_id].pos.tolist()
    for other in world.cars:
        if other.agent_id == agent.agent_id:
            continue
        if _nearer_than(other.x - nx, other.y - ny, CORE_OCCUPIED_RADIUS):
            return False
    for other in world.cars:
        if other.agent_id == agent.agent_id or other.route is None:
            continue
        oev = other.route.next_event(other.route_s)
        if oev is None or oev.node_id != ev.node_id:
            continue
        od = oev.s_stop - other.route_s
        if not -0.3 <= od <= 12.0:
            continue
        # A red-held car does not block the junction.
        if oev.lit and not world.light_green(oev.node_id, oev.axis):
            continue
        # Strict priority by (distance to stop line, id): closer cars go
        # first, ids only order near-simultaneous arrivals.  This is a total
        # order, so exactly one contender proceeds and queues cannot
        # deadlock on a lower-id follower.
        if od < d - 0.5 or (abs(od - d) <= 0.5 and other.agent_id < agent.agent_id):
            return False
    return True


# -- spawning ---------------------------------------------------------------


def _random_route(network: RoadNetwork, rng: np.random.Generator, start_lane: int) -> Route:
    lane_ids = [start_lane]
    for _ in range(12):
        succ = network.onward(lane_ids[-1])
        if not succ:
            break
        lane_ids.append(succ[int(rng.integers(len(succ)))][0])
    return Route(network, lane_ids)


def spawn_scenario(
    network: RoadNetwork, n_cars: int, n_pedestrians: int, seed: int
) -> World:
    """Place agents without overlap and assign seeded random routes."""
    if n_cars < 1:
        raise SpawnError("at least the ego car is required")
    rng = np.random.default_rng((seed, 0x5C))
    light_groups = make_light_groups(network, rng)
    lanes = network.internal_lanes
    agents: list[AgentState] = []
    placed: list[np.ndarray] = []
    for car_idx in range(n_cars):
        for attempt in range(400):
            lid = lanes[int(rng.integers(len(lanes)))]
            lane = network.lanes[lid]
            s = float(rng.uniform(4.0, lane.length - 4.0))
            pos = lane.p0 + lane.direction * s
            if all(np.linalg.norm(pos - p) >= 10.0 for p in placed):
                break
        else:
            raise SpawnError(f"could not place car {car_idx}: map capacity exceeded")
        placed.append(pos)
        route = _random_route(network, rng, lid)
        agent = AgentState(
            agent_id=car_idx,
            kind="car",
            x=float(pos[0]),
            y=float(pos[1]),
            heading=lane.heading,
            speed=0.0,
            route=route,
        )
        agent.route_s = route.project(pos, s)
        agents.append(agent)
    for ped_idx in range(n_pedestrians):
        cw = network.crosswalks[int(rng.integers(len(network.crosswalks)))]
        start = int(rng.integers(2))
        path = (cw.p0.copy(), cw.p1.copy())
        pos = path[start]
        agents.append(
            AgentState(
                agent_id=n_cars + ped_idx,
                kind="pedestrian",
                x=float(pos[0]),
                y=float(pos[1]),
                heading=0.0,
                speed=0.0,
                ped_path=path,
                ped_target=1 - start,
                ped_dwell=(float(rng.uniform(4.0, 10.0)), float(rng.uniform(4.0, 10.0))),
                ped_wait=float(rng.uniform(0.0, 5.0)),
            )
        )
    return World(network, agents, light_groups, seed)


# -- episode logs -----------------------------------------------------------


class EpisodeLog:
    """Immutable per-tick record of one simulated episode (0.1 s ticks)."""

    def __init__(self, meta: dict, kinds, agent_ids, groups, clock, states, lights):
        self.meta = meta
        self.kinds = list(kinds)
        self.agent_ids = list(agent_ids)
        self.groups = groups  # list of (node_id, axis, green, red, offset)
        self.clock = np.asarray(clock, dtype=np.float64)
        n = self.clock.size
        self.states = np.reshape(np.asarray(states, np.float64), (n, len(self.kinds), 4))
        self.lights = np.reshape(np.asarray(lights, np.uint8), (n, len(groups)))  # 1 = green
        self.group_index = {(g[0], g[1]): k for k, g in enumerate(self.groups)}

    @classmethod
    def from_world(cls, world: World, rows: list, **meta) -> "EpisodeLog":
        """The log of a world's ticks, each a World.log_row.  ``meta``
        follows the world's own keys."""
        meta = {"seed": world.seed, "town": world.network.town_id, "n_cars": len(world.cars),
                "n_pedestrians": len(world.pedestrians), "tick_s": TICK, **meta}
        groups = [(g.node_id, g.axis, g.green, g.red, g.offset) for g in world.light_groups]
        return cls(
            meta, [a.kind for a in world.agents], [a.agent_id for a in world.agents], groups,
            *(zip(*rows) if rows else ((), (), ())),
        )

    def __len__(self) -> int:
        return self.clock.size

    @property
    def n_agents(self) -> int:
        return len(self.kinds)

    def car_indices(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "car"]

    def ped_indices(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "pedestrian"]

    def light_green_at(self, tick: int, node_id: int, axis: int) -> bool:
        k = self.group_index.get((node_id, axis))
        if k is None:
            return True
        return bool(self.lights[tick, k])

    # -- serialization (codec JSON Lines, format 2) --------------------------
    # The header holds the meta keys, kinds, agent_ids and groups.  Each tick
    # is one record: t the clock (one <f8), s the (agents, 4) states (<f8)
    # and l the (groups,) light phases (u1).

    def write_jsonl(self, path) -> None:
        header = {"format_version": LOG_FORMAT_VERSION, **self.meta, "kinds": self.kinds,
                  "agent_ids": self.agent_ids, "groups": [list(g) for g in self.groups]}
        ticks = (
            {"t": codec.pack(self.clock[i]), "s": codec.pack(self.states[i]),
             "l": codec.pack(self.lights[i], _U1)}
            for i in range(len(self))
        )
        codec.write_records(path, header, ticks)

    @classmethod
    def read_jsonl(cls, path) -> "EpisodeLog":
        """The log that write_jsonl wrote; a malformed line is refused with
        its number."""
        meta, ticks = codec.read_records(path, _check_log_header, _decode_tick)
        del meta["format_version"]
        kinds, agent_ids, groups = (meta.pop(k) for k in ("kinds", "agent_ids", "groups"))
        return cls(
            meta, kinds, agent_ids, [tuple(g) for g in groups],
            *(zip(*ticks) if ticks else ((), (), ())),
        )


def _check_log_header(header: dict) -> dict:
    codec.check_version(header, LOG_FORMAT_VERSION)
    kinds, agent_ids, groups = (header.get(k) for k in ("kinds", "agent_ids", "groups"))
    if not (
        isinstance(kinds, list) and isinstance(agent_ids, list) and len(agent_ids) == len(kinds)
        and isinstance(groups, list) and all(isinstance(g, list) and len(g) == 5 for g in groups)
    ):
        raise ValueError("malformed kinds, agent_ids or groups")
    bad = [f"kind {k!r} is neither 'car' nor 'pedestrian'" for k in kinds if k not in ("car", "pedestrian")]
    bad += [f"agent id {i!r} is not an int" for i in agent_ids if type(i) is not int]
    bad += [f"light group {g!r} is not [int node_id, axis 0 or 1, green > 0, red > 0, offset], all finite"
            for g in groups if not (type(g[0]) is int and type(g[1]) is int and g[1] in (0, 1)
                                    and all(type(v) in (int, float) and math.isfinite(v) for v in g[2:])
                                    and g[2] > 0 and g[3] > 0)]
    if bad or len({(g[0], g[1]) for g in groups}) < len(groups):
        raise ValueError(bad[0] if bad else "two light groups share a (node_id, axis)")
    return header


def _decode_tick(rec: dict, header: dict) -> tuple:
    """One record's clock, (agents, 4) states and (groups,) light phases."""
    return (
        codec.unpack_rows(rec, "t", 1, ())[0],
        codec.unpack_rows(rec, "s", len(header["kinds"]), (4,)),
        codec.unpack_rows(rec, "l", len(header["groups"]), (), _U1),
    )


def record_episode(
    network: RoadNetwork,
    seed: int,
    duration: float,
    n_cars: int | None = None,
    n_pedestrians: int | None = None,
) -> EpisodeLog:
    """Run all agents under the autopilot and log every tick."""
    rng = np.random.default_rng((seed, 0xEC))
    if n_cars is None:
        n_cars = int(rng.integers(5, 16))
    if n_pedestrians is None:
        n_pedestrians = int(rng.integers(2, 7))
    world = spawn_scenario(network, n_cars, n_pedestrians, seed)
    rows = []
    for _ in range(int(round(duration / TICK))):
        rows.append(world.log_row())
        world.step()
    return EpisodeLog.from_world(world, rows)

