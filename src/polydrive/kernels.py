"""Hot inner loops.  bin_proximity is vectorized over windows, agents and
ticks, and segment_features over a trace's ticks and a network's segments.
polyline_project, polyline_point and integrate_cars run for each of 2-15
cars at every world tick, where numpy's per-call overhead costs more than
the arithmetic: they take and return Python floats, whose + - * / and ** 0.5
give numpy float64's bits, and call numpy for trig, so they match the array
loops they replaced.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

# Proximity map geometry (meters).
MAP_ROWS = 13
MAP_COLS = 3
MAP_EXTENT_LONG = 65.0
MAP_EXTENT_LAT = 10.5
CELL_LONG = MAP_EXTENT_LONG / MAP_ROWS  # 5.0
CELL_LAT = MAP_EXTENT_LAT / MAP_COLS  # 3.5
K_WINDOW = 3  # consecutive positions stored per occupied cell
# An occupied (row, col, tick) cell's flat index, owner and last K (x, y).
MAP_ENTRY = np.dtype([("cell", "<u2"), ("label", "<i8"), ("xy", "<f8", (2 * K_WINDOW,))])


def bin_proximity(rel, dists):
    """Bin vehicle track fragments into ego-centered occupancy maps.

    rel     : (..., A, T, 2) positions in the ego frame, agent-major, per window.
    dists   : (..., A) distance of each agent to the ego at the window center;
              when two agents land in one cell at one tick the nearer wins.
    Returns one MAP_ENTRY array per window, in C order of the leading
    axes: an entry per occupied (row, col, tick) cell, sorted by cell, whose
    label is the agent row that owns it.
    """
    lead, (n_agents, n_ticks) = rel.shape[:-3], rel.shape[-3:-1]
    tracks = rel.reshape(-1, n_ticks, 2)  # window-major rows: window * A + agent
    half_long, half_lat = MAP_EXTENT_LONG / 2.0, MAP_EXTENT_LAT / 2.0
    x, y = tracks[..., 0], tracks[..., 1]
    inside = (x >= -half_long) & (x < half_long) & (y >= -half_lat) & (y < half_lat)
    track, tick = np.divmod(np.flatnonzero(inside), n_ticks)
    x, y = x[track, tick], y[track, tick]
    row = np.minimum(((x + half_long) / CELL_LONG).astype(np.int64), MAP_ROWS - 1)
    col = np.minimum(((y + half_lat) / CELL_LAT).astype(np.int64), MAP_COLS - 1)
    # The flat index of (window, row, col, tick).  The nearer agent wins a
    # cell, then the earlier row: the first entry of each cell in this order.
    cell = ((track // n_agents * MAP_ROWS + row) * MAP_COLS + col) * n_ticks + tick
    order = np.lexsort((track, dists.reshape(-1)[track], cell))
    ranked = cell[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    keep = order[first]
    track, tick, cell = track[keep], tick[keep], ranked[first]
    per_window = MAP_ROWS * MAP_COLS * n_ticks
    entries = np.empty(keep.size, MAP_ENTRY)
    entries["cell"], entries["label"] = cell % per_window, track % n_agents
    past = np.maximum(tick[:, None] - (K_WINDOW - 1) + np.arange(K_WINDOW), 0)
    # Each (x, y) pair gathered as one complex128 item: the same bits, copied.
    pairs = tracks.view(np.complex128)[..., 0]
    entries["xy"] = pairs[track[:, None], past].view(np.float64)
    bounds = np.searchsorted(cell, per_window * np.arange(math.prod(lead) + 1)).tolist()
    return [entries[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def polyline_project(pts, cumlen, s_prev, px, py, back, ahead):
    """Arc-length progress of (px, py) along a polyline, near a previous s.

    pts    : W (x, y) vertices.
    cumlen : W cumulative arc lengths (cumlen[0] == 0).
    s_prev : previous progress; only segments in [s_prev-back, s_prev+ahead]
             are searched, which keeps tracking stable at self-near routes.
    Returns (s, lateral_sq) of the closest point in the search window.

    cumlen is non-decreasing, so the segments that reach into the window
    (cumlen[i + 1] >= s_prev - back and cumlen[i] <= s_prev + ahead) are one
    contiguous run, found by bisection; they are visited in ascending order,
    so ties keep the first.
    """
    best_d = 1e30
    best_s = s_prev
    first = max(bisect_left(cumlen, s_prev - back) - 1, 0)
    stop = min(bisect_right(cumlen, s_prev + ahead), len(cumlen) - 1)
    for i in range(first, stop):
        ax, ay = pts[i]
        bx, by = pts[i + 1]
        dx = bx - ax
        dy = by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq <= 0.0:
            continue
        t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        cx = ax + t * dx
        cy = ay + t * dy
        d = (px - cx) * (px - cx) + (py - cy) * (py - cy)
        if d < best_d:
            best_d = d
            best_s = cumlen[i] + t * (seg_len_sq**0.5)
    return best_s, best_d


def polyline_point(pts, cumlen, s):
    """Point and unit direction at arc length ``s`` (clamped to the ends)."""
    n = len(cumlen)
    total = cumlen[n - 1]
    if s <= 0.0:
        s = 0.0
    elif s >= total:
        s = total
    # The segment that holds s: the count of inner vertices short of s, by
    # bisection, as cumlen is non-decreasing.
    i = bisect_left(cumlen, s, 1, n - 1) - 1
    ax, ay = pts[i]
    bx, by = pts[i + 1]
    seg = cumlen[i + 1] - cumlen[i]
    if seg <= 0.0:
        return ax, ay, 1.0, 0.0
    t = (s - cumlen[i]) / seg
    dx = bx - ax
    dy = by - ay
    norm = (dx * dx + dy * dy) ** 0.5
    return ax + t * dx, ay + t * dy, dx / norm, dy / norm


def integrate_cars(states, cmds, dt, wheelbase, v_max):
    """Each car's (x, y, heading, speed) one tick on, from its state and its
    (steer, accel) command, by the kinematic bicycle model.  Displacement uses
    the pre-update speed; heading rate v*tan(steer)/L, wrapped to (-pi, pi]."""
    out = []
    for (x, y, h, v), (steer, accel) in zip(states, cmds):
        x = x + v * float(np.cos(h)) * dt
        y = y + v * float(np.sin(h)) * dt
        h = h + v * float(np.tan(steer)) / wheelbase * dt
        while h > np.pi:
            h -= 2.0 * np.pi
        while h <= -np.pi:
            h += 2.0 * np.pi
        v = v + accel * dt
        if v < 0.0:
            v = 0.0
        elif v > v_max:
            v = v_max
        out.append((x, y, h, v))
    return out


def runs(flags) -> list[tuple[int, int]]:
    """(start, end) of each run of True in a 1-D array, the end exclusive."""
    # Each run starts where the padded flags rise and ends where they fall.
    edges = np.flatnonzero(np.diff(np.concatenate([[0], flags.astype(np.int8), [0]])))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def segment_features(xy, a_pts, b_pts):
    """Distance and signed lateral offset of n points to S road segments.

    xy           : (n, 2) points.
    a_pts, b_pts : (S, 2) segment endpoints.
    Returns two (n, S) arrays: the distance to the nearest point of each
    segment, and the signed lateral offset from its line (positive left of
    the a->b direction).  The lengths and distances are Python-float ``**``
    (C pow), which rounds apart from np.sqrt on some entries.
    """
    dx, dy = (b_pts - a_pts).T
    seg_len = np.array([(x * x + y * y) ** 0.5 for x, y in zip(dx.tolist(), dy.tolist())])
    ux, uy = dx / seg_len, dy / seg_len
    ax, ay = a_pts.T
    px, py = xy[:, :1], xy[:, 1:]
    rx, ry = px - ax, py - ay
    s = np.minimum(np.maximum(rx * ux + ry * uy, 0.0), seg_len)
    lat = -rx * uy + ry * ux
    ex, ey = px - (ax + s * ux), py - (ay + s * uy)
    dist = [(x**2 + y**2) ** 0.5 for x, y in zip(ex.ravel().tolist(), ey.ravel().tolist())]
    return np.array(dist).reshape(ex.shape), lat
