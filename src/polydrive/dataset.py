"""Turn episode logs into training samples.

A sample packs the ego history E (T x K x 2), up to N neighbor histories
with a presence mask, the 13 x 3 x T proximity map as one entry per occupied
cell, each with its K-position fragment (2K values), 8 context scalars,
a navigation command and the ground-truth ego/neighbor futures (fitted to
degree-4 polynomials and resampled on the 0.1 s grid).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from functools import partial

import numpy as np

from . import kernels, simworld
from .codec import check_version, pack, read_records, unpack, unpack_rows, write_records
from .kernels import K_WINDOW, MAP_COLS, MAP_ENTRY, MAP_EXTENT_LAT, MAP_EXTENT_LONG, MAP_ROWS
from .simworld import EpisodeLog, RoadNetwork
from .trajectory import PINV, VAND, wrap_heading

T_STEPS = 20
N_NEIGHBORS = 5
WINDOW_TICKS = 2 * T_STEPS  # 2 s past + 2 s future
DATASET_FORMAT_VERSION = 2
MAP_SIZE = MAP_ROWS * MAP_COLS * T_STEPS  # cells of one map

# Context feature caps (meters / rad / m/s); see ContextFeatures order below.
CTX_LIGHT_CAP = 50.0
CTX_INTER_CAP = 50.0
CTX_LEAD_CAP = 50.0
CTX_PED_CAP = 30.0
NC_ZONE_RADIUS = 15.0
NC_LOOKAHEAD_S = 5.0


class NavigationCommand(IntEnum):
    LEFT = 0
    RIGHT = 1
    CROSS = 2
    KEEP_LANE = 3


@dataclass
class Sample:
    """One training record, all positions in the ego frame at window center."""

    e: np.ndarray  # (T, K, 2)
    v: np.ndarray  # (N, T, K, 2)
    v_mask: np.ndarray  # (N,) bool
    m: np.ndarray  # MAP_ENTRY per occupied cell, by cell; label 0 ego, >0 other cars
    ctx: np.ndarray  # (8,)
    nc: NavigationCommand
    ego_future: np.ndarray  # (T, 2), at t = 0.1 .. 2.0
    neigh_future: np.ndarray  # (N, T, 2), each relative to own center position
    episode_seed: int = 0
    center_tick: int = 0
    deviated: bool = False


def samples_equal(a: Sample, b: Sample) -> bool:
    """Whether two samples hold equal values (NaN equals nothing)."""
    arrays = ("e", "v", "v_mask", "m", "ctx", "ego_future", "neigh_future")
    return (
        all(np.array_equal(getattr(a, name), getattr(b, name)) for name in arrays)
        and a.nc == b.nc
        and (a.episode_seed, a.center_tick, a.deviated)
        == (b.episode_seed, b.center_tick, b.deviated)
    )


# Window k at index i of a history holds the position at tick i - K + 1 + k;
# missing past is padded by repeating the oldest known position.
_HISTORY_INDEX = np.maximum(np.arange(T_STEPS)[:, None] - (K_WINDOW - 1) + np.arange(K_WINDOW), 0)


def fit_future_points(xy: np.ndarray) -> np.ndarray:
    """Least-squares degree-4 smoothing of (..., T, 2) futures onto the t grid."""
    return VAND @ (PINV @ np.asarray(xy, dtype=np.float64))


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Each (x, y) row's length, (B, R, 2) -> (B, R), ordered in each window
    as the 1-D np.linalg.norm orders them.  That norm is a BLAS dot, which
    may round apart from sqrt(x*x + y*y) in the last bit (far below 1e-9 m
    at town scale); so a window with two within 1e-9 m takes the 1-D norms.
    """
    squares = d * d
    r = np.sqrt(squares[..., 0] + squares[..., 1])
    ranked = np.sort(r, axis=1)
    close = ranked[:, 1:] - ranked[:, :-1] <= 1e-9
    if np.count_nonzero(close):
        for b in np.flatnonzero(close.any(axis=1)):
            r[b] = [np.linalg.norm(row) for row in d[b]]
    return r


def compute_context(network: RoadNetwork, egos, c, s, cars, peds, light_green) -> np.ndarray:
    """The 8 context scalars of B windows, (B, 8); see the caps at the top
    of this module.  egos : (B, 4) ego states (x, y, heading, speed), heading
    in (-pi, pi], with np.cos c and np.sin s; cars, peds and light_green: one
    entry per window, as in assemble_sample.

    Order: distance to next light stop line, light phase ahead (1 = red),
    distance to next intersection, signed lateral offset from the lane
    centerline (positive left), heading error vs lane, leading-vehicle
    distance, leading-vehicle relative speed, nearest crossing-pedestrian
    distance.
    """
    rows, hits = [], network.nearest_lane(egos[:, :2], c, s)
    for ego, cb, sb, hit, cars_b, peds_b, green in zip(
        egos.tolist(), c.tolist(), s.tolist(), hits, cars, peds, light_green
    ):
        d_light, phase, d_inter, lat, herr = CTX_LIGHT_CAP, 0.0, CTX_INTER_CAP, 0.0, 0.0
        if hit is None:
            d_inter = 0.0  # inside a junction core
        else:
            lane_id, along, lat = hit
            lane = network.lanes[lane_id]
            herr = float((ego[2] - lane.heading + np.pi) % (2 * np.pi) - np.pi)
            d_end = max(0.0, lane.length - along)
            to_node = network.nodes[lane.to_node]
            if to_node.kind == "junction":
                d_inter = min(d_end, CTX_INTER_CAP)
                if to_node.lit:
                    d_light = min(d_end, CTX_LIGHT_CAP)
                    phase = 0.0 if green(to_node.node_id, network.signal_axis(lane.seg_id)) else 1.0
        # The expert's own traffic rule, the walkers at speed 0 (none approaching).
        walkers = [(px, py, 1.0, 0.0, 0.0) for px, py in peds_b]
        gap, lead_dv, d_ped = simworld.traffic_ahead(ego, cb, sb, cars_b, walkers)
        rows.append((d_light, phase, d_inter, lat, herr, min(gap, CTX_LEAD_CAP), lead_dv,
                     min(d_ped, CTX_PED_CAP)))
    return np.array(rows).reshape(-1, 8)


def _zone_exit(track: np.ndarray, i: int, node_pos: np.ndarray) -> int:
    """First tick from i on, short of the last, at least NC_ZONE_RADIUS from
    node_pos by the 1-D np.linalg.norm (a BLAS dot, which may round apart
    from a row-wise norm), else the last: row norms with a margin pick the
    candidates, 64 ticks at a time, and the 1-D norm decides."""
    n = len(track)
    for lo in range(i, n - 1, 64):
        hi = min(lo + 64, n - 1)
        d = np.linalg.norm(track[lo:hi] - node_pos, axis=1)
        for j in lo + np.flatnonzero(d >= NC_ZONE_RADIUS - 1e-6):
            if float(np.linalg.norm(track[j] - node_pos)) >= NC_ZONE_RADIUS:
                return int(j)
    return n - 1


def turn_command(h_in, h_out) -> NavigationCommand:
    """Left, right or cross from the heading change across a junction zone,
    by the lane links' turn rule."""
    return NavigationCommand[simworld.heading_turn(h_in, h_out)[1].upper()]


def compute_navigation_command(
    log: EpisodeLog, centers: range, network: RoadNetwork
) -> list[NavigationCommand]:
    """The upcoming maneuver at each center tick, from the recorded ego motion:
    if the ego enters a junction zone (15 m radius) within the next 5 s, the
    signed heading change across the zone decides left / right / cross, else
    keep lane.  One junction-distance table covers the ticks looked ahead to;
    each entry tick is classified once, and one between an earlier entry and
    its exit shares that exit."""
    n = len(log)
    lookahead = int(round(NC_LOOKAHEAD_S / simworld.TICK))
    lo, hi = centers.start, min(n - 1, centers.stop - 1 + lookahead)
    track = log.states[:, 0, :2]
    # nearest_junction's row norms, one row per tick.
    d = np.linalg.norm(network.junction_pos - track[lo : hi + 1, None], axis=2)
    inside = np.flatnonzero(d.min(axis=1) < NC_ZONE_RADIUS).tolist()
    out, by_entry = [], {}
    exits: dict[int, tuple[int, int]] = {}  # node id -> (entry, its exit)
    for c in centers:
        k = bisect_left(inside, c - lo)
        i = lo + inside[k] if k < len(inside) else n
        if i > min(n - 1, c + lookahead):
            out.append(NavigationCommand.KEEP_LANE)
            continue
        if i not in by_entry:
            node_id = network.junction_ids[int(np.argmin(d[i - lo]))]
            first, j = exits.get(node_id, (n, n))
            if not first <= i <= j:
                j = _zone_exit(track, i, network.nodes[node_id].pos)
                exits[node_id] = (i, j)
            by_entry[i] = turn_command(log.states[i][0, 2], log.states[j][0, 2])
        out.append(by_entry[i])
    return out


def assemble_sample(
    network: RoadNetwork, egos: np.ndarray, tracks: np.ndarray, cars, peds, light_green, ncs
) -> list[Sample]:
    """Build the model inputs for B windows (shared offline / live path).

    egos   : (B, 4) the ego's center states (x, y, heading, speed), the frames.
    tracks : (B, 1 + C, W, 2) world positions, the ego's first (at its state's
             position at the center, tick T - 1), then the other cars' by agent
             id.  With W = 2T (offline) the later ticks give the futures.
    Per window: cars, the other cars' center states in agent order; peds,
    the pedestrians' positions; light_green(node_id, axis); ncs, the command.
    The neighbor slots hold up to N nearest cars, ties by agent id.
    """
    n_win, n_tracks = tracks.shape[:2]
    frames = np.array([(x, y, wrap_heading(h), v) for x, y, h, v in egos.tolist()]).reshape(-1, 4)
    c, s = np.cos(frames[:, 2]), np.sin(frames[:, 2])
    # (x, y) as complex128 x + iy: the same subtraction, over rows of W items.
    offsets = np.subtract(
        tracks.view(np.complex128)[..., 0], frames.view(np.complex128)[:, :1, None], order="C"
    ).view(np.float64).reshape(tracks.shape)
    rel = offsets @ np.array([c, -s, s, c]).T.reshape(-1, 1, 2, 2)  # d @ [[c, -s], [s, c]]
    # Center distances: world frame (neighbor ranks), ego frame (map
    # contests).  The ego's 0.0 among the first only adds 1-D norms where a
    # car is within 1e-9 m of it, which rank the cars as the row norms do.
    dists = _row_norms(np.concatenate([offsets[:, :, T_STEPS - 1], rel[:, :, T_STEPS - 1]]))
    n_nb = min(n_tracks - 1, N_NEIGHBORS)
    # Rows: the ego (0.0 at its own center, first of ties), then the neighbors.
    rows = dists[:n_win].argsort(axis=1, kind="stable")[:, : 1 + n_nb]
    picked = rel[np.arange(n_win)[:, None], rows]
    # Per window the ego's history, then the neighbor slots'; the same for futures.
    history = np.zeros((n_win, 1 + N_NEIGHBORS, T_STEPS, K_WINDOW, 2))
    history[:, : 1 + n_nb] = np.take(picked, _HISTORY_INDEX, axis=2)
    futures = np.zeros((n_win, 1 + N_NEIGHBORS, T_STEPS, 2))
    v_mask = np.zeros((n_win, N_NEIGHBORS), dtype=bool)
    v_mask[:, :n_nb] = True
    # Map labels are track rows, so owners are numbered in ascending agent id.
    maps = kernels.bin_proximity(rel[:, :, :T_STEPS], dists[n_win:])
    ctx = compute_context(network, frames, c, s, cars, peds, light_green)
    if tracks.shape[2] == WINDOW_TICKS:
        # Neighbor futures relative to their center; the ego's less 0.0 keeps its bits.
        anchor = picked[:, :, T_STEPS - 1 : T_STEPS].copy()
        anchor[:, 0] = 0.0
        futures[:, : 1 + n_nb] = fit_future_points(picked[:, :, T_STEPS:] - anchor)
    fields = zip(history[:, 0], history[:, 1:], v_mask, maps, ctx, ncs, futures[:, 0],
                 futures[:, 1:])
    return [Sample(*row) for row in fields]


EXTRACT_CHUNK = 256  # windows per assemble_sample call: bounds the batch's memory


def extract_windows(log: EpisodeLog, network: RoadNetwork) -> list[Sample]:
    """One sample per valid center tick (stride 1), in EXTRACT_CHUNK batches."""
    n = len(log)
    if n < WINDOW_TICKS:
        return []
    ego_row, *other_rows = log.car_indices()
    ped_rows = log.ped_indices()
    by_id = sorted(other_rows, key=log.agent_ids.__getitem__)
    # Each track as one row of (x, y) pairs; window w views its pairs w on.
    xy = log.states[:, [ego_row, *by_id], :2].transpose(1, 0, 2).reshape(1 + len(by_id), 2 * n)
    windows = np.lib.stride_tricks.sliding_window_view(xy, 2 * WINDOW_TICKS, axis=1)[:, ::2]
    seed = int(log.meta.get("seed", 0))
    samples: list[Sample] = []
    for lo in range(T_STEPS - 1, n - T_STEPS, EXTRACT_CHUNK):
        centers = range(lo, min(lo + EXTRACT_CHUNK, n - T_STEPS))
        tracks = windows[:, lo - T_STEPS + 1 : centers.stop - T_STEPS + 1].transpose(1, 0, 2)
        state = log.states[centers.start : centers.stop]
        batch = assemble_sample(
            network, state[:, ego_row], tracks.reshape(len(centers), len(xy), WINDOW_TICKS, 2),
            state[:, other_rows].tolist(), state[:, ped_rows, :2].tolist(),
            [partial(log.light_green_at, c) for c in centers],
            compute_navigation_command(log, centers, network),
        )
        for sample, c in zip(batch, centers):
            sample.episode_seed, sample.center_tick = seed, c
        samples += batch
    return samples


# -- serialization ------------------------------------------------------------


def dataset_header(extra: dict | None = None) -> dict:
    header = {
        "format_version": DATASET_FORMAT_VERSION,
        "T": T_STEPS,
        "K": K_WINDOW,
        "N": N_NEIGHBORS,
        "map_dims": [MAP_ROWS, MAP_COLS],
        "extent_m": [MAP_EXTENT_LONG, MAP_EXTENT_LAT],
        "map_channel_order": "xy_per_window_oldest_first",
    }
    if extra:
        header.update(extra)
    return header


# Format 2: the codec's header line, then one record per sample.  e, ctx and
# ef are packed whole, v and vf for the present neighbor slots only, and m as
# the sample's MAP_ENTRY array.  mask, nc, ep, ct and dev are plain JSON ints.


def _int(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:
        raise ValueError(f"field {key!r} is not an integer")
    return value


def _sample_to_record(s: Sample) -> dict:
    present = np.flatnonzero(s.v_mask)
    return {
        "e": pack(s.e),
        "v": pack(s.v[present]),
        "mask": s.v_mask.astype(int).tolist(),
        "m": pack(s.m, MAP_ENTRY),
        "ctx": pack(s.ctx),
        "nc": int(s.nc),
        "ef": pack(s.ego_future),
        "vf": pack(s.neigh_future[present]),
        "ep": int(s.episode_seed),
        "ct": int(s.center_tick),
        "dev": int(s.deviated),
    }


def _record_to_sample(rec: dict) -> Sample:
    mask = rec["mask"]
    if not (
        isinstance(mask, list)
        and len(mask) == N_NEIGHBORS
        and all(type(x) is int for x in mask)
    ):
        raise ValueError(f"field 'mask' is not a list of {N_NEIGHBORS} integers")
    v_mask = np.array(mask, dtype=bool)
    present = np.flatnonzero(v_mask)
    v = np.zeros((N_NEIGHBORS, T_STEPS, K_WINDOW, 2))
    v[present] = unpack_rows(rec, "v", len(present), (T_STEPS, K_WINDOW, 2))
    vf = np.zeros((N_NEIGHBORS, T_STEPS, 2))
    vf[present] = unpack_rows(rec, "vf", len(present), (T_STEPS, 2))
    m = unpack(rec, "m", (), MAP_ENTRY)
    cells, labels = m["cell"], m["label"]
    if (cells[1:] <= cells[:-1]).any():
        raise ValueError("map cells are not strictly increasing")
    if len(m) and cells[-1] >= MAP_SIZE:
        raise ValueError(f"map cell {cells[-1]} outside the {MAP_ROWS}x{MAP_COLS}x{T_STEPS} grid")
    if len(m) and labels.min() < 0:
        raise ValueError(f"map label {labels.min()} is negative")
    # astype and copy: the arrays own writeable memory, unlike frombuffer views.
    return Sample(
        e=unpack_rows(rec, "e", 1, (T_STEPS, K_WINDOW, 2))[0].astype(np.float64),
        v=v,
        v_mask=v_mask,
        m=m.copy(),
        ctx=unpack_rows(rec, "ctx", 1, (8,))[0].astype(np.float64),
        nc=NavigationCommand(_int(rec, "nc")),
        ego_future=unpack_rows(rec, "ef", 1, (T_STEPS, 2))[0].astype(np.float64),
        neigh_future=vf,
        episode_seed=_int(rec, "ep"),
        center_tick=_int(rec, "ct"),
        deviated=bool(_int(rec, "dev")),
    )


def write_dataset(samples: list[Sample], path, extra_meta: dict | None = None) -> None:
    write_records(path, dataset_header(extra_meta), map(_sample_to_record, samples))


def _check_header(header: dict) -> dict:
    check_version(header, DATASET_FORMAT_VERSION)
    for key, want in dataset_header().items():
        if header.get(key) != want:
            raise ValueError(f"header {key} is {header.get(key)!r}, expected {want!r}")
    return header


def read_dataset(path) -> tuple[list[Sample], dict]:
    header, samples = read_records(path, _check_header, lambda rec, _: _record_to_sample(rec))
    return samples, header
