"""Turn episode logs into training samples.

A sample packs the ego history E (T x K x 2), up to N neighbor histories
with a presence mask, the 13 x 3 x T x 2K proximity map, 8 context scalars,
a navigation command and the ground-truth ego/neighbor futures (fitted to
degree-4 polynomials and resampled on the 0.1 s grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import kernels, simworld
from .codec import check_version, pack, read_records, unpack, unpack_rows, write_records
from .kernels import MAP_COLS, MAP_EXTENT_LAT, MAP_EXTENT_LONG, MAP_ROWS
from .simworld import EpisodeLog, RoadNetwork
from .trajectory import PointSeries, Pose2D, sample_times, xy_to_frame

T_STEPS = 20
K_WINDOW = 3
N_NEIGHBORS = 5
WINDOW_TICKS = 2 * T_STEPS  # 2 s past + 2 s future
DATASET_FORMAT_VERSION = 2

# Context feature caps (meters / rad / m/s); see ContextFeatures order below.
CTX_LIGHT_CAP = 50.0
CTX_INTER_CAP = 50.0
CTX_LEAD_CAP = 50.0
CTX_PED_CAP = 30.0
NC_ZONE_RADIUS = 15.0
NC_LOOKAHEAD_S = 5.0

_FUTURE_T = sample_times()
# Fixed-grid least squares: pinv of the degree-4 Vandermonde on the 20
# future instants.  Identical minimizer to fit_polynomial on this grid.
_FUTURE_VAND = np.vander(_FUTURE_T, 5)
_FUTURE_PINV = np.linalg.pinv(_FUTURE_VAND)


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
    m_cells: np.ndarray  # (13, 3, T, 2K)
    m_labels: np.ndarray  # (13, 3, T) int64; -1 empty, 0 ego, >0 other cars
    ctx: np.ndarray  # (8,)
    nc: NavigationCommand
    ego_future: np.ndarray  # (T, 2), at t = 0.1 .. 2.0
    neigh_future: np.ndarray  # (N, T, 2), each relative to own center position
    episode_seed: int = 0
    center_tick: int = 0
    deviated: bool = False

    def ego_future_series(self) -> PointSeries:
        return PointSeries(_FUTURE_T, self.ego_future)


def samples_equal(a: Sample, b: Sample) -> bool:
    """Whether two samples hold equal values (NaN equals nothing)."""
    arrays = ("e", "v", "v_mask", "m_cells", "m_labels", "ctx", "ego_future", "neigh_future")
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
    coeffs = _FUTURE_PINV @ np.asarray(xy, dtype=np.float64)
    return _FUTURE_VAND @ coeffs


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Each (x, y) row's length, ordered as the 1-D np.linalg.norm orders them.

    That norm is a BLAS dot, which may round apart from sqrt(x*x + y*y) in
    the last bit (far below 1e-9 m at town scale); so when any two of these
    lie within 1e-9 m, the 1-D norms are returned instead.  On 2-16 rows,
    Python floats beat numpy's per-call cost, and math.sqrt rounds as np.sqrt.
    """
    r = [math.sqrt(x * x + y * y) for x, y in d.tolist()]
    s = sorted(r)
    if any(b - a <= 1e-9 for a, b in zip(s, s[1:])):
        return np.array([np.linalg.norm(row) for row in d])
    return np.array(r)


def compute_context(
    network: RoadNetwork,
    ego: tuple[float, float, float, float],
    cars: list[tuple[float, float, float, float]],
    peds: list[tuple[float, float]],
    light_green,
) -> np.ndarray:
    """The 8 context scalars; see the caps at the top of this module.

    Order: distance to next light stop line, light phase ahead (1 = red),
    distance to next intersection, signed lateral offset from the lane
    centerline (positive left), heading error vs lane, leading-vehicle
    distance, leading-vehicle relative speed, nearest crossing-pedestrian
    distance.
    """
    x, y, h, _ = ego
    d_light, phase, d_inter = CTX_LIGHT_CAP, 0.0, CTX_INTER_CAP
    lat, herr = 0.0, 0.0
    hit = network.nearest_lane((x, y), h)
    if hit is None:
        d_inter = 0.0  # inside a junction core
    else:
        lane_id, s, lat = hit
        lane = network.lanes[lane_id]
        herr = float((h - lane.heading + np.pi) % (2 * np.pi) - np.pi)
        d_end = max(0.0, lane.length - s)
        to_node = network.nodes[lane.to_node]
        if to_node.kind == "junction":
            d_inter = min(d_end, CTX_INTER_CAP)
            if to_node.lit:
                d_light = min(d_end, CTX_LIGHT_CAP)
                green = light_green(to_node.node_id, network.signal_axis(lane.seg_id))
                phase = 0.0 if green else 1.0

    # The expert's own leader and pedestrian rule; the pedestrians have no
    # speed here, so none is approaching.
    walkers = [(px, py, 1.0, 0.0, 0.0) for px, py in peds]
    gap, lead_dv, d_ped = simworld.traffic_ahead(ego, float(np.cos(h)), float(np.sin(h)), cars, walkers)
    d_lead, d_ped = min(gap, CTX_LEAD_CAP), min(d_ped, CTX_PED_CAP)
    return np.array([d_light, phase, d_inter, float(lat), herr, d_lead, lead_dv, d_ped])


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
    log: EpisodeLog, center_tick: int, network: RoadNetwork
) -> NavigationCommand:
    """Classify the upcoming maneuver from the recorded ego motion.

    If the ego enters a junction zone (15 m radius) within the next 5 s, the
    signed heading change across the zone decides left / right / cross;
    otherwise keep lane.
    """
    n = len(log)
    horizon = min(n - 1, center_tick + int(round(NC_LOOKAHEAD_S / simworld.TICK)))
    track = log.states[:, 0, :2]
    # nearest_junction's row norms, for every tick of the lookahead at once.
    d = np.linalg.norm(network.junction_pos - track[center_tick : horizon + 1, None], axis=2)
    inside = np.flatnonzero(d.min(axis=1) < NC_ZONE_RADIUS)
    if not inside.size:
        return NavigationCommand.KEEP_LANE
    i = center_tick + int(inside[0])
    node_id = network.junction_ids[int(np.argmin(d[inside[0]]))]
    j = _zone_exit(track, i, network.nodes[node_id].pos)
    return turn_command(log.states[i][0, 2], log.states[j][0, 2])


def assemble_sample(
    network: RoadNetwork,
    ego: tuple[float, float, float, float],
    tracks: np.ndarray,
    cars: list[tuple[float, float, float, float]],
    peds: list[tuple[float, float]],
    light_green,
    nc: NavigationCommand,
) -> tuple[Sample, np.ndarray, np.ndarray]:
    """Build the model inputs for one window (shared offline / live path).

    ego    : the ego's center state (x, y, heading, speed); its pose is the frame.
    tracks : (1 + C, W, 2) world positions, the ego's first, then the other
             cars' in ascending agent id.  Tick T - 1 is the window center;
             ticks after it (W = 2T offline, the future) ride along.
    cars   : the other cars' center states, in agent order.
    peds   : the pedestrians' center positions.
    Returns the sample, the tracks in the ego frame, and the rows of tracks
    that fill the neighbor slots: up to N nearest, ties by agent id.
    """
    frame = Pose2D(*ego[:3])
    rel = xy_to_frame(tracks, frame)
    center = T_STEPS - 1
    order = 1 + np.argsort(_row_norms(tracks[1:, center] - frame.xy), kind="stable")[:N_NEIGHBORS]
    v = np.zeros((N_NEIGHBORS, T_STEPS, K_WINDOW, 2))
    v[: len(order)] = rel[order[:, None, None], _HISTORY_INDEX]
    v_mask = np.arange(N_NEIGHBORS) < len(order)
    # Map labels are track rows, so owners are numbered in ascending agent id.
    m_cells, m_labels = kernels.bin_proximity(rel[:, :T_STEPS], _row_norms(rel[:, center]), K_WINDOW)
    ctx = compute_context(network, (frame.x, frame.y, frame.heading, ego[3]), cars, peds, light_green)
    return Sample(
        e=rel[0, _HISTORY_INDEX],
        v=v,
        v_mask=v_mask,
        m_cells=m_cells,
        m_labels=m_labels,
        ctx=ctx,
        nc=nc,
        ego_future=np.zeros((T_STEPS, 2)),
        neigh_future=np.zeros((N_NEIGHBORS, T_STEPS, 2)),
    ), rel, order


def extract_windows(log: EpisodeLog, network: RoadNetwork) -> list[Sample]:
    """One sample per valid center tick (stride 1)."""
    n = len(log)
    if n < WINDOW_TICKS:
        return []
    ego_row, *other_rows = log.car_indices()
    ped_rows = log.ped_indices()
    by_id = sorted(other_rows, key=log.agent_ids.__getitem__)
    xy = np.ascontiguousarray(log.states[:, [ego_row, *by_id], :2].transpose(1, 0, 2))
    seed = int(log.meta.get("seed", 0))
    samples: list[Sample] = []
    for c in range(T_STEPS - 1, n - T_STEPS):
        state = log.states[c]

        def light_green(node_id, axis, _tick=c):
            return log.light_green_at(_tick, node_id, axis)

        sample, rel, order = assemble_sample(
            network,
            tuple(state[ego_row].tolist()),
            xy[:, c - T_STEPS + 1 : c + T_STEPS + 1],
            state[other_rows].tolist(),
            state[ped_rows, :2].tolist(),
            light_green,
            compute_navigation_command(log, c, network),
        )
        sample.ego_future = fit_future_points(rel[0, T_STEPS:])
        # Each neighbor's future relative to its own center position.
        sample.neigh_future[: len(order)] = fit_future_points(
            rel[order, T_STEPS:] - rel[order, T_STEPS - 1 : T_STEPS]
        )
        sample.episode_seed = seed
        sample.center_tick = c
        samples.append(sample)
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
# one _MAP_ENTRY per occupied map cell.  mask, nc, ep, ct and dev are plain
# JSON ints.
# One occupied map cell: flat index into the (13, 3, T) grid, label, payload.
_MAP_ENTRY = np.dtype([("cell", "<u2"), ("label", "<i8"), ("xy", "<f8", (2 * K_WINDOW,))])
_MAP_SIZE = MAP_ROWS * MAP_COLS * T_STEPS


def _int(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:
        raise ValueError(f"field {key!r} is not an integer")
    return value


def _sample_to_record(s: Sample) -> dict:
    labels = s.m_labels.ravel()
    cells = np.flatnonzero(labels >= 0)
    m = np.empty(len(cells), _MAP_ENTRY)
    m["cell"] = cells
    m["label"] = labels[cells]
    m["xy"] = s.m_cells.reshape(-1, 2 * K_WINDOW)[cells]
    present = np.flatnonzero(s.v_mask)
    return {
        "e": pack(s.e),
        "v": pack(s.v[present]),
        "mask": s.v_mask.astype(int).tolist(),
        "m": pack(m, _MAP_ENTRY),
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
    m = unpack(rec, "m", (), _MAP_ENTRY)
    if len(m) and m["cell"].max() >= _MAP_SIZE:
        raise ValueError(
            f"map cell {m['cell'].max()} outside the {MAP_ROWS}x{MAP_COLS}x{T_STEPS} grid"
        )
    m_cells = np.zeros((MAP_ROWS, MAP_COLS, T_STEPS, 2 * K_WINDOW))
    m_cells.reshape(-1, 2 * K_WINDOW)[m["cell"]] = m["xy"]
    m_labels = np.full((MAP_ROWS, MAP_COLS, T_STEPS), -1, dtype=np.int64)
    m_labels.reshape(-1)[m["cell"]] = m["label"]
    # astype copies: the arrays own writeable memory, unlike frombuffer views.
    return Sample(
        e=unpack_rows(rec, "e", 1, (T_STEPS, K_WINDOW, 2))[0].astype(np.float64),
        v=v,
        v_mask=v_mask,
        m_cells=m_cells,
        m_labels=m_labels,
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
