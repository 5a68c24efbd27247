"""Label augmentation and input randomization.

Deviation augmentation warps the ego past so the window-center pose is
laterally/angularly offset, then replaces the ground-truth future with a
synthesized recovery that rejoins the nominal path: a degree-4 polynomial
per axis pinned by position and velocity direction at t=0 and by position,
velocity and curvature of the nominal future at the rejoin time.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .dataset import _FUTURE_T, _HISTORY_INDEX, K_WINDOW, N_NEIGHBORS, T_STEPS, Sample
from .errors import SkipSample
from .kernels import CELL_LAT, CELL_LONG, MAP_COLS, MAP_EXTENT_LAT, MAP_EXTENT_LONG, MAP_ROWS
from .trajectory import DT, PointSeries, _rotation, fit_polynomial

LATERAL_AMPLITUDES = (0.2, 0.4, 0.6, 0.8)
RECOVERY_RANGE = (0.5, 2.0)
DEVIATION_START_RANGE = (0.5, 2.0)
MIN_NOMINAL_SPEED = 0.5  # below this the nominal future is degenerate


class ProximityMap(NamedTuple):
    cells: np.ndarray  # (13, 3, T, 2K)
    labels: np.ndarray  # (13, 3, T) int64


@dataclass(frozen=True)
class DeviationParams:
    lateral_amplitude: float  # meters, >= 0
    angular_amplitude: float  # radians, signed
    deviation_start: float  # seconds before the window center, (0, 2]
    recovery_duration: float  # seconds, (0, 2]
    side: str = "left"  # lateral offset direction

    @property
    def lateral_signed(self) -> float:
        return self.lateral_amplitude if self.side == "left" else -self.lateral_amplitude


def random_deviation_params(rng: np.random.Generator) -> DeviationParams:
    lat = float(rng.choice(LATERAL_AMPLITUDES))
    # Orientation options: facing front, or facing a point 10 m ahead on the
    # nominal path from either side offset (symmetric pair).
    ang = float(rng.choice([0.0, np.arctan(lat / 10.0), -np.arctan(lat / 10.0)]))
    return DeviationParams(
        lateral_amplitude=lat,
        angular_amplitude=ang,
        deviation_start=float(rng.uniform(*DEVIATION_START_RANGE)),
        recovery_duration=float(rng.uniform(*RECOVERY_RANGE)),
        side="left" if rng.integers(2) else "right",
    )


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _past_tick_times() -> np.ndarray:
    """t of history index 0..T-1, relative to the window center."""
    return (np.arange(T_STEPS) - (T_STEPS - 1)) * DT


def _poly_derivatives(coeffs: np.ndarray, t: float) -> tuple[float, float, float]:
    p = np.polyval(coeffs, t)
    d1 = np.polyval(np.polyder(coeffs), t)
    d2 = np.polyval(np.polyder(coeffs, 2), t)
    return float(p), float(d1), float(d2)


def _recovery_axis(p0, v0, pd, vd, ad, d) -> np.ndarray:
    """Degree-4 coefficients (highest first) for one axis of the recovery."""
    rows = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 1.0],  # p(0)
            [0.0, 0.0, 0.0, 1.0, 0.0],  # p'(0)
            [d**4, d**3, d**2, d, 1.0],  # p(d)
            [4 * d**3, 3 * d**2, 2 * d, 1.0, 0.0],  # p'(d)
            [12 * d**2, 6 * d, 2.0, 0.0, 0.0],  # p''(d)
        ]
    )
    rhs = np.array([p0, v0, pd, vd, ad])
    return np.linalg.solve(rows, rhs)


def synthesize_recovery(
    nominal_future: PointSeries, lateral: float, angular: float, duration: float
) -> np.ndarray:
    """Future label points (T, 2) in the deviated frame.

    The nominal future is given in the nominal ego frame; the deviated frame
    sits at (0, lateral) rotated by ``angular``.
    """
    poly = fit_polynomial(nominal_future)
    _, vx0, _ = _poly_derivatives(poly.cx, 0.0)
    _, vy0, _ = _poly_derivatives(poly.cy, 0.0)
    speed0 = float(np.hypot(vx0, vy0))
    if speed0 < MIN_NOMINAL_SPEED:
        raise SkipSample("nominal future is degenerate (near-stationary)")

    rot = _rotation(-angular)
    offset = np.array([0.0, lateral])

    def nominal_in_dev(t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        px, vx, ax = _poly_derivatives(poly.cx, t)
        py, vy, ay = _poly_derivatives(poly.cy, t)
        p = rot @ (np.array([px, py]) - offset)
        v = rot @ np.array([vx, vy])
        a = rot @ np.array([ax, ay])
        return p, v, a

    d = float(duration)
    pd, vd, ad = nominal_in_dev(d)
    cx = _recovery_axis(0.0, speed0, pd[0], vd[0], ad[0], d)
    cy = _recovery_axis(0.0, 0.0, pd[1], vd[1], ad[1], d)

    out = np.empty((T_STEPS, 2))
    for i, t in enumerate(_FUTURE_T):
        if t <= d + 1e-12:
            out[i, 0] = np.polyval(cx, t)
            out[i, 1] = np.polyval(cy, t)
        else:
            out[i] = nominal_in_dev(float(t))[0]
    return out


def _warp_past(xy: np.ndarray, t: np.ndarray, params: DeviationParams) -> np.ndarray:
    """Apply the deviation ramp to nominal-frame past positions."""
    lat = params.lateral_signed
    ang = params.angular_amplitude
    ramp = _smoothstep((t + params.deviation_start) / params.deviation_start)
    out = np.empty_like(xy)
    for i in range(xy.shape[0]):
        r = ramp[i]
        out[i] = _rotation(r * ang) @ xy[i] + np.array([0.0, r * lat])
    return out


def _to_deviated(xy: np.ndarray, params: DeviationParams) -> np.ndarray:
    rot = _rotation(-params.angular_amplitude)
    return (xy - np.array([0.0, params.lateral_signed])) @ rot.T


def _rebuild_map(m: ProximityMap, params: DeviationParams) -> ProximityMap:
    """Deviate the tracks recovered from the map (the ego's past warped, the
    others by the frame change alone) and re-bin them with the extraction
    kernel.

    Tracks are kernel rows in ascending label order, NaN at the ticks no
    payload slot holds.  A track's distance is the norm of its last tick
    before the transform (1e9 when absent), so the track nearer at the window
    center wins a cell, and the lower label of equal distances.
    """
    r, c, t = np.nonzero(m.labels >= 0)
    ids, row = np.unique(m.labels[r, c, t], return_inverse=True)
    tracks = np.full((len(ids), T_STEPS, 2), np.nan)
    # Payload slot k of tick t holds tick _HISTORY_INDEX[t, k]; the last write wins.
    tracks[row[:, None], _HISTORY_INDEX[t]] = m.cells[r, c, t].reshape(-1, K_WINDOW, 2)
    ticks = _past_tick_times()
    moved = np.empty_like(tracks)
    dists = np.full(len(ids), 1e9)
    for i, a in enumerate(ids):
        track = _warp_past(tracks[i], ticks, params) if a == 0 else tracks[i]
        moved[i] = _to_deviated(track, params)
        if not np.isnan(tracks[i, -1, 0]):
            dists[i] = np.linalg.norm(tracks[i, -1])
    cells, labels = kernels.bin_proximity(moved, dists, K_WINDOW)
    cells[np.isnan(cells)] = 0.0  # payload slots of absent ticks
    occupied = labels >= 0
    labels[occupied] = ids[labels[occupied]]
    return ProximityMap(cells, labels)


def inject_deviation(
    sample: Sample, params: DeviationParams, nominal_future: PointSeries
) -> Sample:
    """Deviate the ego past and synthesize a recovery future.

    Raises :class:`SkipSample` when the nominal future is degenerate.
    """
    future = synthesize_recovery(
        nominal_future,
        params.lateral_signed,
        params.angular_amplitude,
        params.recovery_duration,
    )
    out = copy.deepcopy(sample)
    ticks = _past_tick_times()

    # Ego history: warp in the nominal frame, then express in the deviated one.
    for k in range(K_WINDOW):
        idx = np.maximum(np.arange(T_STEPS) - (K_WINDOW - 1) + k, 0)
        warped = _warp_past(sample.e[:, k, :], ticks[idx], params)
        out.e[:, k, :] = _to_deviated(warped, params)

    # Neighbor histories: pure frame change; futures are per-neighbor shifts
    # and only rotate.
    rot = _rotation(-params.angular_amplitude)
    for n in range(N_NEIGHBORS):
        if not sample.v_mask[n]:
            continue
        for k in range(K_WINDOW):
            out.v[n, :, k, :] = _to_deviated(sample.v[n, :, k, :], params)
        out.neigh_future[n] = sample.neigh_future[n] @ rot.T
    out.m_cells, out.m_labels = _rebuild_map(ProximityMap(sample.m_cells, sample.m_labels), params)

    out.ego_future = future
    # Context: the deviated pose shifts the lane-frame lateral offset and
    # heading error; the other scalars are unchanged at these amplitudes.
    herr = sample.ctx[4]
    out.ctx = sample.ctx.copy()
    out.ctx[3] = sample.ctx[3] + params.lateral_signed * np.cos(herr)
    out.ctx[4] = (herr + params.angular_amplitude + np.pi) % (2 * np.pi) - np.pi
    out.deviated = True
    return out


def perturb_positions(
    sample: Sample, sigma_long: float, sigma_lat: float, seed
) -> Sample:
    """Gaussian noise on every past position in E, V and M; labels untouched."""
    if sigma_long == 0.0 and sigma_lat == 0.0:
        return sample
    rng = np.random.default_rng(seed)
    sig = np.array([sigma_long, sigma_lat])
    out = copy.deepcopy(sample)
    out.e = sample.e + rng.normal(0.0, 1.0, sample.e.shape) * sig
    noise_v = rng.normal(0.0, 1.0, sample.v.shape) * sig
    out.v = sample.v + noise_v * sample.v_mask[:, None, None, None]
    occupied = sample.m_labels >= 0
    noise_m = rng.normal(0.0, 1.0, sample.m_cells.shape) * np.tile(sig, K_WINDOW)
    out.m_cells = sample.m_cells + noise_m * occupied[..., None]
    return out


def perturb_map_occupancy(
    m: ProximityMap, p_remove: float, p_add: float, seed
) -> ProximityMap:
    """Randomly drop vehicle tracks and add spurious short tracks.

    Track label 0 (the ego) is never removed.  Additions run one Bernoulli
    draw per free (row, col, tick) cell and spawn a K-tick near-stationary
    track there.
    """
    rng = np.random.default_rng(seed)
    cells = m.cells.copy()
    labels = m.labels.copy()
    track_ids = sorted(int(a) for a in np.unique(labels) if a > 0)
    for a in track_ids:
        if rng.random() < p_remove:
            mask = labels == a
            labels[mask] = -1
            cells[mask] = 0.0
    if p_add > 0.0:
        next_label = int(labels.max()) + 1 if labels.max() >= 0 else 1
        next_label = max(next_label, 1000)  # spurious tracks get high labels
        half_long, half_lat = MAP_EXTENT_LONG / 2.0, MAP_EXTENT_LAT / 2.0
        for r in range(MAP_ROWS):
            for c in range(MAP_COLS):
                for t in range(T_STEPS):
                    if labels[r, c, t] >= 0 or rng.random() >= p_add:
                        continue
                    cx = -half_long + (r + 0.5) * CELL_LONG + rng.uniform(-1.0, 1.0)
                    cy = -half_lat + (c + 0.5) * CELL_LAT + rng.uniform(-0.8, 0.8)
                    drift = rng.uniform(-0.3, 0.3, size=2)
                    for dt_i in range(K_WINDOW):
                        tt = t + dt_i
                        if tt >= T_STEPS or labels[r, c, tt] >= 0:
                            break
                        labels[r, c, tt] = next_label
                        pos = np.array([cx, cy])
                        for k in range(K_WINDOW):
                            j = tt - (K_WINDOW - 1) + k
                            if t <= j <= tt:
                                cells[r, c, tt, 2 * k : 2 * k + 2] = pos + drift * (
                                    j - t
                                )
                    next_label += 1
    return ProximityMap(cells, labels)


# -- dataset-level orchestration ---------------------------------------------


MODES = ("none", "partial", "full")


@dataclass
class AugmentConfig:
    mode: str = "full"  # one of MODES
    fraction: float = 0.2  # share of episodes whose samples are deviated
    sigma_long: float = 0.0
    sigma_lat: float = 0.0
    p_remove: float = 0.0
    p_add: float = 0.0


def augment_samples(
    samples: list[Sample], config: AugmentConfig, seed: int
) -> list[Sample]:
    """Apply deviation augmentation per episode, then randomization noise.

    ``full`` deviates a seeded ``fraction`` of episodes; ``partial``
    restricts the same selection to one of 4 episode sub-seed groups.
    """
    rng = np.random.default_rng((seed, 0xA6))
    episodes = sorted({s.episode_seed for s in samples})
    selected: set[int] = set()
    if config.mode in ("partial", "full") and config.fraction > 0.0:
        n_sel = int(round(config.fraction * len(episodes)))
        perm = rng.permutation(len(episodes))
        selected = {episodes[int(i)] for i in perm[:n_sel]}
        if config.mode == "partial":
            selected = {ep for ep in selected if ep % 4 == 0}
    out: list[Sample] = []
    for s in samples:
        cur = s
        if s.episode_seed in selected and not s.deviated:
            params = random_deviation_params(rng)
            try:
                cur = inject_deviation(s, params, s.ego_future_series())
            except SkipSample:
                cur = s
        if config.sigma_long > 0.0 or config.sigma_lat > 0.0:
            cur = perturb_positions(
                cur,
                config.sigma_long,
                config.sigma_lat,
                (seed, 0x9E, cur.episode_seed, cur.center_tick),
            )
        if config.p_remove > 0.0 or config.p_add > 0.0:
            newmap = perturb_map_occupancy(
                ProximityMap(cur.m_cells, cur.m_labels),
                config.p_remove,
                config.p_add,
                (seed, 0x0C, cur.episode_seed, cur.center_tick),
            )
            if cur is s:
                cur = copy.deepcopy(s)
            cur.m_cells, cur.m_labels = newmap.cells, newmap.labels
        out.append(cur)
    return out
