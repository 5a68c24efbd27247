"""Label augmentation and input randomization.

Deviation augmentation warps the ego past so the window-center pose is
laterally/angularly offset, then replaces the ground-truth future with a
synthesized recovery that rejoins the nominal path: a degree-4 polynomial
per axis pinned by position and velocity direction at t=0 and by position,
velocity and curvature of the nominal future at the rejoin time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .codec import check_bounded
from .dataset import _HISTORY_INDEX, K_WINDOW, MAP_ENTRY, MAP_SIZE, T_STEPS, Sample
from .errors import NumericalError, SkipSample
from .kernels import CELL_LAT, CELL_LONG, MAP_COLS, MAP_EXTENT_LAT, MAP_EXTENT_LONG
from .trajectory import DT, GRID_T, PINV, _rotation

LATERAL_AMPLITUDES = (0.2, 0.4, 0.6, 0.8)
RECOVERY_RANGE = (0.5, 2.0)
DEVIATION_START_RANGE = (0.5, 2.0)
MIN_NOMINAL_SPEED = 0.5  # below this the nominal future is degenerate
_PAST_T = (np.arange(T_STEPS) - (T_STEPS - 1)) * DT  # history index 0..T-1, window center 0


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
    ego_future: np.ndarray, lateral: float, angular: float, duration: float
) -> np.ndarray:
    """Future label points (T, 2) in the deviated frame.

    The nominal future, (T, 2) on the grid, is given in the nominal ego
    frame and read through its grid fit; the deviated frame sits at
    (0, lateral) rotated by ``angular``.  The recovery runs up to
    ``duration``; the later ticks follow the nominal future.
    """
    cx, cy = (PINV @ ego_future).T
    vel = np.polyder(cx), np.polyder(cy)
    speed0 = float(np.hypot(np.polyval(vel[0], 0.0), np.polyval(vel[1], 0.0)))
    if speed0 < MIN_NOMINAL_SPEED:
        raise SkipSample("nominal future is degenerate (near-stationary)")

    rot = _rotation(-angular)
    d = float(duration)
    late = GRID_T > d + 1e-12
    # The nominal position at d and at the late ticks, then its velocity and
    # acceleration at d, all in the deviated frame.  Stacked matrix-vector
    # products round as the per-point rot @ v does; (n, 2) @ rot.T would not.
    t = np.concatenate([[d], GRID_T[late]])
    nominal = np.stack([np.polyval(cx, t), np.polyval(cy, t)], axis=-1)
    nominal = (rot @ (nominal - [0.0, lateral])[..., None])[..., 0]
    vd = rot @ np.array([np.polyval(c, d) for c in vel])
    ad = rot @ np.array([np.polyval(np.polyder(c), d) for c in vel])
    rx = _recovery_axis(0.0, speed0, nominal[0, 0], vd[0], ad[0], d)
    ry = _recovery_axis(0.0, 0.0, nominal[0, 1], vd[1], ad[1], d)

    out = np.empty((T_STEPS, 2))
    early = GRID_T[~late]
    out[~late] = np.stack([np.polyval(rx, early), np.polyval(ry, early)], axis=-1)
    out[late] = nominal[1:]
    return out


def _warp_past(xy: np.ndarray, t: np.ndarray, params: DeviationParams) -> np.ndarray:
    """Apply the deviation ramp to nominal-frame past positions (..., 2) at
    times t (...): one rotation per point, stacked."""
    ramp = _smoothstep((t + params.deviation_start) / params.deviation_start)
    c, s = np.cos(ramp * params.angular_amplitude), np.sin(ramp * params.angular_amplitude)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(*ramp.shape, 2, 2)
    # The shift is added on both axes, x by 0.0, as the per-point code did.
    shift = np.stack([np.zeros_like(ramp), ramp * params.lateral_signed], axis=-1)
    return (rot @ xy[..., None])[..., 0] + shift


def _to_deviated(xy: np.ndarray, params: DeviationParams) -> np.ndarray:
    rot = _rotation(-params.angular_amplitude)
    return (xy - np.array([0.0, params.lateral_signed])) @ rot.T


def _rebuild_map(m: np.ndarray, params: DeviationParams) -> np.ndarray:
    """Deviate the tracks recovered from the map entries (the ego's past
    warped, the others by the frame change alone) and re-bin them with the
    extraction kernel.

    Tracks are kernel rows in ascending label order, NaN at the ticks no
    payload slot holds.  A track's distance is the norm of its last tick
    before the transform (1e9 when absent), so the track nearer at the window
    center wins a cell, and the lower label of equal distances.
    """
    t = m["cell"] % T_STEPS
    ids, row = np.unique(m["label"], return_inverse=True)
    tracks = np.full((len(ids), T_STEPS, 2), np.nan)
    # Payload slot k of tick t holds tick _HISTORY_INDEX[t, k]; entries go by
    # ascending cell, and the last write wins.
    tracks[row[:, None], _HISTORY_INDEX[t]] = m["xy"].reshape(-1, K_WINDOW, 2)
    dists = np.array([1e9 if np.isnan(p[0]) else np.linalg.norm(p) for p in tracks[:, -1]])
    if len(ids) and ids[0] == 0:
        tracks[0] = _warp_past(tracks[0], _PAST_T, params)
    (out,) = kernels.bin_proximity(_to_deviated(tracks, params), dists)
    xy = out["xy"]
    xy[np.isnan(xy)] = 0.0  # payload slots of absent ticks
    out["label"] = ids[out["label"]]
    return out


def inject_deviation(sample: Sample, params: DeviationParams) -> Sample:
    """Deviate the ego past and synthesize a recovery future.

    Raises :class:`SkipSample` when the nominal future is degenerate.
    """
    future = synthesize_recovery(
        sample.ego_future,
        params.lateral_signed,
        params.angular_amplitude,
        params.recovery_duration,
    )
    # Ego history: warp in the nominal frame, then express in the deviated one.
    e = _to_deviated(_warp_past(sample.e, _PAST_T[_HISTORY_INDEX], params), params)
    # Neighbor histories: pure frame change; futures are per-neighbor shifts
    # and only rotate.  Empty slots keep their values.
    present = np.flatnonzero(sample.v_mask)
    v, neigh_future = sample.v.copy(), sample.neigh_future.copy()
    v[present] = _to_deviated(sample.v[present], params)
    neigh_future[present] = sample.neigh_future[present] @ _rotation(-params.angular_amplitude).T
    # Context: the deviated pose shifts the lane-frame lateral offset and
    # heading error; the other scalars are unchanged at these amplitudes.
    herr = sample.ctx[4]
    ctx = sample.ctx.copy()
    ctx[3] = sample.ctx[3] + params.lateral_signed * np.cos(herr)
    ctx[4] = (herr + params.angular_amplitude + np.pi) % (2 * np.pi) - np.pi
    return replace(
        sample, e=e, v=v, m=_rebuild_map(sample.m, params), ctx=ctx, ego_future=future,
        neigh_future=neigh_future, deviated=True,
    )


def perturb_positions(
    sample: Sample, sigma_long: float, sigma_lat: float, seed
) -> Sample:
    """Gaussian noise on every past position in E, V and M; labels untouched."""
    if sigma_long == 0.0 and sigma_lat == 0.0:
        return sample
    rng = np.random.default_rng(seed)
    sig = np.array([sigma_long, sigma_lat])
    e = sample.e + rng.normal(0.0, 1.0, sample.e.shape) * sig
    noise_v = rng.normal(0.0, 1.0, sample.v.shape) * sig
    v = sample.v + noise_v * sample.v_mask[:, None, None, None]
    # One draw per payload value of the whole grid, used at the occupied cells.
    noise_m = rng.normal(0.0, 1.0, (MAP_SIZE, 2 * K_WINDOW)) * np.tile(sig, K_WINDOW)
    m = sample.m.copy()
    m["xy"] += noise_m[m["cell"]]
    return replace(sample, e=e, v=v, m=m)


def _uniform(lo: float, hi: float, u: float) -> float:
    """rng.uniform(lo, hi) from the rng.random() draw u, as numpy computes it."""
    return lo + (hi - lo) * u


def perturb_map_occupancy(m: np.ndarray, p_remove: float, p_add: float, seed) -> np.ndarray:
    """Randomly drop vehicle tracks and add spurious short tracks, on a
    sample's map entries.

    Track label 0 (the ego) is never removed.  Additions run one Bernoulli
    draw per free (row, col, tick) cell, in C order, and spawn a K-tick
    near-stationary track there: four more draws give its position and drift,
    and it fills the cell until tick T-1 or an occupied tick.  Cells it fills
    are no longer free and take no draw.
    """
    rng = np.random.default_rng(seed)
    track_ids = np.unique(m["label"][m["label"] > 0])
    m = m[~np.isin(m["label"], track_ids[rng.random(track_ids.size) < p_remove])]
    if p_add > 0.0:
        next_label = max(int(m["label"].max(initial=-1)) + 1, 1000)  # high labels for clutter
        half_long, half_lat = MAP_EXTENT_LONG / 2.0, MAP_EXTENT_LAT / 2.0
        taken = np.zeros(MAP_SIZE, dtype=bool)
        taken[m["cell"]] = True
        free = np.flatnonzero(~taken).tolist()
        added = []
        # One free cell takes one draw, a hit four more: 5 per free cell bound them all.
        u = rng.random(5 * len(free))
        hits = np.flatnonzero(u < p_add).tolist()
        u = u.tolist()
        cell = draw = 0  # the next free cell and its draw
        while (h := bisect_left(hits, draw)) < len(hits):
            hit = hits[h]
            cell += hit - draw  # the cells between took a draw each and missed
            if cell >= len(free):
                break
            draw = hit + 5
            head = free[cell]
            rc, t = divmod(head, T_STEPS)
            r, c = divmod(rc, MAP_COLS)
            cx = -half_long + (r + 0.5) * CELL_LONG + _uniform(-1.0, 1.0, u[hit + 1])
            cy = -half_lat + (c + 0.5) * CELL_LAT + _uniform(-0.8, 0.8, u[hit + 2])
            dx, dy = _uniform(-0.3, 0.3, u[hit + 3]), _uniform(-0.3, 0.3, u[hit + 4])
            track = [v for j in range(K_WINDOW) for v in (cx + dx * j, cy + dy * j)]
            n = 0  # ticks filled; tick t + n, if the next free cell, holds ticks t .. t + n
            while n < K_WINDOW and t + n < T_STEPS and free[cell + n : cell + n + 1] == [head + n]:
                xy = [0.0] * (2 * (K_WINDOW - 1 - n)) + track[: 2 * (n + 1)]
                added.append((head + n, next_label, xy))
                n += 1
            cell += n  # the filled ticks were the next free cells
            next_label += 1
        if added:
            m = np.concatenate([m, np.array(added, MAP_ENTRY)])
            m = m[np.argsort(m["cell"])]
    return m


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
    Raises :class:`NumericalError` on a sample holding a float that the
    dataset reader refuses (not finite, or beyond ``codec.MAX_ABS``).
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
                cur = inject_deviation(s, params)
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
            m = perturb_map_occupancy(cur.m, config.p_remove, config.p_add,
                                      (seed, 0x0C, cur.episode_seed, cur.center_tick))
            cur = replace(cur, m=m)
        # The reader's value check, so that no output is one it would refuse.
        for name in ("e", "v", "m", "ctx", "ego_future", "neigh_future"):
            try:
                check_bounded(getattr(cur, name), f"episode {cur.episode_seed} tick "
                              f"{cur.center_tick}: field {name!r}")
            except ValueError as e:
                raise NumericalError(str(e)) from None
        out.append(cur)
    return out
