"""Polynomial trajectory representation, fitting, sampling and metrics.

Trajectories are degree-4 polynomials of time per axis with coefficients
stored highest-degree first, i.e. x(t) = cx[0] t^4 + ... + cx[4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, ShapeError

DT = 0.1
HORIZON = 2.0
DEGREE = 4


@dataclass(frozen=True)
class Pose2D:
    """A planar reference frame: position in meters, heading in (-pi, pi]."""

    x: float
    y: float
    heading: float

    def __post_init__(self):
        h = float(self.heading)
        h = (h + np.pi) % (2.0 * np.pi) - np.pi
        if h == -np.pi:
            h = np.pi
        object.__setattr__(self, "heading", h)

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class PointSeries:
    """Timestamped 2D points; t relative to the window center, seconds."""

    t: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        xy = np.asarray(self.xy, dtype=np.float64)
        if t.ndim != 1 or xy.shape != (t.size, 2):
            raise ShapeError(f"PointSeries shapes t{t.shape} xy{xy.shape}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class PolyTrajectory2D:
    """Ten coefficients describing a 2 s future, highest degree first."""

    cx: np.ndarray
    cy: np.ndarray
    horizon: float = HORIZON

    def __post_init__(self):
        cx = np.asarray(self.cx, dtype=np.float64)
        cy = np.asarray(self.cy, dtype=np.float64)
        if cx.shape != (DEGREE + 1,) or cy.shape != (DEGREE + 1,):
            raise ShapeError("PolyTrajectory2D needs 5 coefficients per axis")
        if not (np.isfinite(cx).all() and np.isfinite(cy).all()):
            raise InvalidInputError("non-finite polynomial coefficients")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)

    @classmethod
    def from_coeff_vector(cls, vec, horizon: float = HORIZON) -> "PolyTrajectory2D":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (2 * (DEGREE + 1),):
            raise ShapeError("coefficient vector must have 10 entries")
        return cls(vec[: DEGREE + 1], vec[DEGREE + 1 :], horizon)


def fit_polynomial(points: PointSeries, degree: int = DEGREE) -> PolyTrajectory2D:
    """Least-squares polynomial fit per axis over the given timed points."""
    if len(points) < degree + 1:
        raise InsufficientDataError(
            f"need at least {degree + 1} points, got {len(points)}"
        )
    if not (np.isfinite(points.t).all() and np.isfinite(points.xy).all()):
        raise InvalidInputError("non-finite values in fit input")
    cx = np.polyfit(points.t, points.xy[:, 0], degree)
    cy = np.polyfit(points.t, points.xy[:, 1], degree)
    pad = DEGREE + 1 - cx.size
    if pad > 0:
        cx = np.concatenate([np.zeros(pad), cx])
        cy = np.concatenate([np.zeros(pad), cy])
    return PolyTrajectory2D(cx, cy)


def sample_times(dt: float = DT, horizon: float = HORIZON) -> np.ndarray:
    n = int(round(horizon / dt))
    return dt * np.arange(1, n + 1)


def sample_trajectory(
    poly: PolyTrajectory2D, dt: float = DT, horizon: float = HORIZON
) -> PointSeries:
    """Evaluate the trajectory at t = dt, 2*dt, ..., horizon."""
    if dt <= 0 or horizon <= 0:
        raise InvalidInputError("dt and horizon must be positive")
    t = sample_times(dt, horizon)
    xy = np.stack([np.polyval(poly.cx, t), np.polyval(poly.cy, t)], axis=1)
    return PointSeries(t, xy)


def _rotation(heading: float) -> np.ndarray:
    c, s = np.cos(heading), np.sin(heading)
    return np.array([[c, -s], [s, c]])


def to_frame(points: PointSeries, frame: Pose2D) -> PointSeries:
    """Express world points in the given frame (rigid transform, t unchanged)."""
    rel = (points.xy - frame.xy) @ _rotation(frame.heading)
    return PointSeries(points.t, rel)


def xy_to_frame(xy: np.ndarray, frame: Pose2D) -> np.ndarray:
    return (np.asarray(xy, dtype=np.float64) - frame.xy) @ _rotation(frame.heading)


def mae(pred: PointSeries, gt: PointSeries) -> float:
    """Mean Euclidean distance between matched points."""
    if len(pred) != len(gt):
        raise ShapeError("series length mismatch")
    return float(np.mean(np.linalg.norm(pred.xy - gt.xy, axis=1)))
