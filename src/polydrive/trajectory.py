"""Polynomial trajectory representation, fitting, sampling and frame changes.

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


def wrap_heading(h) -> float:
    """A heading as a float in (-pi, pi]."""
    h = (float(h) + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if h == -np.pi else h


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
    def from_coeff_vector(cls, vec) -> "PolyTrajectory2D":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (2 * (DEGREE + 1),):
            raise ShapeError("coefficient vector must have 10 entries")
        return cls(vec[: DEGREE + 1], vec[DEGREE + 1 :])


def fit_polynomial(points: PointSeries) -> PolyTrajectory2D:
    """Least-squares degree-4 fit per axis over the given timed points."""
    if len(points) < DEGREE + 1:
        raise InsufficientDataError(
            f"need at least {DEGREE + 1} points, got {len(points)}"
        )
    if not (np.isfinite(points.t).all() and np.isfinite(points.xy).all()):
        raise InvalidInputError("non-finite values in fit input")
    cx = np.polyfit(points.t, points.xy[:, 0], DEGREE)
    cy = np.polyfit(points.t, points.xy[:, 1], DEGREE)
    return PolyTrajectory2D(cx, cy)


def sample_times() -> np.ndarray:
    """t = DT, 2*DT, ..., HORIZON."""
    return DT * np.arange(1, int(round(HORIZON / DT)) + 1)


def _rotation(heading: float) -> np.ndarray:
    c, s = np.cos(heading), np.sin(heading)
    return np.array([[c, -s], [s, c]])

