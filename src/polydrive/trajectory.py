"""Polynomial trajectory representation, the one fit, and frame changes.

Trajectories are degree-4 polynomials of time per axis with coefficients
stored highest-degree first, i.e. x(t) = cx[0] t^4 + ... + cx[4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError

DT = 0.1
HORIZON = 2.0
DEGREE = 4
# The 0.1 s grid t = DT .. HORIZON, its degree-4 Vandermonde (highest degree
# first) and that matrix's pseudo-inverse.  The one least-squares fit of
# points on the grid is coeffs = PINV @ xy: (5, 2) columns cx, cy for (T, 2).
GRID_T = DT * np.arange(1, int(round(HORIZON / DT)) + 1)
VAND = np.vander(GRID_T, DEGREE + 1)
PINV = np.linalg.pinv(VAND)


def wrap_heading(h) -> float:
    """A heading as a float in (-pi, pi]."""
    h = (float(h) + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if h == -np.pi else h


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


def _rotation(heading: float) -> np.ndarray:
    c, s = np.cos(heading), np.sin(heading)
    return np.array([[c, -s], [s, c]])

