from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydrive.errors import InvalidInputError
from polydrive.trajectory import (
    DEGREE,
    DT,
    GRID_T,
    HORIZON,
    PINV,
    VAND,
    PolyTrajectory2D,
    wrap_heading,
)


def normal_equations_fit(t, values, degree):
    """Independent oracle: solve (V^T V) c = V^T y directly."""
    v = np.vander(t, degree + 1)
    return np.linalg.solve(v.T @ v, v.T @ values)


class TestFit:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            xy = rng.normal(0.0, 5.0, (GRID_T.size, 2))
            cx, cy = (PINV @ xy).T
            np.testing.assert_allclose(cx, normal_equations_fit(GRID_T, xy[:, 0], DEGREE),
                                       rtol=0, atol=1e-6)
            np.testing.assert_allclose(cy, normal_equations_fit(GRID_T, xy[:, 1], DEGREE),
                                       rtol=0, atol=1e-6)

    def test_recovers_exact_polynomial_data(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cx = rng.normal(0.0, 2.0, DEGREE + 1)
            cy = rng.normal(0.0, 2.0, DEGREE + 1)
            xy = np.stack([np.polyval(cx, GRID_T), np.polyval(cy, GRID_T)], axis=1)
            coeffs = PINV @ xy
            np.testing.assert_allclose(coeffs[:, 0], cx, rtol=0, atol=1e-9)
            np.testing.assert_allclose(coeffs[:, 1], cy, rtol=0, atol=1e-9)
            np.testing.assert_allclose(VAND @ coeffs, xy, rtol=0, atol=1e-9)

    def test_rejects_non_finite(self):
        # The fit passes a NaN on; the trajectory made of it refuses it.
        xy = np.zeros((GRID_T.size, 2))
        xy[3, 0] = np.nan
        with pytest.raises(InvalidInputError):
            PolyTrajectory2D(*(PINV @ xy).T)


def sample_trajectory(poly):
    """The trajectory evaluated at GRID_T, (T, 2): the reference
    control.trajectory_speed_target is checked against."""
    return np.stack([np.polyval(poly.cx, GRID_T), np.polyval(poly.cy, GRID_T)], axis=1)


class TestSampling:
    def test_sample_times_grid(self):
        t = GRID_T
        assert t.size == int(round(HORIZON / DT))
        np.testing.assert_allclose(t[0], DT)
        np.testing.assert_allclose(t[-1], HORIZON)
        np.testing.assert_allclose(np.diff(t), DT)
        assert VAND.shape == (t.size, DEGREE + 1) and PINV.shape == (DEGREE + 1, t.size)

    def test_sample_trajectory_evaluates_polynomial(self):
        poly = PolyTrajectory2D(
            np.array([0.1, -0.2, 0.3, 1.0, 0.0]),
            np.array([0.0, 0.5, -0.1, 2.0, -1.0]),
        )
        xy = sample_trajectory(poly)
        np.testing.assert_allclose(xy[:, 0], np.polyval(poly.cx, GRID_T))
        np.testing.assert_allclose(xy[:, 1], np.polyval(poly.cy, GRID_T))
        np.testing.assert_allclose(xy, VAND @ np.stack([poly.cx, poly.cy], axis=1), atol=1e-12)


@dataclass(frozen=True)
class Pose2D:
    """The per-window ego frame that dataset.assemble_sample batches: a
    position and a heading wrapped to (-pi, pi]."""

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


def xy_to_frame(xy, frame):
    """Positions in one frame: the reference for the batched transform."""
    c, s = np.cos(frame.heading), np.sin(frame.heading)
    return (np.asarray(xy, dtype=np.float64) - frame.xy) @ np.array([[c, -s], [s, c]])


def to_frame(xy, x, y, heading):
    """Positions in the frame (x, y, heading) as assemble_sample transforms a
    window: wrap_heading, then one rotation from array trig."""
    h = np.array([wrap_heading(heading)])
    c, s = np.cos(h), np.sin(h)
    rot = np.array([c, -s, s, c]).T.reshape(-1, 2, 2)[0]
    local = (np.asarray(xy, dtype=np.float64) - [x, y]) @ rot
    assert local.tobytes() == xy_to_frame(xy, Pose2D(x, y, heading)).tobytes()
    return local


class TestFrames:
    @settings(max_examples=50, deadline=None)
    @given(
        x=st.floats(-100, 100),
        y=st.floats(-100, 100),
        h=st.floats(-np.pi, np.pi),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_identity(self, x, y, h, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 5.0, (10, 2))
        local = to_frame(pts, x, y, h)
        # Undo the transform: rotate back by the heading, then translate.
        c, s = np.cos(wrap_heading(h)), np.sin(wrap_heading(h))
        back = local @ np.array([[c, s], [-s, c]]) + [x, y]
        np.testing.assert_allclose(back, pts, atol=1e-9)

    def test_to_frame_is_rigid(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0.0, 5.0, (10, 2))
        local = to_frame(pts, 4.0, -2.0, 0.7)
        d_world = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        d_local = np.linalg.norm(np.diff(local, axis=0), axis=1)
        np.testing.assert_allclose(d_local, d_world, atol=1e-9)

    def test_frame_origin_maps_to_zero(self):
        np.testing.assert_allclose(to_frame([[1.0, 2.0]], 1.0, 2.0, -1.2), 0.0, atol=1e-12)

    def test_heading_normalized(self):
        assert wrap_heading(3 * np.pi) == pytest.approx(np.pi)
        assert -np.pi < wrap_heading(-np.pi) <= np.pi
        assert wrap_heading(-np.pi) == np.pi and type(wrap_heading(np.float64(1.0))) is float
        for h in np.random.default_rng(2).uniform(-20.0, 20.0, 500).tolist() + [-np.pi, np.pi, -0.0]:
            assert wrap_heading(h) == Pose2D(0.0, 0.0, h).heading

