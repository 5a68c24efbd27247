from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydrive.errors import InsufficientDataError, InvalidInputError
from polydrive.trajectory import (
    DEGREE,
    DT,
    HORIZON,
    PointSeries,
    PolyTrajectory2D,
    fit_polynomial,
    sample_times,
    wrap_heading,
)


def normal_equations_fit(t, values, degree):
    """Independent oracle: solve (V^T V) c = V^T y directly."""
    v = np.vander(t, degree + 1)
    return np.linalg.solve(v.T @ v, v.T @ values)


def random_series(rng, n=24, t_span=2.0):
    t = np.sort(rng.uniform(-t_span, t_span, n))
    xy = rng.normal(0.0, 5.0, (n, 2))
    return PointSeries(t, xy)


class TestFit:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pts = random_series(rng)
            poly = fit_polynomial(pts)
            cx = normal_equations_fit(pts.t, pts.xy[:, 0], DEGREE)
            cy = normal_equations_fit(pts.t, pts.xy[:, 1], DEGREE)
            np.testing.assert_allclose(poly.cx, cx, rtol=0, atol=1e-6)
            np.testing.assert_allclose(poly.cy, cy, rtol=0, atol=1e-6)

    def test_recovers_exact_polynomial_data(self):
        rng = np.random.default_rng(1)
        t = np.linspace(-1.0, 2.0, 12)
        for _ in range(50):
            cx = rng.normal(0.0, 2.0, DEGREE + 1)
            cy = rng.normal(0.0, 2.0, DEGREE + 1)
            xy = np.stack([np.polyval(cx, t), np.polyval(cy, t)], axis=1)
            poly = fit_polynomial(PointSeries(t, xy))
            np.testing.assert_allclose(poly.cx, cx, rtol=0, atol=1e-9)
            np.testing.assert_allclose(poly.cy, cy, rtol=0, atol=1e-9)

    def test_minimum_point_count(self):
        t = np.linspace(0.0, 1.0, DEGREE)  # one short
        with pytest.raises(InsufficientDataError):
            fit_polynomial(PointSeries(t, np.zeros((DEGREE, 2))))

    def test_rejects_non_finite(self):
        t = np.linspace(0.0, 1.0, 8)
        xy = np.zeros((8, 2))
        xy[3, 0] = np.nan
        with pytest.raises(InvalidInputError):
            fit_polynomial(PointSeries(t, xy))


def sample_trajectory(poly):
    """The trajectory evaluated at sample_times(), as a validated PointSeries:
    the reference control.trajectory_speed_target is checked against."""
    t = sample_times()
    xy = np.stack([np.polyval(poly.cx, t), np.polyval(poly.cy, t)], axis=1)
    return PointSeries(t, xy)


class TestSampling:
    def test_sample_times_grid(self):
        t = sample_times()
        assert t.size == int(round(HORIZON / DT))
        np.testing.assert_allclose(t[0], DT)
        np.testing.assert_allclose(t[-1], HORIZON)
        np.testing.assert_allclose(np.diff(t), DT)

    def test_sample_trajectory_evaluates_polynomial(self):
        poly = PolyTrajectory2D(
            np.array([0.1, -0.2, 0.3, 1.0, 0.0]),
            np.array([0.0, 0.5, -0.1, 2.0, -1.0]),
        )
        pts = sample_trajectory(poly)
        np.testing.assert_allclose(pts.xy[:, 0], np.polyval(poly.cx, pts.t))
        np.testing.assert_allclose(pts.xy[:, 1], np.polyval(poly.cy, pts.t))


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
        pts = random_series(rng, n=10)
        local = to_frame(pts.xy, x, y, h)
        # Undo the transform: rotate back by the heading, then translate.
        c, s = np.cos(wrap_heading(h)), np.sin(wrap_heading(h))
        back = local @ np.array([[c, s], [-s, c]]) + [x, y]
        np.testing.assert_allclose(back, pts.xy, atol=1e-9)

    def test_to_frame_is_rigid(self):
        rng = np.random.default_rng(3)
        pts = random_series(rng, n=10)
        local = to_frame(pts.xy, 4.0, -2.0, 0.7)
        d_world = np.linalg.norm(np.diff(pts.xy, axis=0), axis=1)
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

