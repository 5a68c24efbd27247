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
    Pose2D,
    PolyTrajectory2D,
    fit_polynomial,
    mae,
    sample_times,
    sample_trajectory,
    to_frame,
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

    def test_lower_degree_pads_high_coefficients(self):
        t = np.linspace(0.0, 2.0, 10)
        xy = np.stack([3.0 * t + 1.0, -2.0 * t + 0.5], axis=1)
        poly = fit_polynomial(PointSeries(t, xy), degree=1)
        assert poly.cx.shape == (DEGREE + 1,)
        np.testing.assert_allclose(poly.cx[:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(poly.cx[3:], [3.0, 1.0], atol=1e-9)


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

    def test_sample_rejects_bad_grid(self):
        poly = PolyTrajectory2D(np.zeros(5), np.zeros(5))
        with pytest.raises(InvalidInputError):
            sample_trajectory(poly, dt=0.0)
        with pytest.raises(InvalidInputError):
            sample_trajectory(poly, horizon=-1.0)


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
        frame = Pose2D(x, y, h)
        local = to_frame(pts, frame)
        # Undo the transform: rotate back by the heading, then translate.
        c, s = np.cos(frame.heading), np.sin(frame.heading)
        back = local.xy @ np.array([[c, s], [-s, c]]) + frame.xy
        np.testing.assert_allclose(back, pts.xy, atol=1e-9)
        np.testing.assert_array_equal(local.t, pts.t)

    def test_to_frame_is_rigid(self):
        rng = np.random.default_rng(3)
        pts = random_series(rng, n=10)
        frame = Pose2D(4.0, -2.0, 0.7)
        local = to_frame(pts, frame)
        d_world = np.linalg.norm(np.diff(pts.xy, axis=0), axis=1)
        d_local = np.linalg.norm(np.diff(local.xy, axis=0), axis=1)
        np.testing.assert_allclose(d_local, d_world, atol=1e-9)

    def test_frame_origin_maps_to_zero(self):
        frame = Pose2D(1.0, 2.0, -1.2)
        pts = PointSeries(np.array([0.0]), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(to_frame(pts, frame).xy, 0.0, atol=1e-12)

    def test_heading_normalized(self):
        assert Pose2D(0, 0, 3 * np.pi).heading == pytest.approx(np.pi)
        assert -np.pi < Pose2D(0, 0, -np.pi).heading <= np.pi


class TestMetrics:
    def test_mae_is_mean_distance(self):
        t = sample_times()
        a = PointSeries(t, np.zeros((t.size, 2)))
        b = PointSeries(t, np.full((t.size, 2), 3.0))
        assert mae(a, b) == pytest.approx(3.0 * np.sqrt(2.0))
