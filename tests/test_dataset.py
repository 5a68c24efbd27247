import numpy as np
import pytest

from polydrive import dataset, simworld as sw
from polydrive.dataset import (
    K_WINDOW,
    N_NEIGHBORS,
    T_STEPS,
    WINDOW_TICKS,
    NavigationCommand,
    build_proximity_map,
    compute_navigation_command,
    extract_windows,
    fit_future_points,
    history_tensor,
    read_dataset,
    samples_equal,
    select_neighbors,
    write_dataset,
)
from polydrive.errors import DataFormatError
from polydrive.trajectory import PointSeries, fit_polynomial, sample_times


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def log(town):
    return sw.record_episode(town, seed=9, duration=40.0, n_cars=7, n_pedestrians=3)


@pytest.fixture(scope="module")
def samples(log, town):
    return extract_windows(log, town)


class TestHistoryTensor:
    def test_shape_and_window_content(self):
        track = np.arange(T_STEPS * 2, dtype=float).reshape(T_STEPS, 2)
        h = history_tensor(track)
        assert h.shape == (T_STEPS, K_WINDOW, 2)
        assert h.flags.c_contiguous and not np.shares_memory(h, track)
        # window k at index i holds the position at tick i - K + 1 + k,
        # clamped to the oldest tick
        for i in range(T_STEPS):
            for k in range(K_WINDOW):
                np.testing.assert_array_equal(h[i, k], track[max(i - K_WINDOW + 1 + k, 0)])

    def test_early_ticks_pad_with_oldest(self):
        track = np.arange(T_STEPS * 2, dtype=float).reshape(T_STEPS, 2)
        h = history_tensor(track)
        np.testing.assert_array_equal(h[0, 0], track[0])
        np.testing.assert_array_equal(h[0, K_WINDOW - 1], track[0])


class TestFutureFit:
    def test_matches_generic_fit_on_grid(self):
        rng = np.random.default_rng(0)
        t = sample_times()
        for _ in range(50):
            xy = rng.normal(0.0, 4.0, (T_STEPS, 2))
            smoothed = fit_future_points(xy)
            poly = fit_polynomial(PointSeries(t, xy))
            expected = np.stack(
                [np.polyval(poly.cx, t), np.polyval(poly.cy, t)], axis=1
            )
            np.testing.assert_allclose(smoothed, expected, atol=1e-8)


class TestNeighbors:
    def test_nearest_five_ascending(self):
        ego = np.zeros(2)
        cars = [(i, np.array([float(10 - i), 0.0])) for i in range(8)]
        order = select_neighbors(ego, cars)
        assert len(order) == N_NEIGHBORS
        assert order == [7, 6, 5, 4, 3]

    def test_distance_tie_broken_by_id(self):
        ego = np.zeros(2)
        cars = [(3, np.array([5.0, 0.0])), (1, np.array([0.0, 5.0]))]
        assert select_neighbors(ego, cars) == [1, 3]


class TestProximityMap:
    def test_ego_occupies_center_cell(self):
        tracks = np.zeros((1, T_STEPS, 2))
        cells, labels = build_proximity_map(tracks, np.zeros(1))
        center = labels[labels.shape[0] // 2, labels.shape[1] // 2]
        assert (center == 0).all()

    def test_outside_extent_ignored(self):
        tracks = np.full((1, T_STEPS, 2), 1e4)
        cells, labels = build_proximity_map(tracks, np.zeros(1))
        assert (labels == -1).all()
        assert (cells == 0.0).all()

    def test_nearer_vehicle_wins_contested_cell(self):
        tracks = np.zeros((2, T_STEPS, 2))
        tracks[1] += 0.01  # same cell
        cells, labels = build_proximity_map(tracks, np.array([5.0, 1.0]))
        occupied = labels[labels >= 0]
        assert (occupied == 1).all()

    def test_cell_stores_k_window_fragment(self):
        rng = np.random.default_rng(1)
        tracks = rng.normal(0.0, 1.0, (1, T_STEPS, 2))
        cells, labels = build_proximity_map(tracks, np.zeros(1))
        i = T_STEPS - 1
        pos = np.argwhere(labels[:, :, i] == 0)
        assert pos.size  # the track ends near the origin
        r, c = pos[0]
        frag = cells[r, c, i].reshape(K_WINDOW, 2)
        np.testing.assert_array_equal(frag, tracks[0, i - K_WINDOW + 1 : i + 1])


class TestNavigationCommand:
    def _straight_log(self, town, speed=5.0, heading=0.0, start=(-120.0, -1.75)):
        n = 80
        states = np.zeros((n, 1, 4))
        t = np.arange(n) * sw.TICK
        states[:, 0, 0] = start[0] + speed * t * np.cos(heading)
        states[:, 0, 1] = start[1] + speed * t * np.sin(heading)
        states[:, 0, 2] = heading
        states[:, 0, 3] = speed
        return sw.EpisodeLog(
            {}, ["car"], [0], [], t, states, np.zeros((n, 1, 2)), np.zeros((n, 0))
        )

    def test_far_from_junction_keeps_lane(self, town):
        log = self._straight_log(town)
        assert compute_navigation_command(log, 0, town) == NavigationCommand.KEEP_LANE

    def test_straight_crossing_is_cross(self, town):
        node = town.nodes[town.junction_ids[0]]
        log = self._straight_log(town, start=(node.pos[0] - 20.0, node.pos[1] - 1.75))
        assert compute_navigation_command(log, 0, town) == NavigationCommand.CROSS

    def _turn_log(self, town, sign):
        node = town.nodes[town.junction_ids[0]]
        n = 90
        states = np.zeros((n, 1, 4))
        speed = 5.0
        # approach eastbound, quarter-turn inside the zone
        for i in range(n):
            t = i * sw.TICK
            s = speed * t
            if s < 18.0:
                states[i, 0, :2] = node.pos + [s - 20.0, -1.75 * 1.0]
                states[i, 0, 2] = 0.0
            else:
                a = min((s - 18.0) / 8.0, 1.0) * (np.pi / 2) * sign
                states[i, 0, 2] = a
                states[i, 0, :2] = states[i - 1, 0, :2] + speed * sw.TICK * np.array(
                    [np.cos(a), np.sin(a)]
                )
            states[i, 0, 3] = speed
        return sw.EpisodeLog(
            {}, ["car"], [0], [], np.arange(n) * sw.TICK, states,
            np.zeros((n, 1, 2)), np.zeros((n, 0)),
        )

    def test_left_and_right_turns(self, town):
        assert compute_navigation_command(self._turn_log(town, +1), 0, town) == NavigationCommand.LEFT
        assert compute_navigation_command(self._turn_log(town, -1), 0, town) == NavigationCommand.RIGHT


class TestExtractWindows:
    def test_window_count(self, log, samples):
        assert len(samples) == len(log) - WINDOW_TICKS + 1

    def test_shapes_and_masks(self, samples):
        s = samples[0]
        assert s.e.shape == (T_STEPS, K_WINDOW, 2)
        assert s.v.shape == (N_NEIGHBORS, T_STEPS, K_WINDOW, 2)
        assert s.m_cells.shape[:2] == (13, 3)
        assert s.ctx.shape == (8,)
        assert s.ego_future.shape == (T_STEPS, 2)
        # masked-off neighbor slots carry no data
        for k in range(N_NEIGHBORS):
            if not s.v_mask[k]:
                assert (s.v[k] == 0.0).all()
                assert (s.neigh_future[k] == 0.0).all()

    def test_ego_frame_centering(self, samples):
        for s in samples[:20]:
            # the last past position in the newest window is the frame origin
            np.testing.assert_allclose(s.e[-1, -1], 0.0, atol=1e-9)

    def test_futures_start_near_origin(self, samples):
        for s in samples[:20]:
            assert np.linalg.norm(s.ego_future[0]) < 2.0

    def test_short_log_yields_nothing(self, town):
        short = sw.record_episode(town, seed=1, duration=WINDOW_TICKS * sw.TICK / 2,
                                  n_cars=2, n_pedestrians=0)
        assert extract_windows(short, town) == []

    def test_deterministic(self, log, town, samples):
        again = extract_windows(log, town)
        assert len(again) == len(samples)
        assert all(samples_equal(a, b) for a, b in zip(samples[:50], again[:50]))


class TestSerialization:
    def test_round_trip(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        subset = samples[:40]
        write_dataset(subset, path, {"config_hash": "abc"})
        back, header = read_dataset(path)
        assert header["config_hash"] == "abc"
        assert header["format_version"] == dataset.DATASET_FORMAT_VERSION
        assert len(back) == len(subset)
        assert all(samples_equal(a, b, atol=1e-12) for a, b in zip(subset, back))

    def test_rejects_bad_version(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(samples[:2], path)
        lines = path.read_text().splitlines()
        header = lines[0].replace('"format_version": 1', '"format_version": 99')
        path.write_text("\n".join([header] + lines[1:]))
        with pytest.raises(DataFormatError):
            read_dataset(path)

    def test_rejects_corrupt_record(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(samples[:2], path)
        with open(path, "a") as f:
            f.write("{broken\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)
