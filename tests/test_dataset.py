import dataclasses
import hashlib
import json

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


def reference_navigation_command(log, center_tick, network):
    """The per-tick walk: nearest_junction for the entry, 1-D norms for the exit."""
    n = len(log)
    horizon = min(n - 1, center_tick + int(round(dataset.NC_LOOKAHEAD_S / sw.TICK)))
    entry = None
    for i in range(center_tick, horizon + 1):
        node_id, d = network.nearest_junction(log.states[i][0, :2])
        if d < dataset.NC_ZONE_RADIUS:
            entry = (i, node_id)
            break
    if entry is None:
        return NavigationCommand.KEEP_LANE
    i, node_id = entry
    node_pos = network.nodes[node_id].pos
    j = i
    while (
        j < n - 1
        and float(np.linalg.norm(log.states[j][0, :2] - node_pos)) < dataset.NC_ZONE_RADIUS
    ):
        j += 1
    dh = float((log.states[j][0, 2] - log.states[i][0, 2] + np.pi) % (2 * np.pi) - np.pi)
    if dh > np.deg2rad(dataset.NC_TURN_DEG):
        return NavigationCommand.LEFT
    if dh < -np.deg2rad(dataset.NC_TURN_DEG):
        return NavigationCommand.RIGHT
    return NavigationCommand.CROSS


def _assert_same_commands(log, network):
    got = [compute_navigation_command(log, c, network) for c in range(len(log))]
    want = [reference_navigation_command(log, c, network) for c in range(len(log))]
    assert got == want
    return set(got)


class TestNavigationCommandParity:
    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_every_tick_of_recorded_episodes(self, town_id):
        net = sw.build_town(town_id)
        seen = set()
        for seed in (1, 2, 3):
            seen |= _assert_same_commands(sw.record_episode(net, seed, 30.0), net)
        assert NavigationCommand.KEEP_LANE in seen and len(seen) >= 3

    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_ego_exactly_on_the_zone_radius(self, town_id):
        # Offsets of exactly 15 m at random angles put the ego within an ulp
        # of the zone edge; a quarter of the ticks are such points where the
        # row-wise and the 1-D norm fall on either side of it.  The others
        # sit at 15 m, or well inside or outside the zone.
        net = sw.build_town(town_id)
        rng = np.random.default_rng(12)
        radius = dataset.NC_ZONE_RADIUS

        def on_edge(node, n):
            theta = rng.uniform(-np.pi, np.pi, n)
            return node + radius * np.column_stack([np.cos(theta), np.sin(theta)])

        for node in net.junction_pos[:3]:
            edge = on_edge(node, 20000)
            row = np.linalg.norm(edge - node, axis=1) < radius
            one = np.array([np.linalg.norm(p - node) < radius for p in edge])
            split = edge[row != one]
            assert (row & ~one).any() and (one & ~row).any()
            n = 600
            kind = rng.integers(4, size=n)
            xy = split[rng.integers(len(split), size=n)]
            xy[kind == 0] = on_edge(node, n)[kind == 0]
            xy[kind == 2] = node + 9.0
            xy[kind == 3] = node + 40.0
            states = np.zeros((n, 1, 4))
            states[:, 0, :2] = xy
            states[:, 0, 2] = rng.uniform(-np.pi, np.pi, n)
            log = sw.EpisodeLog({}, ["car"], [0], [], np.arange(n) * sw.TICK, states,
                                np.zeros((n, 1, 2)), np.zeros((n, 0)))
            assert len(_assert_same_commands(log, net)) == 3


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


def reference_sample_to_record(s):
    """The per-element int()/float() conversion of the sparse map."""
    occupied = np.argwhere(s.m_labels >= 0)
    m_sparse = [
        [int(r), int(c), int(t), int(s.m_labels[r, c, t])]
        + [float(x) for x in s.m_cells[r, c, t]]
        for r, c, t in occupied
    ]
    present = np.flatnonzero(s.v_mask)
    return {
        "e": s.e.ravel().tolist(),
        "v": {int(k): s.v[k].ravel().tolist() for k in present},
        "mask": s.v_mask.astype(int).tolist(),
        "m": m_sparse,
        "ctx": s.ctx.tolist(),
        "nc": int(s.nc),
        "ef": s.ego_future.ravel().tolist(),
        "vf": {int(k): s.neigh_future[k].ravel().tolist() for k in present},
        "ep": s.episode_seed,
        "ct": s.center_tick,
        "dev": int(s.deviated),
    }


# sha256 of write_dataset's bytes for one seeded episode per town, captured
# before the record path was vectorized: any change to what it computes shows.
GOLDEN = {
    ("train", 11): "f5f7fd153683b66ab265d857d4e3cc3d7f947cb3e92d13d4b4de6165847282b4",
    ("test", 12): "d465ed2ca860d4027b7fec2a5e610070b9dbe5e15576b618d28df6266b7e26fd",
}


class TestRecordBytes:
    @pytest.mark.parametrize("town_id, seed", sorted(GOLDEN))
    def test_record_path_golden_bytes(self, town_id, seed, tmp_path):
        net = sw.build_town(town_id)
        samples = extract_windows(sw.record_episode(net, seed, 15.0), net)
        write_dataset(samples, tmp_path / "d.jsonl", {"town": town_id})
        digest = hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest()
        assert digest == GOLDEN[(town_id, seed)]

    def test_record_bytes_match_reference(self, samples):
        # Signed zeros, extreme magnitudes and repeating fractions in the map.
        rng = np.random.default_rng(3)
        cells = samples[7].m_cells.copy()
        occupied = samples[7].m_labels >= 0
        cells[occupied] *= rng.choice([-0.0, 1e-300, 1e300, 1.0 / 3.0], cells[occupied].shape)
        for s in samples + [dataclasses.replace(samples[7], m_cells=cells)]:
            got = json.dumps(dataset._sample_to_record(s))
            assert got == json.dumps(reference_sample_to_record(s))


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
