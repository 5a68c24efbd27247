import base64
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from test_kernels import densify, sparsify
from test_simworld import array_crossing_ped_distances, array_leading_vehicles, scalar_nearest_lane
from test_trajectory import Pose2D, normal_equations_fit, xy_to_frame

from polydrive import dataset, kernels, simworld as sw
from polydrive.augment import AugmentConfig, augment_samples
from polydrive.cli import main
from polydrive.dataset import (
    K_WINDOW,
    N_NEIGHBORS,
    T_STEPS,
    WINDOW_TICKS,
    NavigationCommand,
    assemble_sample,
    compute_context,
    compute_navigation_command,
    extract_windows,
    fit_future_points,
    read_dataset,
    samples_equal,
    turn_command,
    write_dataset,
)
from polydrive.errors import DataFormatError
from polydrive.model import init_params, save_checkpoint
from polydrive.trajectory import GRID_T


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def log(town):
    return sw.record_episode(town, seed=9, duration=40.0, n_cars=7, n_pedestrians=3)


@pytest.fixture(scope="module")
def samples(log, town):
    return extract_windows(log, town)


# -- the per-car window assembly that the batched one replaced, as references --


def reference_history_tensor(track):
    """(T, 2) positions -> (T, K, 2) sliding windows, oldest first: window k
    at index i holds the position at tick i - K + 1 + k, and missing past
    repeats the oldest position."""
    out = np.empty((T_STEPS, K_WINDOW, 2))
    for i in range(T_STEPS):
        for k in range(K_WINDOW):
            out[i, k] = track[max(i - K_WINDOW + 1 + k, 0)]
    return out


def reference_select_neighbors(ego_xy, cars):
    """Up to N nearest car agent ids by 1-D norm, ascending distance, ties by id."""
    scored = sorted((float(np.linalg.norm(xy - ego_xy)), agent_id) for agent_id, xy in cars)
    return [agent_id for _, agent_id in scored[:N_NEIGHBORS]]


def reference_context_tail(ego, cars, peds):
    """ctx[5:8] by the one-row array_leading_vehicles and
    array_crossing_ped_distances calls, pedestrians at speed 0."""
    ego_row = np.array([ego], dtype=np.float64)
    car_rows = np.array(cars, dtype=np.float64).reshape(-1, 4)
    gap, lead_dv = array_leading_vehicles(ego_row, np.array([-1]), car_rows, np.arange(len(cars)))
    ped_rows = np.array([(px, py, 0.0, 0.0) for px, py in peds]).reshape(-1, 4)
    d_ped = array_crossing_ped_distances(ego_row, ped_rows)[0]
    return np.array([min(gap[0], dataset.CTX_LEAD_CAP), lead_dv[0], min(d_ped, dataset.CTX_PED_CAP)])


def reference_row_norms(d):
    """The per-window _row_norms: Python floats, or the 1-D norms when two
    lie within 1e-9 m."""
    r = [math.sqrt(x * x + y * y) for x, y in d.tolist()]
    s = sorted(r)
    if any(b - a <= 1e-9 for a, b in zip(s, s[1:])):
        return np.array([np.linalg.norm(row) for row in d])
    return np.array(r)


def reference_context(network, ego, cars, peds, light_green):
    """The per-window compute_context: the scalar lane lookup, trig per call."""
    x, y, h, _ = ego
    d_light, phase, d_inter = dataset.CTX_LIGHT_CAP, 0.0, dataset.CTX_INTER_CAP
    lat, herr = 0.0, 0.0
    hit = scalar_nearest_lane(network, (x, y), h)
    if hit is None:
        d_inter = 0.0
    else:
        lane_id, s, lat = hit
        lane = network.lanes[lane_id]
        herr = float((h - lane.heading + np.pi) % (2 * np.pi) - np.pi)
        d_end = max(0.0, lane.length - s)
        to_node = network.nodes[lane.to_node]
        if to_node.kind == "junction":
            d_inter = min(d_end, dataset.CTX_INTER_CAP)
            if to_node.lit:
                d_light = min(d_end, dataset.CTX_LIGHT_CAP)
                green = light_green(to_node.node_id, network.signal_axis(lane.seg_id))
                phase = 0.0 if green else 1.0
    walkers = [(px, py, 1.0, 0.0, 0.0) for px, py in peds]
    gap, lead_dv, d_ped = sw.traffic_ahead(ego, float(np.cos(h)), float(np.sin(h)), cars, walkers)
    d_lead, d_ped = min(gap, dataset.CTX_LEAD_CAP), min(d_ped, dataset.CTX_PED_CAP)
    return np.array([d_light, phase, d_inter, float(lat), herr, d_lead, lead_dv, d_ped])


def context_of(network, ego, cars, peds, light_green):
    """compute_context on one window, the ego's heading as given."""
    h = np.array([ego[2]], dtype=np.float64)
    return compute_context(
        network, np.array([ego], dtype=np.float64), np.cos(h), np.sin(h), [cars], [peds],
        [light_green],
    )[0]


def reference_assemble_sample(network, frame, ego_speed, ego_past, car_tracks, peds, light_green, nc):
    """One xy_to_frame and one 1-D norm per car.  car_tracks holds (agent_id,
    (T, 2) track, center state) per other car, in agent order; returns the
    sample and the neighbor slots' agent ids."""
    rel_ego = xy_to_frame(ego_past, frame)
    order = reference_select_neighbors(
        np.array([frame.x, frame.y]), [(aid, trk[-1]) for aid, trk, _ in car_tracks]
    )
    rel = {aid: xy_to_frame(trk, frame) for aid, trk, _ in car_tracks}
    v = np.zeros((N_NEIGHBORS, T_STEPS, K_WINDOW, 2))
    v_mask = np.zeros(N_NEIGHBORS, dtype=bool)
    for k, aid in enumerate(order):
        v[k] = reference_history_tensor(rel[aid])
        v_mask[k] = True
    rel_tracks = np.empty((1 + len(car_tracks), T_STEPS, 2))
    rel_tracks[0] = rel_ego
    dists = np.zeros(1 + len(car_tracks))
    for row, aid in enumerate(sorted(rel), start=1):
        rel_tracks[row] = rel[aid]
        dists[row] = float(np.linalg.norm(rel_tracks[row][-1]))
    (m,) = kernels.bin_proximity(rel_tracks, dists)
    ego = (frame.x, frame.y, frame.heading, ego_speed)
    cars = [st for _, _, st in car_tracks]
    ctx = reference_context(network, ego, cars, peds, light_green)
    ctx[5:] = reference_context_tail(ego, cars, peds)
    sample = dataset.Sample(
        e=reference_history_tensor(rel_ego), v=v, v_mask=v_mask, m=m, ctx=ctx, nc=nc,
        ego_future=np.zeros((T_STEPS, 2)),
        neigh_future=np.zeros((N_NEIGHBORS, T_STEPS, 2)),
    )
    return sample, order


def reference_extract_windows(log, network):
    """extract_windows with the per-car assembly and per-neighbor futures."""
    car_rows = log.car_indices()
    ego_row, other_rows = car_rows[0], car_rows[1:]
    samples = []
    for c in range(T_STEPS - 1, len(log) - T_STEPS):
        frame = Pose2D(*log.states[c][ego_row, :3])
        past = slice(c - T_STEPS + 1, c + 1)
        fut = slice(c + 1, c + 1 + T_STEPS)
        car_tracks = [
            (log.agent_ids[r], log.states[past, r, :2], tuple(log.states[c][r])) for r in other_rows
        ]
        sample, order = reference_assemble_sample(
            network, frame, float(log.states[c][ego_row, 3]), log.states[past, ego_row, :2],
            car_tracks, [tuple(log.states[c][r, :2]) for r in log.ped_indices()],
            lambda node_id, axis, _tick=c: log.light_green_at(_tick, node_id, axis),
            reference_window_command(log, c, network),
        )
        sample.ego_future = fit_future_points(xy_to_frame(log.states[fut, ego_row, :2], frame))
        row_of = {log.agent_ids[r]: r for r in other_rows}
        for k, aid in enumerate(order):
            r = row_of[aid]
            rel = xy_to_frame(log.states[fut, r, :2], frame)
            rel -= xy_to_frame(log.states[c][r, :2][None, :], frame)[0]
            sample.neigh_future[k] = fit_future_points(rel)
        sample.episode_seed = int(log.meta.get("seed", 0))
        sample.center_tick = c
        samples.append(sample)
    return samples


def batched_assemble(network, ego, ego_past, car_tracks, peds):
    """assemble_sample on reference_assemble_sample's inputs, as a batch of
    one: the tracks stacked ego first, then by agent id.  Returns the sample
    and the neighbor slots' agent ids, each the lowest id not yet taken
    whose history the slot holds."""
    ids = [aid for aid, _, _ in car_tracks]
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    tracks = np.stack([ego_past] + [car_tracks[i][1] for i in by_id])
    (sample,) = assemble_sample(
        network, np.array([ego], dtype=np.float64), tracks[None], [[list(st) for _, _, st in car_tracks]],
        [list(peds)], [lambda node_id, axis: True], [NavigationCommand.KEEP_LANE],
    )
    frame = Pose2D(*ego[:3])
    histories = [xy_to_frame(car_tracks[i][1], frame)[dataset._HISTORY_INDEX] for i in by_id]
    slots = []
    for k in np.flatnonzero(sample.v_mask):
        slots.append(next(ids[i] for i, h in zip(by_id, histories)
                          if ids[i] not in slots and h.tobytes() == sample.v[k].tobytes()))
    return sample, slots


def assert_same_assembly(network, ego, ego_past, car_tracks, peds):
    """The batched and the per-car assembly agree bit for bit."""
    got, got_ids = batched_assemble(network, ego, ego_past, car_tracks, peds)
    want, want_ids = reference_assemble_sample(
        network, Pose2D(*ego[:3]), ego[3], ego_past, car_tracks, peds,
        lambda node_id, axis: True, NavigationCommand.KEEP_LANE,
    )
    assert got_ids == want_ids
    assert_same_bits(got, want)
    return got, got_ids


def straight_track(end, heading=0.0, speed=5.0):
    """T positions along a heading, at speed, ending at end."""
    back = speed * sw.TICK * np.arange(T_STEPS - 1, -1, -1)[:, None]
    return np.asarray(end, dtype=np.float64) - back * [np.cos(heading), np.sin(heading)]


def scene(ends, ids=None, heading=0.0, speed=5.0):
    """car_tracks for cars ending at ends, heading along x at speed."""
    ids = range(len(ends)) if ids is None else ids
    return [
        (aid, straight_track(end, heading, speed), (float(end[0]), float(end[1]), heading, speed))
        for aid, end in zip(ids, ends)
    ]


ORIGIN = (0.0, 0.0, 0.0, 4.0)


def disagreeing_offsets(rng, radius, n=4000):
    """Two offsets of about radius, close together, that the row norm and the
    1-D norm order differently (or tie under one only)."""
    theta = 0.2 + rng.uniform(0.0, 0.01, n)
    xy = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    row = np.sqrt(xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1])
    one = np.array([np.linalg.norm(p) for p in xy])
    for i in range(n):
        for j in range(i + 1, min(n, i + 200)):
            if np.sign(row[i] - row[j]) != np.sign(one[i] - one[j]):
                return xy[i], xy[j]
    raise AssertionError("no disagreeing pair found")


class TestHistoryTensor:
    """assemble_sample's window gather against the per-position rule."""

    def _assembled(self, town):
        track = np.arange(T_STEPS * 2, dtype=float).reshape(T_STEPS, 2)
        cars = [(4, track + 100.0, (track[-1, 0] + 100.0, track[-1, 1] + 100.0, 0.0, 1.0))]
        sample, ids = assert_same_assembly(town, ORIGIN, track, cars, [])
        assert ids == [4]
        return track, sample

    def test_shape_and_window_content(self, town):
        track, sample = self._assembled(town)
        for h, trk in ((sample.e, track), (sample.v[0], track + 100.0)):
            assert h.shape == (T_STEPS, K_WINDOW, 2)
            assert h.flags.c_contiguous and not np.shares_memory(h, track)
            # window k at index i holds the position at tick i - K + 1 + k,
            # clamped to the oldest tick (the frame is the world's here)
            for i in range(T_STEPS):
                for k in range(K_WINDOW):
                    np.testing.assert_array_equal(h[i, k], trk[max(i - K_WINDOW + 1 + k, 0)])
            np.testing.assert_array_equal(h, reference_history_tensor(trk))

    def test_early_ticks_pad_with_oldest(self, town):
        track, sample = self._assembled(town)
        np.testing.assert_array_equal(sample.e[0, 0], track[0])
        np.testing.assert_array_equal(sample.e[0, K_WINDOW - 1], track[0])


class TestFutureFit:
    def test_matches_generic_fit_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xy = rng.normal(0.0, 4.0, (T_STEPS, 2))
            smoothed = fit_future_points(xy)
            cx, cy = (normal_equations_fit(GRID_T, xy[:, i], 4) for i in (0, 1))
            expected = np.stack([np.polyval(cx, GRID_T), np.polyval(cy, GRID_T)], axis=1)
            np.testing.assert_allclose(smoothed, expected, atol=1e-8)


class TestNeighbors:
    def test_nearest_five_ascending(self, town):
        cars = scene([(float(10 - i), 0.0) for i in range(8)])
        _, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [])
        assert ids == [7, 6, 5, 4, 3]

    def test_distance_tie_broken_by_id(self, town):
        cars = scene([(5.0, 0.0), (0.0, 5.0)], ids=[3, 1])
        _, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [])
        assert ids == [1, 3]


class TestBatchedAssembly:
    """The batched window assembly against the per-car reference, bit for bit."""

    # datagen's traffic mixes at its episode seeds, then scenes where other
    # cars share the map, one leads the ego, or a pedestrian is ahead of it.
    SCENES = {
        "train": [(100000, 5, 6), (100001, 15, 2), (20, 5, 6), (9, 15, 2), (1, 5, 6)],
        "test": [(100000, 5, 6), (100001, 15, 2), (3, 5, 6), (15, 15, 2), (11, 5, 6)],
    }

    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_recorded_windows(self, town_id):
        net = sw.build_town(town_id)
        seen = np.zeros(3, dtype=int)
        for seed, n_cars, n_peds in self.SCENES[town_id]:
            log = sw.record_episode(net, seed, 16.0, n_cars, n_peds)
            got, want = extract_windows(log, net), reference_extract_windows(log, net)
            assert len(got) == len(want) == len(log) - WINDOW_TICKS + 1
            for a, b in zip(got, want):
                assert_same_bits(a, b)
            seen += [sum((s.m["label"] > 0).any() for s in got),
                     sum(s.ctx[5] < dataset.CTX_LEAD_CAP for s in got),
                     sum(s.ctx[7] < dataset.CTX_PED_CAP for s in got)]
        assert (seen >= 40).all()

    def test_agent_ids_out_of_row_order(self, log, town):
        # A trace file may number its agents in any order: neighbor ties and
        # map labels follow the ids, the context's cars the rows.
        ids = list(log.agent_ids)
        cars = log.car_indices()[1:]
        for r, aid in zip(cars, [ids[r] for r in cars][::-1]):
            ids[r] = aid
        shuffled = sw.EpisodeLog(log.meta, log.kinds, ids, log.groups, log.clock, log.states, log.lights)
        got, want = extract_windows(shuffled, town), reference_extract_windows(shuffled, town)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        assert len(got) == len(want) and any(a.m["label"].max() > 1 for a in got)

    def test_equal_distances_with_different_ids(self, town):
        # Eight cars 10 m away, ids out of row order: the five lowest ids win.
        # Map labels are rows in id order, and ids 7 and 4 (rows 6 and 4)
        # drive the same track: each contested cell goes to the lower id.
        ends = [(10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0), (6.0, 8.0),
                (8.0, 6.0), (-6.0, 8.0), (10.0, 0.0)]
        cars = scene(ends, ids=[7, 3, 9, 1, 5, 2, 8, 4])
        sample, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [])
        assert ids == [1, 2, 3, 4, 5]
        assert 4 in sample.m["label"] and 6 not in sample.m["label"]

    def test_distances_one_ulp_apart(self, town):
        rng = np.random.default_rng(5)
        d = 12.5
        pairs = [((d, 0.0), (np.nextafter(d, np.inf), 0.0)),
                 ((0.0, np.nextafter(d, 0.0)), (d, 0.0)),
                 disagreeing_offsets(rng, d), disagreeing_offsets(rng, 3.1)]
        for a, b in pairs:
            for ids in ([0, 1], [1, 0]):
                cars = scene([a, b, (40.0, 0.0), (30.0, 1.0), (20.0, -1.0), (4.0, 4.0)],
                             ids=ids + [2, 3, 4, 5])
                assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [(3.0, 0.5)])

    def test_cars_off_the_map(self, town):
        # Beyond the 65 m x 10.5 m map, yet still ranked as neighbors.
        cars = scene([(100.0, 0.0), (0.0, 40.0), (-200.0, 3.0), (33.0, 0.0)], ids=[2, 1, 3, 4])
        sample, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [])
        assert ids == [4, 1, 2, 3]
        assert set(np.unique(densify(sample.m)[1])) <= {-1, 0, 4}

    def test_no_other_cars_and_no_pedestrians(self, town):
        sample, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), [], [])
        assert ids == [] and not sample.v_mask.any() and (sample.v == 0.0).all()
        assert set(np.unique(densify(sample.m)[1])) == {-1, 0}
        cars = scene([(8.0, 0.5), (15.0, -1.0)], ids=[6, 2])
        sample, ids = assert_same_assembly(town, ORIGIN, straight_track((0.0, 0.0)), cars, [])
        assert ids == [6, 2] and sample.ctx[7] == dataset.CTX_PED_CAP

    def test_random_frames(self, town):
        # Random ego poses on the town, cars and walkers around it, some of
        # them at equal offsets.
        rng = np.random.default_rng(11)
        for trial in range(60):
            x, y = rng.uniform(-150.0, 150.0, 2)
            h = rng.uniform(-4.0, 4.0)
            ego = (x, y, h, rng.uniform(0.0, 8.0))
            n = int(rng.integers(0, 9))
            ends = list(map(tuple, rng.uniform(-30.0, 30.0, (n, 2)) + (x, y)))
            if n >= 2 and trial % 3 == 0:  # mirrored through the ego
                ends[1] = (2 * x - ends[0][0], 2 * y - ends[0][1])
            heading = rng.uniform(-np.pi, np.pi)
            cars = scene(ends, ids=list(rng.permutation(n) * 3), heading=heading)
            peds = list(map(tuple, rng.uniform(-20.0, 20.0, (int(rng.integers(0, 4)), 2)) + (x, y)))
            assert_same_assembly(town, ego, straight_track((x, y), h), cars, peds)

    @staticmethod
    def assert_same_extraction(log, net):
        got, want = extract_windows(log, net), reference_extract_windows(log, net)
        assert len(got) == len(want) == max(len(log) - WINDOW_TICKS + 1, 0)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        return got

    @pytest.mark.parametrize("n_ticks, n_windows", [(39, 0), (40, 1), (41, 2)])
    def test_logs_at_the_window_length(self, log, town, n_ticks, n_windows):
        short = sw.EpisodeLog(log.meta, log.kinds, log.agent_ids, log.groups, log.clock[:n_ticks],
                              log.states[:n_ticks], log.lights[:n_ticks])
        assert len(self.assert_same_extraction(short, town)) == n_windows

    @pytest.mark.parametrize("town_id, seed, n_cars, n_peds", [
        ("train", 4, 1, 3), ("test", 5, 1, 0), ("train", 6, 2, 0), ("test", 7, 2, 2),
        ("test", 133, 15, 6),
    ])
    def test_recorded_mixes(self, town_id, seed, n_cars, n_peds):
        # An ego alone or with one other car, no pedestrians, and the busy
        # test-town mix; 30 s runs over two EXTRACT_CHUNK batches.
        net = sw.build_town(town_id)
        log = sw.record_episode(net, seed, 30.0 if n_cars == 15 else 12.0, n_cars, n_peds)
        got = self.assert_same_extraction(log, net)
        assert all(s.v_mask.sum() == min(n_cars - 1, N_NEIGHBORS) for s in got)
        if n_cars == 15:  # other cars in the map, a junction core, three commands
            assert len(got) > dataset.EXTRACT_CHUNK
            assert sum((s.m["label"] > 0).any() for s in got) > 100
            assert sum(s.ctx[2] == 0.0 for s in got) > 20 and len({s.nc for s in got}) == 3

    @staticmethod
    def assemble_windows(network, windows):
        """assemble_sample over windows of (ego, ego_past, car_tracks, peds)
        with equally many cars, in one batch; each sample must equal the
        per-car reference's."""
        tracks = []
        for ego, ego_past, car_tracks, _ in windows:
            cars = sorted(car_tracks, key=lambda car: car[0])
            tracks.append(np.stack([ego_past] + [trk for _, trk, _ in cars]))
        got = assemble_sample(
            network, np.array([w[0] for w in windows], dtype=np.float64), np.stack(tracks),
            [[list(st) for _, _, st in w[2]] for w in windows], [list(w[3]) for w in windows],
            [lambda node_id, axis: True] * len(windows), [NavigationCommand.LEFT] * len(windows),
        )
        for sample, (ego, ego_past, car_tracks, peds) in zip(got, windows):
            want, _ = reference_assemble_sample(
                network, Pose2D(*ego[:3]), ego[3], ego_past, car_tracks, peds,
                lambda node_id, axis: True, NavigationCommand.LEFT,
            )
            assert_same_bits(sample, want)
        return got

    def test_row_norm_tie_in_one_window_of_a_batch(self, town):
        # Window 1 holds two cars whose row norms the 1-D norm orders the
        # other way round; its neighbors keep the 1-D norms' order, and the
        # windows around it, without ties, their row norms.
        a, b = disagreeing_offsets(np.random.default_rng(5), 12.5)
        windows = []
        for k, (p, q) in enumerate([((20.0, 1.0), (-9.0, 2.0)), (a, b), ((3.0, -4.0), (30.0, 0.5))]):
            cars = scene([p, q, (40.0, 0.0)], ids=[1, 0, 2])
            windows.append((ORIGIN, straight_track((0.0, 0.0)), cars, [(3.0, 0.5)]))
        got = self.assemble_windows(town, windows)
        for k, (_, _, cars, _) in enumerate(windows):
            d = np.array([car[1][-1] for car in cars])
            r = np.sort(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
            assert (np.diff(r) <= 1e-9).any() == (k == 1)  # the confirm fires in window 1 only
        assert len(got) == 3

    def test_row_norms_per_window(self):
        # Windows of random rows, some with a pair within 1e-9 m (equal,
        # an ulp apart, or ordered apart by the two norms): each window
        # equals the per-window reference, which takes the 1-D norms there.
        rng = np.random.default_rng(8)
        d = rng.uniform(-40.0, 40.0, (60, 7, 2))
        a, b = disagreeing_offsets(rng, 3.1)
        d[3, :2], d[10, 4], d[17, 5] = (a, b), d[10, 1], -d[17, 0]
        d[24, 2] = d[24, 6] * (1.0 + 2.0 ** -52)
        got = dataset._row_norms(d)
        fired = 0
        for window, r in zip(d, got):
            assert r.tobytes() == reference_row_norms(window).tobytes()
            row = np.sort(np.sqrt(window[:, 0] * window[:, 0] + window[:, 1] * window[:, 1]))
            if (np.diff(row) <= 1e-9).any():
                fired += 1
                assert r.tobytes() == np.array([np.linalg.norm(p) for p in window]).tobytes()
        assert fired >= 4
        assert dataset._row_norms(d[:, :1]).tobytes() == np.sqrt((d[:, :1] ** 2).sum(-1)).tobytes()
        assert dataset._row_norms(d[:, :0]).shape == (60, 0)

    def test_map_contests_rank_by_ego_frame_distance(self, town):
        # Two cars equally far from the ego (within 1e-9 m, so both rankings
        # take 1-D norms) whose 1-D norms order them one way in the world
        # frame and the other in the ego frame.  They share one map cell at
        # every tick but the center: the ego frame's nearer car must win it.
        rng = np.random.default_rng(21)
        h, found = 0.7, 0
        frame = Pose2D(0.0, 0.0, h)
        for _ in range(20000):
            theta = h + rng.uniform(-0.2, 0.2, 2)
            p, q = 12.0 * np.column_stack([np.cos(theta), np.sin(theta)])
            world = np.linalg.norm(p) - np.linalg.norm(q)
            ego = (np.linalg.norm(xy_to_frame(p[None], frame)[0])
                   - np.linalg.norm(xy_to_frame(q[None], frame)[0]))
            winner = 2 if ego > 0 else 1  # track rows; the lower row wins a tie
            if winner == (2 if world > 0 else 1):
                continue
            shared = np.full((T_STEPS, 2), 5.0) * [np.cos(h), np.sin(h)]
            tracks = [shared.copy(), shared.copy()]
            tracks[0][-1], tracks[1][-1] = p, q
            cars = [(k, trk, (trk[-1, 0], trk[-1, 1], h, 3.0)) for k, trk in enumerate(tracks)]
            sample, _ = assert_same_assembly(town, (0.0, 0.0, h, 3.0), straight_track((0.0, 0.0), h),
                                             cars, [])
            assert (densify(sample.m)[1][..., : T_STEPS - 1] == winner).sum() == T_STEPS - 1
            found += 1
            if found == 5:
                break
        assert found == 5

    def test_heading_across_the_diagonal_lane(self):
        # Egos on the test town's diagonal lane, headed within ulps of
        # across it: the elementwise heading dot lies within 1e-12 of 0, and
        # the lane test is the matvec's.
        net = sw.build_town("test")
        lane = next(l for l in net.lanes if l.direction[0] not in (0.0, 1.0, -1.0))
        xy = lane.p0 + lane.direction * (lane.length / 2.0)
        headings = [lane.heading + np.pi / 2.0, lane.heading - np.pi / 2.0, lane.heading]
        headings.append(np.nextafter(headings[0], 9.0))
        dot = net.lane_dir[lane.lane_id] @ np.array([np.cos(headings), np.sin(headings)])
        assert (np.abs(dot[[0, 1, 3]]) <= 1e-12).all() and dot[2] > 0.5
        windows = [((xy[0], xy[1], h, 3.0), straight_track(xy, h),
                    scene([xy + (4.0, 1.0)], ids=[3], heading=h), []) for h in headings]
        got = self.assemble_windows(net, windows)
        assert got[2].ctx[2] < dataset.CTX_INTER_CAP  # on the lane when heading along it


class TestFloatContext:
    """compute_context's lead and pedestrian scalars against the one-row
    array forms, bit for bit, on their boundaries."""

    def assert_pinned(self, town, ego, cars, peds):
        ctx = context_of(town, ego, cars, peds, lambda node_id, axis: True)
        assert ctx.tobytes() == reference_context(town, ego, cars, peds, lambda n, a: True).tobytes()
        assert ctx[5:].tobytes() == reference_context_tail(ego, cars, peds).tobytes()
        return ctx[5:]

    def test_heading_aligned_ties_take_the_first(self, town):
        cars = [(10.0, 1.0, 0.0, 3.0), (10.0, -1.0, 0.0, 7.0), (12.0, 0.0, 0.0, 1.0)]
        assert list(self.assert_pinned(town, ORIGIN, cars, [])) == [10.0, -1.0, 30.0]
        assert list(self.assert_pinned(town, ORIGIN, cars[1::-1], [])) == [10.0, 3.0, 30.0]

    @pytest.mark.parametrize("lx", [0.0, -0.0, 5e-324, 16.0, np.nextafter(16.0, 99.0), 25.0,
                                    np.nextafter(25.0, 99.0), -3.0])
    @pytest.mark.parametrize("ly", [0.0, -0.0, 2.2, -2.2, np.nextafter(2.2, 9.0), 3.0, -3.0,
                                    np.nextafter(3.0, 9.0)])
    def test_boundaries(self, town, lx, ly):
        # With the ego at the origin heading along x, lx and ly are exact.
        for ego in (ORIGIN, (-0.0, -0.0, -0.0, 4.0)):
            got = self.assert_pinned(town, ego, [(lx, ly, 0.0, 2.0)], [(lx, ly)])
            lead = 0.0 < lx <= 25.0 and abs(ly) <= 2.2
            walker = 0.0 < lx <= 16.0 and abs(ly) <= 3.0
            assert got[0] == (min(lx, 50.0) if lead else 50.0)
            assert got[2] == (lx if walker else 30.0)

    def test_cross_traffic_and_headings(self, town):
        # Car headings around +-90 deg from the ego's decide whether it leads.
        h90 = np.pi / 2
        for h in (h90, -h90, np.nextafter(h90, 9.0), np.nextafter(-h90, -9.0), np.pi, -0.0):
            self.assert_pinned(town, ORIGIN, [(8.0, 0.0, h, 5.0)], [])

    def test_random_egos(self, town):
        rng = np.random.default_rng(4)
        lo, hi = [-30.0, -8.0, -np.pi, 0.0], [30.0, 8.0, np.pi, 8.0]
        found = 0
        for trial in range(400):
            ego = tuple(rng.uniform(lo, hi))
            cars = rng.uniform(lo, hi, (int(rng.integers(0, 8)), 4))
            peds = rng.uniform(lo[:2], hi[:2], (int(rng.integers(0, 5)), 2))
            if trial % 2:
                ego = (ego[0], ego[1], 0.0, ego[3])
                cars[:, 0] = ego[0] + rng.choice([5.0, 10.0, 16.0, 25.0], len(cars))
                peds[:, 0] = ego[0] + rng.choice([-1.0, 5.0, 16.0], len(peds))
            got = self.assert_pinned(town, ego, cars.tolist(), peds.tolist())
            found += got[0] < 50.0
        assert found > 40


class TestProximityMap:
    def test_ego_occupies_center_cell(self):
        tracks = np.zeros((1, T_STEPS, 2))
        cells, labels = densify(*kernels.bin_proximity(tracks, np.zeros(1)))
        center = labels[labels.shape[0] // 2, labels.shape[1] // 2]
        assert (center == 0).all()

    def test_outside_extent_ignored(self):
        tracks = np.full((1, T_STEPS, 2), 1e4)
        (m,) = kernels.bin_proximity(tracks, np.zeros(1))
        assert len(m) == 0
        cells, labels = densify(m)
        assert (labels == -1).all()
        assert (cells == 0.0).all()

    def test_nearer_vehicle_wins_contested_cell(self):
        tracks = np.zeros((2, T_STEPS, 2))
        tracks[1] += 0.01  # same cell
        cells, labels = densify(*kernels.bin_proximity(tracks, np.array([5.0, 1.0])))
        occupied = labels[labels >= 0]
        assert (occupied == 1).all()

    def test_cell_stores_k_window_fragment(self):
        rng = np.random.default_rng(1)
        tracks = rng.normal(0.0, 1.0, (1, T_STEPS, 2))
        cells, labels = densify(*kernels.bin_proximity(tracks, np.zeros(1)))
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
            {}, ["car"], [0], [], t, states, np.zeros((n, 0))
        )

    def test_far_from_junction_keeps_lane(self, town):
        log = self._straight_log(town)
        assert command_at(log, 0, town) == NavigationCommand.KEEP_LANE

    def test_straight_crossing_is_cross(self, town):
        node = town.nodes[town.junction_ids[0]]
        log = self._straight_log(town, start=(node.pos[0] - 20.0, node.pos[1] - 1.75))
        assert command_at(log, 0, town) == NavigationCommand.CROSS

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
            {}, ["car"], [0], [], np.arange(n) * sw.TICK, states, np.zeros((n, 0)),
        )

    def test_left_and_right_turns(self, town):
        assert command_at(self._turn_log(town, +1), 0, town) == NavigationCommand.LEFT
        assert command_at(self._turn_log(town, -1), 0, town) == NavigationCommand.RIGHT


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
    if dh > np.deg2rad(sw.TURN_DEG):
        return NavigationCommand.LEFT
    if dh < -np.deg2rad(sw.TURN_DEG):
        return NavigationCommand.RIGHT
    return NavigationCommand.CROSS


def reference_window_command(log, center_tick, network):
    """The per-window compute_navigation_command: a norm table over its own
    lookahead, no memo."""
    n = len(log)
    horizon = min(n - 1, center_tick + int(round(dataset.NC_LOOKAHEAD_S / sw.TICK)))
    track = log.states[:, 0, :2]
    d = np.linalg.norm(network.junction_pos - track[center_tick : horizon + 1, None], axis=2)
    inside = np.flatnonzero(d.min(axis=1) < dataset.NC_ZONE_RADIUS)
    if not inside.size:
        return NavigationCommand.KEEP_LANE
    i = center_tick + int(inside[0])
    node_id = network.junction_ids[int(np.argmin(d[inside[0]]))]
    j = dataset._zone_exit(track, i, network.nodes[node_id].pos)
    return turn_command(log.states[i][0, 2], log.states[j][0, 2])


def command_at(log, center_tick, network):
    return compute_navigation_command(log, range(center_tick, center_tick + 1), network)[0]


def _assert_same_commands(log, network):
    """compute_navigation_command over every tick, at once and in runs of
    7, 50 and 1, against both per-tick references."""
    n = len(log)
    got = compute_navigation_command(log, range(n), network)
    want = [reference_navigation_command(log, c, network) for c in range(n)]
    assert got == want == [reference_window_command(log, c, network) for c in range(n)]
    for step in (7, 50, 1):
        runs = [compute_navigation_command(log, range(lo, min(lo + step, n)), network)
                for lo in range(0, n, step)]
        assert sum(runs, []) == want
    return set(got)


class TestTurnCommand:
    @pytest.mark.parametrize(
        "h_in, h_out, want",
        [
            (0.0, np.deg2rad(31.0), NavigationCommand.LEFT),
            (0.0, np.deg2rad(-31.0), NavigationCommand.RIGHT),
            (0.0, np.deg2rad(29.0), NavigationCommand.CROSS),
            (0.0, np.deg2rad(30.5), NavigationCommand.LEFT),
            (0.0, np.deg2rad(-30.5), NavigationCommand.RIGHT),
            # The change wraps: 170 deg to -170 deg is +20 deg, -170 to 100 is -90.
            (np.deg2rad(170.0), np.deg2rad(-170.0), NavigationCommand.CROSS),
            (np.deg2rad(-170.0), np.deg2rad(100.0), NavigationCommand.RIGHT),
            (np.deg2rad(150.0), np.deg2rad(-120.0), NavigationCommand.LEFT),
        ],
    )
    def test_heading_change_decides(self, h_in, h_out, want):
        assert turn_command(h_in, h_out) == want
        assert turn_command(np.float64(h_in), np.float64(h_out)) == want


class TestNavigationCommandParity:
    def test_overlapping_zones_keep_their_own_exits(self):
        # Two junctions 20 m apart, so their zones overlap: an entry nearest
        # the second lies within the first zone's (entry, exit) span, and
        # must still leave by the second zone's own exit.  The heading turns
        # steadily, so the two exits give different commands.
        nodes = [sw.Node(0, np.array([0.0, 0.0]), "junction", True),
                 sw.Node(1, np.array([20.0, 0.0]), "junction", True)]
        lane = sw.Lane(0, 0, 0, 1, nodes[0].pos, nodes[1].pos, np.array([1.0, 0.0]), 20.0)
        net = sw.RoadNetwork("close", nodes, [sw.Segment(0, 0, 1, 0)], [lane], [])
        n = 240
        states = np.zeros((n, 1, 4))
        states[:, 0, 0] = np.linspace(-40.0, 80.0, n)
        states[:, 0, 2] = np.linspace(0.0, 6.0, n)
        log = sw.EpisodeLog({}, ["car"], [0], [], np.arange(n) * sw.TICK, states, np.zeros((n, 0)))
        seen = _assert_same_commands(log, net)
        assert {NavigationCommand.LEFT, NavigationCommand.CROSS} <= seen

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
                                np.zeros((n, 0)))
            assert len(_assert_same_commands(log, net)) == 3


class TestExtractWindows:
    def test_window_count(self, log, samples):
        assert len(samples) == len(log) - WINDOW_TICKS + 1

    def test_shapes_and_masks(self, samples):
        s = samples[0]
        assert s.e.shape == (T_STEPS, K_WINDOW, 2)
        assert s.v.shape == (N_NEIGHBORS, T_STEPS, K_WINDOW, 2)
        assert s.m.dtype == dataset.MAP_ENTRY
        assert densify(s.m)[0].shape == (13, 3, T_STEPS, 2 * K_WINDOW)
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

    @pytest.mark.parametrize("chunk", [1, 7, 10_000])
    def test_chunk_size_keeps_the_bytes(self, town, chunk, monkeypatch, tmp_path):
        # 161 windows: one batch at the default size, and batches of 1, of 7
        # (the last one short) and of more than the episode.
        log = sw.record_episode(town, 21, 20.0, 9, 4)
        write_dataset(extract_windows(log, town), tmp_path / "default.jsonl")
        monkeypatch.setattr(dataset, "EXTRACT_CHUNK", chunk)
        write_dataset(extract_windows(log, town), tmp_path / "chunked.jsonl")
        default = (tmp_path / "default.jsonl").read_bytes()
        assert len(default) > 1_000_000 and (tmp_path / "chunked.jsonl").read_bytes() == default

    def test_deterministic(self, log, town, samples):
        again = extract_windows(log, town)
        assert len(again) == len(samples)
        assert all(samples_equal(a, b) for a, b in zip(samples[:50], again[:50]))


def v1_record(s):
    """Format 1: every array as JSON numbers, the map as [r, c, t, label, *payload]."""
    m_cells, m_labels = densify(s.m)
    occupied = np.argwhere(m_labels >= 0)
    m_sparse = [
        [int(r), int(c), int(t), int(m_labels[r, c, t])]
        + [float(x) for x in m_cells[r, c, t]]
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


def v1_sample(rec):
    e = np.array(rec["e"]).reshape(T_STEPS, K_WINDOW, 2)
    v = np.zeros((N_NEIGHBORS, T_STEPS, K_WINDOW, 2))
    vf = np.zeros((N_NEIGHBORS, T_STEPS, 2))
    for k, vals in rec["v"].items():
        v[int(k)] = np.array(vals).reshape(T_STEPS, K_WINDOW, 2)
    for k, vals in rec["vf"].items():
        vf[int(k)] = np.array(vals).reshape(T_STEPS, 2)
    m_cells = np.zeros((dataset.MAP_ROWS, dataset.MAP_COLS, T_STEPS, 2 * K_WINDOW))
    m_labels = np.full(m_cells.shape[:3], -1, dtype=np.int64)
    for entry in rec["m"]:
        r, c, t, label = int(entry[0]), int(entry[1]), int(entry[2]), int(entry[3])
        m_labels[r, c, t] = label
        m_cells[r, c, t] = entry[4:]
    return dataset.Sample(
        e=e,
        v=v,
        v_mask=np.array(rec["mask"], dtype=bool),
        m=sparsify(m_cells, m_labels),
        ctx=np.array(rec["ctx"]),
        nc=NavigationCommand(rec["nc"]),
        ego_future=np.array(rec["ef"]).reshape(T_STEPS, 2),
        neigh_future=vf,
        episode_seed=int(rec.get("ep", 0)),
        center_tick=int(rec.get("ct", 0)),
        deviated=bool(rec.get("dev", 0)),
    )


def v1_write_dataset(samples, path):
    """The format 1 writer and reader, kept as the reference for format 2."""
    with open(path, "w") as f:
        f.write(json.dumps({**dataset.dataset_header(), "format_version": 1}) + "\n")
        for s in samples:
            f.write(json.dumps(v1_record(s)) + "\n")


def v1_read_dataset(path):
    with open(path) as f:
        return [v1_sample(json.loads(line)) for line in f.read().splitlines()[1:]]


ARRAYS = ("e", "v", "v_mask", "m", "ctx", "ego_future", "neigh_future")
FIELDS = (
    ("e", "<f8"),
    ("v", "<f8"),
    ("v_mask", "u1"),
    ("m_cells", "<f8"),
    ("m_labels", "<i8"),
    ("ctx", "<f8"),
    ("ego_future", "<f8"),
    ("neigh_future", "<f8"),
)


def dense_fields(s):
    """The sample's arrays by FIELDS name, the map as its dense grids."""
    m_cells, m_labels = densify(s.m)
    return {**{name: getattr(s, name) for name in ARRAYS}, "m_cells": m_cells, "m_labels": m_labels}


def decoded_digest(samples):
    """sha256 over every array and scalar of the samples, in FIELDS order."""
    h = hashlib.sha256()
    for s in samples:
        arrays = dense_fields(s)
        for name, dtype in FIELDS:
            h.update(np.ascontiguousarray(arrays[name], dtype=dtype).tobytes())
        h.update(np.array([s.nc, s.episode_seed, s.center_tick, s.deviated], "<i8").tobytes())
    return h.hexdigest()


def assert_same_bits(a, b):
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert (a.nc, a.episode_seed, a.center_tick, a.deviated) == (
        b.nc, b.episode_seed, b.center_tick, b.deviated
    )


# One 15 s episode per town, extracted, written and read back.  DECODED is
# the sha256 of the decoded samples (decoded_digest), captured with the
# format 1 reader, so it pins extract_windows whatever the file encoding.
# FILE is the sha256 of write_dataset's format 2 bytes.
DECODED = {
    ("train", 11): "ca4d2d59c9f69368d4c02dbf42d00858612828e45912047e887169b51df9132f",
    ("test", 12): "9da939934b461186185dac32cc342edd6a3018e8ebc3c334edf55ccf5cd71708",
}
FILE = {
    ("train", 11): "de5cd0476e2e80e647515db2b91c55de48016b497498246edb5a9dd282ea1904",
    ("test", 12): "90be5ee9a79780eff5cd955b66eef9ad7952e5aff12d31ada1be45cfe3870c20",
}


def _extreme(sample):
    """The sample with signed zeros, the largest values the reader takes and
    a subnormal in its map payload, and signed zeros and extremes in e and ctx."""
    rng = np.random.default_rng(3)
    values = [-0.0, 0.0, 1e6, -1e6, 5e-324, 1.0 / 3.0]
    m = sample.m.copy()
    m["xy"] = rng.choice(values, m["xy"].shape)
    e = sample.e.copy()
    e[0] = -0.0
    ctx = sample.ctx.copy()
    ctx[:3] = [-0.0, 1e6, -1e6]
    return dataclasses.replace(sample, m=m, e=e, ctx=ctx)


class TestRecordBytes:
    @pytest.mark.parametrize("town_id, seed", sorted(FILE))
    def test_record_path_golden_bytes(self, town_id, seed, tmp_path):
        net = sw.build_town(town_id)
        samples = extract_windows(sw.record_episode(net, seed, 15.0), net)
        write_dataset(samples, tmp_path / "d.jsonl", {"town": town_id})
        digest = hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest()
        assert digest == FILE[(town_id, seed)]
        back, _ = read_dataset(tmp_path / "d.jsonl")
        assert decoded_digest(back) == DECODED[(town_id, seed)]
        assert decoded_digest(samples) == DECODED[(town_id, seed)]

    def test_decodes_like_v1_reference(self, samples, tmp_path):
        augmented = augment_samples(
            samples,
            AugmentConfig(mode="full", fraction=1.0, sigma_long=0.1, sigma_lat=0.05,
                          p_remove=0.2, p_add=0.05),
            4,
        )
        assert any(s.deviated for s in augmented)
        assert any((s.m["label"] >= 1000).any() for s in augmented)
        data = samples + augmented + [_extreme(samples[7]), _extreme(augmented[7])]
        v1_write_dataset(data, tmp_path / "v1.jsonl")
        write_dataset(data, tmp_path / "v2.jsonl")
        want = v1_read_dataset(tmp_path / "v1.jsonl")
        got, _ = read_dataset(tmp_path / "v2.jsonl")
        assert len(got) == len(want) == len(data)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        # A NaN, or a value just beyond the limit, is written, but the reader refuses it.
        for value in (-np.nan, np.nextafter(1e6, np.inf)):
            bad = dataclasses.replace(samples[0], ctx=np.full(8, value))
            write_dataset([bad], tmp_path / "bad.jsonl")
            with pytest.raises(DataFormatError, match=f"line 2: field 'ctx' holds {value}, not a"):
                read_dataset(tmp_path / "bad.jsonl")


class TestSerialization:
    def test_round_trip(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        subset = samples[:40]
        write_dataset(subset, path, {"config_hash": "abc"})
        back, header = read_dataset(path)
        assert header["config_hash"] == "abc"
        assert header["format_version"] == dataset.DATASET_FORMAT_VERSION == 2
        assert len(back) == len(subset)
        for a, b in zip(subset, back):
            assert_same_bits(a, b)
            for name in ARRAYS:
                arr = getattr(b, name)
                assert arr.flags.owndata and arr.flags.writeable, name
                assert arr.dtype.isnative, name

    def test_neighbor_free_and_empty_map_round_trip(self, samples, tmp_path):
        s = samples[0]
        lone = dataclasses.replace(
            s,
            v=np.zeros_like(s.v),
            v_mask=np.zeros_like(s.v_mask),
            neigh_future=np.zeros_like(s.neigh_future),
            m=np.zeros(0, dataset.MAP_ENTRY),
        )
        write_dataset([lone], tmp_path / "d.jsonl")
        (back,), _ = read_dataset(tmp_path / "d.jsonl")
        assert_same_bits(back, lone)

    def test_rejects_bad_version(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(samples[:2], path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]))
        with pytest.raises(DataFormatError, match="line 1: format_version 99 unsupported"):
            read_dataset(path)

    def test_rejects_corrupt_record(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(samples[:2], path)
        with open(path, "a") as f:
            f.write("{broken\n")
        with pytest.raises(DataFormatError, match="line 4: "):
            read_dataset(path)

    def test_line_boundaries(self, samples, tmp_path):
        # Records are decoded as they are read; the line numbers and messages
        # are those of the whole-file split that came before.
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match=r"d\.jsonl: empty file$"):
            read_dataset(path)
        write_dataset(samples[:2], path)
        text = path.read_bytes()
        header, first, second = text.splitlines()
        for lines, lineno in (([header, b"", first, second], 2), ([header, first, second, b""], 4),
                              ([b""], 1)):
            path.write_bytes(b"".join(line + b"\n" for line in lines))
            with pytest.raises(DataFormatError) as err:
                read_dataset(path)
            assert str(err.value) == (
                f"{path}: line {lineno}: Expecting value: line 1 column 1 (char 0)"
            )
        path.write_bytes(text[:-1])  # no final newline
        back, _ = read_dataset(path)
        assert len(back) == 2
        for a, b in zip(back, samples):
            assert_same_bits(a, b)


def _b64(edit):
    """A record edit on the decoded bytes of one base64 field."""
    def apply(rec, key):
        rec[key] = base64.b64encode(edit(base64.b64decode(rec[key]))).decode()
    return apply


def _map_cell(rec, key):
    m = np.frombuffer(base64.b64decode(rec[key]), dataset.MAP_ENTRY).copy()
    m["cell"][-1] = dataset.MAP_ROWS * dataset.MAP_COLS * T_STEPS
    rec[key] = base64.b64encode(m.tobytes()).decode()


# (line, field, edit, message): each makes read_dataset refuse the file.
# Line 1 is the header; the edits on records hit line 3, the second sample.
CORRUPTIONS = {
    "truncated_base64": (3, "e", lambda rec, k: rec.update({k: rec[k][:-3]}), "not base64"),
    # A non-strict decoder would skip the "*" and read the right bytes.
    "invalid_base64": (3, "ctx", lambda rec, k: rec.update({k: "*" + rec[k]}), "not base64"),
    "short_array": (3, "ef", _b64(lambda raw: raw[:-8]), "do not fit"),
    "long_array": (3, "v", _b64(lambda raw: raw + bytes(8)), "do not fit"),
    "cut_map_entry": (3, "m", _b64(lambda raw: raw[:-1]), "do not fit"),
    "extra_row": (3, "vf", _b64(lambda raw: raw + bytes(8 * 2 * T_STEPS)), "rows, expected"),
    "empty_array": (3, "e", _b64(lambda raw: b""), "holds 0 rows, expected 1"),
    "array_not_string": (3, "ctx", lambda rec, k: rec.update({k: 5}), "not a base64 string"),
    "non_ascii_base64": (3, "ef", lambda rec, k: rec.update({k: "é" + rec[k]}), "not base64"),
    "map_index_outside_grid": (3, "m", _map_cell, "outside the 13x3x20 grid"),
    "missing_field": (3, "ct", lambda rec, k: rec.pop(k), "missing field 'ct'"),
    "mask_length": (3, "mask", lambda rec, k: rec[k].append(0), "field 'mask'"),
    "mask_not_ints": (3, "mask", lambda rec, k: rec.update({k: ["a"] * 5}), "field 'mask'"),
    "scalar_null": (3, "ep", lambda rec, k: rec.update({k: None}), "field 'ep' is not an"),
    "scalar_float": (3, "ct", lambda rec, k: rec.update({k: 1.5}), "field 'ct' is not an"),
    "header_T": (1, "T", lambda rec, k: rec.update({k: T_STEPS + 1}), "header T is 21"),
    "header_K": (1, "K", lambda rec, k: rec.update({k: K_WINDOW - 1}), "header K is 2"),
    "header_N": (1, "N", lambda rec, k: rec.update({k: N_NEIGHBORS + 1}), "header N is 6"),
    "header_map_dims": (1, "map_dims", lambda rec, k: rec.update({k: [13, 4]}), "map_dims"),
    "header_missing": (1, "K", lambda rec, k: rec.pop(k), "header K is None"),
}


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.npz"
    save_checkpoint(init_params(0), path)
    return path


def write_corrupt(samples, path, case):
    """Three samples whose file carries one corruption (or "v1": format 1)."""
    if case == "v1":
        v1_write_dataset(samples[:3], path)
        return 1, "format_version 1 unsupported"
    write_dataset(samples[:3], path)
    lineno, key, edit, message = CORRUPTIONS[case]
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    edit(rec, key)
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return lineno, message


class TestCorruptFiles:
    @pytest.mark.parametrize("case", ["v1", *CORRUPTIONS])
    def test_refused_naming_the_line(self, samples, tmp_path, case):
        # samples[1] has present neighbors, so "v" holds rows to lengthen.
        assert samples[1].v_mask.any()
        lineno, message = write_corrupt(samples, tmp_path / "d.jsonl", case)
        with pytest.raises(DataFormatError, match=f"d.jsonl: line {lineno}: ") as err:
            read_dataset(tmp_path / "d.jsonl")
        assert message in str(err.value)

    @pytest.mark.parametrize("command", ["augment", "train", "eval-offline"])
    @pytest.mark.parametrize("case", ["v1", *CORRUPTIONS])
    def test_cli_exits_2_with_one_line(self, samples, checkpoint, tmp_path, capsys,
                                       command, case):
        path = tmp_path / "d.jsonl"
        lineno, _ = write_corrupt(samples, path, case)
        out = tmp_path / "out"
        inputs = {
            "augment": [f'input = "{path}"'],
            "train": [f'train = "{path}"', f'val = "{path}"'],
            "eval-offline": [f'checkpoint = "{checkpoint}"', f'data = "{path}"'],
        }[command]
        assert main([command, "--out", str(out), *inputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polydrive {command}: {path}: line {lineno}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_line(self, samples, tmp_path):
        path = tmp_path / "d.jsonl"
        write_dataset(samples[:2], path)
        with open(path, "ab") as f:
            f.write(b'{"e": "\xff"}\n')
        with pytest.raises(DataFormatError, match="line 4: "):
            read_dataset(path)


class TestSamplesEqual:
    @pytest.mark.parametrize(
        "field, value", [("center_tick", -1), ("episode_seed", -1), ("deviated", True)]
    )
    def test_bookkeeping_fields_count(self, samples, field, value):
        s = samples[3]
        assert getattr(s, field) != value
        assert samples_equal(s, dataclasses.replace(s))
        assert not samples_equal(s, dataclasses.replace(s, **{field: value}))
