import copy

import numpy as np
import pytest
from test_kernels import densify, sparsify

from polydrive import augment, dataset, kernels, simworld as sw
from polydrive.augment import (
    AugmentConfig,
    DeviationParams,
    augment_samples,
    inject_deviation,
    perturb_map_occupancy,
    perturb_positions,
    random_deviation_params,
    synthesize_recovery,
)
from polydrive.dataset import K_WINDOW, T_STEPS, samples_equal
from polydrive.errors import SkipSample
from polydrive.kernels import (
    CELL_LAT,
    CELL_LONG,
    MAP_COLS,
    MAP_EXTENT_LAT,
    MAP_EXTENT_LONG,
    MAP_ROWS,
)
from polydrive.trajectory import PointSeries, _rotation, fit_polynomial, sample_times


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def samples(town):
    log = sw.record_episode(town, seed=11, duration=30.0, n_cars=6, n_pedestrians=2)
    return dataset.extract_windows(log, town)


@pytest.fixture(scope="module")
def moving_sample(samples):
    for s in samples:
        v = np.diff(s.ego_future, axis=0) / 0.1
        if np.linalg.norm(v, axis=1).min() > 1.0:
            return s
    raise RuntimeError("no steadily moving window found")


def straight_future(speed=5.0):
    t = sample_times()
    xy = np.stack([speed * t, np.zeros_like(t)], axis=1)
    return PointSeries(t, xy)


def to_nominal_frame(xy_dev, params):
    rot = _rotation(-params.angular_amplitude)
    return xy_dev @ rot + np.array([0.0, params.lateral_signed])


# -- reference loops ----------------------------------------------------------
# The per-point and per-cell loops that augment.py ran before it became array
# code, kept to pin the array code to the same bits.

PAST_T = (np.arange(T_STEPS) - (T_STEPS - 1)) * 0.1  # history index 0..T-1


def reference_poly_derivatives(coeffs, t):
    p = np.polyval(coeffs, t)
    d1 = np.polyval(np.polyder(coeffs), t)
    d2 = np.polyval(np.polyder(coeffs, 2), t)
    return float(p), float(d1), float(d2)


def reference_synthesize_recovery(nominal_future, lateral, angular, duration):
    poly = fit_polynomial(nominal_future)
    _, vx0, _ = reference_poly_derivatives(poly.cx, 0.0)
    _, vy0, _ = reference_poly_derivatives(poly.cy, 0.0)
    speed0 = float(np.hypot(vx0, vy0))
    if speed0 < augment.MIN_NOMINAL_SPEED:
        raise SkipSample("nominal future is degenerate (near-stationary)")
    rot = _rotation(-angular)
    offset = np.array([0.0, lateral])

    def nominal_in_dev(t):
        px, vx, ax = reference_poly_derivatives(poly.cx, t)
        py, vy, ay = reference_poly_derivatives(poly.cy, t)
        return rot @ (np.array([px, py]) - offset), rot @ np.array([vx, vy]), rot @ np.array([ax, ay])

    d = float(duration)
    pd, vd, ad = nominal_in_dev(d)
    cx = augment._recovery_axis(0.0, speed0, pd[0], vd[0], ad[0], d)
    cy = augment._recovery_axis(0.0, 0.0, pd[1], vd[1], ad[1], d)
    out = np.empty((T_STEPS, 2))
    for i, t in enumerate(sample_times()):
        if t <= d + 1e-12:
            out[i, 0] = np.polyval(cx, t)
            out[i, 1] = np.polyval(cy, t)
        else:
            out[i] = nominal_in_dev(float(t))[0]
    return out


def reference_warp_past(xy, t, params):
    lat = params.lateral_signed
    ang = params.angular_amplitude
    ramp = augment._smoothstep((t + params.deviation_start) / params.deviation_start)
    out = np.empty_like(xy)
    for i in range(xy.shape[0]):
        r = ramp[i]
        out[i] = _rotation(r * ang) @ xy[i] + np.array([0.0, r * lat])
    return out


def reference_to_deviated(xy, params):
    rot = _rotation(-params.angular_amplitude)
    return (xy - np.array([0.0, params.lateral_signed])) @ rot.T


def reference_inject_deviation(sample, params):
    future = reference_synthesize_recovery(
        sample.ego_future_series(), params.lateral_signed, params.angular_amplitude,
        params.recovery_duration,
    )
    out = copy.deepcopy(sample)
    for k in range(K_WINDOW):
        idx = np.maximum(np.arange(T_STEPS) - (K_WINDOW - 1) + k, 0)
        warped = reference_warp_past(sample.e[:, k, :], PAST_T[idx], params)
        out.e[:, k, :] = reference_to_deviated(warped, params)
    rot = _rotation(-params.angular_amplitude)
    for n in range(dataset.N_NEIGHBORS):
        if not sample.v_mask[n]:
            continue
        for k in range(K_WINDOW):
            out.v[n, :, k, :] = reference_to_deviated(sample.v[n, :, k, :], params)
        out.neigh_future[n] = sample.neigh_future[n] @ rot.T
    out.m = sparsify(*reference_rebuild_map(densify(sample.m), *deviation_transforms(params)))
    out.ego_future = future
    herr = sample.ctx[4]
    out.ctx = sample.ctx.copy()
    out.ctx[3] = sample.ctx[3] + params.lateral_signed * np.cos(herr)
    out.ctx[4] = (herr + params.angular_amplitude + np.pi) % (2 * np.pi) - np.pi
    out.deviated = True
    return out


def reference_perturb_map_occupancy(m, p_remove, p_add, seed):
    """On a dense (cells, labels) map, as densify gives it."""
    rng = np.random.default_rng(seed)
    cells, labels = (a.copy() for a in m)
    for a in sorted(int(a) for a in np.unique(labels) if a > 0):
        if rng.random() < p_remove:
            mask = labels == a
            labels[mask] = -1
            cells[mask] = 0.0
    if p_add > 0.0:
        next_label = int(labels.max()) + 1 if labels.max() >= 0 else 1
        next_label = max(next_label, 1000)
        half_long, half_lat = MAP_EXTENT_LONG / 2.0, MAP_EXTENT_LAT / 2.0
        for r in range(MAP_ROWS):
            for c in range(MAP_COLS):
                for t in range(T_STEPS):
                    if labels[r, c, t] >= 0 or rng.random() >= p_add:
                        continue
                    cx = -half_long + (r + 0.5) * CELL_LONG + rng.uniform(-1.0, 1.0)
                    cy = -half_lat + (c + 0.5) * CELL_LAT + rng.uniform(-0.8, 0.8)
                    drift = rng.uniform(-0.3, 0.3, size=2)
                    for dt_i in range(K_WINDOW):
                        tt = t + dt_i
                        if tt >= T_STEPS or labels[r, c, tt] >= 0:
                            break
                        labels[r, c, tt] = next_label
                        pos = np.array([cx, cy])
                        for k in range(K_WINDOW):
                            j = tt - (K_WINDOW - 1) + k
                            if t <= j <= tt:
                                cells[r, c, tt, 2 * k : 2 * k + 2] = pos + drift * (j - t)
                    next_label += 1
    return cells, labels


def reference_perturb_positions(sample, sigma_long, sigma_lat, seed):
    """The noise on a dense map: a draw for every payload value of the grid,
    kept at the occupied cells."""
    rng = np.random.default_rng(seed)
    sig = np.array([sigma_long, sigma_lat])
    e = sample.e + rng.normal(0.0, 1.0, sample.e.shape) * sig
    noise_v = rng.normal(0.0, 1.0, sample.v.shape) * sig
    v = sample.v + noise_v * sample.v_mask[:, None, None, None]
    cells, labels = densify(sample.m)
    occupied = labels >= 0
    noise_m = rng.normal(0.0, 1.0, cells.shape) * np.tile(sig, K_WINDOW)
    return e, v, (cells + noise_m * occupied[..., None], labels)


def assert_entries(got, cells, labels):
    """The map entries are those of the dense reference map, bit for bit."""
    want = sparsify(cells, labels)
    assert got.dtype == dataset.MAP_ENTRY and got.tobytes() == want.tobytes()


def sample_bytes(s):
    """Every field of a sample, as bytes."""
    arrays = (s.e, s.v, s.v_mask, s.m, s.ctx, s.ego_future, s.neigh_future)
    scalars = (int(s.nc), s.episode_seed, s.center_tick, s.deviated)
    return b"".join(a.tobytes() for a in arrays) + repr(scalars).encode()


class TestRecoverySynthesis:
    def test_rejoins_nominal_path(self):
        rng = np.random.default_rng(3)
        t = sample_times()
        for _ in range(100):
            speed = rng.uniform(2.0, 8.0)
            curve = rng.uniform(-0.05, 0.05)
            xy = np.stack([speed * t, curve * (speed * t) ** 2], axis=1)
            nominal = PointSeries(t, xy)
            p = random_deviation_params(rng)
            fut = synthesize_recovery(
                nominal, p.lateral_signed, p.angular_amplitude, p.recovery_duration
            )
            back = to_nominal_frame(fut, p)
            nom = np.stack(
                [np.interp(t, t, xy[:, 0]), np.interp(t, t, xy[:, 1])], axis=1
            )
            after = t >= p.recovery_duration - 1e-9
            # beyond the rejoin the label follows the nominal future exactly
            np.testing.assert_allclose(back[after], nom[after], atol=1e-6)

    def test_initial_velocity_matches_nominal_speed(self):
        fut = synthesize_recovery(straight_future(6.0), 0.4, 0.0, 1.5)
        v0 = (fut[1] - fut[0]) / 0.1
        assert abs(np.linalg.norm(v0) - 6.0) < 0.3
        # no initial lateral velocity in the deviated frame
        assert abs(v0[1]) < 0.3

    def test_early_motion_heads_back_to_path(self):
        for lat in (0.2, 0.4, 0.6, 0.8):
            for side in (1.0, -1.0):
                fut = synthesize_recovery(straight_future(), lat * side, 0.0, 1.5)
                back = to_nominal_frame(fut, DeviationParams(lat, 0.0, 1.0, 1.5,
                                                             "left" if side > 0 else "right"))
                # lateral error shrinks over the first few future points
                assert abs(back[3, 1]) < lat

    def test_lateral_error_decays_after_peak(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_deviation_params(rng)
            fut = synthesize_recovery(
                straight_future(), p.lateral_signed, p.angular_amplitude,
                p.recovery_duration,
            )
            back = to_nominal_frame(fut, p)
            err = np.abs(back[:, 1])
            peak = int(np.argmax(err))
            assert (np.diff(err[peak:]) <= 1e-9).all()

    def test_stationary_future_rejected(self):
        t = sample_times()
        nominal = PointSeries(t, np.zeros((t.size, 2)))
        with pytest.raises(SkipSample):
            synthesize_recovery(nominal, 0.4, 0.0, 1.0)


class TestInjectDeviation:
    def test_zero_amplitude_is_identity(self, moving_sample):
        p = DeviationParams(0.0, 0.0, 1.0, 1.5)
        out = inject_deviation(moving_sample, p, moving_sample.ego_future_series())
        assert np.allclose(out.e, moving_sample.e, atol=1e-12)
        assert np.allclose(out.v, moving_sample.v, atol=1e-12)
        assert np.allclose(out.ctx, moving_sample.ctx, atol=1e-12)
        assert np.allclose(densify(out.m)[0], densify(moving_sample.m)[0], atol=1e-12)

    def test_center_pose_at_origin(self, moving_sample):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_deviation_params(rng)
            out = inject_deviation(moving_sample, p, moving_sample.ego_future_series())
            np.testing.assert_allclose(out.e[-1, -1], 0.0, atol=1e-9)

    def test_old_past_unchanged_in_nominal_frame(self, moving_sample):
        # Before the ramp starts the past is a pure frame change.
        p = DeviationParams(0.4, 0.0, 0.5, 1.5)  # ramp covers only last 0.5 s
        out = inject_deviation(moving_sample, p, moving_sample.ego_future_series())
        back = to_nominal_frame(out.e[0, 0][None], p)[0]
        np.testing.assert_allclose(back, moving_sample.e[0, 0], atol=1e-9)

    def test_context_updated(self, moving_sample):
        p = DeviationParams(0.8, np.arctan(0.08), 1.0, 1.5, "left")
        out = inject_deviation(moving_sample, p, moving_sample.ego_future_series())
        assert out.ctx[3] != moving_sample.ctx[3]
        assert out.ctx[4] != moving_sample.ctx[4]
        assert out.deviated and not moving_sample.deviated

    def test_neighbor_futures_only_rotate(self, moving_sample):
        p = DeviationParams(0.6, np.arctan(0.06), 1.0, 1.2, "right")
        out = inject_deviation(moving_sample, p, moving_sample.ego_future_series())
        rot = _rotation(-p.angular_amplitude)
        for n in range(dataset.N_NEIGHBORS):
            if moving_sample.v_mask[n]:
                np.testing.assert_allclose(
                    out.neigh_future[n], moving_sample.neigh_future[n] @ rot.T,
                    atol=1e-12,
                )


def reference_rebuild_map(m, transform_ego, transform_other):
    """The per-track Python loop that re-binned deviated maps before they
    went through the extraction kernel; kept as the parity reference."""
    cells, labels = m
    tracks: dict[int, np.ndarray] = {}
    present: dict[int, np.ndarray] = {}
    for r, c, t in np.argwhere(labels >= 0):
        a = int(labels[r, c, t])
        if a not in tracks:
            tracks[a] = np.zeros((T_STEPS, 2))
            present[a] = np.zeros(T_STEPS, dtype=bool)
        payload = cells[r, c, t]
        for k in range(K_WINDOW):
            j = max(0, t - (K_WINDOW - 1) + k)
            tracks[a][j] = payload[2 * k : 2 * k + 2]
            present[a][j] = True
    new_cells = np.zeros_like(cells)
    new_labels = np.full_like(labels, -1)
    ticks = PAST_T
    order = sorted(
        tracks,
        key=lambda a: (
            float(np.linalg.norm(tracks[a][-1])) if present[a][-1] else 1e9,
            a,
        ),
    )
    half_long, half_lat = MAP_EXTENT_LONG / 2.0, MAP_EXTENT_LAT / 2.0
    for a in order:
        fn = transform_ego if a == 0 else transform_other
        moved = fn(tracks[a], ticks)
        for t in range(T_STEPS):
            if not present[a][t]:
                continue
            x, y = moved[t]
            if not (-half_long <= x < half_long and -half_lat <= y < half_lat):
                continue
            row = min(int((x + half_long) / CELL_LONG), MAP_ROWS - 1)
            col = min(int((y + half_lat) / CELL_LAT), MAP_COLS - 1)
            if new_labels[row, col, t] >= 0:
                continue  # nearer track already owns the cell
            new_labels[row, col, t] = a
            for k in range(K_WINDOW):
                j = max(0, t - (K_WINDOW - 1) + k)
                if present[a][j]:
                    new_cells[row, col, t, 2 * k : 2 * k + 2] = moved[j]
    return new_cells, new_labels


def recovered_ticks(labels):
    """Per label, the ticks whose position some payload slot of the map holds."""
    present = {}
    for r, c, t in np.argwhere(labels >= 0):
        ticks = present.setdefault(int(labels[r, c, t]), np.zeros(T_STEPS, dtype=bool))
        ticks[np.maximum(t - (K_WINDOW - 1) + np.arange(K_WINDOW), 0)] = True
    return present


def deviation_transforms(params):
    def tf_ego(track, t):
        return reference_to_deviated(reference_warp_past(track, t, params), params)

    def tf_other(track, t):
        return reference_to_deviated(track, params)

    return tf_ego, tf_other


@pytest.fixture(scope="module")
def busy_windows(town):
    """Every window of three recorded episodes with 8 to 12 cars."""
    out = []
    for seed, n_cars in ((7, 12), (8, 10), (9, 8)):
        log = sw.record_episode(town, seed=seed, duration=30.0, n_cars=n_cars, n_pedestrians=2)
        out.extend(dataset.extract_windows(log, town))
    return out


class TestMapRebinParity:
    def _check(self, windows, seed):
        rng = np.random.default_rng(seed)
        absent_last = zeroed_slot = deviated = 0
        for s in windows:
            params = random_deviation_params(rng)
            m = densify(s.m)
            ref_cells, ref_labels = reference_rebuild_map(m, *deviation_transforms(params))
            try:
                got = inject_deviation(s, params, s.ego_future_series()).m
                deviated += 1
            except SkipSample:
                got = augment._rebuild_map(s.m, params)
            assert_entries(got, ref_cells, ref_labels)
            present = recovered_ticks(m[1])
            absent_last += sum(not p[-1] for p in present.values())
            for r, c, t in np.argwhere(ref_labels >= 0):
                slots = np.maximum(t - (K_WINDOW - 1) + np.arange(K_WINDOW), 0)
                zeroed_slot += int(not present[int(ref_labels[r, c, t])][slots].all())
        return absent_last, zeroed_slot, deviated

    def test_matches_reference_loop_on_recorded_windows(self, busy_windows):
        absent_last, zeroed_slot, deviated = self._check(busy_windows, 5)
        assert len(busy_windows) == 3 * 261
        assert deviated > len(busy_windows) // 2
        # The fixture reaches both corner cases: a track absent at the last
        # tick takes distance 1e9, and a re-binned tick whose oldest payload
        # ticks no slot recovered keeps zeros there.
        assert absent_last > 0
        assert zeroed_slot > 0

    def test_matches_reference_loop_on_noisy_maps(self, busy_windows):
        # Independent noise per payload slot: a tick's position differs
        # between the slots that hold it, and the later slot wins in both.
        noisy = [perturb_positions(s, 0.3, 0.15, i) for i, s in enumerate(busy_windows[::7])]
        self._check(noisy, 6)

    def test_contested_cells(self):
        # Stationary tracks that the deviation (0.8 m to the left) moves into
        # one cell; the winner is the track nearer before the deviation.
        at = {
            0: (0.0, 0.0),  # the ego
            1: (11.9375, 2.0), 2: (12.0625, 1.0),  # equally far: the lower label wins
            3: (20.0, 2.0), 4: (20.05, -0.5),  # 4 is nearer before, 3 after
            5: (-20.0, 2.0), 6: (-20.0, -0.5),  # 5 leaves the map at the last tick
        }
        tracks = np.array([np.tile(xy, (T_STEPS, 1)) for xy in at.values()])
        tracks[5, -1] = (-40.0, 0.0)
        dists = np.linalg.norm(tracks[:, -1], axis=1)
        (m,) = kernels.bin_proximity(tracks, dists, K_WINDOW)
        params = DeviationParams(0.8, 0.0, 1.0, 1.5, "left")
        got = augment._rebuild_map(m, params)
        assert_entries(got, *reference_rebuild_map(densify(m), *deviation_transforms(params)))
        assert dists[1] == dists[2]
        # Rows 8, 10 and 2 of the middle column, at every tick.
        assert (densify(got)[1][[8, 10, 2], 1] == np.array([[1], [4], [6]])).all()

    def test_empty_map(self):
        params = DeviationParams(0.4, 0.0, 1.0, 1.5)
        got = augment._rebuild_map(np.zeros(0, dataset.MAP_ENTRY), params)
        cells, labels = densify(got)
        assert got.dtype == dataset.MAP_ENTRY
        assert not cells.any() and (labels == -1).all()


def short_fills(labels):
    """Spurious tracks cut short by tick T-1, and those cut short by an
    occupied tick, in a dense label grid."""
    at_end = by_track = 0
    for a in np.unique(labels[labels >= 1000]):
        ticks = np.nonzero(labels == a)[2]
        if ticks.size < K_WINDOW:
            at_end += int(ticks[0] + ticks.size == T_STEPS)
            by_track += int(ticks[0] + ticks.size < T_STEPS)
    return at_end, by_track


class TestLoopParity:
    """The array code gives the bits of the loops it replaced."""

    @pytest.mark.parametrize("p_add", [0.02, 0.3, 1.0])
    @pytest.mark.parametrize("p_remove", [0.0, 0.5, 1.0])
    def test_perturb_map_occupancy(self, busy_windows, p_remove, p_add):
        at_end = by_track = 0
        for i, s in enumerate(busy_windows[::16]):
            got = perturb_map_occupancy(s.m, p_remove, p_add, (i, 9))
            ref = reference_perturb_map_occupancy(densify(s.m), p_remove, p_add, (i, 9))
            assert_entries(got, *ref)
            counts = short_fills(ref[1])
            at_end += counts[0]
            by_track += counts[1]
        assert at_end > 0 and by_track > 0

    def test_perturb_map_occupancy_without_tracks(self):
        # No track to remove draws nothing before the clutter draws.
        m = np.zeros(0, dataset.MAP_ENTRY)
        for p_add in (0.02, 0.3, 1.0):
            got = perturb_map_occupancy(m, 0.5, p_add, 3)
            assert_entries(got, *reference_perturb_map_occupancy(densify(m), 0.5, p_add, 3))

    @pytest.mark.parametrize("sigmas", [(0.3, 0.15), (0.0, 0.2), (1e3, 0.0)])
    def test_perturb_positions(self, busy_windows, sigmas):
        # One seeded draw for each of the grid's 780 x 6 payload values, as
        # on the dense map, with a zero sigma's signed zeros at the entries.
        for i, s in enumerate(busy_windows[::40]):
            got = perturb_positions(s, *sigmas, (i, 3))
            e, v, m = reference_perturb_positions(s, *sigmas, (i, 3))
            assert got.e.tobytes() == e.tobytes() and got.v.tobytes() == v.tobytes()
            assert_entries(got.m, *m)

    @pytest.mark.parametrize("duration", [0.7, 1.0, 2.0, 0.73])
    def test_synthesize_recovery(self, busy_windows, duration):
        # 1.0 is the tenth future tick and 2.0 the last: no tick follows the
        # nominal future there.  The seventh tick is 0.7000000000000001, one
        # step above 0.7, and is still a recovery tick.
        assert 0.7 < sample_times()[6] < 0.7 + 1e-12
        recovered = 0
        for s in busy_windows[::4]:
            for lat, ang in ((0.4, 0.0), (-0.8, np.arctan(0.08)), (0.2, -np.arctan(0.02))):
                try:
                    ref = reference_synthesize_recovery(s.ego_future_series(), lat, ang, duration)
                except SkipSample:
                    with pytest.raises(SkipSample):
                        synthesize_recovery(s.ego_future_series(), lat, ang, duration)
                    continue
                got = synthesize_recovery(s.ego_future_series(), lat, ang, duration)
                assert got.tobytes() == ref.tobytes()
                recovered += 1
        assert recovered > 100

    @pytest.mark.parametrize("noisy", [False, True])
    def test_inject_deviation(self, busy_windows, noisy):
        rng = np.random.default_rng(8)
        deviated = 0
        for i, s in enumerate(busy_windows[::3]):
            if noisy:
                s = perturb_positions(s, 0.3, 0.15, i)
            before = sample_bytes(s)
            params = random_deviation_params(rng)
            try:
                ref = reference_inject_deviation(s, params)
            except SkipSample:
                with pytest.raises(SkipSample):
                    inject_deviation(s, params, s.ego_future_series())
                continue
            got = inject_deviation(s, params, s.ego_future_series())
            assert sample_bytes(got) == sample_bytes(ref)
            assert sample_bytes(s) == before  # the input is not written to
            deviated += 1
        assert deviated > 150


class TestPositionNoise:
    def test_zero_sigma_identity(self, moving_sample):
        assert perturb_positions(moving_sample, 0.0, 0.0, 1) is moving_sample

    def test_labels_untouched(self, moving_sample):
        out = perturb_positions(moving_sample, 0.3, 0.15, 5)
        np.testing.assert_array_equal(out.ego_future, moving_sample.ego_future)
        np.testing.assert_array_equal(out.neigh_future, moving_sample.neigh_future)

    def test_deterministic(self, moving_sample):
        a = perturb_positions(moving_sample, 0.1, 0.05, (1, 2))
        b = perturb_positions(moving_sample, 0.1, 0.05, (1, 2))
        assert samples_equal(a, b)

    def test_empirical_sigma(self, moving_sample):
        deltas = []
        for i in range(2000):
            out = perturb_positions(moving_sample, 0.1, 0.05, i)
            deltas.append((out.e - moving_sample.e).reshape(-1, 2))
        d = np.concatenate(deltas)
        assert abs(np.std(d[:, 0]) - 0.1) < 0.002
        assert abs(np.std(d[:, 1]) - 0.05) < 0.001

    def test_masked_neighbors_stay_zero(self, moving_sample):
        out = perturb_positions(moving_sample, 0.3, 0.15, 9)
        for n in range(dataset.N_NEIGHBORS):
            if not moving_sample.v_mask[n]:
                assert (out.v[n] == 0.0).all()


class TestMapPerturbation:
    def test_identity(self, moving_sample):
        m = moving_sample.m
        out = perturb_map_occupancy(m, 0.0, 0.0, 1)
        assert out.dtype == m.dtype and out.tobytes() == m.tobytes()

    def test_remove_all_keeps_ego(self, moving_sample):
        out = perturb_map_occupancy(moving_sample.m, 1.0, 0.0, 1)
        remaining = set(np.unique(densify(out)[1])) - {-1}
        assert remaining <= {0}

    def test_addition_rate(self, moving_sample):
        m = moving_sample.m
        labels = densify(m)[1]
        free = int((labels < 0).sum())
        added = 0
        n_trials = 60
        for i in range(n_trials):
            out = perturb_map_occupancy(m, 0.0, 0.05, i)
            added += int(((densify(out)[1] >= 1000) & (labels < 0)).sum())
        # each spurious track covers up to K consecutive ticks
        rate = added / (n_trials * free * augment.K_WINDOW)
        assert 0.03 < rate < 0.08

    def test_deterministic(self, moving_sample):
        a = perturb_map_occupancy(moving_sample.m, 0.3, 0.02, (4, 2))
        b = perturb_map_occupancy(moving_sample.m, 0.3, 0.02, (4, 2))
        assert a.tobytes() == b.tobytes()


class TestAugmentSamples:
    def _multi_episode(self, samples, n_eps=10):
        out = []
        for ep in range(n_eps):
            for s in samples[:30]:
                c = copy.deepcopy(s)
                c.episode_seed = ep
                out.append(c)
        return out

    def test_none_mode_keeps_everything(self, samples):
        data = self._multi_episode(samples)
        out = augment_samples(data, AugmentConfig(mode="none"), 0)
        assert len(out) == len(data)
        assert all(samples_equal(a, b) for a, b in zip(out, data))

    def test_full_fraction_of_episodes(self, samples):
        data = self._multi_episode(samples, n_eps=10)
        out = augment_samples(data, AugmentConfig(mode="full", fraction=0.2), 0)
        deviated_eps = {s.episode_seed for s in out if s.deviated}
        assert len(deviated_eps) == 2

    def test_partial_subset_of_full(self, samples):
        data = self._multi_episode(samples, n_eps=10)
        full = augment_samples(data, AugmentConfig(mode="full", fraction=0.4), 0)
        part = augment_samples(data, AugmentConfig(mode="partial", fraction=0.4), 0)
        full_eps = {s.episode_seed for s in full if s.deviated}
        part_eps = {s.episode_seed for s in part if s.deviated}
        assert part_eps <= full_eps

    def test_deterministic(self, samples):
        data = self._multi_episode(samples, n_eps=5)
        cfg = AugmentConfig(mode="full", fraction=0.4, sigma_long=0.1, sigma_lat=0.05)
        a = augment_samples(data, cfg, 3)
        b = augment_samples(data, cfg, 3)
        assert all(samples_equal(x, y) for x, y in zip(a, b))
