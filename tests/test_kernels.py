"""Kernel behaviour, and each kernel against the loops it replaced,
bitwise: the polyline projection, the polyline lookup and the car
integration on Python floats against their numpy-scalar loops over arrays
(and the first two against a full scan and a linear walk), and the
vectorized proximity binning and segment features against their scalar
loops."""

import numpy as np
import pytest

from polydrive import bench, kernels, simworld as sw


def reference_polyline_project(pts, cumlen, s_prev, px, py, back, ahead):
    """The full scan: every segment is tested against the search window."""
    n = pts.shape[0]
    best_d = 1e30
    best_s = s_prev
    lo = s_prev - back
    hi = s_prev + ahead
    for i in range(n - 1):
        if cumlen[i + 1] < lo or cumlen[i] > hi:
            continue
        ax = pts[i, 0]
        ay = pts[i, 1]
        bx = pts[i + 1, 0]
        by = pts[i + 1, 1]
        dx = bx - ax
        dy = by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq <= 0.0:
            continue
        t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        cx = ax + t * dx
        cy = ay + t * dy
        d = (px - cx) * (px - cx) + (py - cy) * (py - cy)
        if d < best_d:
            best_d = d
            best_s = cumlen[i] + t * (seg_len_sq**0.5)
    return best_s, best_d


def array_polyline_project(pts, cumlen, s_prev, px, py, back, ahead):
    """The windowed projection on numpy scalars, over (W, 2) and (W,) arrays."""
    n = pts.shape[0]
    best_d = 1e30
    best_s = s_prev
    lo = s_prev - back
    hi = s_prev + ahead
    first = max(int(cumlen.searchsorted(lo)) - 1, 0)
    stop = min(int(cumlen.searchsorted(hi, side="right")), n - 1)
    for i in range(first, stop):
        ax = pts[i, 0]
        ay = pts[i, 1]
        bx = pts[i + 1, 0]
        by = pts[i + 1, 1]
        dx = bx - ax
        dy = by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq <= 0.0:
            continue
        t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        cx = ax + t * dx
        cy = ay + t * dy
        d = (px - cx) * (px - cx) + (py - cy) * (py - cy)
        if d < best_d:
            best_d = d
            best_s = cumlen[i] + t * (seg_len_sq**0.5)
    return best_s, best_d


def _cumlen(pts):
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])


def assert_same_floats(got, want):
    """Equal bits, and every one of got a Python float."""
    assert all(type(v) is float for v in got)
    assert np.array(got, np.float64).tobytes() == np.array(want, np.float64).tobytes()


def _assert_same_projection(pts, cumlen, s_prev, px, py, back=8.0, ahead=20.0):
    got = kernels.polyline_project(pts.tolist(), cumlen.tolist(), s_prev, px, py, back, ahead)
    assert_same_floats(got, array_polyline_project(pts, cumlen, s_prev, px, py, back, ahead))
    assert_same_floats(got, reference_polyline_project(pts, cumlen, s_prev, px, py, back, ahead))


class TestWindowedProjection:
    def test_random_polylines(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(2, 60))
            pts = np.cumsum(rng.normal(0.0, 3.0, (n, 2)), axis=0)
            if trial % 4 == 0:
                pts[n // 2] = pts[n // 2 - 1]  # a zero-length segment
            cumlen = _cumlen(pts)
            total = cumlen[-1]
            for s_prev in (0.0, total, -30.0, -8.0, total + 8.0, total + 25.0,
                           *rng.uniform(-10.0, total + 10.0, 8), *cumlen[::3]):
                for _ in range(3):
                    q = (pts[rng.integers(n)] + rng.normal(0.0, 4.0, 2)).tolist()
                    _assert_same_projection(pts, cumlen, float(s_prev), q[0], q[1])
                    _assert_same_projection(
                        pts, cumlen, float(s_prev), q[0], q[1],
                        float(rng.uniform(0.0, 15.0)), float(rng.uniform(0.0, 15.0)),
                    )

    def test_window_edges_on_vertices(self):
        # s_prev - back and s_prev + ahead land exactly on vertex arc lengths.
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [8.0, 4.0], [8.0, 8.0]])
        cumlen = _cumlen(pts)
        for s_prev in cumlen:
            for back, ahead in ((4.0, 4.0), (0.0, 0.0), (8.0, 0.0), (0.0, 12.0)):
                for q in (*pts.tolist(), *(pts + [1.0, -1.0]).tolist()):
                    _assert_same_projection(pts, cumlen, float(s_prev), q[0], q[1], back, ahead)

    def test_route_extended_over_many_lanes(self):
        town = sw.build_town("train")
        world = sw.spawn_scenario(town, n_cars=6, n_pedestrians=0, seed=5)
        rng = np.random.default_rng(3)
        for car in world.cars:
            route = car.route
            for _ in range(12):
                succ = town.successors(route.lane_ids[-1])
                if not succ:
                    break
                route.extend(succ[int(rng.integers(len(succ)))][0])
            assert len(route.lane_ids) > 12
            for s_prev in np.linspace(-10.0, route.length + 10.0, 120):
                xy, u = route.point_at(s_prev + rng.uniform(-5.0, 25.0))
                q = (xy + rng.normal(0.0, 2.0, 2)).tolist()
                _assert_same_projection(
                    route.points, route.cumlen, float(s_prev), q[0], q[1]
                )


def reference_polyline_point(pts, cumlen, s):
    """The linear walk over cumlen from index 0."""
    n = pts.shape[0]
    total = cumlen[n - 1]
    if s <= 0.0:
        s = 0.0
    elif s >= total:
        s = total
    i = 0
    while i < n - 2 and cumlen[i + 1] < s:
        i += 1
    ax = pts[i, 0]
    ay = pts[i, 1]
    bx = pts[i + 1, 0]
    by = pts[i + 1, 1]
    seg = cumlen[i + 1] - cumlen[i]
    if seg <= 0.0:
        return ax, ay, 1.0, 0.0
    t = (s - cumlen[i]) / seg
    dx = bx - ax
    dy = by - ay
    norm = (dx * dx + dy * dy) ** 0.5
    return ax + t * dx, ay + t * dy, dx / norm, dy / norm


def array_polyline_point(pts, cumlen, s):
    """The bisecting lookup on numpy scalars, over (W, 2) and (W,) arrays."""
    n = pts.shape[0]
    total = cumlen[n - 1]
    if s <= 0.0:
        s = 0.0
    elif s >= total:
        s = total
    i = int(cumlen[1:n - 1].searchsorted(s))
    ax = pts[i, 0]
    ay = pts[i, 1]
    bx = pts[i + 1, 0]
    by = pts[i + 1, 1]
    seg = cumlen[i + 1] - cumlen[i]
    if seg <= 0.0:
        return ax, ay, 1.0, 0.0
    t = (s - cumlen[i]) / seg
    dx = bx - ax
    dy = by - ay
    norm = (dx * dx + dy * dy) ** 0.5
    return ax + t * dx, ay + t * dy, dx / norm, dy / norm


def _assert_same_point(pts, cumlen, s):
    got = kernels.polyline_point(pts.tolist(), cumlen.tolist(), s)
    assert_same_floats(got, array_polyline_point(pts, cumlen, s))
    assert_same_floats(got, reference_polyline_point(pts, cumlen, s))


class TestPointLookup:
    def _lookups(self, pts, cumlen, rng):
        """Both ends and beyond, every vertex, just either side of each, and
        uniform draws."""
        total = cumlen[-1]
        near = np.concatenate([np.nextafter(cumlen, -np.inf), np.nextafter(cumlen, np.inf)])
        for s in (-5.0, 0.0, -0.0, total, total + 5.0, *cumlen, *near,
                  *rng.uniform(-1.0, total + 1.0, 40)):
            _assert_same_point(pts, cumlen, float(s))

    def test_random_polylines_with_zero_length_segments(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(2, 80))
            pts = np.cumsum(rng.normal(0.0, 3.0, (n, 2)), axis=0)
            if n > 3 and trial % 2:  # zero-length segments: first, last and three inside
                for k in (1, *rng.integers(2, n - 1, size=3), n - 1):
                    pts[k] = pts[k - 1]
            self._lookups(pts, _cumlen(pts), rng)

    def test_degenerate_polylines(self):
        rng = np.random.default_rng(2)
        for pts in (np.zeros((2, 2)), np.zeros((5, 2)), np.array([[0.0, 0.0], [3.0, 4.0]]),
                    np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0], [4.0, 5.0]])):
            self._lookups(pts, _cumlen(pts), rng)

    def test_bench_routes(self):
        town = sw.build_town("train")
        rng = np.random.default_rng(4)
        for task in bench.generate_suite("train", 0)[::10]:  # every task kind
            route = task.route(town)
            self._lookups(route.points, route.cumlen, rng)


def reference_bin_proximity(rel, dists, window, cells, labels):
    """The scalar loop over ticks and agents: nearer wins, earlier row on ties."""
    n_agents = rel.shape[0]
    n_ticks = rel.shape[1]
    half_long = kernels.MAP_EXTENT_LONG / 2.0
    half_lat = kernels.MAP_EXTENT_LAT / 2.0
    for i in range(n_ticks):
        for a in range(n_agents):
            x = rel[a, i, 0]
            y = rel[a, i, 1]
            if x < -half_long or x >= half_long:
                continue
            if y < -half_lat or y >= half_lat:
                continue
            row = int((x + half_long) / kernels.CELL_LONG)
            col = int((y + half_lat) / kernels.CELL_LAT)
            if row >= kernels.MAP_ROWS:
                row = kernels.MAP_ROWS - 1
            if col >= kernels.MAP_COLS:
                col = kernels.MAP_COLS - 1
            prev = labels[row, col, i]
            if prev >= 0 and dists[prev] <= dists[a]:
                continue
            labels[row, col, i] = a
            for k in range(window):
                j = i - (window - 1) + k
                if j < 0:
                    j = 0
                cells[row, col, i, 2 * k] = rel[a, j, 0]
                cells[row, col, i, 2 * k + 1] = rel[a, j, 1]


def sparsify(cells, labels):
    """The map entries of dense (13, 3, T, 2K) payload and (13, 3, T) label
    grids: one per cell whose label is not -1, by cell."""
    window = cells.shape[-1] // 2
    occupied = np.flatnonzero(labels.ravel() >= 0)
    entries = np.empty(len(occupied), kernels.map_entry(window))
    entries["cell"] = occupied
    entries["label"] = labels.ravel()[occupied]
    entries["xy"] = cells.reshape(-1, 2 * window)[occupied]
    return entries


def densify(entries, n_ticks=20):
    """The dense (13, 3, T, 2K) payload and (13, 3, T) label grids of map
    entries: zeros and -1 where a cell holds no entry."""
    grid = (kernels.MAP_ROWS, kernels.MAP_COLS, n_ticks)
    cells = np.zeros(grid + entries.dtype["xy"].shape)
    labels = np.full(grid, -1, dtype=np.int64)
    cells.reshape(-1, cells.shape[-1])[entries["cell"]] = entries["xy"]
    labels.reshape(-1)[entries["cell"]] = entries["label"]
    return cells, labels


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_binning(rel, dists, window=3):
    """One window binned as the reference loop bins it; returns its dense labels."""
    shape = (kernels.MAP_ROWS, kernels.MAP_COLS, rel.shape[1])
    want = (np.zeros(shape + (2 * window,)), np.full(shape, -1, dtype=np.int64))
    reference_bin_proximity(rel, dists, window, *want)
    (got,) = kernels.bin_proximity(rel, dists, window)
    assert_same_bits(got, sparsify(*want))
    for g, w in zip(densify(got, rel.shape[1]), want):
        assert_same_bits(g, w)
    return want[1]


class TestBinProximity:
    def test_random_tracks(self):
        rng = np.random.default_rng(4)
        for trial in range(60):
            n_agents, n_ticks = int(rng.integers(1, 14)), int(rng.integers(1, 25))
            rel = rng.uniform([-40.0, -8.0], [40.0, 8.0], (n_agents, n_ticks, 2))
            dists = rng.uniform(0.0, 40.0, n_agents)
            if trial % 3 == 0:
                dists = np.round(dists / 10.0) * 10.0  # many equal distances
            _assert_same_binning(rel, dists, window=int(rng.integers(1, 5)))

    def test_equal_distances_keep_the_earlier_row(self):
        rel = np.zeros((4, 20, 2))
        rel[1:] += 0.25  # every agent in the ego's cell at every tick
        labels = _assert_same_binning(rel, np.array([3.0, 1.0, 1.0, 1.0]))
        assert set(labels[labels >= 0].tolist()) == {1}
        labels = _assert_same_binning(rel, np.array([0.0, -0.0, 0.0, 0.0]))
        assert set(labels[labels >= 0].tolist()) == {0}

    def test_cell_and_map_edges(self):
        # Positions on every cell boundary, on and beside the map edges,
        # and signed zeros, in every combination.
        xs = [-32.5 + 5.0 * k for k in range(14)]
        ys = [-5.25 + 3.5 * k for k in range(4)]
        xs += [np.nextafter(v, d) for v in (-32.5, 32.5) for d in (-np.inf, np.inf)]
        ys += [np.nextafter(v, d) for v in (-5.25, 5.25) for d in (-np.inf, np.inf)]
        xs += [0.0, -0.0, 1e-300, -1e-300]
        ys += [0.0, -0.0, 1.75, -1.75]
        grid = np.array([(x, y) for x in xs for y in ys])
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_agents = 6
            rel = grid[rng.integers(len(grid), size=(n_agents, 20))]
            dists = rng.choice([0.0, -0.0, 5.0, 5.0, 7.5], n_agents)
            _assert_same_binning(rel, dists)

    def test_padded_first_ticks(self):
        # The first K-1 ticks repeat the oldest position in the window.
        rng = np.random.default_rng(6)
        rel = rng.uniform(-3.0, 3.0, (3, 20, 2))
        for window in (1, 2, 3, 4, 25):
            _assert_same_binning(rel, np.array([0.0, 2.0, 1.0]), window)

    def test_stacked_windows_match_single_calls(self):
        # k windows stacked on leading axes: cells shared by several agents,
        # equal distances, and tracks that leave the map (or never enter it).
        rng = np.random.default_rng(7)
        contested = 0
        for trial in range(30):
            k, n_agents, n_ticks = int(rng.integers(1, 9)), int(rng.integers(1, 12)), int(rng.integers(1, 25))
            rel = rng.uniform([-40.0, -8.0], [40.0, 8.0], (k, n_agents, n_ticks, 2))
            rel[:, 1::3] = rel[:, :1] + rng.uniform(-0.4, 0.4, (k, 1, n_ticks, 2))[:, : rel[:, 1::3].shape[1]]
            rel[:, 2::4, n_ticks // 2 :] += 100.0  # off the map from mid-window on
            dists = np.round(rng.uniform(0.0, 30.0, (k, n_agents)) / 10.0) * 10.0
            window = int(rng.integers(1, 5))
            lead = (k,) if trial % 2 else (2, k)
            if len(lead) == 2:
                rel, dists = np.stack([rel, rel[::-1]]), np.stack([dists, dists[::-1]])
            maps = kernels.bin_proximity(rel, dists, window)
            assert len(maps) == int(np.prod(lead))  # one per window, in C order
            for entries, i in zip(maps, np.ndindex(*lead)):
                (one,) = kernels.bin_proximity(rel[i], dists[i], window)
                assert_same_bits(entries, one)
                _assert_same_binning(rel[i], dists[i], window)
                x, y = rel[i][..., 0], rel[i][..., 1]
                on_map = (x >= -32.5) & (x < 32.5) & (y >= -5.25) & (y < 5.25)
                contested += int(on_map.sum()) - len(entries)
        assert contested > 100  # agent-ticks that lost their cell to another


def reference_integrate_cars(states, cmds, is_car, dt, wheelbase, v_max):
    """The bicycle step on numpy scalars, in place over (A, 4) states and
    (A, 2) commands; rows whose is_car is 0 are untouched."""
    n = states.shape[0]
    for a in range(n):
        if is_car[a] == 0:
            continue
        x = states[a, 0]
        y = states[a, 1]
        h = states[a, 2]
        v = states[a, 3]
        steer = cmds[a, 0]
        accel = cmds[a, 1]
        states[a, 0] = x + v * np.cos(h) * dt
        states[a, 1] = y + v * np.sin(h) * dt
        h = h + v * np.tan(steer) / wheelbase * dt
        while h > np.pi:
            h -= 2.0 * np.pi
        while h <= -np.pi:
            h += 2.0 * np.pi
        states[a, 2] = h
        v = v + accel * dt
        if v < 0.0:
            v = 0.0
        elif v > v_max:
            v = v_max
        states[a, 3] = v


class TestIntegrateCars:
    def test_matches_array_loop(self):
        # Headings on and past +-pi (some wrap more than once), signed zeros
        # in every column, and speeds at 0 and at the cap, pushed either way.
        rng = np.random.default_rng(8)
        pi = np.pi
        headings = [pi, -pi, np.nextafter(pi, 4.0), np.nextafter(-pi, -4.0), 0.0, -0.0,
                    3.1, -3.1, 7.0, -7.0, 20.0]
        for trial in range(60):
            n = int(rng.integers(1, 16))
            states = np.column_stack([
                rng.choice([0.0, -0.0, 150.0, *rng.uniform(-300.0, 300.0, 4)], (n, 2)),
                rng.choice([*headings, *rng.uniform(-pi, pi, 6)], n),
                rng.choice([0.0, -0.0, sw.SPEED_LIMIT, *rng.uniform(0.0, sw.SPEED_LIMIT, 4)], n),
            ])
            cmds = np.column_stack([
                rng.choice([0.0, -0.0, sw.MAX_STEER, -sw.MAX_STEER, *rng.uniform(-0.5, 0.5, 4)], n),
                rng.choice([0.0, -0.0, sw.ACCEL_MIN, sw.ACCEL_MAX, *rng.uniform(-4.0, 2.0, 4)], n),
            ])
            is_car = rng.integers(0, 2, n).astype(np.uint8)
            want = states.copy()
            reference_integrate_cars(want, cmds, is_car, sw.TICK, sw.WHEELBASE, sw.SPEED_LIMIT)
            car = is_car == 1
            got = kernels.integrate_cars(
                states[car].tolist(), cmds[car].tolist(), sw.TICK, sw.WHEELBASE, sw.SPEED_LIMIT
            )
            assert len(got) == car.sum()
            for row, state in zip(want[car], got):
                assert_same_floats(state, row)
            assert_same_bits(want[~car], states[~car])


def random_network(seed):
    """Lanes at random angles: their unit vectors are not exact like the
    towns' axis-aligned ones, so a rounding difference shows."""
    rng = np.random.default_rng(seed)
    nodes = [sw.Node(i, rng.uniform(0.0, 300.0, 2), "junction", True) for i in range(12)]
    segments, lanes = [], []
    for k in range(20):
        a, b = (int(i) for i in rng.choice(12, 2, replace=False))
        segments.append(sw.Segment(k, a, b, 2))
        for f, t in ((a, b), (b, a)):
            p0 = nodes[f].pos + rng.normal(0.0, 2.0, 2)
            p1 = nodes[t].pos + rng.normal(0.0, 2.0, 2)
            length = float(np.linalg.norm(p1 - p0))
            lanes.append(sw.Lane(len(lanes), k, f, t, p0, p1, (p1 - p0) / length, length))
    return sw.RoadNetwork("random", nodes, segments, lanes, [])


def reference_segment_features(px, py, a_pts, b_pts):
    """The loop over segments for one point, on numpy scalars: the clamped
    distance, the unclamped progress and the signed lateral offset."""
    n = a_pts.shape[0]
    dist_out = np.empty(n)
    s_out = np.empty(n)
    lat_out = np.empty(n)
    for i in range(n):
        ax = a_pts[i, 0]
        ay = a_pts[i, 1]
        dx = b_pts[i, 0] - ax
        dy = b_pts[i, 1] - ay
        seg_len = (dx * dx + dy * dy) ** 0.5
        ux = dx / seg_len
        uy = dy / seg_len
        rx = px - ax
        ry = py - ay
        s = rx * ux + ry * uy
        lat = -rx * uy + ry * ux
        s_cl = s
        if s_cl < 0.0:
            s_cl = 0.0
        elif s_cl > seg_len:
            s_cl = seg_len
        cx = ax + s_cl * ux
        cy = ay + s_cl * uy
        dist_out[i] = ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5
        s_out[i] = s
        lat_out[i] = lat
    return dist_out, s_out, lat_out


class TestSegmentFeatures:
    def _points(self, net, rng):
        """Random points over the network, every segment's ends and axis
        points exactly 3.5 m and 6.5 m off it, and points far outside."""
        lo, hi = net.seg_a.min(axis=0) - 20.0, net.seg_a.max(axis=0) + 20.0
        pts = [rng.uniform(lo, hi, (2000, 2)), net.seg_a, net.seg_b, [lo - 500.0, hi + 1e4]]
        u = (net.seg_b - net.seg_a) / np.linalg.norm(net.seg_b - net.seg_a, axis=1, keepdims=True)
        normal = np.stack([-u[:, 1], u[:, 0]], axis=1)
        for t in (0.0, 0.25, 0.5, 1.0):
            mid = net.seg_a + t * (net.seg_b - net.seg_a)
            pts += [mid + off * normal for off in (3.5, -3.5, 6.5, -6.5)]
        return np.concatenate(pts)

    @pytest.mark.parametrize("town_id", ["train", "test", "random"])
    def test_matches_the_loop(self, town_id):
        net = random_network(9) if town_id == "random" else sw.build_town(town_id)
        xy = self._points(net, np.random.default_rng(6))
        dist, lat = kernels.segment_features(xy, net.seg_a, net.seg_b)
        want = [reference_segment_features(x, y, net.seg_a, net.seg_b) for x, y in xy.tolist()]
        assert_same_bits(dist, np.array([w[0] for w in want]))
        assert_same_bits(lat, np.array([w[2] for w in want]))

    def test_random_segments(self):
        # Thousands of skewed segments, so that lengths where C pow rounds
        # apart from np.sqrt turn up too.
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-300.0, 300.0, (2, 5000, 2))
        xy = rng.uniform(-400.0, 400.0, (4, 2))
        dist, lat = kernels.segment_features(xy, a, b)
        want = [reference_segment_features(x, y, a, b) for x, y in xy.tolist()]
        assert_same_bits(dist, np.array([w[0] for w in want]))
        assert_same_bits(lat, np.array([w[2] for w in want]))

    def test_sqrt_form_rounds_apart(self):
        # The same offsets through np.sqrt round apart from the kernel's C pow
        # on some entries, so the test above tells the two forms apart.
        net = sw.build_town("train")
        xy = self._points(net, np.random.default_rng(6))
        dist, _ = kernels.segment_features(xy, net.seg_a, net.seg_b)
        d = net.seg_b - net.seg_a
        seg_len = np.array([(x * x + y * y) ** 0.5 for x, y in d.tolist()])
        u = d / seg_len[:, None]
        r = xy[:, None, :] - net.seg_a
        s = np.minimum(np.maximum(r[..., 0] * u[:, 0] + r[..., 1] * u[:, 1], 0.0), seg_len)
        ex, ey = (xy[:, None, :] - (net.seg_a + s[..., None] * u)).transpose(2, 0, 1)
        sqrt_form = np.sqrt(ex * ex + ey * ey)
        assert np.allclose(sqrt_form, dist, rtol=1e-15, atol=0.0)
        assert (sqrt_form != dist).sum() > 10

    def test_no_points(self):
        net = sw.build_town("train")
        dist, lat = kernels.segment_features(np.zeros((0, 2)), net.seg_a, net.seg_b)
        assert dist.shape == lat.shape == (0, len(net.segments))


def test_integrate_cars_speed_clamped():
    states = [(0.0, 0.0, 0.0, 8.0), (0.0, 0.0, 0.0, 0.2)]
    (_, _, _, fast), (_, _, _, slow) = kernels.integrate_cars(
        states, [(0.0, 2.0), (0.0, -4.0)], 0.1, 2.5, 8.33
    )
    assert 0.0 <= fast <= 8.33
    assert slow == 0.0  # braking never reverses


def test_polyline_point_clamps_to_ends():
    pts = [(0.0, 0.0), (10.0, 0.0)]
    cumlen = [0.0, 10.0]
    x, y, ux, uy = kernels.polyline_point(pts, cumlen, -5.0)
    assert (x, y) == (0.0, 0.0)
    x, y, ux, uy = kernels.polyline_point(pts, cumlen, 25.0)
    assert (x, y) == (10.0, 0.0)
    assert (ux, uy) == (1.0, 0.0)


def test_polyline_project_monotone_window():
    pts = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]
    cumlen = [0.0, 10.0, 20.0]
    s, d = kernels.polyline_project(pts, cumlen, 0.0, 5.0, 1.0, 8.0, 20.0)
    assert s == pytest.approx(5.0)
    assert d == pytest.approx(1.0)
    # the search window is local: segments entirely before s_prev - back are
    # never considered, so the match sticks to the later leg
    s2, _ = kernels.polyline_project(pts, cumlen, 25.0, 5.0, 1.0, 8.0, 20.0)
    assert s2 >= 10.0
