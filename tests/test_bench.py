import copy

import numpy as np
import pytest
from test_kernels import reference_segment_features
from test_simworld import reference_drivable

from polydrive import bench, model, simworld as sw
from polydrive.bench import (
    BenchTask,
    InfractionEvent,
    TASK_KINDS,
    TASKS_PER_KIND,
    aggregate_report,
    detect_infractions,
    generate_suite,
    render_text,
    report_to_json,
)
from polydrive.control import DriveResult, drive_task
from polydrive.errors import InvalidInputError
from polydrive.simworld import CAR_RADIUS, CORE_RADIUS, EpisodeLog, TICK
from polydrive.trajectory import PINV, PolyTrajectory2D


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def suite(town):
    return generate_suite("train", 5)


def make_trace(town, ego_track, others=None, heading=None, groups=(), lights=None):
    """Minimal EpisodeLog with a synthetic ego path (world-frame points)."""
    ego_track = np.asarray(ego_track, dtype=float)
    n = ego_track.shape[0]
    others = others or []
    a = 1 + len(others)
    states = np.zeros((n, a, 4))
    states[:, 0, :2] = ego_track
    if heading is None:
        diffs = np.diff(ego_track, axis=0, append=ego_track[-1:])
        states[:, 0, 2] = np.arctan2(diffs[:, 1], diffs[:, 0])
    else:
        states[:, 0, 2] = heading
    kinds = ["car"]
    for j, (kind, track) in enumerate(others):
        states[:, 1 + j, :2] = np.asarray(track)
        kinds.append(kind)
    if lights is None:
        lights = np.zeros((n, len(groups)), dtype=np.uint8)
    return EpisodeLog(
        {}, kinds, list(range(a)), list(groups),
        np.arange(n) * TICK, states, lights,
    )


def straight_lane_track(town, n=40):
    """Points along a lane centerline far from any junction."""
    lane = max(
        town.lanes,
        key=lambda ln: np.linalg.norm(
            (ln.p0 + ln.p1) / 2 - town.junction_pos, axis=1
        ).min(),
    )
    mid = (lane.p0 + lane.p1) / 2
    u = lane.direction
    return np.array([mid + u * (i * 0.5 - n * 0.25) for i in range(n)]), lane


class TestSuiteGeneration:
    def test_counts_and_kinds(self, suite):
        assert len(suite) == len(TASK_KINDS) * TASKS_PER_KIND
        for kind in TASK_KINDS:
            assert sum(t.kind == kind for t in suite) == TASKS_PER_KIND

    def test_deterministic(self, suite):
        again = generate_suite("train", 5)
        assert suite == again

    def test_route_lengths(self, town, suite):
        for t in suite:
            route = t.route(town)
            if t.kind == "straight":
                assert route.length >= bench.STRAIGHT_MIN_M
            else:
                assert route.length >= bench.ROUTE_MIN_M

    def test_dynamic_tasks_have_traffic(self, suite):
        for t in suite:
            if t.kind == "nav_dynamic":
                assert t.n_cars >= 6 and t.n_pedestrians >= 2
            else:
                assert t.n_cars == 1 and t.n_pedestrians == 0

    def test_straight_routes_have_no_turns(self, town, suite):
        for t in suite:
            if t.kind != "straight":
                continue
            route = t.route(town)
            u_in = route.points[1] - route.points[0]
            u_out = route.points[-1] - route.points[-2]
            h_in = np.arctan2(u_in[1], u_in[0])
            h_out = np.arctan2(u_out[1], u_out[0])
            dh = abs((h_out - h_in + np.pi) % (2 * np.pi) - np.pi)
            assert dh < np.deg2rad(10)


def reference_runs(flags, min_len=1):
    """bench._runs as a loop over the ticks."""
    starts = []
    i = 0
    n = flags.size
    while i < n:
        if flags[i]:
            j = i
            while j < n and flags[j]:
                j += 1
            if j - i >= min_len:
                starts.append(i)
            i = j
        else:
            i += 1
    return starts


def reference_detect_infractions(trace, network):
    """detect_infractions as a loop over the ticks, one segment scan each."""
    ego = trace.car_indices()[0]
    n = len(trace)
    pos = trace.states[:, ego, :2]
    heading = trace.states[:, ego, 2]

    seg_ab = network.seg_b - network.seg_a
    seg_dir = seg_ab / np.linalg.norm(seg_ab, axis=1, keepdims=True)

    def segment_features(xy):
        return reference_segment_features(float(xy[0]), float(xy[1]), network.seg_a, network.seg_b)

    sidewalk = np.zeros(n, dtype=bool)
    static = np.zeros(n, dtype=bool)
    opposite = np.zeros(n, dtype=bool)
    for i in range(n):
        xy = pos[i]
        dist, _, lat = segment_features(xy)
        near = network.nearest_junction(xy)[1]
        in_core = near < bench.JUNCTION_EXEMPT_RADIUS
        min_dist = float(dist.min())
        if not in_core and not reference_drivable(network, xy):
            sidewalk[i] = True
        if min_dist > bench.STATIC_CLEARANCE:
            static[i] = True
        if not in_core and min_dist <= bench.STATIC_CLEARANCE:
            h = heading[i]
            forward = np.cos(h) * seg_dir[:, 0] + np.sin(h) * seg_dir[:, 1]
            aligned = np.abs(forward) >= 0.85
            if aligned.any():
                k = int(np.argmin(np.where(aligned, dist, np.inf)))
                if network.segments[k].axis == 2 and near < bench.DIAGONAL_MERGE_RADIUS:
                    continue
                lat_travel = float(lat[k]) * (1.0 if forward[k] >= 0 else -1.0)
                if lat_travel > bench.OPPOSITE_LANE_DEPTH:
                    opposite[i] = True

    events = []
    hold = int(round(bench.OPPOSITE_LANE_HOLD_S / TICK)) + 1
    for kind, flags, min_len in (
        ("opposite_lane", opposite, hold), ("sidewalk", sidewalk, 1), ("collision_static", static, 1)
    ):
        events += [InfractionEvent(kind, i, tuple(pos[i])) for i in reference_runs(flags, min_len)]
    for r in range(trace.n_agents):
        if r == ego:
            continue
        if trace.kinds[r] == "car":
            threshold, label = 2 * CAR_RADIUS, "collision_car"
        else:
            threshold, label = CAR_RADIUS + sw.PED_RADIUS, "collision_pedestrian"
        d = np.linalg.norm(trace.states[:, r, :2] - pos, axis=1)
        events += [InfractionEvent(label, i, tuple(pos[i])) for i in reference_runs(d < threshold)]
    for node_id, node_pos in zip(network.junction_ids, network.junction_pos):
        d = np.linalg.norm(pos - node_pos, axis=1)
        for i in range(n - 1):
            if not (d[i] > CORE_RADIUS and d[i + 1] <= CORE_RADIUS):
                continue
            j = i
            while j > 0 and d[j] <= CORE_RADIUS + 3.0:
                j -= 1
            dist, _, _ = segment_features(pos[j])
            axis = network.signal_axis(int(np.argmin(dist)))
            if not trace.light_green_at(i + 1, int(node_id), axis):
                events.append(InfractionEvent("red_light_run", i + 1, tuple(pos[i + 1])))
    events.sort(key=lambda e: (e.tick, e.kind))
    return events


def assert_same_events(trace, network):
    got = detect_infractions(trace, network)
    want = reference_detect_infractions(trace, network)
    assert got == want
    for g, w in zip(got, want):
        assert [type(v) for v in (g.tick, *g.position)] == [type(v) for v in (w.tick, *w.position)]
    return got


# (town, task kind, index among that kind in suite 3, init_params seed or
# None for the expert).  The model drives last 600 ticks; between them they
# hold every infraction kind, red-light runs in both towns.
DRIVES = [
    ("train", "nav_dynamic", 0, None),
    ("train", "nav_dynamic", 1, 1),
    ("train", "nav_dynamic", 2, 2),
    ("train", "nav_dynamic", 11, 7),
    ("test", "one_turn", 0, None),
    ("test", "one_turn", 0, 4),
    ("test", "nav_dynamic", 1, 1),
    ("test", "nav_dynamic", 8, 4),
    ("test", "nav_dynamic", 9, 5),
]


@pytest.fixture(scope="module")
def drives():
    out = []
    for town_id, kind, index, seed in DRIVES:
        network = sw.build_town(town_id)
        task = [t for t in generate_suite(town_id, 3) if t.kind == kind][index]
        if seed is None:
            result = bench.run_task(network, task, expert=True)
        else:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bench, "route_timeout", lambda length: 599.5 * TICK)
                result = bench.run_task(network, task, model.init_params(seed))
        out.append((town_id, seed, network, result))
    return out


class TestTracker:
    def test_oracle_trajectories_reach_the_goal(self, monkeypatch):
        # The control half of the closed loop: in place of the model, an
        # oracle gives the fit of the expert's own next 20 ticks, from a copy
        # of the world stepped under the autopilot.  The live sampler, the
        # PID tracker and the scoring are the real ones.  Straight tasks
        # 700000-700002 reach their goals in 233, 311 and 256 ticks, at most
        # 7.4 mm off the route's centerline.  They start on it, on straight
        # lanes, so a flipped steering sign still reaches the goals, up to
        # 0.41 m off it.  One-turn tasks 700025-700027 steer through a turn:
        # they reach their goals in 654, 820 and 809 ticks, at most 0.71 m
        # off the centerline, and a flipped sign fails all three, off-road.
        worlds = []

        def capture(params, world, *args, **kwargs):
            worlds.append(world)
            return drive_task(params, world, *args, **kwargs)

        def oracle(params, sample):
            world = worlds[-1]
            ego = world.agents[0]
            future = copy.deepcopy(world, memo={id(world.network): world.network})
            path = []
            for _ in range(20):
                future.step()
                path.append(future.agents[0].xy)
            c, s = np.cos(ego.heading), np.sin(ego.heading)
            coeffs = PINV @ ((np.array(path) - ego.xy) @ np.array([[c, -s], [s, c]]))
            return PolyTrajectory2D(coeffs[:, 0], coeffs[:, 1])

        monkeypatch.setattr(bench, "drive_task", capture)
        monkeypatch.setattr(model, "predict", oracle)
        network = sw.build_town("test")
        suite = generate_suite("test", 7)
        straight, one_turn = ([t for t in suite if t.kind == kind][:3] for kind in ("straight", "one_turn"))
        tasks = straight + one_turn
        assert [t.seed for t in tasks] == [700000, 700001, 700002, 700025, 700026, 700027]
        results = [bench.run_task(network, t) for t in tasks]
        assert [(r.reached_goal, r.infractions) for r in results] == [(True, [])] * 6
        for task, result in zip(tasks, results):
            route, s, offsets = task.route(network), 0.0, []
            for xy in result.trace.states[:, 0, :2]:
                s = route.project(xy, s)
                offsets.append(np.linalg.norm(xy - route.point_at(s)[0]))
            assert max(offsets) < (0.05 if task.kind == "straight" else 0.75), task.seed


class TestScorerParity:
    def test_drives_match_the_per_tick_loop(self, drives):
        kinds = {"train": set(), "test": set()}
        for town_id, seed, network, result in drives:
            events = assert_same_events(result.trace, network)
            assert events == result.infractions
            if seed is None:
                assert result.reached_goal and events == []
            kinds[town_id] |= {e.kind for e in events}
        assert kinds["train"] | kinds["test"] == set(bench.INFRACTION_KINDS)
        assert "red_light_run" in kinds["train"] & kinds["test"]

    def test_short_traces(self, drives):
        for _, _, network, result in drives[:2]:
            trace = result.trace
            for n in (0, 1, 2):
                short = EpisodeLog(
                    trace.meta, trace.kinds, trace.agent_ids, trace.groups,
                    trace.clock[:n], trace.states[:n], trace.lights[:n],
                )
                events = assert_same_events(short, network)
                assert n == 2 or events == []

    def test_short_off_road_traces(self, town):
        # Two ticks off every road, heading along the axis: sidewalk and
        # static from the first tick; one tick each gives the same.
        track, lane = straight_lane_track(town, n=2)
        left = np.array([-lane.direction[1], lane.direction[0]])
        for n in (1, 2):
            trace = make_trace(town, track[:n] + left * 20.0)
            kinds = [e.kind for e in assert_same_events(trace, town)]
            assert kinds == ["collision_static", "sidewalk"]


class TestDetectors:
    def test_runs_match_the_loop(self):
        rng = np.random.default_rng(5)
        cases = [np.zeros(0, dtype=bool), np.ones(7, dtype=bool), np.zeros(7, dtype=bool)]
        cases += [rng.random(int(rng.integers(1, 60))) < p for p in (0.2, 0.5, 0.9) * 40]
        for flags in cases:
            for min_len in (1, 2, 6):
                got = bench._runs(flags, min_len=min_len)
                assert got == reference_runs(flags, min_len)
                assert all(type(i) is int for i in got)

    def test_clean_lane_following_has_no_events(self, town):
        track, _ = straight_lane_track(town)
        trace = make_trace(town, track)
        assert detect_infractions(trace, town) == []

    def test_sidewalk_flagged_off_road(self, town):
        track, lane = straight_lane_track(town)
        left = np.array([-lane.direction[1], lane.direction[0]])
        # place the track 5 m left of the road axis: off the 3.5 m half-road
        # but inside the 6.5 m static clearance
        mid = track[track.shape[0] // 2]
        dist, _, _ = reference_segment_features(float(mid[0]), float(mid[1]), town.seg_a, town.seg_b)
        k = int(np.argmin(dist))
        a, b = town.seg_a[k], town.seg_b[k]
        u = (b - a) / np.linalg.norm(b - a)
        proj = a + u * float(np.dot(mid - a, u))
        lat_now = float(np.dot(left, mid - proj))
        off = track + left * (5.0 - lat_now)
        trace = make_trace(town, off, heading=np.arctan2(
            lane.direction[1], lane.direction[0]))
        kinds = {e.kind for e in detect_infractions(trace, town)}
        assert "sidewalk" in kinds

    def test_opposite_lane_needs_hold(self, town):
        track, lane = straight_lane_track(town)
        left = np.array([-lane.direction[1], lane.direction[0]])
        h = np.arctan2(lane.direction[1], lane.direction[0])
        # brief excursion (0.3 s) across the axis: no event
        brief = track.copy()
        brief[10:13] += left * 2.5
        trace = make_trace(town, brief, heading=h)
        kinds = {e.kind for e in detect_infractions(trace, town)}
        assert "opposite_lane" not in kinds
        # sustained excursion (>= hold): event
        long = track + left * 2.5
        trace = make_trace(town, long, heading=h)
        kinds = {e.kind for e in detect_infractions(trace, town)}
        assert "opposite_lane" in kinds

    def test_road_edge_is_on_the_road(self, town):
        # Exactly HALF_ROAD off the axis is on the road; an ulp further is not.
        track, lane = straight_lane_track(town)
        assert tuple(lane.direction) == (1.0, 0.0)
        axis_y = town.seg_a[lane.seg_id][1]
        for off, kinds in ((sw.HALF_ROAD, []), (np.nextafter(sw.HALF_ROAD, 9.0), ["sidewalk"])):
            edge = np.stack([track[:, 0], np.full(len(track), axis_y - off)], axis=1)
            events = assert_same_events(make_trace(town, edge, heading=0.0), town)
            assert [e.kind for e in events] == kinds

    def test_opposite_lane_hold_boundary(self, town):
        # A run of exactly hold ticks counts; one tick fewer does not.
        track, lane = straight_lane_track(town)
        left = np.array([-lane.direction[1], lane.direction[0]])
        h = np.arctan2(lane.direction[1], lane.direction[0])
        hold = int(round(bench.OPPOSITE_LANE_HOLD_S / TICK)) + 1
        for ticks in (hold - 1, hold, hold + 1):
            excursion = track.copy()
            excursion[10:10 + ticks] += left * 2.5
            events = assert_same_events(make_trace(town, excursion, heading=h), town)
            assert [e.tick for e in events if e.kind == "opposite_lane"] == ([10] if ticks >= hold else [])

    def test_aligned_at_the_threshold(self, town):
        # Headed at arccos(0.85) off its x-aligned road, a forward dot of
        # exactly 0.85, the car still counts as on that road: across its
        # axis it is in the opposite lane.
        track, lane = straight_lane_track(town)
        assert tuple(lane.direction) == (1.0, 0.0)
        k = lane.seg_id
        h = float(np.arccos(0.85))
        assert np.cos(h) * 1.0 + np.sin(h) * 0.0 == 0.85
        axis_y = town.seg_a[k][1]
        for side, kinds in ((2.5, ["opposite_lane"]), (-2.5, [])):
            on_side = np.stack([track[:, 0], np.full(len(track), axis_y + side)], axis=1)
            events = assert_same_events(make_trace(town, on_side, heading=h), town)
            assert [e.kind for e in events] == kinds

    def test_collision_car_debounced(self, town):
        track, _ = straight_lane_track(town)
        # partner sits on the ego for 10 ticks: exactly one event
        partner = track.copy()
        partner[:20] += 50.0
        partner[30:] += 50.0
        trace = make_trace(town, track, others=[("car", partner)])
        events = [e for e in detect_infractions(trace, town)
                  if e.kind == "collision_car"]
        assert len(events) == 1

    def test_collision_pedestrian_threshold(self, town):
        track, lane = straight_lane_track(town)
        left = np.array([-lane.direction[1], lane.direction[0]])
        near = track + left * (CAR_RADIUS + sw.PED_RADIUS + 0.2)
        touching = track.copy()
        t1 = make_trace(town, track, others=[("pedestrian", near)])
        t2 = make_trace(town, track, others=[("pedestrian", touching)])
        k1 = {e.kind for e in detect_infractions(t1, town)}
        k2 = {e.kind for e in detect_infractions(t2, town)}
        assert "collision_pedestrian" not in k1
        assert "collision_pedestrian" in k2

    def test_red_light_run_detection(self, town):
        # approach a lit junction along a straight road and cross the core
        # boundary; green -> no event, red -> one event
        node = next(n for n in town.nodes if n.kind == "junction" and n.lit)
        # straight approach from the west
        xs = np.linspace(node.pos[0] - 25.0, node.pos[0] + 5.0, 60)
        track = np.stack([xs, np.full_like(xs, node.pos[1] - 1.75)], axis=1)
        groups = [(node.node_id, 0, 10.0, 8.0, 0.0), (node.node_id, 1, 10.0, 8.0, 8.0)]
        n = track.shape[0]
        green = np.zeros((n, 2), dtype=np.uint8)
        green[:, 0] = 1  # axis 0 green the whole time
        trace = make_trace(town, track, groups=groups, lights=green)
        assert not [e for e in detect_infractions(trace, town)
                    if e.kind == "red_light_run"]
        red = np.zeros((n, 2), dtype=np.uint8)
        red[:, 1] = 1  # axis 0 red
        trace = make_trace(town, track, groups=groups, lights=red)
        events = [e for e in detect_infractions(trace, town)
                  if e.kind == "red_light_run"]
        assert len(events) == 1
        # the event tick is the core-boundary crossing
        d = np.linalg.norm(track - node.pos, axis=1)
        expected = int(np.flatnonzero((d[:-1] > CORE_RADIUS) & (d[1:] <= CORE_RADIUS))[0]) + 1
        assert events[0].tick == expected
        # The same entry gives the light counts, green or red; a junction
        # without a light group for the approach is not lit.
        assert bench.light_entries(trace, town) == [(expected, False)]
        trace = make_trace(town, track, groups=groups, lights=green)
        assert bench.light_entries(trace, town) == [(expected, True)]
        assert bench.light_entries(make_trace(town, track, groups=groups[1:]), town) == []


class TestAggregation:
    def _result(self, reached, distance_m, infractions=(), enc=0, run=0):
        return DriveResult(
            reached_goal=reached,
            elapsed=10.0,
            trace=None,
            infractions=list(infractions),
            lights_encountered=enc,
            lights_run=run,
            distance_m=distance_m,
        )

    def _task(self, kind, i):
        return BenchTask(kind=kind, town="train", seed=i, lane_ids=(0,))

    def test_rates_and_km_per_event(self):
        ev = InfractionEvent("collision_car", 5, (0.0, 0.0))
        results = [
            (self._task("straight", 0), self._result(True, 1000.0)),
            (self._task("straight", 1), self._result(False, 500.0, [ev, ev])),
            (self._task("navigation", 2), self._result(True, 1500.0, [], enc=4, run=1)),
        ]
        rep = aggregate_report(results)
        assert rep["success"]["straight"]["rate_pct"] == 50.0
        assert rep["success"]["navigation"]["rate_pct"] == 100.0
        assert rep["total_km"] == 3.0
        cc = rep["infractions"]["collision_car"]
        assert cc["events"] == 2 and cc["km_per_event"] == 1.5
        assert rep["red_lights"]["ratio_pct"] == 25.0

    def test_zero_event_convention(self):
        results = [(self._task("straight", 0), self._result(True, 2000.0))]
        rep = aggregate_report(results)
        side = rep["infractions"]["sidewalk"]
        assert side["events"] == 0
        assert side["km_per_event"] is None
        assert side["display"] == "> 2.00"

    def test_red_ratio_null_safe(self):
        results = [(self._task("straight", 0), self._result(True, 100.0))]
        rep = aggregate_report(results)
        assert rep["red_lights"]["ratio_pct"] is None
        text = render_text(rep)
        assert "n/a" in text

    def test_empty_results_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_report([])

    def test_json_round_trip_stable(self):
        import json

        results = [(self._task("one_turn", 0), self._result(True, 800.0))]
        rep = aggregate_report(results)
        s1 = report_to_json(rep)
        s2 = report_to_json(json.loads(s1))
        assert s1 == s2
