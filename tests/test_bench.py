import numpy as np
import pytest

from polydrive import bench, simworld as sw
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
from polydrive.control import DriveResult
from polydrive.errors import InvalidInputError
from polydrive.simworld import CAR_RADIUS, CORE_RADIUS, EpisodeLog, TICK


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
        dist, _, _ = town._segment_features(float(mid[0]), float(mid[1]))
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
