import numpy as np
import pytest

from polydrive import bench, control, dataset, model, simworld as sw
from polydrive.control import (
    GOAL_TOLERANCE,
    LiveSampler,
    PidChannel,
    PidState,
    DriveResult,
    drive_task,
    live_navigation_command,
    pid_track,
    route_timeout,
    trajectory_speed_target,
)
from polydrive.dataset import NavigationCommand, samples_equal
from polydrive.simworld import TARGET_SPEED, TICK, WHEELBASE
from polydrive.trajectory import (
    PointSeries,
    PolyTrajectory2D,
    fit_polynomial,
    sample_times,
)
from test_trajectory import sample_trajectory


@pytest.fixture(scope="module")
def town():
    return sw.build_town("train")


def straight_poly(speed):
    t = sample_times()
    xy = np.stack([speed * t, np.zeros_like(t)], axis=1)
    return fit_polynomial(PointSeries(t, xy))


def reference_speed_target(poly):
    """The speed target on a validated PointSeries of the sampled trajectory."""
    pts = sample_trajectory(poly).xy
    arc = float(np.linalg.norm(pts[0]))
    arc += float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())
    return min(arc / 2.0, TARGET_SPEED)


class TestSpeedTarget:
    def test_matches_point_series_form(self):
        # Random, straight and stopping predictions, bit for bit, including
        # ones that start at the origin and ones capped at cruise speed.
        rng = np.random.default_rng(6)
        polys = [straight_poly(v) for v in (0.0, 1e-9, 3.3, TARGET_SPEED, 20.0)]
        polys += [PolyTrajectory2D(np.zeros(5), np.zeros(5)),
                  PolyTrajectory2D([0.0, 0.0, 0.0, 1.0, -0.0], [0.0, 0.0, -1.0, 0.0, 0.0])]
        for scale in (0.01, 1.0, 30.0):
            polys += [PolyTrajectory2D(*rng.normal(0.0, scale, (2, 5))) for _ in range(300)]
        capped = 0
        for poly in polys:
            got = trajectory_speed_target(poly)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(reference_speed_target(poly)).tobytes()
            capped += got == TARGET_SPEED
        assert 50 < capped < len(polys) - 200

    def test_straight_line_arc(self):
        assert abs(trajectory_speed_target(straight_poly(4.0)) - 4.0) < 1e-6

    def test_capped_at_cruise(self):
        assert trajectory_speed_target(straight_poly(20.0)) == TARGET_SPEED

    def test_zero_poly_means_stop(self):
        zero = PolyTrajectory2D(np.zeros(5), np.zeros(5))
        assert trajectory_speed_target(zero) == 0.0


class TestPidTrack:
    def test_equilibrium(self):
        state = sw.AgentState(0, "car", 0.0, 0.0, 0.0, TARGET_SPEED)
        poly = straight_poly(TARGET_SPEED)
        steer, accel, _ = pid_track(poly, state, PidState())
        assert abs(steer) < 1e-6
        assert abs(accel) < 0.1

    def test_predicted_stop_brakes_at_clamp(self):
        state = sw.AgentState(0, "car", 0.0, 0.0, 0.0, 6.0)
        zero = PolyTrajectory2D(np.zeros(5), np.zeros(5))
        pid = PidState()
        speed = 6.0
        for _ in range(40):
            steer, accel, pid = pid_track(zero, state, pid)
            assert accel >= sw.ACCEL_MIN
            if speed > 4.5:
                assert accel == sw.ACCEL_MIN
            speed = max(0.0, speed + accel * TICK)
            state.speed = speed
        assert speed < 0.1

    def test_commands_always_clamped(self):
        rng = np.random.default_rng(0)
        pid = PidState()
        for _ in range(200):
            poly = PolyTrajectory2D(rng.normal(0, 3, 5), rng.normal(0, 3, 5))
            state = sw.AgentState(0, "car", 0.0, 0.0, 0.0, rng.uniform(0, 8))
            steer, accel, pid = pid_track(poly, state, pid)
            assert abs(steer) <= sw.MAX_STEER
            assert sw.ACCEL_MIN <= accel <= sw.ACCEL_MAX

    def test_step_response(self):
        # 0.5 m lateral offset on a straight road at cruise speed: the
        # closed-loop cross-track error decays below 0.05 m within 4 s with
        # less than 30% overshoot.
        state = sw.AgentState(0, "car", 0.0, 0.5, 0.0, TARGET_SPEED)
        pid = PidState()
        t = sample_times()
        overshoot = 0.0
        ys = []
        for _ in range(40):
            c, s = np.cos(state.heading), np.sin(state.heading)
            ahead = np.stack(
                [state.x + state.speed * t, np.zeros_like(t)], axis=1
            )
            rel = (ahead - [state.x, state.y]) @ np.array([[c, -s], [s, c]])
            poly = fit_polynomial(PointSeries(t, rel))
            steer, accel, pid = pid_track(poly, state, pid)
            state.x += state.speed * np.cos(state.heading) * TICK
            state.y += state.speed * np.sin(state.heading) * TICK
            state.heading += state.speed / WHEELBASE * np.tan(steer) * TICK
            state.speed = min(max(state.speed + accel * TICK, 0.0), sw.SPEED_LIMIT)
            ys.append(state.y)
            overshoot = min(overshoot, state.y)
        assert abs(ys[-1]) < 0.05
        assert -overshoot < 0.3 * 0.5


class TestTimeout:
    def test_formula(self):
        # 400 m at 10 km/h, tripled
        assert abs(route_timeout(400.0) - 432.0) < 1e-9


def reference_zone_crossing(route, s_now, step, network):
    """The zone walk testing every sample point: (s_in, s_out) or None."""
    n_steps = int(round(dataset.NC_LOOKAHEAD_S / TICK))
    entry = None
    for i in range(n_steps + 1):
        s = min(s_now + i * step, route.length)
        pos, _ = route.point_at(s)
        node_id, d = network.nearest_junction(pos)
        if d < dataset.NC_ZONE_RADIUS:
            entry = (s, node_id)
            break
    if entry is None:
        return None
    s_in, node_id = entry
    node_pos = network.nodes[node_id].pos
    s = s_in
    while s < route.length:
        pos, _ = route.point_at(s)
        if float(np.linalg.norm(pos - node_pos)) >= dataset.NC_ZONE_RADIUS:
            break
        s += step if step > 1e-9 else 0.5
    return s_in, min(s, route.length)


def reference_command(route, crossing):
    if crossing is None:
        return NavigationCommand.KEEP_LANE
    _, u_in = route.point_at(crossing[0])
    _, u_out = route.point_at(crossing[1])
    h_in = float(np.arctan2(u_in[1], u_in[0]))
    h_out = float(np.arctan2(u_out[1], u_out[0]))
    dh = (h_out - h_in + np.pi) % (2 * np.pi) - np.pi
    if dh > np.deg2rad(sw.TURN_DEG):
        return NavigationCommand.LEFT
    if dh < -np.deg2rad(sw.TURN_DEG):
        return NavigationCommand.RIGHT
    return NavigationCommand.CROSS


def assert_same_walk(route, s_now, speed, network):
    step = max(speed, 0.5) * TICK
    crossing = reference_zone_crossing(route, s_now, step, network)
    assert control._zone_crossing(route, s_now, step, network) == crossing
    command = reference_command(route, crossing)
    assert live_navigation_command(route, s_now, speed, network) == command
    return command


class TestLiveNavigationCommand:
    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_matches_reference_walk(self, town_id):
        # Every tick of an expert drive, at the ego's speed and at fixed
        # speeds from 0 to the world cap; the ego's route grows as it drives.
        net = sw.build_town(town_id)
        world = sw.spawn_scenario(net, n_cars=6, n_pedestrians=2, seed=17)
        ego = world.agents[0]
        speeds = np.linspace(0.0, sw.SPEED_LIMIT, 5)
        seen = set()
        for _ in range(300):
            for speed in (ego.speed, *speeds):
                seen.add(assert_same_walk(ego.route, ego.route_s, speed, net))
            world.step(ego_command=sw.autopilot_command(ego, world))
        assert NavigationCommand.KEEP_LANE in seen and len(seen) >= 3

    def test_matches_reference_along_whole_routes(self, town):
        # Progress values off the driven line too: before the start, on
        # junction-zone edges and at the route end.
        world = sw.spawn_scenario(town, n_cars=3, n_pedestrians=0, seed=2)
        rng = np.random.default_rng(8)
        for car in world.cars:
            route = car.route
            edges = [v for lo, hi, _ in route.junction_spans(dataset.NC_ZONE_RADIUS)
                     for v in (lo, hi)]
            for s_now in (-3.0, 0.0, route.length, *edges, *rng.uniform(0.0, route.length, 25)):
                for speed in (0.0, 0.7, 3.3, sw.SPEED_LIMIT):
                    assert_same_walk(route, s_now, speed, town)

    def test_junction_spans_bound_the_zone_test(self, town):
        # Where the zone test passes, the wider spans hold the point; inside
        # the narrower spans of a junction, its zone test passes.  Checked
        # on a fine grid and right at every span edge.
        radius = dataset.NC_ZONE_RADIUS
        route = sw.spawn_scenario(town, n_cars=1, n_pedestrians=0, seed=6).agents[0].route
        outer = route.junction_spans(radius + control.ZONE_MARGIN)
        inner = route.junction_spans(radius - control.ZONE_MARGIN)
        assert len(inner) == len(outer) >= 5
        edges = [v + e for lo, hi, _ in outer + inner for v in (lo, hi)
                 for e in (-1e-9, 0.0, 1e-9)]
        for s in (*np.arange(0.0, route.length, 0.05), *edges):
            s = min(max(float(s), 0.0), route.length)
            pos, _ = route.point_at(s)
            _, d = town.nearest_junction(pos)
            if d < radius:
                assert any(lo <= s <= hi for lo, hi, _ in outer)
            for lo, hi, node_id in inner:
                if lo <= s < hi:
                    assert np.linalg.norm(pos - town.nodes[node_id].pos) < radius

    def test_matches_offline_on_expert_episode(self, town):
        # Replay an expert episode; the live route-based classifier must agree
        # with the offline motion-based one except within a short skew window
        # around transitions (the two look ahead from slightly different cues).
        world = sw.spawn_scenario(town, n_cars=5, n_pedestrians=2, seed=31)
        sampler = LiveSampler(world)
        live, s_list = [], []
        ego = world.agents[0]
        n = 300
        for _ in range(n):
            sampler.observe(world.snapshot())
            live.append(
                live_navigation_command(
                    ego.route, ego.route_s, ego.speed, town
                )
            )
            world.step(ego_command=sw.autopilot_command(ego, world))
        log = sw.record_episode(town, seed=31, duration=n * TICK, n_cars=5,
                                n_pedestrians=2)
        skew = int(0.3 / TICK)
        mismatch = 0
        offline = dataset.compute_navigation_command(log, range(n), town)
        for i in range(dataset.T_STEPS - 1, n - dataset.T_STEPS):
            off = offline[i]
            window = set(offline[max(0, i - skew) : min(n - 1, i + skew) + 1])
            if live[i] != off and live[i] not in window:
                mismatch += 1
        assert mismatch <= 2

    def test_far_from_junction(self, town):
        lane_id = max(
            range(len(town.lanes)),
            key=lambda i: min(
                np.linalg.norm(town.lanes[i].p0 - town.junction_pos, axis=1).min(),
                np.linalg.norm(town.lanes[i].p1 - town.junction_pos, axis=1).min(),
            ),
        )
        route = sw.Route(town, [lane_id])
        nc = live_navigation_command(route, 0.0, 0.0, town)
        # stationary at the lane start far from junctions
        if np.linalg.norm(route.points[0] - town.junction_pos, axis=1).min() > 16:
            assert nc == NavigationCommand.KEEP_LANE


def assert_live_matches_offline(town_id, n_cars, n_peds, seed):
    """Drive the expert while the sampler observes; each live Sample must
    equal the offline one centered at its tick, bit for bit, up to the
    navigation command (which may lead or lag by < 0.3 s)."""
    n = 160
    net = sw.build_town(town_id)
    world = sw.spawn_scenario(net, n_cars=n_cars, n_pedestrians=n_peds, seed=seed)
    sampler = LiveSampler(world)
    live_samples = {}
    ego = world.agents[0]
    for i in range(n):
        sampler.observe(world.snapshot())
        if i == 0:  # the history is the first tick's, repeated
            sample = sampler.build()
            assert (sample.e == 0.0).all() and (sample.v == sample.v[:, -1:, -1:]).all()
        if i >= dataset.T_STEPS - 1:
            live_samples[i] = sampler.build()
        world.step(ego_command=sw.autopilot_command(ego, world))
    log = sw.record_episode(net, seed=seed, duration=n * TICK, n_cars=n_cars,
                            n_pedestrians=n_peds)
    offline = dataset.extract_windows(log, net)
    # The live ticks run to the end; the offline windows stop T short of it.
    assert [s.center_tick for s in offline] == sorted(live_samples)[: len(offline)]
    for s_off in offline:
        s_live = live_samples[s_off.center_tick]
        for name in ("e", "v", "v_mask", "m", "ctx"):
            np.testing.assert_array_equal(getattr(s_live, name), getattr(s_off, name))
            assert getattr(s_live, name).tobytes() == getattr(s_off, name).tobytes(), name
    # The seeds are scenes where other cars share the map and one leads.
    assert len(offline) == 121
    assert sum((s.m["label"] > 0).any() for s in offline) >= 60
    assert sum(s.ctx[5] < dataset.CTX_LEAD_CAP for s in offline) >= 15


class TestLiveSampleEquivalence:
    def test_samples_match_offline_extraction(self):
        assert_live_matches_offline("train", 5, 2, 20)

    @pytest.mark.parametrize("town_id, n_cars, n_peds, seed", [("test", 5, 2, 3), ("train", 15, 2, 9),
                                                               ("test", 15, 2, 15)])
    def test_samples_match_offline_extraction_mixes(self, town_id, n_cars, n_peds, seed):
        assert_live_matches_offline(town_id, n_cars, n_peds, seed)


class TestDriveTask:
    def test_result_invariant(self, town):
        with pytest.raises(ValueError):
            DriveResult(
                reached_goal=False,
                elapsed=1.0,
                trace=None,
                lights_encountered=1,
                lights_run=2,
            )

    def test_zero_model_times_out_without_collisions(self, town):
        tasks = [t for t in bench.generate_suite("train", 3) if t.kind == "straight"]
        task = tasks[0]
        params = model.zero_like_params(model.init_params(0))
        # shorten the run: a stopped car resolves its fate quickly
        route = task.route(town)
        world = sw.spawn_scenario(town, task.n_cars, task.n_pedestrians, task.seed)
        x0, y0, h0 = task.start_pose(town)
        ego = world.agents[0]
        ego.x, ego.y, ego.heading, ego.speed = x0, y0, h0, 0.0
        res = drive_task(params, world, route, timeout=10.0)
        assert not res.reached_goal
        assert res.distance_m < 1.0
        infr = bench.detect_infractions(res.trace, town)
        assert not [e for e in infr if e.kind.startswith("collision")]

    def test_map_perturbation_reaches_the_model(self, town):
        task = [t for t in bench.generate_suite("train", 3) if t.kind == "straight"][0]
        params = model.init_params(0)

        def drive(map_perturb):
            route = task.route(town)
            world = sw.spawn_scenario(town, task.n_cars, task.n_pedestrians, task.seed)
            x0, y0, h0 = task.start_pose(town)
            ego = world.agents[0]
            ego.x, ego.y, ego.heading, ego.speed = x0, y0, h0, 0.0
            return drive_task(params, world, route, timeout=2.0, map_perturb=map_perturb)

        clean = drive((0.0, 0.0))
        noisy = drive((0.5, 0.3))
        again = drive((0.5, 0.3))
        np.testing.assert_array_equal(noisy.trace.states, again.trace.states)
        assert not np.array_equal(noisy.trace.states, clean.trace.states)

    def test_trace_layout(self, town):
        # drive_task logs through EpisodeLog.from_world, as record_episode does.
        task = [t for t in bench.generate_suite("train", 3) if t.kind == "straight"][0]
        world = sw.spawn_scenario(town, 4, 2, task.seed)
        a, g = len(world.agents), len(world.light_groups)
        for timeout, n in ((0.0, 0), (0.25, 3)):
            res = drive_task(None, world, task.route(town), timeout, expert=True)
            trace = res.trace
            assert list(trace.meta) == ["seed", "town", "n_cars", "n_pedestrians", "tick_s", "policy"]
            assert trace.meta == {"seed": task.seed, "town": "train", "n_cars": 4,
                                  "n_pedestrians": 2, "tick_s": sw.TICK, "policy": "expert"}
            assert trace.clock.shape == (n,) and trace.lights.shape == (n, g)
            assert trace.states.shape == (n, a, 4)

    def test_expert_reaches_goal_deterministically(self, town):
        tasks = [t for t in bench.generate_suite("train", 3) if t.kind == "straight"]
        r1 = bench.run_task(town, tasks[0], expert=True)
        r2 = bench.run_task(town, tasks[0], expert=True)
        assert r1.reached_goal and r2.reached_goal
        assert r1.elapsed == r2.elapsed
        np.testing.assert_array_equal(r1.trace.states, r2.trace.states)
