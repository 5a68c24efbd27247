import base64
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from test_kernels import (
    array_polyline_point,
    array_polyline_project,
    assert_same_bits,
    random_network,
    reference_integrate_cars,
    reference_segment_features,
)

from polydrive import bench, cli, kernels, model, simworld as sw
from polydrive.errors import DataFormatError, SpawnError


@pytest.fixture(scope="module")
def train_town():
    return sw.build_town("train")


@pytest.fixture(scope="module")
def test_town():
    return sw.build_town("test")


class TestNetwork:
    def test_towns_differ(self, train_town, test_town):
        a = {tuple(np.round(n.pos, 1)) for n in train_town.nodes}
        b = {tuple(np.round(n.pos, 1)) for n in test_town.nodes}
        assert a != b

    def test_lane_geometry_consistent(self, train_town):
        for lane in train_town.lanes:
            d = lane.p1 - lane.p0
            assert np.linalg.norm(d) == pytest.approx(lane.length)
            np.testing.assert_allclose(
                d / lane.length, lane.direction, atol=1e-12
            )
            assert lane.heading == pytest.approx(
                np.arctan2(lane.direction[1], lane.direction[0])
            )

    def test_successors_connect(self, train_town):
        for lid, lane in enumerate(train_town.lanes):
            for succ_id, turn in train_town.successors(lid):
                succ = train_town.lanes[succ_id]
                assert succ.from_node == lane.to_node
                assert turn in ("left", "right", "cross")

    def test_drivable_on_and_off_road(self, train_town):
        lane = train_town.lanes[0]
        mid = (lane.p0 + lane.p1) / 2.0
        assert reference_drivable(train_town, mid)
        normal = np.array([-lane.direction[1], lane.direction[0]])
        far = mid + normal * 50.0
        assert not reference_drivable(train_town, far)
        core = train_town.junction_pos[0] + np.array([sw.CORE_RADIUS, 0.0]) * 0.7
        assert reference_drivable(train_town, core)

    def test_crosswalks_clear_of_stopped_cars(self, train_town):
        # A car holds at s_stop - STOP_MARGIN; crossing paths must be beyond it.
        stop_d = sw.CORE_RADIUS + sw.STOP_MARGIN
        for cw in train_town.crosswalks:
            node = train_town.nodes[cw.node_id]
            mid = (cw.p0 + cw.p1) / 2.0
            gap = np.linalg.norm(mid - node.pos) - stop_d
            assert gap > sw.CAR_RADIUS + sw.PED_RADIUS


def reference_drivable(net, xy):
    """On a road (within HALF_ROAD of a segment axis) or in a junction core."""
    dist, _, _ = reference_segment_features(float(xy[0]), float(xy[1]), net.seg_a, net.seg_b)
    if (dist <= sw.HALF_ROAD).any():
        return True
    return bool((np.linalg.norm(net.junction_pos - np.asarray(xy), axis=1) < sw.CORE_RADIUS + 0.5).any())


def reference_nearest_lane(net, xy, heading=None):
    """nearest_lane computed through the per-segment loop reference."""
    x, y = float(xy[0]), float(xy[1])
    dist, s, lat = reference_segment_features(x, y, net.lane_p0, np.array([l.p1 for l in net.lanes]))
    ok = (np.abs(lat) <= sw.LANE_WIDTH * 0.75) & (s >= -1.0) & (s <= net.lane_len + 1.0)
    if heading is not None:
        ok &= net.lane_dir @ np.array([np.cos(heading), np.sin(heading)]) > 0.0
    if not ok.any():
        return None
    idx = np.flatnonzero(ok)
    best = idx[np.argmin(np.abs(lat[idx]))]
    return int(best), float(s[best]), float(lat[best])


def scalar_nearest_lane(net, xy, heading):
    """The per-position lookup that nearest_lane batches: one lane_dir matvec."""
    (ux, uy), (x0, y0) = np.array([net.lane_cols[2], net.lane_cols[3]]), net.lane_p0.T
    rx, ry = float(xy[0]) - x0, float(xy[1]) - y0
    s = rx * ux + ry * uy
    lat = -rx * uy + ry * ux
    ok = (np.abs(lat) <= sw.LANE_WIDTH * 0.75) & (s >= -1.0) & (s <= net.lane_len + 1.0)
    ok &= net.lane_dir @ np.array([np.cos(heading), np.sin(heading)]) > 0.0
    if not ok.any():
        return None
    idx = np.flatnonzero(ok)
    best = idx[np.argmin(np.abs(lat[idx]))]
    return int(best), float(s[best]), float(lat[best])


def assert_lanes_match(net, points):
    """nearest_lane over (x, y, heading) points, in one batch and in batches
    of one, against both per-position references; returns the hit count."""
    xy = np.array([p[:2] for p in points], dtype=np.float64).reshape(-1, 2)
    h = np.array([p[2] for p in points], dtype=np.float64)
    got = net.nearest_lane(xy, np.cos(h), np.sin(h))
    for p, hit in zip(points, got):
        want = reference_nearest_lane(net, p[:2], p[2])
        assert hit == want == scalar_nearest_lane(net, p[:2], p[2])
        assert hit is None or (type(hit[0]), type(hit[1]), type(hit[2])) == (int, float, float)
        one = np.array([p[2]])
        assert net.nearest_lane(np.array([p[:2]], dtype=np.float64), np.cos(one), np.sin(one)) == [want]
    return sum(hit is not None for hit in got)


def perpendicular_dots(net, lane, headings):
    """The elementwise heading dot of the lane with each heading."""
    h = np.array(headings)
    return net.lane_dir[lane.lane_id, 0] * np.cos(h) + net.lane_dir[lane.lane_id, 1] * np.sin(h)


class TestNearestLane:
    @pytest.mark.parametrize("town_id", ["train", "test", "random"])
    def test_matches_segment_features_kernel(self, town_id):
        net = random_network(9) if town_id == "random" else sw.build_town(town_id)
        lo = net.lane_p0.min(axis=0) - 5.0
        hi = net.lane_p0.max(axis=0) + 5.0
        points = [
            (x, y, heading)
            for x in np.linspace(lo[0], hi[0], 23)
            for y in np.linspace(lo[1], hi[1], 23)
            for heading in (0.0, 0.5 * np.pi, np.pi, -2.5, 0.7, -0.5 * np.pi)
        ]
        # Points on and beside every lane, where the lane tests are decided.
        for lane in net.lanes:
            normal = np.array([-lane.direction[1], lane.direction[0]])
            for s in (-1.0, lane.length / 3.0, lane.length + 1.0):
                for off in (0.0, -2.625, 2.625):
                    xy = lane.p0 + lane.direction * s + normal * off
                    for heading in (lane.heading, lane.heading + np.pi / 2.0):
                        points.append((xy[0], xy[1], heading))
        assert assert_lanes_match(net, points) > 1000

    def test_heading_across_the_diagonal_lane(self):
        # Headings within a few ulps of perpendicular to the test town's
        # diagonal lane: its elementwise dot lies within 1e-12 of 0, so each
        # such row is decided by its own matvec.
        net = sw.build_town("test")
        points = []
        for lane in net.lanes:
            if lane.direction[0] in (0.0, 1.0, -1.0):
                continue
            headings = [lane.heading + np.pi / 2.0, lane.heading - np.pi / 2.0]
            for _ in range(20):
                headings.append(np.nextafter(headings[-2], 9.0))
            assert (np.abs(perpendicular_dots(net, lane, headings)) <= 1e-12).all()
            xy = lane.p0 + lane.direction * (lane.length / 2.0)
            points += [(xy[0], xy[1], h) for h in headings]
        assert len(points) == 44
        assert_lanes_match(net, points)

    def test_matvec_and_elementwise_dot_disagree(self):
        # On the random network's skewed lanes, headings an ulp or so from
        # perpendicular where the matvec and the elementwise dot fall on
        # either side of 0: only the matvec's answer is the reference's.
        net = random_network(9)
        points, split = [], 0
        for lane in net.lanes:
            h = lane.heading + np.pi / 2.0
            headings = [h]
            for _ in range(300):
                headings.append(np.nextafter(headings[-1], 9.0))
            dots = perpendicular_dots(net, lane, headings)
            xy = lane.p0 + lane.direction * (lane.length / 3.0)
            for h, dot in zip(headings, dots):
                matvec = net.lane_dir @ np.array([np.cos(h), np.sin(h)])
                if (matvec[lane.lane_id] > 0.0) != (dot > 0.0):
                    split += 1
                    points.append((xy[0], xy[1], h))
            points.append((xy[0], xy[1], headings[0]))
        assert split >= 2
        assert_lanes_match(net, points)


class TestClamp:
    def test_matches_np_clip_bitwise(self):
        rng = np.random.default_rng(0)
        values = [*rng.normal(0.0, 5.0, 500), 0.0, -0.0, np.inf, -np.inf, np.nan]
        bounds = [(-sw.MAX_STEER, sw.MAX_STEER), (sw.ACCEL_MIN, sw.ACCEL_MAX),
                  (sw.ACCEL_MIN, 0.0), (-0.0, 0.0), (0.0, 0.0), (-10.0, 10.0)]
        for lo, hi in bounds:
            for x in [*values, lo, hi, -lo, -hi]:
                want = float(np.clip(x, lo, hi))
                got = sw.clamp(float(x), lo, hi)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestPedestrianKerb:
    def test_car_near_matches_per_car_norm(self, train_town):
        world = sw.spawn_scenario(train_town, 12, 0, 4)
        rng = np.random.default_rng(5)
        cars = world.cars
        for _ in range(300):
            car = cars[int(rng.integers(len(cars)))]
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            # On and within a few ulps of the clearance circle, and far off it.
            r = sw.PED_CROSSING_CLEARANCE * (1.0 + rng.choice([0.0, 1e-15, -1e-15, 0.3, -0.3]))
            xy = car.xy + direction * r
            want = any(
                np.linalg.norm(c.xy - xy) < sw.PED_CROSSING_CLEARANCE for c in cars
            )
            assert world._car_near(xy, sw.PED_CROSSING_CLEARANCE) == want


class TestLights:
    def test_green_windows_complementary(self, train_town):
        rng = np.random.default_rng(0)
        groups = sw.make_light_groups(train_town, rng)
        by_node = {}
        for g in groups:
            by_node.setdefault(g.node_id, []).append(g)
        assert all(len(v) == 2 for v in by_node.values())
        clocks = np.arange(0.0, 2 * sw.CYCLE_S, 0.05)
        for pair in by_node.values():
            both = [
                g0 and g1
                for g0, g1 in zip(
                    (pair[0].is_green(c) for c in clocks),
                    (pair[1].is_green(c) for c in clocks),
                )
            ]
            assert not any(both)

    def test_light_state_machine(self):
        g = sw.LightGroup(0, 0, sw.GREEN_S, sw.RED_S, 0.0)
        assert g.is_green(0.0)
        assert not g.is_green(sw.GREEN_S + 0.01)
        assert g.is_green(sw.CYCLE_S + 0.01)
        assert g.time_to_red(0.0) == pytest.approx(sw.GREEN_S)
        assert g.time_to_red(sw.GREEN_S + 1.0) == 0.0

    def test_unlit_nodes_always_green(self, train_town):
        world = sw.spawn_scenario(train_town, 2, 0, 0)
        assert world.light_green(10**9, 0)


class TestRoutes:
    def _route(self, net, n=4, seed=0):
        rng = np.random.default_rng(seed)
        lanes = [lid for lid in range(len(net.lanes)) if net.lane_ends_at_junction(lid)]
        lid = lanes[0]
        ids = [lid]
        for _ in range(n - 1):
            succ = net.successors(ids[-1])
            if not succ:
                break
            ids.append(succ[int(rng.integers(len(succ)))][0])
        return sw.Route(net, ids)

    def test_cumlen_monotone(self, train_town):
        route = self._route(train_town)
        assert np.all(np.diff(route.cumlen) > 0)
        assert route.cumlen[0] == 0.0

    def test_point_at_continuity(self, train_town):
        route = self._route(train_town)
        s = np.linspace(0.0, route.length, 400)
        pts = np.array([route.point_at(v)[0] for v in s])
        step = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert step.max() <= (s[1] - s[0]) + 1e-6

    def test_connector_curvature_feasible(self, train_town, test_town):
        """Every junction connector must be drivable at the steering limit."""
        min_radius = sw.WHEELBASE / np.tan(sw.MAX_STEER)
        for net in (train_town, test_town):
            for la, lane_a in enumerate(net.lanes):
                if not net.lane_ends_at_junction(la):
                    continue
                for lb, _ in net.successors(la):
                    pts, _ = sw._connector(lane_a.p1, lane_a.direction, net.lanes[lb])
                    seg = np.diff(pts, axis=0)
                    lens = np.linalg.norm(seg, axis=1)
                    keep = lens > 1e-9
                    seg = seg[keep] / lens[keep][:, None]
                    lens = lens[keep]
                    ang = np.arctan2(seg[:, 1], seg[:, 0])
                    dh = np.abs((np.diff(ang) + np.pi) % (2 * np.pi) - np.pi)
                    ds = (lens[:-1] + lens[1:]) / 2.0
                    curvature = dh / ds
                    assert curvature.max() <= 1.0 / min_radius * 1.05

    def test_events_ordered_and_within_route(self, train_town):
        route = self._route(train_town, n=6, seed=3)
        stops = [ev.s_stop for ev in route.events]
        assert stops == sorted(stops)
        for ev in route.events:
            assert 0.0 < ev.s_stop < ev.s_exit <= route.length

    def test_turn_classification(self):
        assert sw._turn_of(0.0, np.pi / 2) == "left"
        assert sw._turn_of(0.0, -np.pi / 2) == "right"
        assert sw._turn_of(0.0, 0.0) == "cross"
        assert sw._turn_of(0.0, np.pi) is None  # U-turns are forbidden


class ReferenceRoute(sw.Route):
    """Route.extend without the lane-pair cache: every point is tested against
    the last, and cumlen is re-summed over the whole route at each append."""

    def _append_points(self, pts):
        last = self.points[-1] if self.points.shape[0] else None
        keep = []
        for p in pts:
            if last is not None and np.linalg.norm(p - last) <= 1e-9:
                continue
            keep.append(p)
            last = p
        if not keep:
            return
        points = np.vstack([self.points, np.array(keep)])
        d = np.linalg.norm(np.diff(points, axis=0), axis=1)
        self.point_list = [(x, y) for x, y in points.tolist()]
        self.cumlen_list = np.concatenate([[0.0], np.cumsum(d)]).tolist()

    def extend(self, lane_id):
        net = self.network
        lane = net.lanes[lane_id]
        if self.lane_ids:
            prev = net.lanes[self.lane_ids[-1]]
            node = net.nodes[prev.to_node]
            turn = sw._turn_of(prev.heading, lane.heading)
            s_stop = float(self.cumlen[-1])
            conn, s_join = sw._connector(prev.p1, prev.direction, lane)
            join = lane.p0 + lane.direction * s_join
            self._append_points(conn)
            seg = net.segments[prev.seg_id]
            axis = seg.axis if seg.axis != 2 else 0
            self.events.append(sw.RouteEvent(
                s_stop, float(self.cumlen[-1]), node.node_id, axis, turn or "cross", node.lit
            ))
            self._append_points(np.vstack([join, lane.p1]))
        else:
            self._append_points(np.vstack([lane.p0, lane.p1]))
        self.lane_ids.append(lane_id)


def _assert_same_route(net, lane_ids):
    want = ReferenceRoute(net, lane_ids)
    for _ in range(2):  # the first build may fill the cache, the second reads it
        got = sw.Route(net, lane_ids)
        assert_same_bits(got.points, want.points)
        assert_same_bits(got.cumlen, want.cumlen)
        assert [dataclasses.astuple(e) for e in got.events] == [
            dataclasses.astuple(e) for e in want.events
        ]


class TestRoutePieces:
    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_every_successor_pair(self, town_id):
        net = sw.build_town(town_id)
        preds = {lb: la for la in range(len(net.lanes)) for lb, _ in net.successors(la)}
        for la in range(len(net.lanes)):
            _assert_same_route(net, [la])
            for lb, _ in net.successors(la):
                _assert_same_route(net, [la, lb])
                if la in preds:
                    _assert_same_route(net, [preds[la], la, lb])

    @pytest.mark.parametrize("town_id", ["train", "test"])
    def test_routes_extended_twelve_times(self, town_id):
        net = sw.build_town(town_id)
        rng = np.random.default_rng(9)
        for _ in range(25):
            ids = [int(rng.integers(len(net.lanes)))]
            for _ in range(12):
                succ = net.successors(ids[-1])
                if not succ:
                    break
                ids.append(succ[int(rng.integers(len(succ)))][0])
            _assert_same_route(net, ids)


def reference_leading_vehicle(agent, cars):
    """Per agent, a loop over the other cars: (gap, relative speed) or None."""
    best = None
    c, s = np.cos(agent.heading), np.sin(agent.heading)
    for other in cars:
        if other.agent_id == agent.agent_id:
            continue
        if np.cos(other.heading - agent.heading) <= 0.0:
            continue
        dx, dy = other.x - agent.x, other.y - agent.y
        lx, ly = c * dx + s * dy, -s * dx + c * dy
        if 0.0 < lx <= 25.0 and abs(ly) <= 2.2:
            if best is None or lx < best[0]:
                rel_v = other.speed * np.cos(other.heading - agent.heading) - agent.speed
                best = (lx, float(rel_v))
    return best


def reference_crossing_ped_distance(agent, peds):
    """Per agent, a loop over the pedestrians, each tested for yielding."""
    best = None
    for ped in peds:
        if ped.ped_path is not None:
            kerb = ped.ped_path[1 - ped.ped_target]
            if ped.speed == 0.0 and float(np.linalg.norm(kerb - ped.xy)) < 1e-6:
                continue
        c, s = np.cos(agent.heading), np.sin(agent.heading)
        dx, dy = ped.x - agent.x, ped.y - agent.y
        lx, ly = c * dx + s * dy, -s * dx + c * dy
        lvy = ped.speed * (-s * np.cos(ped.heading) + c * np.sin(ped.heading))
        approaching = ly * lvy < -1e-9
        band = 6.0 if approaching else 3.0
        if 0.0 < lx <= 16.0 and abs(ly) <= band:
            if best is None or lx < best:
                best = lx
        elif -3.0 < lx <= 0.0 and abs(ly) <= band and approaching:
            best = 0.0
    return best


def array_ego_frame(ego, others):
    """cos, sin of each (x, y, heading, speed) ego row's heading, and every
    other row's position in its frame, lx ahead and ly left, (E, O) each."""
    c, s = np.cos(ego[:, 2:3]), np.sin(ego[:, 2:3])
    dx = others[:, 0] - ego[:, 0:1]
    dy = others[:, 1] - ego[:, 1:2]
    return c, s, c * dx + s * dy, -s * dx + c * dy


def array_leading_vehicles(ego, ego_ids, cars, car_ids):
    """Nearest car ahead in each ego row's corridor, on (ego x car) arrays:
    (gap, relative speed), inf and 0.0 where none.  No car leads itself
    (equal id); equal gaps: the first."""
    if not cars.shape[0]:
        return np.full(len(ego), np.inf), np.zeros(len(ego))
    _, _, lx, ly = array_ego_frame(ego, cars)
    cos_dh = np.cos(cars[:, 2] - ego[:, 2:3])
    ok = (car_ids != ego_ids[:, None]) & (cos_dh > 0.0)
    ok &= (0.0 < lx) & (lx <= 25.0) & (np.abs(ly) <= 2.2)
    rows, lx = np.arange(len(ego)), np.where(ok, lx, np.inf)
    k = lx.argmin(axis=1)
    gap = lx[rows, k]
    return gap, np.where(gap < np.inf, cars[k, 3] * cos_dh[rows, k] - ego[:, 3], 0.0)


def array_crossing_ped_distances(ego, peds):
    """Distance from each ego row to the nearest pedestrian crossing ahead,
    on (ego x pedestrian) arrays; 0.0 while one is alongside and still
    closing, inf where there is none."""
    c, s, lx, ly = array_ego_frame(ego, peds)
    lvy = peds[:, 3] * (-s * np.cos(peds[:, 2]) + c * np.sin(peds[:, 2]))
    approaching = ly * lvy < -1e-9
    near = np.abs(ly) <= np.where(approaching, 6.0, 3.0)
    d = np.where(near & (0.0 < lx) & (lx <= 16.0), lx, np.inf)
    d[near & approaching & (-3.0 < lx) & (lx <= 0.0)] = 0.0
    return d.min(axis=1, initial=np.inf)


def array_traffic(world):
    """World.traffic's ids and (cars, 3) table by the array references: the
    (cars x cars) and (cars x pedestrians) forms, each car among the cars."""
    cars = world.cars
    table = np.array([(a.x, a.y, a.heading, a.speed) for a in cars]).reshape(-1, 4)
    ids = np.array([a.agent_id for a in cars])
    peds = [(p.x, p.y, p.heading, p.speed) for p in world.pedestrians
            if p.ped_path is None or p.speed != 0.0 or not sw._at_kerb(p)]
    gap, rel_v = array_leading_vehicles(table, ids, table, ids)
    ped_d = array_crossing_ped_distances(table, np.array(peds).reshape(-1, 4))
    return ids.tolist(), np.stack([gap, rel_v, ped_d], axis=1)


def wide_band_cars(world):
    """How many cars have a pedestrian 3-6 m to the side, within the
    crossing rule's reach ahead, that only its approaching band admits."""
    snap = world.snapshot()
    kinds = np.array([a.kind for a in world.agents])
    cars, peds = snap[kinds == "car"], snap[kinds == "pedestrian"]
    c, s, lx, ly = array_ego_frame(cars, peds)
    approaching = ly * (peds[:, 3] * (-s * np.cos(peds[:, 2]) + c * np.sin(peds[:, 2]))) < -1e-9
    wide = approaching & (3.0 < np.abs(ly)) & (np.abs(ly) <= 6.0) & (-3.0 < lx) & (lx <= 16.0)
    return int(wide.any(axis=1).sum())


def reference_pure_pursuit_steer(agent):
    """The steer on numpy scalars, from the route's arrays."""
    route = agent.route
    x, y, _, _ = array_polyline_point(route.points, route.cumlen, float(agent.route_s + sw.LOOKAHEAD))
    target = np.array([x, y])
    dx = target[0] - agent.x
    dy = target[1] - agent.y
    c, s = np.cos(agent.heading), np.sin(agent.heading)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    dist_sq = lx * lx + ly * ly
    if dist_sq < 1e-12:
        return 0.0
    steer = float(np.arctan2(2.0 * sw.WHEELBASE * ly, dist_sq))
    return sw.clamp(steer, -sw.MAX_STEER, sw.MAX_STEER)


def reference_may_enter_junction(agent, world, ev, d):
    """The junction gate with a 1-D norm per car for the core occupancy."""
    node_pos = world.network.nodes[ev.node_id].pos
    for other in world.cars:
        if other.agent_id == agent.agent_id:
            continue
        if float(np.linalg.norm(other.xy - node_pos)) < sw.CORE_OCCUPIED_RADIUS:
            return False
    for other in world.cars:
        if other.agent_id == agent.agent_id or other.route is None:
            continue
        oev = other.route.next_event(other.route_s)
        if oev is None or oev.node_id != ev.node_id:
            continue
        od = oev.s_stop - other.route_s
        if not -0.3 <= od <= 12.0:
            continue
        if oev.lit and not world.light_green(oev.node_id, oev.axis):
            continue
        if od < d - 0.5 or (abs(od - d) <= 0.5 and other.agent_id < agent.agent_id):
            return False
    return True


def reference_autopilot_command(agent, world):
    route = agent.route
    if route is None or route.points.shape[0] < 2:
        return (0.0, 0.0)
    if float(route.cumlen[-1]) - agent.route_s < 1.0:
        return (0.0, sw.clamp(-2.5 * agent.speed, sw.ACCEL_MIN, 0.0))
    steer = reference_pure_pursuit_steer(agent)
    stop_distances = []
    ev = route.next_event(agent.route_s)
    if ev is not None:
        d = ev.s_stop - agent.route_s
        if -0.3 <= d <= 50.0:
            must_stop = False
            if ev.lit and d > 0.3:
                if not world.light_green(ev.node_id, ev.axis):
                    must_stop = True
                else:
                    eta = d / max(agent.speed, 1.0)
                    if world.light_time_to_red(ev.node_id, ev.axis) < eta + 0.8:
                        must_stop = True
            if not must_stop and 0.3 < d <= 15.0:
                if not reference_may_enter_junction(agent, world, ev, d):
                    must_stop = True
            if must_stop:
                stop_distances.append(d - sw.STOP_MARGIN)
    lead = reference_leading_vehicle(agent, world.cars)
    if lead is not None:
        stop_distances.append(lead[0] - sw.FOLLOW_GAP)
    ped_d = reference_crossing_ped_distance(agent, world.pedestrians)
    if ped_d is not None:
        stop_distances.append(ped_d - sw.PED_GAP)
    v_target = sw.TARGET_SPEED
    if ev is not None and ev.s_stop - 2.0 <= agent.route_s <= ev.s_exit:
        v_target = sw.JUNCTION_SPEED
    for d in stop_distances:
        v_target = min(v_target, float(np.sqrt(2.0 * sw.BRAKE_COMFORT * max(d, 0.0))))
    return (steer, sw.clamp(2.5 * (v_target - agent.speed), sw.ACCEL_MIN, sw.ACCEL_MAX))


class ReferenceWorld(sw.World):
    """The world step on numpy scalars and arrays: each car's autopilot
    asked on its own with per-agent loops, the array kernels, and a 1-D norm
    for every distance."""

    def commands(self, ego_command=None):
        cmds = np.zeros((len(self.agents), 2))
        for i, agent in enumerate(self.agents):
            if agent.kind != "car":
                continue
            if i == 0 and ego_command is not None:
                cmds[i] = ego_command
            else:
                cmds[i] = reference_autopilot_command(agent, self)
        return cmds

    def step(self, ego_command=None):
        cmds = self.commands(ego_command)
        states = self.snapshot()
        is_car = np.array([1 if a.kind == "car" else 0 for a in self.agents], dtype=np.uint8)
        reference_integrate_cars(states, cmds, is_car, sw.TICK, sw.WHEELBASE, sw.SPEED_LIMIT)
        for i, agent in enumerate(self.agents):
            if agent.kind == "car":
                agent.x, agent.y = float(states[i, 0]), float(states[i, 1])
                agent.heading, agent.speed = float(states[i, 2]), float(states[i, 3])
                route = agent.route
                if route is not None and route.points.shape[0] >= 2:
                    s, _ = array_polyline_project(route.points, route.cumlen, float(agent.route_s),
                                                  agent.x, agent.y, 8.0, 20.0)
                    agent.route_s = float(s)
                    self._maybe_extend_route(agent)
            else:
                self._step_pedestrian(agent)
        self.clock += sw.TICK
        self._traffic = None
        return cmds

    def _step_pedestrian(self, ped):
        if ped.ped_path is None:
            ped.speed = 0.0
            return
        if ped.ped_wait > 0.0:
            ped.ped_wait = max(0.0, ped.ped_wait - sw.TICK)
            ped.speed = 0.0
            return
        target = ped.ped_path[ped.ped_target]
        delta = target - ped.xy
        dist = float(np.linalg.norm(delta))
        step = sw.PED_SPEED * sw.TICK
        kerb = float(np.linalg.norm(ped.ped_path[1 - ped.ped_target] - ped.xy)) < 1e-6
        if kerb and any(np.linalg.norm(c.xy - ped.xy) < sw.PED_CROSSING_CLEARANCE for c in self.cars):
            ped.speed = 0.0
            return
        if dist <= step:
            ped.x, ped.y = float(target[0]), float(target[1])
            ped.ped_wait = ped.ped_dwell[ped.ped_target]
            ped.ped_target = 1 - ped.ped_target
            ped.speed = 0.0
        else:
            u = delta / dist
            ped.x += float(u[0]) * step
            ped.y += float(u[1]) * step
            ped.heading = float(np.arctan2(u[1], u[0]))
            ped.speed = sw.PED_SPEED


ORIGIN = (0.0, 0.0, 0.0, 4.0)


def assert_traffic_ahead(ego, cars, peds):
    """sw.traffic_ahead for one ego (x, y, heading, speed) among cars and
    pedestrians (x, y, heading, speed), in World.traffic's form (the ego's
    own row among the cars, each walker's heading and speed) and in
    compute_context's (the other cars, the walkers at speed 0), against the
    array and per-agent references, bit for bit in Python floats.  Returns
    the world form's result."""
    table = np.array([ego, *cars], dtype=np.float64).reshape(-1, 4)
    peds = np.array(peds, dtype=np.float64).reshape(-1, 4)
    still = peds.copy()
    still[:, 2:] = 0.0
    probe = sw.AgentState(0, "car", *ego)
    others = [sw.AgentState(i, "car", *row) for i, row in enumerate(table.tolist())]
    gap, rel_v = array_leading_vehicles(table[:1], np.array([0]), table, np.arange(len(table)))
    assert (gap[0], rel_v[0]) == (reference_leading_vehicle(probe, others) or (np.inf, 0.0))
    want = []
    for walkers in (peds, still):
        ped_d = array_crossing_ped_distances(table[:1], walkers)[0]
        ref = reference_crossing_ped_distance(probe, [sw.AgentState(-2, "pedestrian", *p) for p in walkers.tolist()])
        assert ped_d == (np.inf if ref is None else ref)
        want.append(np.array([gap[0], rel_v[0], ped_d]))

    rows = table.tolist()
    moving = zip(peds.tolist(), np.cos(peds[:, 2]).tolist(), np.sin(peds[:, 2]).tolist())
    c, s = np.cos(table[:, 2]).tolist(), np.sin(table[:, 2]).tolist()
    world = sw.traffic_ahead(rows[0], c[0], s[0], rows, [(px, py, pc, ps, pv) for (px, py, _, pv), pc, ps in moving])
    h = rows[0][2]
    walkers = [(px, py, 1.0, 0.0, 0.0) for px, py, _, _ in peds.tolist()]
    context = sw.traffic_ahead(rows[0], float(np.cos(h)), float(np.sin(h)), rows[1:], walkers)
    for got, bits in ((world, want[0]), (context, want[1])):
        assert [type(x) for x in got] == [float, float, float]
        assert_same_bits(np.array(got), bits)
    return world


class TestTrafficTables:
    # Seeds whose first 150 ticks have more than ``floor`` follower and
    # crossing-pedestrian ticks each: the 15-car, 6-pedestrian extreme,
    # datagen's (5, 6) and (15, 2) mixes and closedloop's 6-11 car
    # nav_dynamic range, in both towns, and a seed with walkers alongside.
    # SIDE_FLOORS: at least so many car-ticks with a walker alongside
    # (ped_d 0.0) and with one approaching 3-6 m to the side.
    SIDE_FLOORS = {("test", 4): (0, 50), ("test", 100007): (0, 30), ("test", 133): (20, 20)}

    @pytest.mark.parametrize("town_id, seed, n_cars, n_peds, floor", [
        pytest.param("train", 14, 15, 6, 100, id="train-14"),
        pytest.param("test", 4, 15, 6, 100, id="test-4"),
        ("train", 100005, 5, 6, 30), ("test", 100021, 5, 6, 30),
        ("train", 100023, 15, 2, 30), ("test", 100007, 15, 2, 30),
        ("train", 100024, 6, 5, 30), ("test", 100020, 11, 2, 30),
        pytest.param("test", 133, 15, 6, 30, id="test-133"),
    ])
    def test_step_matches_per_agent_reference(self, town_id, seed, n_cars, n_peds, floor):
        net = sw.build_town(town_id)
        world = sw.spawn_scenario(net, n_cars, n_peds, seed)
        twin = sw.spawn_scenario(net, n_cars, n_peds, seed)
        ref = ReferenceWorld(net, twin.agents, twin.light_groups, twin.seed)
        rng = np.random.default_rng(seed)
        leaders = crossings = alongside = wide = 0
        for tick in range(150):
            ids, want = array_traffic(world)
            assert list(world.traffic()) == ids
            traffic = world.traffic().values()
            assert all(type(x) is float for row in traffic for x in row)
            assert_same_bits(np.array(list(traffic)), want)
            leaders += sum(gap < np.inf for gap, _, _ in traffic)
            crossings += sum(ped_d < np.inf for _, _, ped_d in traffic)
            alongside += sum(ped_d == 0.0 for _, _, ped_d in traffic)
            wide += wide_band_cars(world)
            if tick % 3 == 1:  # the ego's command first, as an expert drive asks it
                got = world.step(ego_command=sw.autopilot_command(world.agents[0], world))
                want = ref.step(ego_command=reference_autopilot_command(ref.agents[0], ref))
            elif tick % 3 == 2:  # a command of the controller's range, as a model drives
                cmd = (rng.uniform(-sw.MAX_STEER, sw.MAX_STEER), rng.uniform(sw.ACCEL_MIN, sw.ACCEL_MAX))
                got, want = world.step(ego_command=cmd), ref.step(ego_command=cmd)
            else:
                got, want = world.step(), ref.step()
            assert_same_bits(got, want)
            assert_same_bits(world.snapshot(), ref.snapshot())
            assert [a.route_s for a in world.cars] == [a.route_s for a in ref.cars]
        assert leaders > floor and crossings > floor
        alongside_floor, wide_floor = self.SIDE_FLOORS.get((town_id, seed), (0, 0))
        assert alongside >= alongside_floor and wide >= wide_floor

    def test_pedestrian_yielding_at_its_kerb(self, train_town):
        # A pedestrian stopped 8 m ahead of the ego gates it, unless it is
        # standing at the kerb it starts its crossing from.
        cars = sw.spawn_scenario(train_town, 3, 0, seed=1).agents
        ego = cars[0]
        ahead = ego.xy + 8.0 * np.array([np.cos(ego.heading), np.sin(ego.heading)])
        for kerb in (ahead, ahead + 2.0):
            ped = sw.AgentState(3, "pedestrian", *ahead, 0.0, 0.0, ped_path=(kerb, kerb + 9.0))
            world = sw.World(train_town, cars + [ped], [], seed=1)
            want = reference_crossing_ped_distance(ego, [ped])
            assert (want is None) == (kerb is ahead)
            assert world.traffic()[0][2] == (np.inf if want is None else want)

    def test_context_queries_match_reference(self):
        # compute_context's form and the world's, on boundaries and random
        # scenes.  The ego heads along x from the origin in the boundary
        # cases, so lx and ly are the offsets, exact.
        up, down = (lambda x: np.nextafter(x, np.inf)), (lambda x: np.nextafter(x, -np.inf))
        ahead = [v for x in (-3.0, 0.0, 16.0, 25.0) for v in (down(x), x, up(x))] + [-0.0, 5e-324]
        side = [v for y in (2.2, 3.0, 6.0) for v in (y, up(y), -y, -up(y))] + [0.0, -0.0]
        h90 = np.pi / 2
        for ego in (ORIGIN, (-0.0, -0.0, -0.0, 4.0)):
            for lx in ahead:
                for ly in side:
                    # Walkers heading toward the centerline and away from it.
                    cars = [(lx, ly, 0.0, 2.0)]
                    peds = [(lx, ly, -np.copysign(h90, ly), 1.2), (lx, ly, np.copysign(h90, ly), 1.2)]
                    got = assert_traffic_ahead(ego, cars, peds)
                    lead = 0.0 < lx <= 25.0 and abs(ly) <= 2.2
                    assert got[0] == (lx if lead else np.inf)
                    closing = ly != 0.0 and -3.0 < lx <= 16.0 and abs(ly) <= 6.0
                    near = 0.0 < lx <= 16.0 and abs(ly) <= 3.0
                    assert got[2] == (max(lx, 0.0) if closing else lx if near else np.inf)
                    assert assert_traffic_ahead(ego, cars, peds[1:])[2] == (lx if near else np.inf)
        # ly * lvy at -1e-9: 4.0 m to the side at 2.5e-10 m/s is not approaching.
        for lx in (5.0, -1.0):
            for pv, want in ((down(2.5e-10), np.inf), (2.5e-10, np.inf), (up(2.5e-10), max(lx, 0.0))):
                assert assert_traffic_ahead(ORIGIN, [], [(lx, 4.0, -h90, pv)])[2] == want
        # Equal gaps: the first; headings at and past +-90 deg from the ego's.
        cars = [(10.0, 1.0, 0.0, 3.0), (10.0, -1.0, 0.0, 7.0), (12.0, 0.0, 0.0, 1.0)]
        assert assert_traffic_ahead(ORIGIN, cars, [])[:2] == (10.0, 3.0 - ORIGIN[3])
        assert assert_traffic_ahead(ORIGIN, cars[1::-1], [])[:2] == (10.0, 7.0 - ORIGIN[3])
        for h in (h90, -h90, up(h90), down(-h90), np.pi, -np.pi, -0.0):
            got = assert_traffic_ahead(ORIGIN, [(8.0, 0.0, h, 5.0)], [])
            assert (got[0] < np.inf) == (np.cos(h) > 0.0)
        assert assert_traffic_ahead(ORIGIN, [], []) == (np.inf, 0.0, np.inf)
        # Random scenes.  In half the trials the ego heads along x and the
        # others share a few x, so gaps tie.
        rng = np.random.default_rng(2)
        lo, hi = [-30.0, -8.0, -np.pi, 0.0], [30.0, 8.0, np.pi, 8.0]
        found = alongside = 0
        for trial in range(300):
            ego = rng.uniform(lo, hi)
            cars = rng.uniform(lo, hi, (int(rng.integers(0, 8)), 4))
            peds = rng.uniform(lo, hi, (int(rng.integers(0, 5)), 4))
            if trial % 2:
                ego[2] = 0.0
                cars[:, 0] = ego[0] + rng.choice([5.0, 10.0], len(cars))
                peds[:, 0] = ego[0] + rng.choice([-1.0, 5.0, 10.0], len(peds))
            ped_d = assert_traffic_ahead(ego.tolist(), cars.tolist(), peds.tolist())[2]
            found, alongside = found + (ped_d < np.inf), alongside + (ped_d == 0.0)
        assert found > 40 and alongside > 5


class TestSpawn:
    def test_spawn_deterministic(self, train_town):
        a = sw.spawn_scenario(train_town, 6, 3, 7)
        b = sw.spawn_scenario(train_town, 6, 3, 7)
        np.testing.assert_array_equal(a.snapshot(), b.snapshot())

    def test_spawn_spacing(self, train_town):
        world = sw.spawn_scenario(train_town, 10, 0, 1)
        pos = world.snapshot()[:, :2]
        d = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 10.0 - 1e-9

    def test_needs_ego(self, train_town):
        with pytest.raises(SpawnError):
            sw.spawn_scenario(train_town, 0, 0, 0)


@pytest.fixture(scope="module")
def episode_log(train_town):
    return sw.record_episode(train_town, seed=5, duration=30.0, n_cars=6, n_pedestrians=2)


def replay_episode(log, cmds):
    """Re-integrate the commands each step applied from the first logged
    states.  Pedestrians, which World.step moves along their paths, are
    taken from the log."""
    states = log.states[0].copy()
    car = np.array([k == "car" for k in log.kinds])
    out = np.empty_like(log.states)
    out[0] = states
    for i in range(1, len(log)):
        states[car] = kernels.integrate_cars(
            states[car].tolist(), cmds[i - 1][car].tolist(), sw.TICK, sw.WHEELBASE, sw.SPEED_LIMIT
        )
        states[~car] = log.states[i][~car]
        out[i] = states
    return out


def assert_same_log(got, want):
    assert (got.meta, got.kinds, got.agent_ids, got.groups) == (
        want.meta, want.kinds, want.agent_ids, want.groups
    )
    for field in ("clock", "states", "lights"):
        assert_same_bits(getattr(got, field), getattr(want, field))


def written_lines(log, path):
    """The lines of log's trace, the header and each tick as JSON objects."""
    log.write_jsonl(path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_lines(path, objects):
    path.write_text("".join(json.dumps(x) + "\n" for x in objects))


def b64_edit(edit):
    """A record edit on the decoded bytes of one base64 field."""
    return lambda text: base64.b64encode(edit(base64.b64decode(text))).decode()


class TestEpisodes:
    @pytest.fixture()
    def log(self, episode_log):
        return episode_log

    def test_recording_deterministic(self, train_town, log):
        again = sw.record_episode(
            train_town, seed=5, duration=30.0, n_cars=6, n_pedestrians=2
        )
        assert_same_log(again, log)

    def test_log_layout(self, train_town, log):
        a, g = 8, len(log.groups)
        assert list(log.meta) == ["seed", "town", "n_cars", "n_pedestrians", "tick_s"]
        assert log.meta == {"seed": 5, "town": "train", "n_cars": 6, "n_pedestrians": 2,
                            "tick_s": sw.TICK}
        empty = sw.record_episode(train_town, seed=5, duration=0.0, n_cars=6, n_pedestrians=2)
        for n, rec in ((300, log), (0, empty)):
            assert rec.clock.shape == (n,) and rec.lights.shape == (n, g)
            assert rec.states.shape == (n, a, 4)
            assert rec.lights.dtype == np.uint8
        # The clock before each step: 0.0, then TICK added once per tick.
        np.testing.assert_array_equal(log.clock[1:], np.cumsum(np.full(299, sw.TICK)))
        assert log.clock[0] == 0.0

    def test_replay_reproduces_states(self, train_town, log):
        # record_episode's world, stepped here to keep each step's commands.
        world = sw.spawn_scenario(train_town, 6, 2, 5)
        cmds = [world.step() for _ in range(len(log))]
        np.testing.assert_allclose(replay_episode(log, cmds), log.states, atol=1e-9)

    def test_cars_respect_world_speed_cap(self, log):
        cars = log.car_indices()
        assert log.states[:, cars, 3].max() <= sw.SPEED_LIMIT + 1e-9

    def test_jsonl_round_trip(self, log, tmp_path):
        p = tmp_path / "ep.jsonl"
        log.write_jsonl(p)
        assert_same_log(sw.EpisodeLog.read_jsonl(p), log)

    def test_jsonl_layout(self, log, tmp_path):
        header, *ticks = written_lines(log, tmp_path / "ep.jsonl")
        assert header == {"format_version": 2, **log.meta, "kinds": log.kinds,
                          "agent_ids": log.agent_ids, "groups": [list(g) for g in log.groups]}
        assert len(ticks) == len(log)
        for i in (0, 123):
            assert list(ticks[i]) == ["t", "s", "l"]
            assert base64.b64decode(ticks[i]["t"]) == log.clock[i].astype("<f8").tobytes()
            assert base64.b64decode(ticks[i]["s"]) == log.states[i].astype("<f8").tobytes()
            assert base64.b64decode(ticks[i]["l"]) == log.lights[i].tobytes()

    def test_jsonl_rejects_corruption(self, log, tmp_path):
        p = tmp_path / "ep.jsonl"
        log.write_jsonl(p)
        lines = p.read_text().splitlines()
        lines[3] = "{not json"
        p.write_text("\n".join(lines))
        with pytest.raises(DataFormatError):
            sw.EpisodeLog.read_jsonl(p)

    def test_jsonl_round_trip_without_ticks(self, log, tmp_path):
        empty = sw.EpisodeLog(log.meta, log.kinds, log.agent_ids, log.groups,
                              log.clock[:0], log.states[:0], log.lights[:0])
        p = tmp_path / "ep.jsonl"
        empty.write_jsonl(p)
        back = sw.EpisodeLog.read_jsonl(p)
        assert back.states.shape == (0, log.n_agents, 4)
        assert back.lights.shape == (0, len(log.groups))
        assert_same_log(back, empty)

    def test_jsonl_rejects_binary_file(self, tmp_path):
        p = tmp_path / "ep.jsonl"
        p.write_bytes(b"\xff\xfe\x00 not text")
        with pytest.raises(DataFormatError, match="ep.jsonl: line 1: 'utf-8' codec can't decode"):
            sw.EpisodeLog.read_jsonl(p)

    def test_jsonl_rejects_format_1(self, log, tmp_path):
        header = written_lines(log, tmp_path / "ep.jsonl")[0]
        v1 = [{"t": float(log.clock[i]), "s": log.states[i].tolist(),
               "c": np.zeros((log.n_agents, 2)).tolist(), "l": log.lights[i].tolist()}
              for i in range(len(log))]
        write_lines(tmp_path / "ep.jsonl", [{**header, "format_version": 1}, *v1])
        with pytest.raises(DataFormatError, match=r"ep.jsonl: line 1: format_version 1 "
                           r"unsupported, expected 2 \(re-record older files\)"):
            sw.EpisodeLog.read_jsonl(tmp_path / "ep.jsonl")

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (0, lambda h: [h], "line 1: not a JSON object"),
            (0, lambda h: {**h, "kinds": "car"}, "line 1: malformed kinds"),
            (0, lambda h: {**h, "agent_ids": h["agent_ids"][1:]}, "line 1: malformed kinds"),
            (0, lambda h: {**h, "groups": [[0, 1]]}, "line 1: malformed kinds"),
            (3, lambda r: [r], "line 4: not a JSON object"),
            (3, lambda r: {**r, "s": b64_edit(lambda b: b[32:])(r["s"])}, "line 4: field 's'"),
            (3, lambda r: {**r, "l": b64_edit(lambda b: b + b"\x01")(r["l"])}, "line 4: field 'l'"),
            (3, lambda r: {**r, "l": [1] * 3}, "line 4: field 'l'"),
            (3, lambda r: {**r, "t": "x"}, "line 4: field 't'"),
            (3, lambda r: {k: v for k, v in r.items() if k != "s"}, "line 4: missing field 's'"),
            (3, lambda r: {**r, "s": "*" + r["s"]}, "line 4: field 's' is not base64: "),
            (3, lambda r: {**r, "l": r["l"][:-1]}, "line 4: field 'l' is not base64: "),
            (3, lambda r: {**r, "t": b64_edit(lambda b: b + b)(r["t"])},
             "line 4: field 't' holds 2 rows, expected 1"),
            (3, lambda r: {**r, "s": b64_edit(lambda b: b[:-1])(r["s"])},
             "line 4: field 's' has 255 bytes, which do not fit rows of (4,)"),
            (3, lambda r: {k: v for k, v in r.items() if k != "t"}, "line 4: missing field 't'"),
            (3, lambda r: {k: v for k, v in r.items() if k != "l"}, "line 4: missing field 'l'"),
        ],
    )
    def test_jsonl_rejects_malformed_lines(self, log, tmp_path, line, edit, message):
        p = tmp_path / "ep.jsonl"
        lines = written_lines(log, p)
        lines[line] = edit(lines[line])
        write_lines(p, lines)
        with pytest.raises(DataFormatError, match=re.escape(f"ep.jsonl: {message}")):
            sw.EpisodeLog.read_jsonl(p)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda h: {**h, "groups": [["0", "1", 10.0, 8.0, 12.6]]},
                         "light group ['0', '1', 10.0, 8.0, 12.6] is not [int node_id, axis 0 "
                         "or 1, green > 0, red > 0, offset], all finite", id="node-axis-strings"),
            pytest.param(lambda h: {**h, "groups": [[0, 2, 10.0, 8.0, 12.6]]},
                         "light group [0, 2, ", id="axis-2"),
            pytest.param(lambda h: {**h, "groups": [[True, 1, 10.0, 8.0, 12.6]]},
                         "light group [True, 1, ", id="node-bool"),
            pytest.param(lambda h: {**h, "groups": [[0.0, 1, 10.0, 8.0, 12.6]]},
                         "light group [0.0, 1, ", id="node-float"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, 0.0, 8.0, 12.6]]},
                         "light group [0, 1, 0.0, ", id="green-zero"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, 10.0, -8.0, 12.6]]},
                         "light group [0, 1, 10.0, -8.0, ", id="red-negative"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, 10.0, 8.0, float("nan")]]},
                         "light group [0, 1, 10.0, 8.0, nan]", id="offset-nan"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, float("inf"), 8.0, 1.0]]},
                         "light group [0, 1, inf, ", id="green-inf"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, "10", 8.0, 1.0]]},
                         "light group [0, 1, '10', ", id="green-string"),
            pytest.param(lambda h: {**h, "groups": [[0, 1, 10, 8, 1], [0, 1, 8.0, 10.0, 9.0]]},
                         "two light groups share a (node_id, axis)", id="pair-twice"),
            pytest.param(lambda h: {**h, "kinds": ["car", "truck", *h["kinds"][2:]]},
                         "kind 'truck' is neither 'car' nor 'pedestrian'", id="kind-truck"),
            pytest.param(lambda h: {**h, "kinds": [1, *h["kinds"][1:]]},
                         "kind 1 is neither 'car' nor 'pedestrian'", id="kind-int"),
            pytest.param(lambda h: {**h, "agent_ids": [0.0, *h["agent_ids"][1:]]},
                         "agent id 0.0 is not an int", id="agent-id-float"),
            pytest.param(lambda h: {**h, "agent_ids": [*h["agent_ids"][:-1], False]},
                         "agent id False is not an int", id="agent-id-bool"),
        ],
    )
    def test_jsonl_rejects_bad_header_values(self, log, tmp_path, edit, message):
        # Before these checks, string node ids read as a group that no
        # (node_id, axis) lookup finds, so every light was green.
        p = tmp_path / "ep.jsonl"
        header, *ticks = written_lines(log, p)
        write_lines(p, [edit(header), *ticks])
        with pytest.raises(DataFormatError, match=re.escape(f"ep.jsonl: line 1: {message}")):
            sw.EpisodeLog.read_jsonl(p)

    def test_jsonl_accepts_whole_number_times(self, log, tmp_path):
        # JSON may write a float as an int; the groups keep what was read.
        p = tmp_path / "ep.jsonl"
        header, *ticks = written_lines(log, p)
        groups = [[node, axis, 10, 8, 0] for node, axis, *_ in header["groups"]]
        write_lines(p, [{**header, "groups": groups}, *ticks])
        assert sw.EpisodeLog.read_jsonl(p).groups == [tuple(g) for g in groups]

    def test_no_collisions_under_autopilot(self, train_town, log):
        cars = log.car_indices()
        pos = log.states[:, cars, :2]
        for i in range(len(cars)):
            for j in range(i + 1, len(cars)):
                gaps = np.linalg.norm(pos[:, i] - pos[:, j], axis=1)
                assert gaps.min() >= 2 * sw.CAR_RADIUS


def jsonl_sha256(log, path):
    log.write_jsonl(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def suite_drives(train_town):
    """The expert on the first one_turn task of suite 3, then untrained
    models for 600 ticks on two nav_dynamic tasks whose events cover all six
    infraction kinds."""
    suite = bench.generate_suite("train", 3)
    dynamic = [t for t in suite if t.kind == "nav_dynamic"]
    expert_task = [t for t in suite if t.kind == "one_turn"][0]
    results = [(expert_task, bench.run_task(train_town, expert_task, expert=True))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "route_timeout", lambda length: 599.5 * sw.TICK)
        for task, seed in ((dynamic[1], 1), (dynamic[11], 7)):
            results.append((task, bench.run_task(train_town, task, model.init_params(seed))))
    return results


class TestGoldenBytes:
    """The bytes of recorded episodes and of one expert drive, pinned: the
    world's numbers may only move in a change that says so."""

    # datagen's traffic mixes and episode seeds (seed * 100000 + episode).
    @pytest.mark.parametrize("seed, n_cars, n_peds, digest", [
        (100000, 5, 6, "aad51aabc17fe88751953085b420dfe67f5dfe02e30b5405990a9fb577c499b2"),
        (100000, 15, 2, "3a707f92a5173cc91726d0c191e2e7cbdf7c42bae94dbf1c786aa75dc12fa51f"),
        (100001, 5, 6, "1a6d4393fa88c1dd9f7a2e8a2e46fc1ea12fcfe0bc57c62a7f2f1c892f9544ef"),
        (100001, 15, 2, "3cfd601d354c93792e4fd702dc8ad7a80ee300234b3a33def48de185f9fe5e74"),
    ], ids=["100000-5x6", "100000-15x2", "100001-5x6", "100001-15x2"])
    def test_recorded_episode(self, train_town, tmp_path, seed, n_cars, n_peds, digest):
        log = sw.record_episode(train_town, seed, 10.0, n_cars, n_peds)
        assert jsonl_sha256(log, tmp_path / "ep.jsonl") == digest

    def test_expert_drive_trace(self, train_town, tmp_path):
        # The first nav_dynamic task of suite 3: 8 cars, 4 pedestrians and
        # 839 ticks to the goal.
        task = [t for t in bench.generate_suite("train", 3) if t.kind == "nav_dynamic"][0]
        result = bench.run_task(train_town, task, expert=True)
        assert result.reached_goal and len(result.trace) == 839
        assert jsonl_sha256(result.trace, tmp_path / "trace.jsonl") == (
            "76aa11fe2b8c5ceebb9a914c7fb7a6d871064c6513fc9280243e6b9bc1c93412"
        )

    def test_model_drive_trace(self, train_town, tmp_path, monkeypatch):
        # Untrained init_params(0) on the same task for 80 ticks: each tick
        # builds a live sample, predicts and tracks the prediction.
        task = [t for t in bench.generate_suite("train", 3) if t.kind == "nav_dynamic"][0]
        monkeypatch.setattr(bench, "route_timeout", lambda length: 79.5 * sw.TICK)
        result = bench.run_task(train_town, task, model.init_params(0))
        assert not result.reached_goal and len(result.trace) == 80
        assert result.distance_m > 10.0
        assert jsonl_sha256(result.trace, tmp_path / "trace.jsonl") == (
            "6d71974b53e3d08bb464841aba1ea2dbf26d03e23958fe348643d2c12c292d2a"
        )

    def test_model_suite_report(self, suite_drives):
        report = bench.aggregate_report(suite_drives)
        assert all(row["events"] for row in report["infractions"].values())
        assert hashlib.sha256(bench.report_to_json(report).encode()).hexdigest() == (
            "46c2e15189631f0f2760e876c97f0773213e2db09c25b0d2423fd1adda1892a6"
        )

    def test_light_counts_come_from_the_trace(self, suite_drives, tmp_path):
        # Both untrained drives enter a lit junction core off their route,
        # which a count along the planned route would miss.
        report = bench.aggregate_report(suite_drives)
        assert report["red_lights"] == {"encountered": 5, "run": 1, "ratio_pct": 20.0}
        assert report["red_lights"]["run"] == report["infractions"]["red_light_run"]["events"]
        assert [(r.lights_encountered, r.lights_run) for _, r in suite_drives] == [
            (3, 0), (1, 0), (1, 1)
        ]
        # report re-scores the traces that eval-closedloop writes from their
        # states, and gets the report that eval-closedloop wrote.
        traces = tmp_path / "traces"
        traces.mkdir()
        for task, result in suite_drives:
            cli._write_trace(str(traces / f"task_{task.seed}.jsonl"), task, result)
        assert cli.main(["report", "--out", str(tmp_path / "r"), f'traces = "{traces}"']) == 0
        rescored = json.loads((tmp_path / "r" / "report.json").read_text())
        del rescored["config_hash"]
        assert rescored == json.loads(bench.report_to_json(report))


class TestJunctionPriority:
    def test_priority_is_total_order(self, train_town):
        """Among contenders at one junction, exactly one may proceed."""
        world = sw.spawn_scenario(train_town, 1, 0, 0)
        net = train_town
        node = net.nodes[net.junction_ids[0]]
        approaches = [
            lid
            for lid, lane in enumerate(net.lanes)
            if lane.to_node == node.node_id
        ]
        cars = []
        for idx, lid in enumerate(approaches[:3]):
            lane = net.lanes[lid]
            route = sw.Route(net, [lid, net.successors(lid)[0][0]])
            s = lane.length - 9.0 - 0.2 * idx
            pos = lane.p0 + lane.direction * s
            car = sw.AgentState(
                idx, "car", float(pos[0]), float(pos[1]), lane.heading, 0.0,
                route=route,
            )
            car.route_s = route.project(pos, s)
            cars.append(car)
        world.agents = cars
        allowed = []
        for car in cars:
            ev = car.route.next_event(car.route_s)
            d = ev.s_stop - car.route_s
            allowed.append(sw._may_enter_junction(car, world, ev, d))
        assert sum(allowed) == 1
