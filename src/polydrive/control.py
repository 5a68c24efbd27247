"""Trajectory-following control and closed-loop episode execution.

The predicted ego polynomial (in the current ego frame) is turned into a
steering / acceleration command by two PID loops: the lateral loop tracks
the trajectory's y-value at a 0.5 s lookahead, the speed loop tracks a
target derived from the predicted 2 s arc length (arc length / 2, capped at
the cruise limit).  A predicted stop therefore brakes the car without any
separate brake signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import augment, model
from .dataset import (
    NC_LOOKAHEAD_S,
    NC_ZONE_RADIUS,
    T_STEPS,
    NavigationCommand,
    Sample,
    assemble_sample,
    turn_command,
)
from .simworld import (
    ACCEL_MAX,
    ACCEL_MIN,
    MAX_STEER,
    TARGET_SPEED,
    TICK,
    AgentState,
    EpisodeLog,
    RoadNetwork,
    Route,
    World,
    autopilot_command,
    clamp,
)
from .trajectory import GRID_T, PolyTrajectory2D

LOOKAHEAD_S = 0.5
GOAL_TOLERANCE = 3.0
TIMEOUT_SPEED = 10.0 / 3.6  # reference speed (m/s) in the timeout formula
INTEGRAL_CLAMP = 10.0


@dataclass(frozen=True)
class PidChannel:
    kp: float
    ki: float
    kd: float
    integral: float = 0.0
    prev_error: float | None = None

    def update(self, error: float, lo: float, hi: float) -> tuple[float, "PidChannel"]:
        """One tick's output before clamping to [lo, hi], and the next state."""
        integral = self.integral + error * TICK
        integral = clamp(integral, -INTEGRAL_CLAMP, INTEGRAL_CLAMP)
        deriv = 0.0 if self.prev_error is None else (error - self.prev_error) / TICK
        out = self.kp * error + self.ki * integral + self.kd * deriv
        # anti-windup: while the output saturates and the error keeps pushing
        # into the limit, stop accumulating the integral
        if (out > hi and error > 0.0) or (out < lo and error < 0.0):
            integral = self.integral
        return out, replace(self, integral=integral, prev_error=error)


@dataclass(frozen=True)
class PidState:
    lateral: PidChannel = field(default_factory=lambda: PidChannel(1.2, 0.0, 0.05))
    speed: PidChannel = field(default_factory=lambda: PidChannel(1.0, 0.1, 0.0))


def trajectory_speed_target(poly: PolyTrajectory2D) -> float:
    """Predicted 2 s arc length / 2, capped at the cruise speed.  The step
    from the origin is a 1-D np.linalg.norm (a BLAS dot), the 19 others
    sqrt(dx*dx + dy*dy)."""
    x, y = np.polyval(poly.cx, GRID_T), np.polyval(poly.cy, GRID_T)
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    arc = float(np.linalg.norm(np.array([x[0], y[0]])))
    arc += float(np.sqrt(dx * dx + dy * dy).sum())
    return min(arc / 2.0, TARGET_SPEED)


def pid_track(
    poly: PolyTrajectory2D, state: AgentState, pid: PidState
) -> tuple[float, float, PidState]:
    """One control tick; the polynomial must be in the current ego frame."""
    lat_error = float(np.polyval(poly.cy, LOOKAHEAD_S))
    steer_raw, lateral = pid.lateral.update(lat_error, -MAX_STEER, MAX_STEER)
    steer = clamp(steer_raw, -MAX_STEER, MAX_STEER)

    speed_error = trajectory_speed_target(poly) - state.speed
    accel_raw, speed = pid.speed.update(speed_error, ACCEL_MIN, ACCEL_MAX)
    accel = clamp(accel_raw, ACCEL_MIN, ACCEL_MAX)
    return steer, accel, PidState(lateral=lateral, speed=speed)


# -- live sample construction ---------------------------------------------------


# Radial margin (m) between the zone test and the route's junction spans that
# decide where it can be skipped; floating error here is about 1e-10 m.
ZONE_MARGIN = 1e-3


def _zone_crossing(route: Route, s_now: float, step: float, network: RoadNetwork):
    """Arc lengths (s_in, s_out) where the walk enters and leaves the first
    junction zone it meets, or None when it meets none.

    The result is what testing every point of the walk gives.  But a point
    is tested only inside the route's junction spans for a radius
    ZONE_MARGIN larger, and the exit walk only adds up its steps while the
    spans for a radius ZONE_MARGIN smaller hold it inside.
    """
    n_steps = int(round(NC_LOOKAHEAD_S / TICK))
    length = route.length
    spans = route.junction_spans(NC_ZONE_RADIUS + ZONE_MARGIN)
    s_last = max(min(s_now + n_steps * step, length), 0.0)
    k = 0
    for i in range(n_steps + 1):
        s_in = min(s_now + i * step, length)
        at = max(s_in, 0.0)  # where point_at looks
        while k < len(spans) and spans[k][1] < at:
            k += 1
        if k == len(spans) or s_last < spans[k][0]:
            return None
        if at < spans[k][0]:
            continue
        node_id, d = network.nearest_junction(route.point_at(s_in)[0])
        if d < NC_ZONE_RADIUS:
            break
    else:
        return None
    node_pos = network.nodes[node_id].pos
    inside_to = s_in
    for lo, hi, nid in route.junction_spans(NC_ZONE_RADIUS - ZONE_MARGIN):
        if nid == node_id and lo <= max(s_in, 0.0) < hi:
            inside_to = min(hi, length)
    s = s_in
    while s < inside_to:  # surely inside the zone: the test below would not stop
        s += step
    while s < length:
        pos, _ = route.point_at(s)
        if float(np.linalg.norm(pos - node_pos)) >= NC_ZONE_RADIUS:
            break
        s += step
    return s_in, min(s, length)


def live_navigation_command(
    route: Route, s_now: float, speed: float, network: RoadNetwork
) -> NavigationCommand:
    """Route-based counterpart of the offline maneuver classifier.

    Walks the route at the current speed (floored at 0.5 m/s) over the 5 s
    lookahead; if a junction zone (15 m radius) is entered, the route-tangent
    heading change across the zone decides left / right / cross.
    """
    crossing = _zone_crossing(route, s_now, max(speed, 0.5) * TICK, network)
    if crossing is None:
        return NavigationCommand.KEEP_LANE
    _, u_in = route.point_at(crossing[0])
    _, u_out = route.point_at(crossing[1])
    h_in = float(np.arctan2(u_in[1], u_in[0]))
    h_out = float(np.arctan2(u_out[1], u_out[0]))
    return turn_command(h_in, h_out)


class LiveSampler:
    """Rolling 2 s history over a stepped world, mirroring offline extraction;
    agent 0 is the ego."""

    def __init__(self, world: World):
        self.world = world
        kinds = [a.kind for a in world.agents]
        ids = [a.agent_id for a in world.agents]
        self.other_rows = [i for i, k in enumerate(kinds) if k == "car" and i != 0]
        self.ped_rows = [i for i, k in enumerate(kinds) if k == "pedestrian"]
        self.track_rows = [0, *sorted(self.other_rows, key=ids.__getitem__)]
        # Each tick's positions are written at head and head + T, so that
        # tracks[:, head + 1 : head + 1 + T] is always the last T, oldest first.
        self.tracks = np.empty((len(self.track_rows), 2 * T_STEPS, 2))
        self.head = 0
        self.snap: np.ndarray | None = None

    def observe(self, snap: np.ndarray) -> None:
        """Record this tick's World.snapshot(); call once per tick before stepping."""
        xy = snap[self.track_rows, :2]
        if self.snap is None:
            self.tracks[:] = xy[:, None]
        self.head = (self.head + 1) % T_STEPS
        self.tracks[:, self.head] = xy
        self.tracks[:, self.head + T_STEPS] = xy
        self.snap = snap

    def build(self) -> Sample:
        """The model inputs for the most recent observed tick, as a batch of one."""
        snap, ego = self.snap, self.world.agents[0]
        nc = live_navigation_command(ego.route, ego.route_s, float(snap[0, 3]), self.world.network)
        ring = self.tracks[None, :, self.head + 1 : self.head + 1 + T_STEPS]
        return assemble_sample(
            self.world.network, snap[:1], ring, [snap[self.other_rows].tolist()],
            [snap[self.ped_rows, :2].tolist()], [self.world.light_green], [nc],
        )[0]


# -- closed-loop episodes --------------------------------------------------------


@dataclass
class DriveResult:
    """A drive's outcome; bench.score sets the infractions and light counts from the trace."""

    reached_goal: bool
    elapsed: float
    trace: EpisodeLog
    infractions: list = field(default_factory=list)
    lights_encountered: int = 0
    lights_run: int = 0
    distance_m: float = 0.0


def route_timeout(route_length: float) -> float:
    """Three times the time needed to cover the route at 10 km/h."""
    return 3.0 * route_length / TIMEOUT_SPEED


def drive_task(
    params,
    world: World,
    route: Route,
    timeout: float,
    expert: bool = False,
    noise_sigma: tuple[float, float] = (0.0, 0.0),
    map_perturb: tuple[float, float] = (0.0, 0.0),
    noise_seed: int = 0,
) -> DriveResult:
    """Drive the ego along a route under the model (or the expert) policy.

    Failures (timeout, collisions) are recorded outcomes, never exceptions.
    Optional test-time corruption applies position noise and proximity-map
    occupancy perturbation to each live sample before the forward pass.
    """
    ego = world.agents[0]
    if ego.kind != "car":
        raise ValueError("agent 0 must be the ego car")
    ego.route = route
    ego.route_s = route.project(ego.xy, 0.0)
    goal_xy = route.points[-1].copy()
    goal_s = route.length
    n_ticks = int(np.ceil(timeout / TICK))

    sampler = None if expert else LiveSampler(world)
    pid = PidState()

    rows = []
    reached = False
    distance = 0.0
    tick = 0
    prev_xy = ego.xy.copy()
    while tick < n_ticks:
        row = world.log_row()
        rows.append(row)

        if expert:
            ego_cmd = autopilot_command(ego, world)
        else:
            sampler.observe(row[1])
            sample = sampler.build()
            if noise_sigma != (0.0, 0.0):
                sample = augment.perturb_positions(
                    sample, noise_sigma[0], noise_sigma[1], (noise_seed, tick, 0x31)
                )
            if map_perturb != (0.0, 0.0):
                m = augment.perturb_map_occupancy(sample.m, *map_perturb, (noise_seed, tick, 0x32))
                sample = replace(sample, m=m)
            steer, accel, pid = pid_track(model.predict(params, sample), ego, pid)
            ego_cmd = (steer, accel)
        world.step(ego_command=ego_cmd)
        tick += 1

        xy = ego.xy
        distance += float(np.linalg.norm(xy - prev_xy))
        prev_xy = xy.copy()

        s_now = route.project(xy, ego.route_s if ego.route is route else 0.0)
        if (
            float(np.linalg.norm(xy - goal_xy)) <= GOAL_TOLERANCE
            and s_now > goal_s - 30.0
        ):
            reached = True
            break

    return DriveResult(
        reached_goal=reached,
        elapsed=tick * TICK,
        trace=EpisodeLog.from_world(world, rows, policy="expert" if expert else "model"),
        distance_m=distance,
    )
