"""Closed-loop benchmark: task generation, infraction detection, reporting.

Four task kinds mirror increasing difficulty: driving straight, taking a
single turn, multi-turn navigation on empty roads, and the same navigation
among other cars and pedestrians.  Infractions are detected post-hoc from
the recorded trace, so every report number can be recomputed bit-identically
from the serialized episode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .control import DriveResult, drive_task, route_timeout
from .errors import InvalidInputError
from .kernels import runs, segment_features
from .simworld import (
    CAR_RADIUS,
    CORE_RADIUS,
    HALF_ROAD,
    PED_RADIUS,
    TICK,
    EpisodeLog,
    RoadNetwork,
    Route,
    build_town,
    spawn_scenario,
)

TASK_KINDS = ("straight", "one_turn", "navigation", "nav_dynamic")
TASKS_PER_KIND = 25
STRAIGHT_MIN_M = 100.0
ROUTE_MIN_M = 300.0
OPPOSITE_LANE_DEPTH = 0.5  # metres past the road axis
OPPOSITE_LANE_HOLD_S = 0.5
STATIC_CLEARANCE = 6.5  # metres from every road axis = inside a block
# Junction connectors can sweep outside the core circle (notably onto the
# diagonal road), so lane-side attribution is suspended over the whole
# functional junction area, bounded by the crosswalk lines.
JUNCTION_EXEMPT_RADIUS = 16.5
DIAGONAL_MERGE_RADIUS = 24.0
INFRACTION_KINDS = (
    "opposite_lane",
    "sidewalk",
    "collision_static",
    "collision_car",
    "collision_pedestrian",
    "red_light_run",
)


@dataclass(frozen=True)
class BenchTask:
    kind: str
    town: str
    seed: int
    lane_ids: tuple[int, ...]
    n_cars: int = 1
    n_pedestrians: int = 0

    def route(self, network: RoadNetwork) -> Route:
        return Route(network, list(self.lane_ids))

    def start_pose(self, network: RoadNetwork):
        route = self.route(network)
        pos, u = route.point_at(0.0)
        return float(pos[0]), float(pos[1]), float(np.arctan2(u[1], u[0]))


@dataclass(frozen=True)
class InfractionEvent:
    kind: str
    tick: int
    position: tuple[float, float]


# -- task generation -------------------------------------------------------------


def _try_route(network, rng, kind: str) -> list[int] | None:
    starts = network.internal_lanes
    lane_ids = [starts[int(rng.integers(len(starts)))]]
    route = Route(network, list(lane_ids))
    turns = 0
    min_len = STRAIGHT_MIN_M if kind == "straight" else ROUTE_MIN_M
    # one_turn routes place their single turn at a random junction index.
    turn_at = int(rng.integers(1, 4)) if kind == "one_turn" else -1
    junctions_passed = 0
    for _ in range(12):
        if route.length >= min_len:
            if kind == "straight" and turns == 0:
                return route.lane_ids
            if kind == "one_turn" and turns == 1:
                return route.lane_ids
            if kind in ("navigation", "nav_dynamic") and turns >= 2:
                return route.lane_ids
        succ = network.successors(route.lane_ids[-1])
        if not succ:
            return None
        junctions_passed += 1
        if kind == "one_turn" and junctions_passed == turn_at and turns == 0:
            choices = [lid for lid, turn in succ if turn != "cross"]
        elif kind in ("straight", "one_turn"):
            choices = [lid for lid, turn in succ if turn == "cross"]
        else:
            choices = [lid for lid, _ in succ]
        # Prefer staying on lanes that can be extended further.
        inner = [lid for lid in choices if network.lane_ends_at_junction(lid)]
        pool = inner or choices
        if not pool:
            return None
        pick = pool[int(rng.integers(len(pool)))]
        if dict(succ)[pick] != "cross":
            turns += 1
        route.extend(pick)
    return None


def generate_suite(town: str, seed: int) -> list[BenchTask]:
    """Deterministic 25-task-per-kind suite for one town."""
    network = build_town(town)
    rng = np.random.default_rng((seed, 0xBE))
    tasks: list[BenchTask] = []
    for kind in TASK_KINDS:
        made = 0
        attempts = 0
        while made < TASKS_PER_KIND:
            attempts += 1
            if attempts > 4000:
                raise InvalidInputError(f"could not sample {kind} routes in {town}")
            lane_ids = _try_route(network, rng, kind)
            if lane_ids is None:
                continue
            if kind == "nav_dynamic":
                n_cars = 1 + int(rng.integers(5, 11))
                n_peds = int(rng.integers(2, 6))
            else:
                n_cars, n_peds = 1, 0
            tasks.append(
                BenchTask(
                    kind=kind,
                    town=town,
                    seed=int(seed * 100000 + len(tasks)),
                    lane_ids=tuple(lane_ids),
                    n_cars=n_cars,
                    n_pedestrians=n_peds,
                )
            )
            made += 1
    return tasks


# -- infraction detection ----------------------------------------------------------


def light_entries(trace: EpisodeLog, network: RoadNetwork) -> list[tuple[int, bool]]:
    """(tick, green) for each time the ego enters the core of a lit junction,
    junction by junction: the first tick within CORE_RADIUS of its centre,
    and whether the light of its approach was green then.  The pose at that
    tick is already mid-turn, so the approach axis is that of the road
    segment nearest the last tick more than 3 m outside the core.  A
    junction is lit from that approach when the trace has a light group for
    its (node, axis).  The one red-light rule: both the red_light_run events
    and a drive's light counts come from it."""
    pos = trace.states[:, trace.car_indices()[0], :2]
    junction_d = np.linalg.norm(pos[:, None, :] - network.junction_pos, axis=2)
    entries = []
    for node_id, d in zip(network.junction_ids, junction_d.T):
        for i in [start for start, _ in runs(d <= CORE_RADIUS) if start > 0]:
            j = i - 1
            while j > 0 and d[j] <= CORE_RADIUS + 3.0:
                j -= 1
            dist, _ = segment_features(pos[j : j + 1], network.seg_a, network.seg_b)
            axis = network.signal_axis(int(np.argmin(dist[0])))
            group = trace.group_index.get((int(node_id), axis))
            if group is not None:
                entries.append((i, bool(trace.lights[i, group])))
    return entries


def detect_infractions(trace: EpisodeLog, network: RoadNetwork) -> list[InfractionEvent]:
    """Post-hoc scan of the ego row of a trace for all infraction kinds."""
    return _infractions(trace, network, light_entries(trace, network))


def _infractions(trace, network, entries) -> list[InfractionEvent]:
    """detect_infractions, given the trace's light_entries."""
    ego = trace.car_indices()[0]
    pos = trace.states[:, ego, :2]
    heading = trace.states[:, ego, 2]

    seg_ab = network.seg_b - network.seg_a
    seg_dir = seg_ab / np.linalg.norm(seg_ab, axis=1, keepdims=True)
    diagonal = np.array([seg.axis == 2 for seg in network.segments])

    # One row per tick: the distance to each junction, and to each road segment.
    junction_d = np.linalg.norm(pos[:, None, :] - network.junction_pos, axis=2)
    near = junction_d.min(axis=1)
    dist, lat = segment_features(pos, network.seg_a, network.seg_b)
    # The junction functional area (turn connectors) is legally drivable,
    # so lane-keeping infractions are only scored outside it.
    in_core = near < JUNCTION_EXEMPT_RADIUS
    sidewalk = ~in_core & ~(dist <= HALF_ROAD).any(axis=1)
    static = dist.min(axis=1) > STATIC_CLEARANCE
    # Attribute the car to the nearest heading-aligned segment so a crossing
    # road (e.g. the diagonal) cannot shadow the actual one.
    forward = np.cos(heading)[:, None] * seg_dir[:, 0] + np.sin(heading)[:, None] * seg_dir[:, 1]
    aligned = np.abs(forward) >= 0.85
    k = np.argmin(np.where(aligned, dist, np.inf), axis=1)
    rows = np.arange(len(k))
    lat_travel = np.sign(forward[rows, k]) * lat[rows, k]
    # Merges onto the diagonal road settle onto the lane over a longer
    # run-in; lane-side attribution there is ambiguous.
    merging = diagonal[k] & (near < DIAGONAL_MERGE_RADIUS)
    opposite = ~in_core & ~static & aligned.any(axis=1) & ~merging
    opposite &= lat_travel > OPPOSITE_LANE_DEPTH

    events: list[InfractionEvent] = []
    hold = int(round(OPPOSITE_LANE_HOLD_S / TICK)) + 1
    for i in [start for start, end in runs(opposite) if end - start >= hold]:
        events.append(InfractionEvent("opposite_lane", i, tuple(pos[i])))
    for i, _ in runs(sidewalk):
        events.append(InfractionEvent("sidewalk", i, tuple(pos[i])))
    for i, _ in runs(static):
        events.append(InfractionEvent("collision_static", i, tuple(pos[i])))

    # Collisions with other agents, debounced per partner.
    for r, kind in [(r, trace.kinds[r]) for r in range(trace.n_agents) if r != ego]:
        if kind == "car":
            threshold, label = 2 * CAR_RADIUS, "collision_car"
        else:
            threshold, label = CAR_RADIUS + PED_RADIUS, "collision_pedestrian"
        d = np.linalg.norm(trace.states[:, r, :2] - pos, axis=1)
        for i, _ in runs(d < threshold):
            events.append(InfractionEvent(label, i, tuple(pos[i])))

    for i, green in entries:
        if not green:
            events.append(InfractionEvent("red_light_run", i, tuple(pos[i])))

    events.sort(key=lambda e: (e.tick, e.kind))
    return events


# -- suite execution and reporting ---------------------------------------------------


def run_task(
    network: RoadNetwork,
    task: BenchTask,
    params=None,
    expert: bool = False,
    noise_sigma=(0.0, 0.0),
    map_perturb=(0.0, 0.0),
) -> DriveResult:
    """Spawn, relocate the ego to the route start and drive the task."""
    route = task.route(network)
    x0, y0, h0 = task.start_pose(network)
    start = np.array([x0, y0])
    world = None
    for attempt in range(30):
        candidate = spawn_scenario(
            network, task.n_cars, task.n_pedestrians, task.seed + 7919 * attempt
        )
        clear = all(
            np.linalg.norm(a.xy - start) >= 12.0
            for a in candidate.agents[1:]
            if a.kind == "car"
        )
        if clear:
            world = candidate
            break
    if world is None:
        raise InvalidInputError(f"could not clear the spawn area for task seed {task.seed}")
    ego = world.agents[0]
    ego.x, ego.y, ego.heading, ego.speed = x0, y0, h0, 0.0
    result = drive_task(
        params,
        world,
        route,
        timeout=route_timeout(route.length),
        expert=expert,
        noise_sigma=noise_sigma,
        map_perturb=map_perturb,
        noise_seed=task.seed,
    )
    return score(result, network)


def score(result: DriveResult, network: RoadNetwork) -> DriveResult:
    """The drive with its infractions and light counts set from its trace."""
    entries = light_entries(result.trace, network)
    result.infractions = _infractions(result.trace, network, entries)
    result.lights_encountered = len(entries)
    result.lights_run = sum(not green for _, green in entries)
    return result


def aggregate_report(
    results: list[tuple[BenchTask, DriveResult]], offline_eval: dict | None = None
) -> dict:
    """Success rates, km-per-infraction and the red-light ratio for one suite."""
    if not results:
        raise InvalidInputError("cannot aggregate an empty result list")
    town = results[0][0].town
    success: dict[str, dict] = {}
    for kind in TASK_KINDS:
        sub = [r for t, r in results if t.kind == kind]
        if sub:
            success[kind] = {
                "tasks": len(sub),
                "succeeded": sum(r.reached_goal for r in sub),
                "rate_pct": 100.0 * sum(r.reached_goal for r in sub) / len(sub),
            }
    total_km = sum(r.distance_m for _, r in results) / 1000.0
    infractions = {}
    for kind in INFRACTION_KINDS:
        count = sum(
            1 for _, r in results for ev in r.infractions if ev.kind == kind
        )
        if count:
            value = total_km / count
            display = f"{value:.2f}"
        else:
            value = None
            display = f"> {total_km:.2f}"
        infractions[kind] = {"events": count, "km_per_event": value, "display": display}
    encountered = sum(r.lights_encountered for _, r in results)
    run_count = sum(r.lights_run for _, r in results)
    red_ratio = None if encountered == 0 else 100.0 * run_count / encountered
    return {
        "town": town,
        "n_tasks": len(results),
        "total_km": total_km,
        "success": success,
        "infractions": infractions,
        "red_lights": {
            "encountered": encountered,
            "run": run_count,
            "ratio_pct": red_ratio,
        },
        "offline_mae": offline_eval,
    }


def render_text(report: dict) -> str:
    """Aligned plain-text tables for eyeball comparison."""
    lines = []
    lines.append(f"town: {report['town']}   tasks: {report['n_tasks']}   "
                 f"driven: {report['total_km']:.2f} km")
    lines.append("")
    lines.append(f"{'task kind':<14} {'tasks':>6} {'success %':>10}")
    for kind, row in report["success"].items():
        lines.append(f"{kind:<14} {row['tasks']:>6} {row['rate_pct']:>10.1f}")
    lines.append("")
    lines.append(f"{'infraction':<22} {'events':>7} {'km/event':>10}")
    for kind, row in report["infractions"].items():
        lines.append(f"{kind:<22} {row['events']:>7} {row['display']:>10}")
    lines.append("")
    rl = report["red_lights"]
    ratio = "n/a" if rl["ratio_pct"] is None else f"{rl['ratio_pct']:.1f} %"
    lines.append(f"red lights run: {rl['run']} / {rl['encountered']} ({ratio})")
    if report.get("offline_mae"):
        mae = report["offline_mae"]
        lines.append("")
        lines.append(f"{'offline MAE (m)':<18} {'mean':>8} {'at 2 s':>8}")
        for key in ("ego", "neighbors"):
            cells = [mae.get(k) for k in (key, f"{key}_2s")]
            cells = ["n/a" if v is None else f"{v:.3f}" for v in cells]
            lines.append(f"{key:<18} {cells[0]:>8} {cells[1]:>8}")
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
