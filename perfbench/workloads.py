"""The three benchmark workloads: datagen, train and closedloop.

Each workload calls the same public polydrive functions, in the same order,
as the matching ``polydrive`` command (record, augment, train,
eval-closedloop, report).  A workload has a set-up, which the harness times
and repeats, and numbered units of measured work.  Inputs come only from the
workload seed and the unit's input number, and every input runs at least
twice in a run: its bytes must be equal each time.

Timing.  Every input runs a fixed number of times, set by ``--seconds``
and the unit's cost on the reference host (``Workload.unit_s``, measured on
a 2-vCPU Intel Xeon VM), never by how fast the code under test is: both
sides of a comparison use the same estimator.  A unit timestamps the boundaries of its pieces of work: every
``World.step`` call, every ``adam_step`` call, and each stage boundary.
Runs of the same input do the same pieces in the same order, so each
piece's time is taken as its minimum over those runs.  On a shared host,
contention only ever adds time, and it comes and goes within a second; the
minimum filters it out, where a mean or median over whole units kept
run-to-run swings of 20-30%.  The minimum also drops a cost that lands on a
different piece in each run, such as a garbage-collector pass, so each
workload also prints its main rate over the median run of each input
(``*_median_run``), which no run beat by luck.  A timestamp per step is the
only hook of an untraced run.

Every workload reports its own named metrics (``record_samples_per_s``,
``tick_ms_p99``, ...) and maps them onto the common end-to-end metrics of
``COMMON``, which every run prints:

* ``samples_per_s``: the main stage.  Recorded samples (datagen), trained
  samples x epochs (train), closed-loop ticks, one live sample each
  (closedloop).
* ``bytes_per_sample``: JSONL bytes per dataset sample (datagen, train) or
  per agent state in a trace (closedloop).
* ``step_ms_p50`` / ``step_ms_p95``: time of one step of the inner loop.
  A ``World.step`` interval while recording (datagen), an ``adam_step``
  interval within an epoch (train), a ``World.step`` interval while driving
  (closedloop).

The other named metrics (augmentation rate, report time, 99th
percentiles, median-run rates) are printed without a bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from polydrive import augment, bench, dataset, model, simworld
from polydrive.control import DriveResult

clock = time.perf_counter

TOWN = "train"
# The datagen workload's ``polydrive augment`` settings: full mode on half
# of the episodes, plus position noise and map dropout and clutter.
AUGMENT = augment.AugmentConfig(
    mode="full", fraction=0.5, sigma_long=0.1, sigma_lat=0.05, p_remove=0.1, p_add=0.02
)
# ``polydrive train`` batch size.  The learning rate is ten times the
# command's default, so that the loss falls within a few epochs.
BATCH_SIZE = 8
LEARNING_RATE = 1e-4

COMMON = ("samples_per_s", "bytes_per_sample", "step_ms_p50", "step_ms_p95")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class StepClock:
    """Timestamp every call of ``owner.attr`` while the block runs.

    It wraps whatever the attribute currently is, so in a traced pass it
    stamps the traced function; traced and untraced passes pay the same cost.
    """

    def __init__(self, owner, attr: str):
        self.owner, self.attr = owner, attr
        self.stamps: list[float] = []

    def __enter__(self):
        orig = self._orig = vars(self.owner)[self.attr]
        stamp = self.stamps.append

        def stamped(*args, **kwargs):
            stamp(clock())
            return orig(*args, **kwargs)

        setattr(self.owner, self.attr, stamped)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._orig)
        return False


def step_hook_cost_us(n: int = 200000) -> float:
    """Measured cost of one StepClock stamp, in microseconds."""
    stamps: list[float] = []
    stamp = stamps.append

    def bare(x):
        return x

    def stamped(x):
        stamp(clock())
        return bare(x)

    t0 = clock()
    for i in range(n):
        bare(i)
    t1 = clock()
    for i in range(n):
        stamped(i)
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n * 1e6)


# The (cars, pedestrians) ranges that record_episode and generate_suite's
# nav_dynamic tasks draw from.
RECORD_TRAFFIC = ((5, 15), (2, 6))
NAV_DYNAMIC_TRAFFIC = ((6, 11), (2, 5))


def traffic_mix(n: int, ranges=RECORD_TRAFFIC) -> list[tuple[int, int]]:
    """(cars, pedestrians) for n episodes or tasks, spread evenly over the
    ranges: cars rising, pedestrians falling.

    A fixed mix keeps the cost of a run from hanging on how many agents the
    seed happens to draw; the seed still places them and picks their routes.
    """
    (c0, c1), (p0, p1) = ranges
    d = max(n - 1, 1)
    return [(c0 + (c1 - c0) * e // d, p1 - (p1 - p0) * e // d) for e in range(n)]


@dataclass
class Unit:
    """Outcome of one unit of measured work."""

    key: str  # units with equal keys read equal inputs and must write equal bytes
    digests: dict[str, str]
    measures: dict
    pieces: np.ndarray = field(default_factory=lambda: np.zeros(0))  # seconds each
    checks: list[str] = field(default_factory=list)  # failed check messages
    extra: object = None


def _piece_runs(units: list[Unit]) -> dict[str, np.ndarray]:
    """Per input, its runs' piece times as one (runs, pieces) array."""
    by_key: dict[str, list[np.ndarray]] = {}
    for u in units:
        by_key.setdefault(u.key, []).append(u.pieces)
    return {k: np.stack(v) for k, v in by_key.items()}


def fastest_pieces(units: list[Unit]) -> dict[str, np.ndarray]:
    """Per input, each piece's minimum time over the units that ran it."""
    return {k: runs.min(axis=0) for k, runs in _piece_runs(units).items()}


def median_run_s(units: list[Unit], pieces=slice(None)) -> float:
    """Seconds the selected pieces took in the median run of each input,
    summed over the inputs."""
    return sum(
        float(np.median(runs[:, pieces].sum(axis=1))) for runs in _piece_runs(units).values()
    )


def _distinct(units: list[Unit]) -> list[Unit]:
    """The first unit of each input, in run order."""
    first = {u.key: u for u in reversed(units)}
    return [u for u in units if first[u.key] is u]


def _steps(prefix: str, seconds: np.ndarray) -> dict[str, float]:
    return {f"{prefix}_ms_p{q}": float(np.percentile(seconds, q)) * 1e3 for q in (50, 95, 99)}


class Workload:
    name = ""
    op_name = ""
    setup_repeats = 3
    inputs = 1  # distinct unit inputs
    unit_s = 1.0  # seconds one unit takes on the reference host
    # common end-to-end metric -> this workload's named metric
    common: dict[str, str] = {}

    def __init__(self, seed: int, out_dir: str, config):
        self.seed = seed
        self.out_dir = out_dir
        self.config = config

    def runs_per_input(self, seconds: float) -> int:
        """How many times each input runs: what fills ``seconds`` on the
        reference host, and at least twice, so that repeats can be compared."""
        return max(2, round(seconds / (self.inputs * self.unit_s)))

    def unit_input(self, i: int) -> int:
        """Input of the i-th unit; inputs take turns, so that the runs of one
        input are spread over the run."""
        return i % self.inputs

    def describe(self) -> dict:
        return {"workload": self.name, "op": self.op_name, "seeds": self.seeds(),
                **asdict(self.config), **self.constants()}

    def constants(self) -> dict:
        """Fixed settings of the workload, printed with its config."""
        return {"town": TOWN}

    def seeds(self) -> dict:
        """Every seed the workload derives from its own."""
        raise NotImplementedError

    def setup(self) -> dict[str, str]:
        """Build inputs; returns digests that every set-up repeat must match."""
        raise NotImplementedError

    def planned_ops(self, k: int) -> int:
        raise NotImplementedError

    def run_unit(self, k: int) -> Unit:
        """Run the unit on input ``k``."""
        raise NotImplementedError

    def finish(self, units: list[Unit]) -> Unit | None:
        """Work done once over all measured units (closed-loop report)."""
        return None

    def named_metrics(self, units: list[Unit], final: Unit | None) -> dict[str, float]:
        raise NotImplementedError


# -- datagen -------------------------------------------------------------------


@dataclass(frozen=True)
class DatagenConfig:
    # 10 s episodes make 1.6 World.step calls per sample and give simworld
    # 0.27 of the unit's time; default-length (180 s) record episodes make
    # 1.0 call per sample and give it 0.20.  Two episodes keep the unit
    # small, so that each piece runs about 17 times in a 30 s run: on a
    # shared 2-vCPU VM the speed flickers by up to 1.6x within milliseconds,
    # and a tick's minimum kept falling up to 20 runs (p95 tick 2.4, 2.1,
    # 1.8, 1.7 ms over 4, 8, 12 and 16 runs).  Over seeds 1-10, bytes per
    # sample spread (IQR/median) 0.13 with two episodes and 0.08 with three.
    episodes: int = 2
    episode_s: float = 10.0


class Datagen(Workload):
    """record + augment of one seeded set of episodes.

    A unit records the episodes, extracts windows and writes one JSONL (as
    ``polydrive record``), then reads it back, augments it and writes the
    result (as ``polydrive augment``).
    """

    name = "datagen"
    op_name = "episode"
    setup_repeats = 9
    unit_s = 1.75
    common = {
        "samples_per_s": "record_samples_per_s",
        "bytes_per_sample": "dataset_bytes_per_sample",
        "step_ms_p50": "record_tick_ms_p50",
        "step_ms_p95": "record_tick_ms_p95",
    }

    def _warm_up_seed(self) -> int:
        return self.seed * 100000 + 99999

    def constants(self) -> dict:
        return {"town": TOWN, "augment": asdict(AUGMENT)}

    def setup(self) -> dict[str, str]:
        self.network = simworld.build_town(TOWN)
        # One short warm-up episode, so that first-call costs are not timed.
        log = simworld.record_episode(self.network, self._warm_up_seed(), 5.0, 5, 2)
        dataset.extract_windows(log, self.network)
        return {}

    def seeds(self) -> dict:
        return {
            "episodes": [self.seed * 100000 + e for e in range(self.config.episodes)],
            "warm_up_episode": self._warm_up_seed(),
            "augment": self.seed,
        }

    def planned_ops(self, k: int) -> int:
        return self.config.episodes

    def run_unit(self, k: int) -> Unit:
        cfg = self.config
        raw_path = os.path.join(self.out_dir, "train.jsonl")
        aug_path = os.path.join(self.out_dir, "train_aug.jsonl")
        stamps = [clock()]
        ticks: list[int] = []  # indices of the pieces that are World.step intervals
        samples: list[dataset.Sample] = []
        for e, (n_cars, n_peds) in enumerate(traffic_mix(cfg.episodes)):
            with StepClock(simworld.World, "step") as steps:
                log = simworld.record_episode(
                    self.network, self.seed * 100000 + e, cfg.episode_s, n_cars, n_peds
                )
            ticks.extend(range(len(stamps), len(stamps) + len(steps.stamps) - 1))
            stamps.extend(steps.stamps)
            stamps.append(clock())
            samples.extend(dataset.extract_windows(log, self.network))
            stamps.append(clock())
        meta = {"town": TOWN, "episodes": cfg.episodes, "split": "train"}
        dataset.write_dataset(samples, raw_path, meta)
        stamps.append(clock())
        record_pieces = len(stamps) - 1
        read, _ = dataset.read_dataset(raw_path)
        stamps.append(clock())
        augmented = augment.augment_samples(read, AUGMENT, self.seed)
        stamps.append(clock())
        dataset.write_dataset(augmented, aug_path, {"augmented_from": meta, "mode": AUGMENT.mode})
        stamps.append(clock())

        checks = []
        if len(read) != len(samples) or not all(
            dataset.samples_equal(a, b) for a, b in zip(samples, read)
        ):
            checks.append("datagen: dataset read back differs from the samples written")
        if len(augmented) != len(read):
            checks.append("datagen: augment changed the sample count")
        deviated = sum(s.deviated for s in augmented)
        if round(AUGMENT.fraction * cfg.episodes) >= 1 and deviated == 0:
            checks.append("datagen: augment deviated no sample")
        return Unit(
            key="episodes",
            digests={"train.jsonl": sha256(raw_path), "train_aug.jsonl": sha256(aug_path)},
            measures={
                "samples": len(samples),
                "bytes": os.path.getsize(raw_path),
                "deviated": deviated,
            },
            pieces=np.diff(stamps),
            extra=(np.array(ticks), record_pieces),
            checks=checks,
        )

    def named_metrics(self, units, final):
        best = fastest_pieces(units)["episodes"]
        ticks, record_pieces = units[0].extra
        samples = units[0].measures["samples"]
        return {
            "record_samples_per_s": samples / best[:record_pieces].sum(),
            "record_samples_per_s_median_run": samples
            / median_run_s(units, slice(None, record_pieces)),
            "augment_samples_per_s": samples / best[record_pieces:].sum(),
            "dataset_bytes_per_sample": units[0].measures["bytes"] / samples,
            **_steps("record_tick", best[ticks]),
        }


# -- train ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 6
    episode_s: float = 8.0
    epochs: int = 3


class Train(Workload):
    """train on a seeded recording, with per-epoch validation.

    The set-up records and writes train/val JSONL as ``polydrive record``
    does.  A unit reads both, trains and saves the checkpoint as
    ``polydrive train`` does.
    """

    name = "train"
    op_name = "training step"
    unit_s = 1.9
    common = {
        "samples_per_s": "train_samples_per_s",
        "bytes_per_sample": "dataset_bytes_per_sample",
        "step_ms_p50": "train_step_ms_p50",
        "step_ms_p95": "train_step_ms_p95",
    }

    def _paths(self):
        return (
            os.path.join(self.out_dir, "train.jsonl"),
            os.path.join(self.out_dir, "val.jsonl"),
        )

    def constants(self) -> dict:
        return {"town": TOWN, "batch_size": BATCH_SIZE, "learning_rate": LEARNING_RATE}

    def setup(self) -> dict[str, str]:
        cfg = self.config
        network = simworld.build_town(TOWN)
        per_episode = []
        for i, (n_cars, n_peds) in enumerate(traffic_mix(cfg.episodes)):
            log = simworld.record_episode(
                network, self.seed * 100000 + i, cfg.episode_s, n_cars, n_peds
            )
            per_episode.append(dataset.extract_windows(log, network))
        n_train = cfg.episodes - max(1, int(round(0.1 * cfg.episodes)))
        train = [s for ep in per_episode[:n_train] for s in ep]
        val = [s for ep in per_episode[n_train:] for s in ep]
        train_path, val_path = self._paths()
        meta = {"town": TOWN, "episodes": cfg.episodes}
        dataset.write_dataset(train, train_path, {**meta, "split": "train"})
        dataset.write_dataset(val, val_path, {**meta, "split": "val"})
        self.n_train = len(train)
        self.steps_per_epoch = math.ceil(self.n_train / BATCH_SIZE)
        self.n_samples = len(train) + len(val)
        self.dataset_bytes = os.path.getsize(train_path) + os.path.getsize(val_path)
        return {"train.jsonl": sha256(train_path), "val.jsonl": sha256(val_path)}

    def seeds(self) -> dict:
        return {
            "episodes": [self.seed * 100000 + e for e in range(self.config.episodes)],
            "init_params_and_shuffle": self.seed,
        }

    def planned_ops(self, k: int) -> int:
        return self.config.epochs * self.steps_per_epoch

    def run_unit(self, k: int) -> Unit:
        cfg = self.config
        train_path, val_path = self._paths()
        ckpt = os.path.join(self.out_dir, "ckpt.npz")
        tc = model.TrainConfig(
            learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE, epochs=cfg.epochs, seed=self.seed
        )
        stamps = [clock()]
        train_samples, _ = dataset.read_dataset(train_path)
        val_samples, _ = dataset.read_dataset(val_path)
        stamps.append(clock())
        with StepClock(model, "adam_step") as steps:
            params, history = model.train(train_samples, val_samples, tc)
        stamps.extend(steps.stamps)
        stamps.append(clock())
        model.save_checkpoint(params, ckpt, tc, extra={"benchmark": self.name})
        stamps.append(clock())

        checks = []
        losses = [rec["train_loss"] for rec in history] + [rec["val_loss"] for rec in history]
        if not all(np.isfinite(losses)):
            checks.append(f"train: non-finite loss in {losses}")
        elif not history[-1]["train_loss"] < history[0]["train_loss"]:
            checks.append(
                f"train: training loss did not fall ({history[0]['train_loss']:.4g} -> "
                f"{history[-1]['train_loss']:.4g})"
            )
        return Unit(
            key="train",
            digests={"ckpt.npz": sha256(ckpt)},
            measures={"samples": len(train_samples) * cfg.epochs},
            pieces=np.diff(stamps),
            checks=checks,
        )

    def named_metrics(self, units, final):
        best = fastest_pieces(units)["train"]
        epochs, per_epoch = self.config.epochs, self.steps_per_epoch
        # Piece 0 is the dataset read and piece 1 runs up to the first Adam
        # step.  Only the adam_step intervals inside one epoch are training
        # steps; the one across an epoch boundary also holds the validation.
        steps = best[2 : 2 + epochs * per_epoch].reshape(epochs, per_epoch)[:, :-1]
        samples = units[0].measures["samples"]
        return {
            "train_samples_per_s": samples / best.sum(),
            "train_samples_per_s_median_run": samples / median_run_s(units),
            "dataset_bytes_per_sample": self.dataset_bytes / self.n_samples,
            **_steps("train_step", steps.ravel()),
        }


# -- closedloop ----------------------------------------------------------------


@dataclass(frozen=True)
class ClosedloopConfig:
    # A tick's cost depends on the task and its untrained policy far more than
    # on how far along the route it is: over six tasks, the mean tick of the
    # first 250 came within 2% of the mean over the full routes (about 4100
    # ticks each).  Three short slices keep the unit small, so that each tick
    # runs about 21 times in a 30 s run; the full routes' rarer slow ticks
    # are left out.
    tasks: int = 3
    ticks: int = 80


class Closedloop(Workload):
    """eval-closedloop on the first nav_dynamic tasks of the suite, then report.

    The first ``tasks`` nav_dynamic tasks of the seed's suite get a fixed
    traffic mix over the suite's ranges, and are driven in order through
    ``bench.run_task`` with untrained ``model.init_params`` of their own, each
    for its first ``ticks`` ticks: ``run_task`` is handed that timeout in
    place of the route's.  Untrained parameters never reach the goal, so
    every drive runs the full tick budget.  Each task is driven several
    times, so that each tick's minimum time is taken over that many runs.
    The traces are written, then re-scored the way ``polydrive report`` does.
    """

    name = "closedloop"
    op_name = "task"
    setup_repeats = 9
    unit_s = 0.47
    common = {
        "samples_per_s": "closedloop_ticks_per_s",
        "bytes_per_sample": "trace_bytes_per_agent_tick",
        "step_ms_p50": "tick_ms_p50",
        "step_ms_p95": "tick_ms_p95",
    }

    @property
    def inputs(self) -> int:
        return self.config.tasks

    def setup(self) -> dict[str, str]:
        cfg = self.config
        self.network = simworld.build_town(TOWN)
        suite = [t for t in bench.generate_suite(TOWN, self.seed) if t.kind == "nav_dynamic"]
        self.tasks = [
            dataclasses.replace(task, n_cars=cars, n_pedestrians=peds)
            for task, (cars, peds) in zip(suite, traffic_mix(cfg.tasks, NAV_DYNAMIC_TRAFFIC))
        ]
        # Every task gets its own untrained parameters: one policy's quirks
        # (always braking, always veering) would otherwise set the cost of
        # every tick in the run.
        self.params = [model.init_params(s) for s in self._param_seeds()]
        self.trace_dir = os.path.join(self.out_dir, "traces")
        os.makedirs(self.trace_dir, exist_ok=True)
        return {}

    def seeds(self) -> dict:
        return {
            "suite": self.seed,
            "init_params": self._param_seeds(),
            "tasks": [t.seed for t in self.tasks],
        }

    def _param_seeds(self) -> list[int]:
        return [self.seed * 1000 + k for k in range(self.config.tasks)]

    def planned_ops(self, k: int) -> int:
        return 1

    def _trace_path(self, task) -> str:
        return os.path.join(self.trace_dir, f"task_{task.seed}.jsonl")

    def run_unit(self, k: int) -> Unit:
        task = self.tasks[k]
        ticks = self.config.ticks
        route_timeout = bench.route_timeout
        # Half a tick short, so that drive_task's ceil() lands on ``ticks``.
        bench.route_timeout = lambda length: (ticks - 0.5) * simworld.TICK
        try:
            with StepClock(simworld.World, "step") as steps:
                result = bench.run_task(self.network, task, self.params[k])
        finally:
            bench.route_timeout = route_timeout
        trace = result.trace
        trace.meta.update(
            {
                "task_kind": task.kind,
                "task_seed": task.seed,
                "town": task.town,
                "reached_goal": bool(result.reached_goal),
                "elapsed": float(result.elapsed),
                "distance_m": float(result.distance_m),
                "lights_encountered": int(result.lights_encountered),
                "lights_run": int(result.lights_run),
            }
        )
        path = self._trace_path(task)
        trace.write_jsonl(path)
        checks = []
        if result.reached_goal:
            checks.append(
                f"closedloop: task {task.seed} reached its goal with untrained parameters"
            )
        if len(steps.stamps) != ticks or len(trace) != ticks:
            checks.append(
                f"closedloop: task {task.seed} ran {len(steps.stamps)} World.step calls and "
                f"{len(trace)} trace ticks, not the {ticks}-tick budget"
            )
        return Unit(
            key=f"task{k}",
            digests={os.path.basename(path): sha256(path)},
            measures={
                "agent_ticks": len(trace) * trace.n_agents,
                "trace_bytes": os.path.getsize(path),
            },
            pieces=np.diff(steps.stamps),
            checks=checks,
            extra=(task, result),
        )

    def _rescore(self, tasks) -> str:
        """Report JSON recomputed from the written traces alone."""
        results = []
        for task in tasks:
            log = simworld.EpisodeLog.read_jsonl(self._trace_path(task))
            meta = log.meta
            results.append(
                (
                    bench.BenchTask(
                        kind=meta["task_kind"], town=meta["town"],
                        seed=int(meta["task_seed"]), lane_ids=(),
                    ),
                    DriveResult(
                        reached_goal=bool(meta["reached_goal"]),
                        elapsed=float(meta["elapsed"]),
                        trace=log,
                        infractions=bench.detect_infractions(log, self.network),
                        lights_encountered=int(meta["lights_encountered"]),
                        lights_run=int(meta["lights_run"]),
                        distance_m=float(meta["distance_m"]),
                    ),
                )
            )
        return bench.report_to_json(bench.aggregate_report(results)) + "\n"

    def finish(self, units):
        results = [u.extra for u in _distinct(units)]
        report_path = os.path.join(self.out_dir, "report.json")
        in_run = bench.report_to_json(bench.aggregate_report(results)) + "\n"
        with open(report_path, "w") as f:
            f.write(in_run)

        t0 = clock()
        rescored = self._rescore([task for task, _ in results])
        with open(os.path.join(self.out_dir, "report_rescored.json"), "w") as f:
            f.write(rescored)
        report_s = clock() - t0
        checks = []
        if rescored != in_run:
            checks.append("closedloop: the re-scored report differs from the in-run report")
        return Unit(
            key="report",
            digests={f"report.json[{len(results)} tasks]": sha256(report_path)},
            measures={
                "report_s": report_s,
                "tasks": len(results),
                "ticks": sum(len(result.trace) for _, result in results),
            },
            checks=checks,
        )

    def named_metrics(self, units, final):
        intervals = np.concatenate(list(fastest_pieces(units).values()))
        distinct = _distinct(units)
        return {
            "closedloop_ticks_per_s": intervals.size / intervals.sum(),
            "closedloop_ticks_per_s_median_run": intervals.size / median_run_s(units),
            "report_s_per_task": final.measures["report_s"] / final.measures["tasks"],
            "trace_bytes_per_agent_tick": sum(u.measures["trace_bytes"] for u in distinct)
            / sum(u.measures["agent_ticks"] for u in distinct),
            **_steps("tick", intervals),
        }


WORKLOADS = {w.name: w for w in (Datagen, Train, Closedloop)}
DEFAULT_CONFIGS = {
    "datagen": DatagenConfig(),
    "train": TrainConfig(),
    "closedloop": ClosedloopConfig(),
}
