"""Command-line pipeline: record, augment, train, evaluate, report.

Every stage is file-mediated and fully seeded: re-running a command with the
same config and inputs reproduces identical output bytes.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import augment, bench, codec, dataset, model, simworld
from .control import DriveResult
from .errors import DataFormatError, NumericalError, PolydriveError

TRACE_DIRNAME = "traces"


# -- config plumbing ---------------------------------------------------------


def _cast(kind, raw):
    """A config value as written, as the commands read a value of kind (a
    type; None: as written); TypeError, ValueError or OverflowError if it is
    of another kind."""
    if kind is list and isinstance(raw, str):  # task kinds, comma-separated
        return [k.strip() for k in raw.split(",") if k.strip()]
    if kind in (str, bool, list):
        # A number would reach open() as a file descriptor, and bool("False") is True.
        if type(raw) is not kind or kind is list and any(type(k) is not str for k in raw):
            raise TypeError(raw)
    elif kind is not None:
        value = kind(raw)  # int() and float() would take true as 1, and int() would cut 8.7 to 8
        if isinstance(raw, bool) or isinstance(raw, float) and value != raw:
            raise ValueError(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    return raw


def _known_kinds(kinds: list[str]) -> bool:
    """The range test of kinds, which names the unknown ones in its refusal."""
    unknown = set(kinds) - set(bench.TASK_KINDS)
    if unknown:
        raise ValueError(f"unknown task kinds: {sorted(unknown)}")
    return True


# A row of KNOBS: the default (None: none; a command that needs the key
# requires it), the kind, the range test of the cast value (None: any), and
# what a value must be, as the messages and the README's knob table word it.
Knob = namedtuple("Knob", "default kind ok need")

# Every key that a command reads, but seed, which comes from --seed.  A config
# may set any of them, so that one file can serve the whole pipeline, and
# load_config checks every value it is given against its row before any
# command runs.
KNOBS = {
    "input": Knob(None, str, None, "a path string"),
    "train": Knob(None, str, None, "a path string"),
    "val": Knob(None, str, None, "a path string"),
    "checkpoint": Knob(None, str, None, "a path string"),
    "data": Knob(None, str, None, "a path string"),
    "offline_data": Knob(None, str, None, "a path string"),
    "traces": Knob(None, str, None, "a path string"),
    "offline_eval": Knob(None, str, None, "a path string"),
    "town": Knob("train", None, None, "train or test"),  # build_town refuses others: exit 2
    "episodes": Knob(10, int, lambda n: 1 <= n <= 10**6, "a whole number in [1, 1000000]"),
    "duration": Knob(180.0, float, lambda t: 0.0 < t <= 86400.0, "a finite number in (0, 86400]"),
    "mode": Knob("full", None, augment.MODES.__contains__, "none, partial or full"),
    "fraction": Knob(0.2, float, lambda p: 0.0 <= p <= 1.0, "a finite number in [0, 1]"),
    "sigma_long": Knob(0.0, float, lambda s: s >= 0.0, "a finite number, 0 or more"),
    "sigma_lat": Knob(0.0, float, lambda s: s >= 0.0, "a finite number, 0 or more"),
    "p_remove": Knob(0.0, float, lambda p: 0.0 <= p <= 1.0, "a finite number in [0, 1]"),
    "p_add": Knob(0.0, float, lambda p: 0.0 <= p <= 1.0, "a finite number in [0, 1]"),
    "learning_rate": Knob(1e-5, float, lambda r: r > 0.0, "a finite number, positive"),
    "batch_size": Knob(8, int, lambda n: 1 <= n <= 10**6, "a whole number in [1, 1000000]"),
    "epochs": Knob(30, int, lambda n: 0 <= n <= 10**6, "a whole number in [0, 1000000]"),
    "neighbor_loss": Knob(True, bool, None, "true or false"),
    "suite_seed": Knob(None, int, lambda n: n >= 0, "a whole number, 0 or more"),  # None: --seed
    "expert": Knob(False, bool, None, "true or false"),
    "kinds": Knob([], list, _known_kinds, "a comma-separated string or a list of task kinds"),
}


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' comments; values parsed as JSON when possible."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = codec.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def load_config(path: str | None, overrides: list[str], seed: int) -> dict:
    """The config file's keys, then the overrides, then seed, as written.
    Each value is checked against its KNOBS row first: a key without a row
    (seed among them), a value of another kind or one out of range is a
    ValueError."""
    cfg: dict = {}
    if path:
        with open(path) as f:
            cfg.update(parse_config_text(f.read()))
    for item in overrides:
        cfg.update(parse_config_text(item))
    if "seed" in cfg:
        raise ValueError("config key 'seed' is not accepted; pass --seed instead")
    unknown = sorted(set(cfg) - set(KNOBS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    for key in sorted(cfg):
        knob, raw = KNOBS[key], cfg[key]
        refused = f"config key {key!r} must be {knob.need}, got {raw!r}"
        try:
            value = _cast(knob.kind, raw)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(refused) from None
        if knob.ok is not None and not knob.ok(value):
            raise ValueError(refused)
    cfg["seed"] = seed
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _get(cfg: dict, key: str):
    """A checked config value as the commands read it: cast to its kind, or
    the default; None for a key without a default that is not set."""
    knob = KNOBS[key]
    raw = cfg.get(key, knob.default)
    return None if raw is None else _cast(knob.kind, raw)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise argparse.ArgumentTypeError(f"config key {key!r} is required")
    return cfg[key]


# -- commands ----------------------------------------------------------------


def cmd_record(cfg: dict, out: str) -> None:
    town, episodes, duration = _get(cfg, "town"), _get(cfg, "episodes"), _get(cfg, "duration")
    network = simworld.build_town(town)
    seed = cfg["seed"]
    per_episode: list[list[dataset.Sample]] = []
    for i in range(episodes):
        log = simworld.record_episode(network, seed * 100000 + i, duration)
        per_episode.append(dataset.extract_windows(log, network))
    n_train = episodes - max(1, int(round(0.1 * episodes))) if episodes > 1 else 1
    train = [s for ep in per_episode[:n_train] for s in ep]
    val = [s for ep in per_episode[n_train:] for s in ep]
    os.makedirs(out, exist_ok=True)
    meta = {"config_hash": config_hash(cfg), "town": town, "episodes": episodes}
    dataset.write_dataset(train, os.path.join(out, "train.jsonl"), {**meta, "split": "train"})
    dataset.write_dataset(val, os.path.join(out, "val.jsonl"), {**meta, "split": "val"})
    print(f"recorded {episodes} episodes -> {len(train)} train / {len(val)} val samples")


def cmd_augment(cfg: dict, out: str) -> None:
    aug_cfg = augment.AugmentConfig(
        mode=_get(cfg, "mode"),
        fraction=_get(cfg, "fraction"),
        sigma_long=_get(cfg, "sigma_long"),
        sigma_lat=_get(cfg, "sigma_lat"),
        p_remove=_get(cfg, "p_remove"),
        p_add=_get(cfg, "p_add"),
    )
    samples, header = dataset.read_dataset(_require(cfg, "input"))
    augmented = augment.augment_samples(samples, aug_cfg, cfg["seed"])
    meta = {
        "config_hash": config_hash(cfg),
        "augmented_from": header.get("config_hash"),
        "mode": aug_cfg.mode,
        "fraction": aug_cfg.fraction,
    }
    dataset.write_dataset(augmented, out, meta)
    print(f"augmented {len(samples)} -> {len(augmented)} samples ({aug_cfg.mode})")


def _log_epoch(rec: dict) -> None:
    line = f"epoch {rec['epoch']:3d}  train {rec['train_loss']:10.2f}"
    if "val_ego" in rec:  # an empty val split has no validation fields
        line += f"  val {rec['val_loss']:10.2f}  ego {rec['val_ego']:.3f} m"
    print(line)


def _nan_to_null(rec: dict) -> dict:
    """JSON has no NaN: a field with nothing to measure is written as null."""
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in rec.items()
    }


def cmd_train(cfg: dict, out: str) -> None:
    tc = model.TrainConfig(
        learning_rate=_get(cfg, "learning_rate"),
        batch_size=_get(cfg, "batch_size"),
        epochs=_get(cfg, "epochs"),
        seed=cfg["seed"],
        neighbor_loss=_get(cfg, "neighbor_loss"),
    )
    train_samples, _ = dataset.read_dataset(_require(cfg, "train"))
    val_samples, _ = dataset.read_dataset(_require(cfg, "val"))
    params, history = model.train(train_samples, val_samples, tc, log_fn=_log_epoch)
    model.save_checkpoint(params, out, tc, extra={"config_hash": config_hash(cfg)})
    with open(out + ".history.json", "w") as f:
        history = [_nan_to_null(rec) for rec in history]
        json.dump(
            {"config_hash": config_hash(cfg), "history": history}, f, indent=2, allow_nan=False
        )
    print(f"saved checkpoint to {out}")


def _offline_mae(params, path: str) -> tuple[int, dict]:
    """The sample count of a dataset file, which must hold one, and eval_mae over them."""
    samples, _ = dataset.read_dataset(path)
    if not samples:  # eval_mae has no mean of nothing
        raise DataFormatError(f"{path}: no samples to evaluate")
    return len(samples), _nan_to_null(model.eval_mae(params, samples))


def cmd_eval_offline(cfg: dict, out: str | None) -> None:
    params, _ = model.load_checkpoint(_require(cfg, "checkpoint"))
    n_samples, mae = _offline_mae(params, _require(cfg, "data"))
    block = {"config_hash": config_hash(cfg), "n_samples": n_samples, "mae": mae}
    text = json.dumps(block, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    print(text)


# Trace metadata: key -> (type, and the BenchTask or DriveResult attribute
# it holds).  eval-closedloop writes these keys and report reads them back;
# report scores the rest from the states.
TRACE_META = {
    "task_kind": (str, bench.BenchTask, "kind"),
    "task_seed": (int, bench.BenchTask, "seed"),
    "town": (str, bench.BenchTask, "town"),
    "reached_goal": (bool, DriveResult, "reached_goal"),
    "distance_m": (float, DriveResult, "distance_m"),
}


def _write_trace(path: str, task: bench.BenchTask, result: DriveResult) -> None:
    source = {bench.BenchTask: task, DriveResult: result}
    result.trace.meta.update(
        {key: kind(getattr(source[owner], attr)) for key, (kind, owner, attr) in TRACE_META.items()}
    )
    result.trace.write_jsonl(path)


def _is_a(value, kind) -> bool:
    """Whether a JSON value is of kind (true is no int); a float may be
    written as an int, and must be finite."""
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is kind


def _read_trace(path: str) -> simworld.EpisodeLog:
    """A trace that eval-closedloop wrote, with its metadata checked."""
    trace = simworld.EpisodeLog.read_jsonl(path)
    meta = trace.meta
    for key, (kind, _, _) in TRACE_META.items():
        if not _is_a(meta.get(key), kind):
            raise DataFormatError(
                f"{path}: trace metadata {key!r} must be {kind.__name__}, got {meta.get(key)!r}"
            )
    if len(trace) == 0 or "car" not in trace.kinds:
        raise DataFormatError(f"{path}: trace has no ticks or no car (the ego is the first car)")
    return trace


def _scored_trace(trace: simworld.EpisodeLog, network) -> tuple[bench.BenchTask, DriveResult]:
    args = {bench.BenchTask: {"lane_ids": ()},
            DriveResult: {"trace": trace, "elapsed": len(trace) * simworld.TICK}}
    for key, (kind, owner, attr) in TRACE_META.items():
        args[owner][attr] = kind(trace.meta[key])
    task = bench.BenchTask(**args[bench.BenchTask])
    return task, bench.score(DriveResult(**args[DriveResult]), network)


def _read_offline_eval(path: str) -> dict:
    """The mae block of an eval-offline output: numbers, or null where there
    was nothing to measure."""
    try:
        with open(path) as f:
            block = codec.loads(f.read())
    except ValueError as e:  # JSON and UTF-8 errors
        raise DataFormatError(f"{path}: {e}") from e
    mae = block.get("mae") if isinstance(block, dict) else None
    # NaN passes: files written before null replaced it hold NaN.  An int
    # must fit a float, as the report prints each value as one.
    numbers = (int, float, type(None))
    if not isinstance(mae, dict) or any(
        type(v) not in numbers or type(v) is int and abs(v) > sys.float_info.max
        for v in mae.values()
    ):
        raise DataFormatError(
            f"{path}: not an eval-offline output (an object whose 'mae' holds numbers or null)"
        )
    return _nan_to_null(mae)


def _emit_report(results, offline_eval, cfg: dict, out: str) -> None:
    report = bench.aggregate_report(results, offline_eval)
    report["config_hash"] = config_hash(cfg)
    with open(os.path.join(out, "report.json"), "w") as f:
        f.write(bench.report_to_json(report) + "\n")
    text = bench.render_text(report)
    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write(text)
    print(text, end="")


def cmd_eval_closedloop(cfg: dict, out: str) -> None:
    town, expert, kinds = _get(cfg, "town"), _get(cfg, "expert"), _get(cfg, "kinds")
    suite_seed = _get(cfg, "suite_seed")
    params = offline_eval = None
    if not expert:
        params, _ = model.load_checkpoint(_require(cfg, "checkpoint"))
        offline_data = _get(cfg, "offline_data")
        if offline_data:  # before the suite drives, so a bad file fails fast
            _, offline_eval = _offline_mae(params, offline_data)
    network = simworld.build_town(town)
    tasks = bench.generate_suite(town, cfg["seed"] if suite_seed is None else suite_seed)
    if kinds:
        tasks = [t for t in tasks if t.kind in kinds]
    os.makedirs(os.path.join(out, TRACE_DIRNAME), exist_ok=True)
    noise_sigma = (_get(cfg, "sigma_long"), _get(cfg, "sigma_lat"))
    map_perturb = (_get(cfg, "p_remove"), _get(cfg, "p_add"))
    results = []
    for i, task in enumerate(tasks):
        result = bench.run_task(network, task, params, expert, noise_sigma, map_perturb)
        results.append((task, result))
        print(f"[{i + 1:3d}/{len(tasks)}] {task.kind:<12} seed {task.seed}  "
              f"{'ok' if result.reached_goal else 'FAIL'}  {len(result.infractions)} infraction(s)")
    for task, result in results:
        _write_trace(os.path.join(out, TRACE_DIRNAME, f"task_{task.seed}.jsonl"), task, result)
    _emit_report(results, offline_eval, cfg, out)


def cmd_report(cfg: dict, out: str) -> None:
    trace_dir = _require(cfg, "traces")
    path = _get(cfg, "offline_eval")  # before the traces, so a bad file fails fast
    offline_eval = _read_offline_eval(path) if path else None
    names = sorted(n for n in os.listdir(trace_dir) if n.endswith(".jsonl"))
    if not names:
        raise PolydriveError(f"report: no trace files in {trace_dir}")
    results = []
    network = None
    for name in names:
        trace = _read_trace(os.path.join(trace_dir, name))
        if network is None:
            network = simworld.build_town(trace.meta["town"])
        elif trace.meta["town"] != network.town_id:
            raise PolydriveError("report: traces span multiple towns")
        results.append(_scored_trace(trace, network))
    os.makedirs(out, exist_ok=True)
    _emit_report(results, offline_eval, cfg, out)


# -- entry point -------------------------------------------------------------

COMMANDS = {
    "record": (cmd_record, True),
    "augment": (cmd_augment, True),
    "train": (cmd_train, True),
    "eval-offline": (cmd_eval_offline, False),
    "eval-closedloop": (cmd_eval_closedloop, True),
    "report": (cmd_report, True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polydrive", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=0, help="global seed")
        p.add_argument("--out", help="output file or directory")
        p.add_argument(
            "set", nargs="*", metavar="key=value", help="inline config overrides"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    func, out_required = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, args.set, args.seed)
    except (ValueError, OSError) as e:
        print(f"polydrive {args.command}: bad config: {e}", file=sys.stderr)
        return 1
    if args.seed < 0:  # numpy seeds are non-negative
        print(f"polydrive {args.command}: --seed must be 0 or more, got {args.seed}",
              file=sys.stderr)
        return 1
    if out_required and not args.out:
        print(f"polydrive {args.command}: --out is required", file=sys.stderr)
        return 1
    try:
        # Float overflow, invalid values and division by zero raise, for exit 3.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            func(cfg, args.out)
    except argparse.ArgumentTypeError as e:
        print(f"polydrive {args.command}: {e}", file=sys.stderr)
        return 1
    except (NumericalError, FloatingPointError) as e:
        print(f"polydrive {args.command}: numerical failure: {e}", file=sys.stderr)
        return 3
    except (PolydriveError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"polydrive {args.command}: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
