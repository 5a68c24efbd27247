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

from . import augment, bench, dataset, model, simworld
from .errors import NumericalError, PolydriveError

TRACE_DIRNAME = "traces"


# -- config plumbing ---------------------------------------------------------


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
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def load_config(path: str | None, overrides: list[str], seed: int) -> dict:
    cfg: dict = {}
    if path:
        with open(path) as f:
            cfg.update(parse_config_text(f.read()))
    for item in overrides:
        cfg.update(parse_config_text(item))
    cfg["seed"] = seed
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise argparse.ArgumentTypeError(f"config key {key!r} is required")
    return cfg[key]


def _value(cfg: dict, key: str, default, cast=float, ok=None, need: str = ""):
    """cfg[key], or the default, as cast; a value that is not a finite
    number (for a numeric cast), or that fails ok, is a usage error."""
    raw = cfg.get(key, default)
    try:
        value = cast(raw)
        number = cast is not float or math.isfinite(value)
    except (TypeError, ValueError, OverflowError):
        number = False
    if not number:
        need = "a finite number"
    elif ok is None or ok(value):
        return value
    raise argparse.ArgumentTypeError(f"config key {key!r} must be {need}, got {raw!r}")


def _flag(cfg: dict, key: str, default: bool) -> bool:
    """cfg[key] as JSON true or false; a string such as "False" is refused."""
    return _value(cfg, key, default, lambda v: v, lambda v: isinstance(v, bool), "true or false")


_PROBABILITY = (lambda p: 0.0 <= p <= 1.0, "in [0, 1]")
_SIGMA = (lambda s: s >= 0.0, "0 or more")


def _perturbation(cfg: dict) -> dict:
    """The input-noise and map-perturbation knobs of augment and eval-closedloop."""
    return {
        "sigma_long": _value(cfg, "sigma_long", 0.0, float, *_SIGMA),
        "sigma_lat": _value(cfg, "sigma_lat", 0.0, float, *_SIGMA),
        "p_remove": _value(cfg, "p_remove", 0.0, float, *_PROBABILITY),
        "p_add": _value(cfg, "p_add", 0.0, float, *_PROBABILITY),
    }


# -- commands ----------------------------------------------------------------


def cmd_record(cfg: dict, out: str) -> None:
    town = cfg.get("town", "train")
    episodes = _value(cfg, "episodes", 10, int, lambda n: n >= 1, "at least 1")
    duration = _value(cfg, "duration", 180.0, float, lambda t: t > 0.0, "positive")
    network = simworld.build_town(town)
    seed = int(cfg["seed"])
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
        mode=_value(cfg, "mode", "full", str, augment.MODES.__contains__, "none, partial or full"),
        fraction=_value(cfg, "fraction", 0.2, float, *_PROBABILITY),
        **_perturbation(cfg),
    )
    samples, header = dataset.read_dataset(_require(cfg, "input"))
    augmented = augment.augment_samples(samples, aug_cfg, int(cfg["seed"]))
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
        learning_rate=_value(cfg, "learning_rate", 1e-5),
        batch_size=_value(cfg, "batch_size", 8, int, lambda n: n >= 1, "at least 1"),
        epochs=_value(cfg, "epochs", 30, int, lambda n: n >= 0, "at least 0"),
        seed=int(cfg["seed"]),
        neighbor_loss=_flag(cfg, "neighbor_loss", True),
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


def cmd_eval_offline(cfg: dict, out: str | None) -> None:
    params, _ = model.load_checkpoint(_require(cfg, "checkpoint"))
    samples, _ = dataset.read_dataset(_require(cfg, "data"))
    block = {
        "config_hash": config_hash(cfg),
        "n_samples": len(samples),
        "mae": _nan_to_null(model.eval_mae(params, samples)),
    }
    text = json.dumps(block, indent=2, sort_keys=True, allow_nan=False)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    print(text)


def _write_trace(path: str, task: bench.BenchTask, result) -> None:
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
    trace.write_jsonl(path)


def _read_trace(path: str, network) -> tuple[bench.BenchTask, object]:
    from .control import DriveResult

    trace = simworld.EpisodeLog.read_jsonl(path)
    meta = trace.meta
    task = bench.BenchTask(
        kind=meta["task_kind"], town=meta["town"], seed=int(meta["task_seed"]), lane_ids=()
    )
    result = DriveResult(
        reached_goal=bool(meta["reached_goal"]),
        elapsed=float(meta["elapsed"]),
        trace=trace,
        infractions=bench.detect_infractions(trace, network),
        lights_encountered=int(meta["lights_encountered"]),
        lights_run=int(meta["lights_run"]),
        distance_m=float(meta["distance_m"]),
    )
    return task, result


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
    town = cfg.get("town", "train")
    suite_seed = _value(cfg, "suite_seed", cfg["seed"], int)
    expert = _flag(cfg, "expert", False)
    knobs = _perturbation(cfg)
    kinds = _value(
        cfg, "kinds", [], lambda v: v,
        lambda v: isinstance(v, str) or isinstance(v, list) and all(type(k) is str for k in v),
        "a comma-separated string or a list of task kinds",
    )
    if isinstance(kinds, str):
        kinds = [k.strip() for k in kinds.split(",") if k.strip()]
    unknown = set(kinds) - set(bench.TASK_KINDS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown task kinds: {sorted(unknown)}")
    params = None
    if not expert:
        params, _ = model.load_checkpoint(_require(cfg, "checkpoint"))
    network = simworld.build_town(town)
    tasks = bench.generate_suite(town, suite_seed)
    if kinds:
        tasks = [t for t in tasks if t.kind in kinds]
    os.makedirs(os.path.join(out, TRACE_DIRNAME), exist_ok=True)
    results = bench.run_suite(
        network,
        tasks,
        params,
        expert=expert,
        noise_sigma=(knobs["sigma_long"], knobs["sigma_lat"]),
        map_perturb=(knobs["p_remove"], knobs["p_add"]),
        progress=lambda i, t, r: print(
            f"[{i + 1:3d}/{len(tasks)}] {t.kind:<12} seed {t.seed}  "
            f"{'ok' if r.reached_goal else 'FAIL'}  "
            f"{len(r.infractions)} infraction(s)"
        ),
    )
    for task, result in results:
        path = os.path.join(out, TRACE_DIRNAME, f"task_{task.seed}.jsonl")
        _write_trace(path, task, result)
    offline_eval = None
    if cfg.get("offline_data") and not expert:
        samples, _ = dataset.read_dataset(cfg["offline_data"])
        offline_eval = _nan_to_null(model.eval_mae(params, samples))
    _emit_report(results, offline_eval, cfg, out)


def cmd_report(cfg: dict, out: str) -> None:
    trace_dir = _require(cfg, "traces")
    names = sorted(n for n in os.listdir(trace_dir) if n.endswith(".jsonl"))
    if not names:
        raise PolydriveError(f"report: no trace files in {trace_dir}")
    towns = set()
    results = []
    network = None
    for name in names:
        with open(os.path.join(trace_dir, name)) as f:
            header = json.loads(f.readline())
        towns.add(header["town"])
        if len(towns) > 1:
            raise PolydriveError("report: traces span multiple towns")
        if network is None:
            network = simworld.build_town(header["town"])
        results.append(_read_trace(os.path.join(trace_dir, name), network))
    offline_eval = None
    if cfg.get("offline_eval"):
        with open(cfg["offline_eval"]) as f:
            offline_eval = json.load(f).get("mae")
        if offline_eval:  # files written before null replaced NaN
            offline_eval = _nan_to_null(offline_eval)
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
    if out_required and not args.out:
        print(f"polydrive {args.command}: --out is required", file=sys.stderr)
        return 1
    try:
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
