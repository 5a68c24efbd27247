"""Per-layer metrics derived from the spans of a traced run.

Each metric names the polydrive layer (module) it measures.  A layer that a
workload never calls reads 0, which is itself the expected result: e.g.
``control.*`` on datagen and train.
"""

from __future__ import annotations

KERNELS = ("polyline_project", "polyline_point", "segment_features", "integrate_cars", "bin_proximity")

# (metric, unit), in report order.
PER_LAYER = [
    ("simworld.World.step.ms", "ms"),
    ("simworld.World.step.self_ms", "ms"),
    ("simworld.World.step.calls", "count"),
    ("simworld.autopilot_command.us", "us"),
    ("simworld.autopilot_command.calls_per_tick", "calls/tick"),
    ("simworld.record_episode.ms_per_tick", "ms"),
    ("simworld.spawn_scenario.ms", "ms"),
    *[(f"kernels.{k}.{stat}", unit) for k in KERNELS for stat, unit in (("us", "us"), ("calls", "count"))],
    ("dataset.extract_windows.ms_per_sample", "ms"),
    ("dataset.write_dataset.ms_per_sample", "ms"),
    ("dataset.read_dataset.ms_per_sample", "ms"),
    ("dataset.compute_navigation_command.us", "us"),
    ("dataset.assemble_sample.us", "us"),
    ("augment.augment_samples.ms_per_sample", "ms"),
    ("augment.inject_deviation.ms", "ms"),
    ("augment.inject_deviation.calls", "count"),
    ("augment.perturb_positions.us", "us"),
    ("augment.perturb_map_occupancy.us", "us"),
    ("augment.deviated_per_attempt", "ratio"),
    ("model.featurize.ms", "ms"),
    ("model.forward_batch.ms", "ms"),
    ("model.loss_and_grad.ms", "ms"),
    ("model.adam_step.ms", "ms"),
    ("model.eval_loss.s_per_epoch", "s"),
    ("model.eval_mae.s_per_epoch", "s"),
    ("model.predict.ms", "ms"),
    ("model.predict.featurize_ms", "ms"),
    ("model.predict.forward_ms", "ms"),
    ("control.LiveSampler.observe.us", "us"),
    ("control.LiveSampler.build.self_ms", "ms"),
    ("control.live_navigation_command.us", "us"),
    ("control.pid_track.us", "us"),
    ("bench.run_task.s", "s"),
    ("bench.detect_infractions.s_per_task", "s"),
    ("bench.aggregate_report.ms", "ms"),
    ("simworld.EpisodeLog.write_jsonl.ms", "ms"),
    ("simworld.EpisodeLog.read_jsonl.ms", "ms"),
    ("trace.spans", "count"),
    ("trace.samples_per_s", "1/s"),
    ("trace.samples_per_s_untraced", "1/s"),
    ("trace.slowdown", "ratio"),
]
UNITS = dict(PER_LAYER)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer, traced_units, traced_rate: float, base_rate: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced passes of one run.

    ``traced_rate`` and ``base_rate`` are the workload's ``samples_per_s``
    over its traced passes and over the untraced passes of the same inputs:
    the tracing overhead and its base.
    """
    s = tracer.summary()
    empty = {"calls": 0, "failed": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return s.get(name, empty)

    def per_call(name, scale, key="total_s"):
        g = get(name)
        return _div(g[key], g["calls"]) * scale

    def per_item(name, scale):
        g = get(name)
        return _div(g["total_s"], g["items"]) * scale

    def child_per_call(parent, child, scale):
        """Seconds in direct ``child`` calls per ``parent`` call."""
        return _div(tracer.child_durations(parent, child).sum(), get(parent)["calls"]) * scale

    def child_mean(parent, child, scale):
        """Mean duration of the ``child`` calls made directly by ``parent``."""
        d = tracer.child_durations(parent, child)
        return _div(d.sum(), d.size) * scale

    steps = get("simworld.World.step")["calls"]
    m = {
        "simworld.World.step.ms": per_call("simworld.World.step", 1e3),
        "simworld.World.step.self_ms": per_call("simworld.World.step", 1e3, "self_s"),
        "simworld.World.step.calls": steps,
        "simworld.autopilot_command.us": per_call("simworld.autopilot_command", 1e6),
        "simworld.autopilot_command.calls_per_tick": _div(
            get("simworld.autopilot_command")["calls"], steps
        ),
        "simworld.record_episode.ms_per_tick": _div(
            get("simworld.record_episode")["total_s"],
            tracer.child_durations("simworld.record_episode", "simworld.World.step").size,
        ) * 1e3,
        "simworld.spawn_scenario.ms": per_call("simworld.spawn_scenario", 1e3),
    }
    for k in KERNELS:
        m[f"kernels.{k}.us"] = per_call(f"kernels.{k}", 1e6)
        m[f"kernels.{k}.calls"] = get(f"kernels.{k}")["calls"]
    deviated = sum(u.measures.get("deviated", 0) for u in traced_units)
    m.update(
        {
            "dataset.extract_windows.ms_per_sample": per_item("dataset.extract_windows", 1e3),
            "dataset.write_dataset.ms_per_sample": per_item("dataset.write_dataset", 1e3),
            "dataset.read_dataset.ms_per_sample": per_item("dataset.read_dataset", 1e3),
            "dataset.compute_navigation_command.us": per_call("dataset.compute_navigation_command", 1e6),
            "dataset.assemble_sample.us": per_call("dataset.assemble_sample", 1e6),
            "augment.augment_samples.ms_per_sample": per_item("augment.augment_samples", 1e3),
            "augment.inject_deviation.ms": per_call("augment.inject_deviation", 1e3),
            "augment.inject_deviation.calls": get("augment.inject_deviation")["calls"],
            "augment.perturb_positions.us": per_call("augment.perturb_positions", 1e6),
            "augment.perturb_map_occupancy.us": per_call("augment.perturb_map_occupancy", 1e6),
            "augment.deviated_per_attempt": _div(deviated, get("augment.inject_deviation")["calls"]),
            "model.featurize.ms": child_mean("model.train", "model.featurize", 1e3),
            "model.forward_batch.ms": child_mean("model.loss_and_grad", "model.forward_batch", 1e3),
            "model.loss_and_grad.ms": per_call("model.loss_and_grad", 1e3),
            "model.adam_step.ms": per_call("model.adam_step", 1e3),
            "model.eval_loss.s_per_epoch": per_call("model.eval_loss", 1.0),
            "model.eval_mae.s_per_epoch": per_call("model.eval_mae", 1.0),
            "model.predict.ms": per_call("model.predict", 1e3),
            "model.predict.featurize_ms": child_per_call("model.predict", "model.featurize", 1e3),
            "model.predict.forward_ms": child_per_call("model.predict", "model.forward_batch", 1e3),
            "control.LiveSampler.observe.us": per_call("control.LiveSampler.observe", 1e6),
            "control.LiveSampler.build.self_ms": per_call("control.LiveSampler.build", 1e3, "self_s"),
            "control.live_navigation_command.us": per_call("control.live_navigation_command", 1e6),
            "control.pid_track.us": per_call("control.pid_track", 1e6),
            "bench.run_task.s": per_call("bench.run_task", 1.0),
            "bench.detect_infractions.s_per_task": per_call("bench.detect_infractions", 1.0),
            "bench.aggregate_report.ms": per_call("bench.aggregate_report", 1e3),
            "simworld.EpisodeLog.write_jsonl.ms": per_call("simworld.EpisodeLog.write_jsonl", 1e3),
            "simworld.EpisodeLog.read_jsonl.ms": per_call("simworld.EpisodeLog.read_jsonl", 1e3),
            "trace.spans": len(tracer.start),
        }
    )
    m["trace.samples_per_s"] = traced_rate
    m["trace.samples_per_s_untraced"] = base_rate
    m["trace.slowdown"] = _div(base_rate, traced_rate)
    assert set(m) == set(UNITS)
    return m

