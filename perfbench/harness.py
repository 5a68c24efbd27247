"""One benchmark run: set-up, measured units, repeats, checks and the report.

Untraced run (``trace=False``): the set-up runs and is timed, then every
input of the workload runs ``runs_per_input(seconds)`` times, in turns.  The
count depends on ``seconds`` and the workload, never on how fast the units
run.  The other timed set-up repeats run between rounds, on instances of
their own.  A repeated input or set-up must write the same bytes each time.
The end-to-end metrics come from all measured units.

Traced run (``trace=True``): half as many rounds, in each of which every
input runs untraced and then traced.  The traced passes give the per-layer
metrics; the untraced ones are the base of the tracing overhead, and both
must write equal bytes.

``TIME_CAP_S`` only keeps a run far slower than the reference host under
the benchmark's time limit: past it, no new round starts once every input
has run twice.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import layers
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
TIME_CAP_S = 120.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_per_s": "1/s",
    "bytes_per_sample": "B",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
}
NAMED_UNITS = {
    "record_samples_per_s": "1/s",
    "augment_samples_per_s": "1/s",
    "dataset_bytes_per_sample": "B",
    "train_samples_per_s": "1/s",
    "closedloop_ticks_per_s": "1/s",
    "report_s_per_task": "s",
    "trace_bytes_per_agent_tick": "B",
    **{f"{step}_ms_p{q}": "ms" for step in ("record_tick", "train_step", "tick") for q in (50, 95, 99)},
    **{f"{rate}_median_run": "1/s" for rate in
       ("record_samples_per_s", "train_samples_per_s", "closedloop_ticks_per_s")},
}


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def digest_status(stored: dict | None, digests: dict[str, str]) -> dict:
    """Compare this run's digests with the stored ones; never fails the run."""
    if not stored:
        return {"status": "no stored digests for this seed", "compared": 0, "differ": []}
    common = sorted(set(stored) & set(digests))
    differ = [k for k in common if stored[k] != digests[k]]
    status = "match" if common and not differ else ("differ" if differ else "nothing to compare")
    return {"status": status, "compared": len(common), "differ": differ}


def run(workload: str, seed: int, seconds: float, trace: bool, config=None, out_root=None):
    """Run one workload; returns the full report (a dict)."""
    root = out_root or os.path.join(os.path.dirname(HERE), ".perfbench_out")
    out_dir = os.path.join(root, f"{workload}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cls = workloads.WORKLOADS[workload]
    wl = cls(seed, out_dir, config or workloads.DEFAULT_CONFIGS[workload])
    clock = time.perf_counter
    checks: list[str] = []
    digests: dict[str, str] = {}
    seen: dict[str, dict[str, str]] = {}

    def keep(key: str, unit_digests: dict[str, str]) -> None:
        earlier = seen.setdefault(key, {})
        differ = [n for n in unit_digests if n in earlier and earlier[n] != unit_digests[n]]
        if differ:
            checks.append(f"{workload}: repeat of {key} wrote different bytes: {differ}")
        for name, digest in unit_digests.items():
            earlier.setdefault(name, digest)
            digests.setdefault(f"{key}/{name}", digest)

    def check(unit) -> None:
        keep(unit.key, unit.digests)
        checks.extend(unit.checks)

    setup_times: list[float] = []
    setup_dir = os.path.join(out_dir, "setup")

    def timed_setup(instance) -> None:
        t0 = clock()
        setup_digests = instance.setup()
        setup_times.append(clock() - t0)
        keep("setup", setup_digests)

    timed_setup(wl)

    tracer = Tracer() if trace else None
    attempted = failed = 0
    units: list[workloads.Unit] = []
    base: list[workloads.Unit] = []
    final = None
    i = k = 0
    runs = wl.runs_per_input(seconds)
    rounds, min_rounds = (max(1, runs // 2), 1) if trace else (runs, 2)

    def more_setups(done_rounds: int) -> None:
        """The other set-up repeats, spread evenly over the measured rounds,
        so that their median samples the host over the whole run.  Each sets
        up a fresh instance of its own; the measured one keeps its state."""
        due = 1 + (wl.setup_repeats - 1) * done_rounds // rounds
        while len(setup_times) < min(due, wl.setup_repeats):
            os.makedirs(setup_dir, exist_ok=True)
            timed_setup(cls(seed, setup_dir, wl.config))

    t_start = clock()
    try:
        for i in range(rounds * wl.inputs):
            if i >= min_rounds * wl.inputs and clock() - t_start > TIME_CAP_S:
                break
            if i and i % wl.inputs == 0:
                more_setups(i // wl.inputs)
            k = wl.unit_input(i)
            if trace:
                attempted += wl.planned_ops(k)
                base.append(wl.run_unit(k))
                check(base[-1])
                tracer.task_id = k
                tracer.install()
            attempted += wl.planned_ops(k)
            try:
                units.append(wl.run_unit(k))
            finally:
                if trace:
                    tracer.restore()
            check(units[-1])
        if trace:
            tracer.task_id = -1
            tracer.install()
        try:
            final = wl.finish(units)
        finally:
            if trace:
                tracer.restore()
        if final is not None:
            check(final)
        more_setups(rounds)
    except Exception:  # one failed op ends the run; it is reported, not hidden
        traceback.print_exc()
        failed += wl.planned_ops(k)
        checks.append(f"{workload}: unit {i} (input {k}) raised {sys.exc_info()[0].__name__}")
    measured_s = clock() - t_start

    metrics: dict[str, dict] = {}
    named: dict[str, dict] = {}
    if not failed:
        values = wl.named_metrics(units, final)
        named = {k: {"value": float(v), "unit": NAMED_UNITS[k]} for k, v in values.items()}
        if trace:
            rate = wl.common["samples_per_s"]
            values = layers.per_layer_metrics(
                tracer, units, values[rate], wl.named_metrics(base, final)[rate]
            )
            units_of = layers.UNITS
            tracer.write(os.path.join(out_dir, "spans.npz"))
            with open(os.path.join(out_dir, "spans_summary.json"), "w") as f:
                json.dump(tracer.summary(), f, indent=1, sort_keys=True)
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **{k: values[v] for k, v in wl.common.items()},
            }
            units_of = END_TO_END_UNITS
        metrics = {k: {"value": float(v), "unit": units_of[k]} for k, v in values.items()}

    reference = _load_reference()
    stored = reference["digests"].get(workload, {}).get(str(seed))
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "config": wl.describe(),
        "environment": environment(),
        "measured_s": measured_s,
        "units": len(units),
        "runs_per_input": runs,
        "setup_s_each": setup_times,
        "ops": {"name": wl.op_name, "attempted": attempted, "failed": failed,
                "failed_ops_ratio": failed / attempted if attempted else 0.0},
        "correctness": {
            "checks_failed": checks,
            "digests": digests,
            "stored_digests": digest_status(stored, digests),
        },
        "known_gaps": reference["known_gaps"],
        "step_stamp_us": workloads.step_hook_cost_us(),
        "common_metrics": wl.common,
        "named_metrics": named,
        "traced_functions_missing": tracer.missing if trace else [],
        "metrics": metrics,
        "correct": not checks and not failed,
    }
    with open(os.path.join(out_dir, "perfbench_report.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def print_report(report: dict) -> None:
    """Human-readable block, then the one-line JSON result as the last line."""
    print(f"perfbench {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {int(report['trace'])}")
    for k, v in report["environment"].items():
        print(f"  env     {k:<22} {v}")
    for k, v in report["config"].items():
        print(f"  config  {k:<22} {v}")
    ops = report["ops"]
    print(f"  ops     {ops['attempted']} {ops['name']}(s) attempted, {ops['failed']} failed "
          f"(failed_ops_ratio {ops['failed_ops_ratio']:.4g} of {ops['attempted']})")
    print(f"  units   {report['units']} measured in {report['measured_s']:.2f} s "
          f"({report['runs_per_input']} runs of each input planned)")
    print(f"  hook    {report['step_stamp_us']:.3f} us per stamped step "
          "(the only hook of an untraced run)")
    for name, m in report["named_metrics"].items():
        print(f"  named   {name:<44} {m['value']:>14.6g} {m['unit']}")
    for common, name in report["common_metrics"].items():
        print(f"  maps    {common:<44} <- {name}")
    if report["traced_functions_missing"]:
        print(f"  missing {report['traced_functions_missing']}")
    for name, m in report["metrics"].items():
        print(f"  metric  {name:<44} {m['value']:>14.6g} {m['unit']}")
    corr = report["correctness"]
    for k, v in sorted(corr["digests"].items()):
        print(f"  sha256  {k:<44} {v}")
    print(f"  stored digests: {corr['stored_digests']}")
    for msg in corr["checks_failed"]:
        print(f"  FAILED  {msg}")
    for gap in report["known_gaps"]:
        print(f"  gap     {gap}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["ops"]["attempted"],
        "failed": report["ops"]["failed"],
        "metrics": report["metrics"],
    }))
