"""In-memory span recorder that wraps polydrive functions from the outside.

A traced pass replaces each function or method in ``TRACED`` with a wrapper
that records one span: name, start, end, parent span, task id, an item
count and whether the call raised.  Every module attribute that refers to
the same function object is replaced too, so a call is seen whether it goes
through ``module.f`` or through a ``from .module import f`` alias.
``Tracer.restore`` puts the originals back, so untraced passes run the
unmodified code.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import array
import importlib
import sys
import time

import numpy as np

PACKAGE = "polydrive"


def _n_out(args, out):
    return len(out)


def _n_first_arg(args, out):
    return len(args[0])


def _n_read(args, out):
    return len(out[0])


# (module, qualified name, item counter).  The counter turns a span into a
# per-item cost, e.g. write_dataset milliseconds per sample written.
TRACED = [
    ("simworld", "World.step", None),
    ("simworld", "autopilot_command", None),
    ("simworld", "record_episode", None),
    ("simworld", "spawn_scenario", None),
    ("simworld", "EpisodeLog.write_jsonl", None),
    ("simworld", "EpisodeLog.read_jsonl", None),
    ("kernels", "polyline_project", None),
    ("kernels", "polyline_point", None),
    ("kernels", "segment_features", None),
    ("kernels", "integrate_cars", None),
    ("kernels", "bin_proximity", None),
    ("dataset", "extract_windows", _n_out),
    ("dataset", "write_dataset", _n_first_arg),
    ("dataset", "read_dataset", _n_read),
    ("dataset", "compute_navigation_command", None),
    ("dataset", "assemble_sample", None),
    ("augment", "augment_samples", _n_first_arg),
    ("augment", "inject_deviation", None),
    ("augment", "perturb_positions", None),
    ("augment", "perturb_map_occupancy", None),
    ("model", "featurize", _n_first_arg),
    ("model", "forward_batch", None),
    ("model", "loss_and_grad", None),
    ("model", "adam_step", None),
    ("model", "eval_loss", None),
    ("model", "eval_mae", None),
    ("model", "predict", None),
    ("model", "train", None),
    ("model", "save_checkpoint", None),
    ("control", "LiveSampler.observe", None),
    ("control", "LiveSampler.build", None),
    ("control", "live_navigation_command", None),
    ("control", "pid_track", None),
    ("control", "drive_task", None),
    ("bench", "generate_suite", None),
    ("bench", "run_task", None),
    ("bench", "detect_infractions", None),
    ("bench", "aggregate_report", None),
]


class Tracer:
    """Span store plus the patching that feeds it; one per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name_id = array.array("i")
        self.task = array.array("q")
        self.items = array.array("q")
        self.failed = array.array("b")
        self.task_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, count):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        start, end, parent = self.start, self.end, self.parent
        name_id, task, items, failed = self.name_id, self.task, self.items, self.failed
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            task.append(tracer.task_id)
            items.append(0)
            failed.append(1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            failed[idx] = 0
            if count is not None:
                items[idx] = count(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every entry of ``TRACED`` that exists in the loaded package."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ]
        for mod_name, qualname, count in TRACED:
            name = f"{mod_name}.{qualname}"
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, count)))
                continue
            wrapped = self._wrap(name, raw, count)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._set(m, key, wrapped)

    def _set(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "start": start,
            "end": end,
            "parent": parent,
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int64),
            "items": np.frombuffer(self.items, dtype=np.int64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, items, total and self seconds."""
        a = self.arrays()
        k = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=a["dur"], minlength=k)
        self_s = np.bincount(ids, weights=a["self"], minlength=k)
        items = np.bincount(ids, weights=a["items"], minlength=k)
        failed = np.bincount(ids, weights=a["failed"], minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "failed": int(failed[i]),
                "items": int(items[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def child_durations(self, parent_name: str, child_name: str) -> np.ndarray:
        """Durations of the ``child_name`` calls made directly by ``parent_name``."""
        if parent_name not in self.names or child_name not in self.names:
            return np.zeros(0)
        a = self.arrays()
        pid = self.names.index(parent_name)
        cid = self.names.index(child_name)
        mask = a["name_id"] == cid
        par = a["parent"][mask]
        hits = par >= 0
        hits[hits] = a["name_id"][par[hits]] == pid
        return a["dur"][mask][hits]

    def write(self, path) -> None:
        """Dump every span (the raw trace) as one ``.npz``."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("start", "end", "parent", "name_id", "task", "items", "failed")},
        )
