"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: around each call into a
hankelnull layer, around each CLI command and around the benchmark's own
phases (one set-up, one operation). Nothing inside the package is
instrumented; the recorder swaps the public functions for wrappers under the
names that `hankelnull.cli` and `hankelnull.validate` look up at call time,
so the CLI's own code path runs unchanged.

Spans are kept in memory and written out once, when the run ends.
"""

import functools
import importlib
import os
import statistics
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field

# Public functions whose calls are layer boundaries. The layer is the module
# that defines the function (`hankelnull.lti_sim` -> `lti_sim`).
TRACED = (
    "generate_dataset", "add_noise", "save_dataset", "load_dataset",
    "aggregate", "save_stats", "load_stats",
    "grid_search", "write_landscape_csv", "write_candidate_json",
    "true_nullspace", "subspace_angle",
)

# The modules whose global names the wrappers replace: the CLI commands and
# `true_nullspace` (which simulates through `hankelnull.validate`) call the
# layers through these names.
PATCHED_MODULES = ("hankelnull.cli", "hankelnull.validate")


def _path_bytes(pos):
    def count(args, kwargs, out):
        return {"bytes": os.path.getsize(args[pos] if len(args) > pos else kwargs["path"])}
    return count


# Work counts taken at the boundary, after the call returns.
COUNTERS = {
    "generate_dataset": lambda a, k, out: {"records": out.Nt},
    "add_noise": lambda a, k, out: {"records": out.Nt},
    "save_dataset": _path_bytes(1),
    "load_dataset": lambda a, k, out: {"records": out.Nt, **_path_bytes(0)(a, k, out)},
    "aggregate": lambda a, k, out: {"records": out.count},
    "save_stats": _path_bytes(1),
    "load_stats": _path_bytes(0),
    "grid_search": lambda a, k, out: {"points": int(out.points.shape[0]), "admitted": int(out.admitted.sum())},
    "write_landscape_csv": _path_bytes(1),
    "write_candidate_json": _path_bytes(1),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one workload run; every span shares run_id."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), float("nan"), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if counter is not None:
                s.counts.update(counter(args, kwargs, out))
            return out

        return traced

    @contextmanager
    def patched(self, api: dict):
        """Swap the wrappers in under the names the CLI and validate modules use.

        Yields the wrapped API for the benchmark's own library calls, and
        restores every original name on exit.
        """
        wrapped = {name: self.wrap(fn) for name, fn in api.items()}
        saved = []
        for modname in PATCHED_MODULES:
            mod = importlib.import_module(modname)
            for name, fn in wrapped.items():
                if hasattr(mod, name):
                    saved.append((mod, name, getattr(mod, name)))
                    setattr(mod, name, fn)
        try:
            yield wrapped
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"run": self.run_id, "id": i, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "counts": s.counts}
                for i, s in enumerate(self.spans)
            ],
        }


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Children run one after another inside their parent (closed loop, one
    thread), so the covered time is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def subtree(spans, root: int) -> list:
    """Indices of the span `root` and all of its descendants."""
    members = {root}
    for i in range(root + 1, len(spans)):  # children are recorded after parents
        if spans[i].parent in members:
            members.add(i)
    return sorted(members)


def _phase(spans, root: int, selfs: list) -> dict:
    """Figures summed over the subtree of one top-level span."""
    acc = {}

    def add(key, v):
        acc[key] = acc.get(key, 0) + v

    for i in subtree(spans, root):
        sp = spans[i]
        layer = layer_of(sp.name)
        if layer == "bench":
            continue
        add(f"{layer}.self_s", selfs[i])
        add(f"{sp.name}.busy_s", sp.duration)
        add(f"{sp.name}.calls", 1)
        if layer == "cli":
            add(f"{sp.name}.self_s", selfs[i])
        for key, v in sp.counts.items():
            add(f"{sp.name}.{key}", v)
    return acc


def summarize(spans) -> tuple:
    """Per-layer figures of one traced run, and the self-time residuals.

    The top-level spans are the benchmark's phases: `bench.setup` and one
    `bench.op` per traced operation. Each figure is the set-up's sum plus
    the median over operations of their sums, so it reads as the cost of
    one set-up and one operation. This is how a layer that runs only in
    set-up (grid-distinct's fixture) and one that runs in every operation
    are both reported.

    Returns (metrics, residuals): metrics maps a per-layer metric name to
    its value; residuals lists, for every CLI command span, its duration
    minus the sum of self times over its subtree, which is zero when the
    self times account for the command's traced wall time.
    """
    selfs = self_times(spans)
    setup, ops = {}, []
    for root, s in enumerate(spans):
        if s.parent is None:
            if s.name == "bench.setup":
                setup = _phase(spans, root, selfs)
            else:
                ops.append(_phase(spans, root, selfs))

    metrics = {}
    for key in sorted(set(setup).union(*ops)):
        per_op = statistics.median(acc.get(key, 0) for acc in ops) if ops else 0
        metrics[key] = setup.get(key, 0) + per_op
    grid = "estimator.grid_search"
    if f"{grid}.points" in metrics:
        metrics[f"{grid}.points_per_s"] = metrics[f"{grid}.points"] / metrics[f"{grid}.busy_s"]
        # one best point per search, out of every admitted candidate re-extracted
        admitted = metrics[f"{grid}.admitted"]
        metrics[f"{grid}.useful_ratio"] = metrics[f"{grid}.calls"] / admitted if admitted else 0.0

    residuals = [
        spans[root].duration - sum(selfs[i] for i in subtree(spans, root))
        for root, s in enumerate(spans)
        if layer_of(s.name) == "cli"
    ]
    return metrics, residuals
