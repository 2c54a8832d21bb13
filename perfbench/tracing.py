"""Outside-in tracing: spans recorded around the public calls ``ust.cli`` makes.

The traced run rebinds names in the ``ust.cli`` namespace (the functions it
imported from ``ust.series``, ``ust.shapelet`` and ``ust.classify``, plus its
own task functions) to timing wrappers, and restores them afterwards.  Spans
stay in memory; counters are computed after the timed section from the
arguments and results the wrappers kept, so they cost the timed run nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager

import counters

# ust.cli attribute -> span name
LAYERS = {
    "run_pipeline": "cli.task",
    "cmd_add_noise": "cli.task",
    "cmd_extract": "cli.task",
    "cmd_transform": "cli.task",
    "cmd_classify": "cli.task",
    "cmd_benchmark": "cli.benchmark",
    "extract_shapelets": "shapelet.extract",
    "shapelet_transform": "shapelet.transform",
    "save_shapelets": "shapelet.json_io",
    "load_shapelets": "shapelet.json_io",
    "encode_best": "classify.encode",
    "encode_flatten": "classify.encode",
    "encode_gaussian": "classify.encode",
    "fit_gaussian_stats": "classify.encode",
    "tree_fit": "classify.tree_fit",
    "tree_predict": "classify.tree_predict",
    "read_feature_csv": "classify.feature_csv_io",
    "write_feature_csv": "classify.feature_csv_io",
    "save_model": "classify.model_io",
    "load_model": "classify.model_io",
    "load_dataset": "series.load_dataset",
    "save_dataset": "series.save_dataset",
    "inject_noise": "series.inject_noise",
}

# calls whose arguments and result feed an exact counter
COUNTED = {"extract_shapelets", "shapelet_transform", "tree_fit", "load_dataset", "inject_noise"}

# artifact reads/writes: attribute -> (bytes counter, index of the path argument)
ARTIFACTS = {
    "save_shapelets": ("shapelet.json_io_bytes", 1),
    "load_shapelets": ("shapelet.json_io_bytes", 0),
    "write_feature_csv": ("classify.feature_csv_io_bytes", 1),
    "read_feature_csv": ("classify.feature_csv_io_bytes", 0),
    "save_model": ("classify.model_io_bytes", 1),
    "load_model": ("classify.model_io_bytes", 0),
}

# Every time metric is a layer all three workloads pass through, so none reads
# 0 on every run; artifact I/O, which only some workloads do, is reported as
# bytes per artifact and as time only inside io_s (which includes loading).
TIMED = ("shapelet.extract", "shapelet.transform", "classify.encode", "classify.tree_fit",
         "classify.tree_predict", "series.load_dataset")
IO_SPANS = ("series.load_dataset", "series.save_dataset", "shapelet.json_io",
            "classify.feature_csv_io", "classify.model_io")
CLI_SPANS = ("cli.task", "cli.benchmark")
ROOT = "workload"


class Recorder:
    """Spans (name, start, end, parent, thread, run) kept in memory.

    A span's parent is the innermost open span of its own thread; a span that
    opens on a worker thread with nothing open hangs under the innermost open
    span of the thread that created the recorder, which is the one that
    started the pool.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()

    @contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            owner_stack = self._stacks.get(self._owner) or [None]
            parent = stack[-1] if stack else owner_stack[-1]
            sid = len(self.spans)
            self.spans.append(
                {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                 "thread": tid, "run": self.run_id}
            )
            stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans[sid]["start"] = start
                self.spans[sid]["end"] = end
                stack.pop()

    def wrap(self, attr: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if attr in COUNTED:
                with self._lock:
                    self.calls.append((attr, args, kwargs, result))
            elif attr in ARTIFACTS:
                size = os.path.getsize(args[ARTIFACTS[attr][1]])
                with self._lock:
                    self.calls.append((attr, (), {}, size))
            return result

        return traced


@contextmanager
def patched(module, recorder: Recorder):
    """Rebind ``module``'s layer names to ``recorder`` wrappers; restore on exit."""
    saved = {}
    for attr, name in LAYERS.items():
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"perfbench: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
            continue
        saved[attr] = fn
        setattr(module, attr, recorder.wrap(attr, name, fn))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = []
    for i, sp in enumerate(spans):
        kids = [(max(s, sp["start"]), min(e, sp["end"])) for s, e in children.get(i, [])]
        out.append((sp["end"] - sp["start"]) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def _extraction_config(args: tuple, kwargs: dict):
    if len(args) > 1:
        return args[1]
    if "config" in kwargs:
        return kwargs["config"]
    from ust.shapelet import ExtractionConfig

    return ExtractionConfig()


def layer_metrics(recorder: Recorder, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced timed section (root span ``workload``)."""
    spans = recorder.spans
    selfs = self_times(spans)
    (root,) = [i for i, sp in enumerate(spans) if sp["name"] == ROOT]
    wall = spans[root]["end"] - spans[root]["start"]

    self_by: dict[str, float] = {}
    dur_by: dict[str, float] = {}
    for sp, st in zip(spans, selfs):
        self_by[sp["name"]] = self_by.get(sp["name"], 0.0) + st
        dur_by[sp["name"]] = dur_by.get(sp["name"], 0.0) + sp["end"] - sp["start"]

    m = {f"{name}_s": self_by.get(name, 0.0) for name in TIMED}
    m["series_s"] = sum(t for name, t in self_by.items() if name.startswith("series."))
    m["io_s"] = sum(self_by.get(name, 0.0) for name in IO_SPANS)
    m["cli.task_s"] = dur_by.get("cli.task", 0.0)
    m["cli.self_s"] = sum(self_by.get(n, 0.0) for n in CLI_SPANS)
    m["cli.pool_busy_frac"] = m["cli.task_s"] / (jobs * wall)
    m["trace.wall_s"] = wall
    m["trace.unattributed_frac"] = selfs[root] / wall

    cnt = dict.fromkeys(
        ("shapelet.candidates", "shapelet.distance_cells", "shapelet.kernel_bytes",
         "shapelet.transform_cells", "classify.tree_nodes", "classify.tree_depth",
         "classify.split_scans", "series.values_loaded", "series.noise_values",
         *{counter for counter, _ in ARTIFACTS.values()}),
        0,
    )
    for attr, args, kwargs, result in recorder.calls:
        if attr == "extract_shapelets":
            train, cfg = args[0], _extraction_config(args, kwargs)
            shape = (len(train), train.series_length, cfg.min_len, cfg.max_len, cfg.candidate_stride)
            cnt["shapelet.candidates"] += counters.candidates(*shape)
            cnt["shapelet.distance_cells"] += counters.distance_cells(*shape)
            cnt["shapelet.kernel_bytes"] += counters.kernel_bytes(*shape)
        elif attr == "shapelet_transform":
            data, shapelets = args[0], args[1]
            cnt["shapelet.transform_cells"] += counters.transform_cells(
                len(data), data.series_length, [sh.length for sh in shapelets]
            )
        elif attr == "tree_fit":
            nodes, depth = counters.tree_shape(result.root)
            cnt["classify.tree_nodes"] += nodes
            cnt["classify.tree_depth"] = max(cnt["classify.tree_depth"], depth)
            cnt["classify.split_scans"] += counters.split_scans(result.root, args[0].features)
        elif attr == "load_dataset":
            with_unc = (len(args) > 1 and args[1] is not None) or kwargs.get("uncertainty_path") is not None
            cnt["series.values_loaded"] += len(result) * result.series_length * (2 if with_unc else 1)
        elif attr == "inject_noise":
            cnt["series.noise_values"] += len(args[0]) * args[0].series_length
        else:
            cnt[ARTIFACTS[attr][0]] += result
    m.update(cnt)
    extract_s = m["shapelet.extract_s"]
    m["shapelet.cells_per_s"] = cnt["shapelet.distance_cells"] / extract_s if extract_s > 0 else 0.0
    return m
