"""What the benchmark measures: workloads, metrics and their bounds.

This table is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 perfbench/run.py --write-spec`` regenerates that file from
it, and the tests check that the two agree.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

# name -> one-line reason it exists (BENCHMARK.json carries only name + why;
# sizes, predictions and numbers at seed live in perfbench/baseline.json).
WORKLOADS = {
    "extract-motif": (
        "run_pipeline ust-flat, n=30+30, m=50, min_len 3, stride 1: the candidate "
        "distance kernel and split sweep do ~all the work; shapelet.extract dominates"
    ),
    "split-classify": (
        "step-by-step CLI: extract k=15 on 45 rows, transform 3000x60 per split, classify 3 "
        "modes at depth 5; CART, TSV/CSV I/O and transform dominate, extraction ~a tenth"
    ),
    "archive-cli": (
        "ust benchmark on tests/fixtures/benchmark, 3 modes, --jobs 2: per-task fixed "
        "costs and thread contention of the paper's ST-vs-UST comparison path"
    ),
}

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  Timing
# bounds are wide because a shared 2-core machine drifts by ±20% within
# seconds (a fixed pure-Python loop ranged 0.16-0.24 s over 12 s).  ok_frac
# is 1 - failed/attempted, so that no metric reads 0 on a healthy run.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("series_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("accuracy_mean", "fraction", "higher", 0.25),
    ("ok_frac", "fraction", "higher", 0.01),
]

# (name, unit, better) measured in the traced run only.
PER_LAYER = [
    ("shapelet.extract_s", "s", "lower"),
    ("shapelet.candidates", "count", "lower"),
    ("shapelet.distance_cells", "count", "lower"),
    ("shapelet.cells_per_s", "1/s", "higher"),
    ("shapelet.kernel_bytes", "B", "lower"),
    ("shapelet.transform_s", "s", "lower"),
    ("shapelet.transform_cells", "count", "lower"),
    ("shapelet.json_io_bytes", "B", "lower"),
    ("classify.encode_s", "s", "lower"),
    ("classify.tree_fit_s", "s", "lower"),
    ("classify.tree_nodes", "count", "lower"),
    ("classify.tree_depth", "count", "lower"),
    ("classify.split_scans", "count", "lower"),
    ("classify.tree_predict_s", "s", "lower"),
    ("classify.feature_csv_io_bytes", "B", "lower"),
    ("classify.model_io_bytes", "B", "lower"),
    ("series_s", "s", "lower"),
    ("series.load_dataset_s", "s", "lower"),
    ("series.values_loaded", "count", "lower"),
    ("series.noise_values", "count", "lower"),
    ("io_s", "s", "lower"),
    ("cli.task_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.pool_busy_frac", "fraction", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


# A traced run fails its check when spans leave more of the wall than this
# unaccounted for.
MAX_UNATTRIBUTED = 0.05


def is_count(name: str) -> bool:
    """Counters must repeat exactly between repetitions of one seed."""
    return {n: u for n, u, _ in PER_LAYER}[name] in ("count", "B")


def benchmark_json() -> str:
    doc = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(doc, indent=2) + "\n"
