"""Check that the benchmark is steady, and record its numbers at a commit.

    python3 perfbench/prove.py --seeds 0-9 [--workloads a,b] [--out perfbench/baseline.json]

Runs the benchmark command from BENCHMARK.json once per seed and workload
with tracing off, then once traced at the first seed.  For every end-to-end
metric it prints the median and the quartile spread (Q3 − Q1 over the
median, quartiles from ``statistics.quantiles(n=4)``) against the metric's
bound; the spread should stay below a third of the bound.  The traced run
is checked against each workload's predicted dominant layer.  With
``--out`` the numbers, the machine and the workload sizes are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

INPUTS = {
    "extract-motif": {**workloads.EM, "split": "train and test, n rows each"},
    "split-classify": {**workloads.SC, "split": "train and test, n rows each; extract on extract_n train rows"},
    "archive-cli": {**workloads.AC, "data": str(workloads.FIXTURES), "modes": list(workloads.MODES)},
}

# predicted dominant layer per workload, checked on the traced run
PREDICTIONS = {
    "extract-motif": "shapelet.extract_s >= 90% of traced wall_s",
    "split-classify": "shapelet.extract_s <= 15% of traced wall_s; classify.tree_fit_s plus "
                      "io_s (dataset, feature CSV, model and shapelet files) make up most of it",
    "archive-cli": "shapelet.extract_s dominates the task spans; cli.pool_busy_frac shows "
                   "how busy the 2-thread pool is",
}
SETUP = ("median over repetitions of: importing numpy and ust, building the seeded inputs and "
         "writing them as TSV under perfbench/.work (archive-cli reads only the fixture row "
         "counts); every workload parses its TSV inputs inside the timed section")
CACHES = ("cold: each repetition is a fresh process, so the ust lru_cache entropy table and "
          "every other in-process cache start empty, as in one CLI call; the OS page cache is "
          "warm after the first repetition")


def check_prediction(workload: str, m: dict[str, float]) -> tuple[bool, str]:
    wall = m["trace.wall_s"]
    extract = m["shapelet.extract_s"] / wall
    if workload == "extract-motif":
        return extract >= 0.90, f"extract {extract:.1%} of wall"
    if workload == "split-classify":
        fit_io = (m["classify.tree_fit_s"] + m["io_s"]) / wall
        return extract <= 0.15 and fit_io > 0.5, f"extract {extract:.1%}, tree fit + I/O {fit_io:.1%} of wall"
    share = m["shapelet.extract_s"] / m["cli.task_s"]
    return share > 0.5, f"extract {share:.1%} of task time, pool busy {m['cli.pool_busy_frac']:.1%}"


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = spec.COMMAND + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: outputs not correct:\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--out", default=None)
    args = p.parse_args()
    seeds = run.parse_seeds(args.seeds)
    steady = True
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "platform": platform.platform(),
        },
        "run_seconds": spec.RUN_SECONDS,
        "setup_s": SETUP,
        "caches": CACHES,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, 0) for seed in seeds]
        print(f"== {workload}: {len(runs)} runs, seeds {args.seeds}", flush=True)
        e2e = {}
        for name, unit, _, bound in spec.END_TO_END:
            values = [r[name] for r in runs]
            s = spread(values)
            ok = s < bound / 3 or name == "setup_s"
            steady &= ok
            e2e[name] = {"median": statistics.median(values), "unit": unit,
                         "spread": s, "bound": bound, "values": values}
            print(f"{name:16s} median {statistics.median(values):12.6g} {unit:9s} "
                  f"spread {s:7.2%} bound {bound:.0%} {'ok' if ok else 'TOO WIDE'}", flush=True)
        layers = bench(workload, seeds[0], 1)
        met, how = check_prediction(workload, layers)
        print(f"prediction {'met' if met else 'NOT MET'}: {how}", flush=True)
        doc["workloads"][workload] = {
            "why": spec.WORKLOADS[workload],
            "inputs": INPUTS[workload],
            "predicted_dominant_layer": PREDICTIONS[workload],
            "prediction_check": {"met": met, "observed": how},
            "end_to_end": e2e,
            "per_layer_at_first_seed": layers,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
