"""One measured repetition of a workload, in a fresh process.

A fresh process per repetition gives each its own ``ru_maxrss`` and starts
every in-process cache cold (the ``lru_cache`` entropy table included), as a
CLI invocation does.  Prints one JSON line for ``run.py``.

    python3 perfbench/child.py --workload NAME --seed N --work DIR [--trace]
"""

import time

T0 = time.perf_counter()  # set-up starts before numpy and ust are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import ust.cli
    import tracing
    import workloads

    setup, run, finish, jobs = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, Path(args.work))
    setup_s = time.perf_counter() - T0

    layers = spans = None
    if args.trace:
        rec = tracing.Recorder(f"{args.workload}/{args.seed}/{os.getpid()}")
        with tracing.patched(ust.cli, rec), rec.span(tracing.ROOT):
            t1 = time.perf_counter()
            out = run(state)
            wall_s = time.perf_counter() - t1
        layers = tracing.layer_metrics(rec, jobs)
        spans = [dict(sp, start=sp["start"] - t1, end=sp["end"] - t1) for sp in rec.spans]
    else:
        t1 = time.perf_counter()
        out = run(state)
        wall_s = time.perf_counter() - t1

    outcome = finish(state, out)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": outcome.tasks,
        "accuracies": outcome.accuracies,
        "series": outcome.series,
        "problems": outcome.problems,
        "layers": layers,
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
