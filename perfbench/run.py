"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs in a fresh process
(``child.py``): it imports ``ust`` from ``src/``, builds the workload's inputs
from the seed (set-up), then times the workload (the timed section).
Repetitions continue until ``--seconds`` is used up, at least MIN_REPS of
them; every metric is the median over repetitions.  With ``--trace 1`` the
repetitions alternate untraced and traced, the per-layer metrics come
from the traced ones, and their spans are written to
``perfbench/.traces/<workload>-seed<N>.jsonl``.

Outputs are checked twice per repetition: against the digests recorded in
``digests.json`` for the seed (when it was recorded) and against the first
repetition of the run, besides the independent checks in ``workloads.py``.
The last line of stdout is one JSON object; the exit code is nonzero when
any check fails.

Maintenance:

    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json
    python3 perfbench/run.py --record-digests 0-29 [--workload NAME]
                                                   # record output digests
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
TRACES = HERE / ".traces"
CHILD_TIMEOUT_S = 170
MIN_REPS = 3

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


class BenchError(RuntimeError):
    pass


def check_checkout(workload: str) -> None:
    if not (ROOT / "src" / "ust" / "__init__.py").is_file():
        raise BenchError(f"{ROOT}: no src/ust package to benchmark")
    if workload == "archive-cli" and not (ROOT / "tests" / "fixtures" / "benchmark").is_dir():
        raise BenchError(f"{ROOT}: no tests/fixtures/benchmark archive")


def run_child(workload: str, seed: int, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--work", str(work)] + (["--trace"] if trace else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed} repetition failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def score_tasks(reps: list[dict], recorded: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every task of every repetition."""
    first = {t["name"]: t["digest"] for t in reps[0]["tasks"]}
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {p}" for p in rep["problems"]]
        for t in rep["tasks"]:
            attempted += 1
            why = ""
            if t["error"]:
                why = f"error {t['error']}"
            elif recorded is not None and recorded.get(t["name"]) != t["digest"]:
                why = f"digest {t['digest']} != recorded {recorded.get(t['name'])}"
            elif t["digest"] != first.get(t["name"]):
                why = f"digest {t['digest']} differs from repetition 0"
            if why:
                failed += 1
                problems.append(f"rep {i}: task {t['name']}: {why}")
    return attempted, failed, problems


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, float]:
    wall = statistics.median(r["wall_s"] for r in reps)
    accs = reps[0]["accuracies"]
    return {
        "wall_s": wall,
        "series_per_s": reps[0]["series"] / wall,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "accuracy_mean": sum(accs) / len(accs) if accs else 0.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    layers = [r["layers"] for r in traced]
    out = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    problems = []
    for name, _, _ in spec.PER_LAYER:
        if spec.is_count(name) and len({l[name] for l in layers}) != 1:
            problems.append(f"counter {name} did not repeat: {[l[name] for l in layers]}")
    if out["trace.unattributed_frac"] > spec.MAX_UNATTRIBUTED:
        problems.append(
            f"spans and cli.self_s leave {out['trace.unattributed_frac']:.1%} of the traced wall unaccounted"
        )
    return out, problems


def write_spans(path: Path, traced_reps: list[dict]) -> None:
    """One JSON line per span; times in seconds from the start of its timed section."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, rep in enumerate(traced_reps):
            for sp in rep["spans"]:
                fh.write(json.dumps(dict(sp, rep=i)) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    check_checkout(workload)
    min_reps = 4 if trace else MIN_REPS  # traced runs: 2 untraced + 2 traced at least
    reps: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append((traced, run_child(workload, seed, traced)))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and len(reps) % (2 if trace else 1) == 0:
            if elapsed * (len(reps) + 1) / len(reps) > seconds:
                break

    all_reps = [r for _, r in reps]
    recorded = load_digests().get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"perfbench: no digests recorded for {workload} seed {seed}; "
              "checking repeatability and references only", file=sys.stderr)
    attempted, failed, problems = score_tasks(all_reps, recorded)
    units = {n: u for n, u, _, _ in spec.END_TO_END}
    if trace:
        traced_reps = [r for t, r in reps if t]
        metrics, more = per_layer([r for t, r in reps if not t], traced_reps)
        problems += more
        units = {n: u for n, u, _ in spec.PER_LAYER}
        write_spans(TRACES / f"{workload}-seed{seed}.jsonl", traced_reps)
    else:
        metrics = end_to_end(all_reps, attempted, failed)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"# {workload} seed {seed}: {len(reps)} repetitions in {time.perf_counter() - start:.1f} s")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>18.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return result, 0 if result["correct"] else 1


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record_digests(seeds: list[int], names: list[str]) -> int:
    digests = load_digests()
    for workload in names:
        check_checkout(workload)
        for seed in seeds:
            rep = run_child(workload, seed, False)
            bad = rep["problems"] + [t["error"] for t in rep["tasks"] if t["error"]]
            if bad:
                raise BenchError(f"{workload} seed {seed}: not recording failing outputs: {bad}")
            digests.setdefault(workload, {})[str(seed)] = {t["name"]: t["digest"] for t in rep["tasks"]}
            print(f"{workload} seed {seed}: recorded {len(rep['tasks'])} task digests", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    p.add_argument("--record-digests", metavar="SEEDS", help="e.g. 0-39: record output digests")
    args = p.parse_args(argv)
    try:
        if args.write_spec:
            (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
            return 0
        if args.record_digests:
            names = [args.workload] if args.workload else list(spec.WORKLOADS)
            return record_digests(parse_seeds(args.record_digests), names)
        if args.workload is None:
            p.error("--workload is required")
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))[1]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
