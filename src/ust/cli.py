"""Command-line entry point: noise injection, extraction, transform,
classification, and the uncertainty-aware vs classical benchmark harness.

Subcommands exchange the documented file artifacts (TSV datasets, JSON
shapelet sets, CSV feature matrices, JSON models), so a pipeline can run
step by step or in one process via ``benchmark``; both give identical
predictions for the same seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import (
    EncodedMatrix,
    PipelineModel,
    TreeParams,
    encode_best,
    encode_flatten,
    encode_gaussian,
    evaluate,
    fit_gaussian_stats,
    save_model,
    tree_fit,
    tree_predict,
)
from .series import (
    NoiseSpec,
    UncertainDataset,
    dataset_std,
    derive_split_seeds,
    format_real,
    inject_noise,
    load_dataset,
    read_feature_csv,
    save_dataset,
    write_feature_csv,
)
from .shapelet import (
    ExtractionConfig,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)

__all__ = ["main", "run_pipeline", "PipelineResult", "RunConfig", "BenchmarkRow", "MODES"]

MODES = ("st", "ust-flat", "ust-gauss")

REPORT_HEADER = [
    "dataset",
    "mode",
    "seed",
    "k",
    "accuracy",
    "extract_s",
    "transform_s",
    "fit_s",
    "predict_s",
    "error",
]


@dataclass(frozen=True)
class RunConfig:
    """Shared pipeline knobs for one run (mode plus model settings)."""

    mode: str = "ust-flat"
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    tree: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")


@dataclass
class PipelineResult:
    predictions: list[str]
    accuracy: float
    shapelet_count: int
    model: PipelineModel
    extract_s: float
    transform_s: float
    fit_s: float
    predict_s: float


def _strip_uncertainty(d: UncertainDataset) -> UncertainDataset:
    return UncertainDataset.from_arrays(d.best, np.zeros_like(d.best), d.labels)


def _encode_for_mode(
    mode: str, train: UncertainDataset, test: UncertainDataset
) -> tuple[EncodedMatrix, EncodedMatrix]:
    if mode == "st":
        return encode_best(train), encode_best(test)
    if mode == "ust-flat":
        return encode_flatten(train), encode_flatten(test)
    stats = fit_gaussian_stats(train)
    return encode_gaussian(train, stats), encode_gaussian(test, stats)


def run_pipeline(
    train: UncertainDataset, test: UncertainDataset, config: RunConfig
) -> PipelineResult:
    """Extract, transform, fit and predict in-process.

    Mode ``st`` ignores uncertainties entirely (the classical pipeline on
    best estimates); the two ``ust-*`` modes propagate them into the feature
    matrix and differ only in how features are encoded for the tree.
    """
    if config.mode == "st":
        train = _strip_uncertainty(train)
        test = _strip_uncertainty(test)

    t0 = time.perf_counter()
    shapelets = extract_shapelets(train, config.extraction)
    t1 = time.perf_counter()
    f_train = shapelet_transform(train, shapelets)
    f_test = shapelet_transform(test, shapelets)
    t2 = time.perf_counter()
    e_train, e_test = _encode_for_mode(config.mode, f_train, f_test)
    tree = tree_fit(e_train, config.tree)
    t3 = time.perf_counter()
    predictions = tree_predict(tree, e_test)
    t4 = time.perf_counter()

    accuracy = evaluate(predictions, test.labels)
    model = PipelineModel(e_train.encoding, e_train.stats, tree)
    return PipelineResult(
        predictions=predictions,
        accuracy=accuracy,
        shapelet_count=len(shapelets),
        model=model,
        extract_s=t1 - t0,
        transform_s=t2 - t1,
        fit_s=t3 - t2,
        predict_s=t4 - t3,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _extraction_from_args(args: argparse.Namespace) -> ExtractionConfig:
    return ExtractionConfig(
        min_len=args.min_len,
        max_len=args.max_len,
        k=args.k,
        candidate_stride=args.stride,
    )


def _tree_from_args(args: argparse.Namespace) -> TreeParams:
    return TreeParams(max_depth=args.max_depth, min_samples_leaf=args.min_samples_leaf)


def cmd_add_noise(args: argparse.Namespace) -> int:
    data = load_dataset(args.input)
    spec = NoiseSpec(seed=args.seed, fixed_scale=args.sigma)
    noisy = inject_noise(data, spec)
    save_dataset(noisy, args.out_values, args.out_uncertainties)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    train = load_dataset(args.data, args.uncertainties)
    shapelets = extract_shapelets(train, _extraction_from_args(args))
    save_shapelets(shapelets, args.out)
    print(f"extracted {len(shapelets)} shapelets -> {args.out}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    data = load_dataset(args.data, args.uncertainties)
    shapelets = load_shapelets(args.shapelets)
    features = shapelet_transform(data, shapelets)
    write_feature_csv(features, args.out)
    print(f"wrote {len(features)}x{features.series_length} feature matrix -> {args.out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    train = read_feature_csv(args.train_features)
    test = read_feature_csv(args.test_features)
    if args.mode == "st" and (train.uncertainty.any() or test.uncertainty.any()):
        warnings.warn(
            "mode st ignores uncertainties: best estimates used, deltas dropped",
            RuntimeWarning,
            stacklevel=1,
        )
    e_train, e_test = _encode_for_mode(args.mode, train, test)
    tree = tree_fit(e_train, _tree_from_args(args))
    predictions = tree_predict(tree, e_test)
    accuracy = evaluate(predictions, test.labels)
    if args.model_out:
        save_model(PipelineModel(e_train.encoding, e_train.stats, tree), args.model_out)
    if args.predictions_out:
        with open(args.predictions_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(predictions) + "\n")
    print(f"accuracy {format_real(accuracy)}")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkRow:
    dataset: str
    mode: str
    seed: int
    result: PipelineResult | None = None
    error: str = ""


def _discover_datasets(data_dir: Path) -> list[tuple[str, Path, Path]]:
    found = []
    for sub in sorted(p for p in data_dir.iterdir() if p.is_dir()):
        train = sub / f"{sub.name}_TRAIN.tsv"
        test = sub / f"{sub.name}_TEST.tsv"
        if train.is_file() and test.is_file():
            found.append((sub.name, train, test))
    if not found:
        raise FileNotFoundError(
            f"{data_dir}: no dataset directories with <name>_TRAIN.tsv / <name>_TEST.tsv found"
        )
    return found


def _prepare_noisy(
    name: str, train_path: Path, test_path: Path, master_seed: int
) -> tuple[UncertainDataset, UncertainDataset]:
    train = load_dataset(train_path)
    test = load_dataset(test_path)
    sigma = dataset_std(train)
    train_seed, test_seed = derive_split_seeds(master_seed, name)
    noisy_train = inject_noise(train, NoiseSpec(seed=train_seed))
    if sigma == 0.0:
        return noisy_train, test  # degenerate scale: both splits stay certain
    # the train-split sigma is reused for the test split
    noisy_test = inject_noise(test, NoiseSpec(seed=test_seed, fixed_scale=sigma))
    return noisy_train, noisy_test


def _format_row(row: BenchmarkRow, with_timings: bool) -> list[str]:
    r = row.result
    if r is None:
        cells = [""] * 6
    else:
        timings = (r.extract_s, r.transform_s, r.fit_s, r.predict_s)
        cells = [str(r.shapelet_count), format_real(r.accuracy)]
        cells += [f"{x:.3f}" if with_timings else "" for x in timings]
    return [row.dataset, row.mode, str(row.seed), *cells, row.error]


def _pairwise_summary(rows: list[BenchmarkRow], modes: Sequence[str]) -> list[list[str]]:
    acc: dict[tuple[str, str], float] = {
        (r.dataset, r.mode): r.result.accuracy for r in rows if r.result is not None
    }
    datasets = sorted({r.dataset for r in rows})
    table = []
    for i in range(len(modes)):
        for j in range(i + 1, len(modes)):
            a, b = modes[i], modes[j]
            wins_a = ties = wins_b = 0
            for name in datasets:
                if (name, a) not in acc or (name, b) not in acc:
                    continue
                if acc[name, a] > acc[name, b]:
                    wins_a += 1
                elif acc[name, a] < acc[name, b]:
                    wins_b += 1
                else:
                    ties += 1
            table.append([a, b, str(wins_a), str(ties), str(wins_b)])
    return table


def cmd_benchmark(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"--modes must list distinct modes from {MODES}, got {args.modes!r}")
    extraction = _extraction_from_args(args)
    tree = _tree_from_args(args)
    datasets = _discover_datasets(Path(args.data_dir))

    prepared: dict[str, tuple[UncertainDataset, UncertainDataset] | Exception] = {}
    for name, train_path, test_path in datasets:
        try:
            prepared[name] = _prepare_noisy(name, train_path, test_path, args.seed)
        except Exception as exc:  # noqa: BLE001 - per-dataset isolation by contract
            prepared[name] = exc

    tasks = []
    for name, _, _ in datasets:
        for mode in modes:
            tasks.append((name, mode))

    def run_one(task: tuple[str, str]) -> BenchmarkRow:
        name, mode = task
        data = prepared[name]
        if isinstance(data, Exception):
            return BenchmarkRow(name, mode, args.seed, error=f"{type(data).__name__}: {data}")
        try:
            result = run_pipeline(data[0], data[1], RunConfig(mode, extraction, tree))
        except Exception as exc:  # noqa: BLE001 - per-task isolation by contract
            return BenchmarkRow(name, mode, args.seed, error=f"{type(exc).__name__}: {exc}")
        return BenchmarkRow(name, mode, args.seed, result)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(run_one, tasks))

    out_path = Path(args.out)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for row in rows:
            writer.writerow(_format_row(row, with_timings=not args.no_timings))

    summary = _pairwise_summary(rows, modes)
    summary_path = (
        Path(args.summary_out)
        if args.summary_out
        else out_path.parent / f"{out_path.stem}_summary{out_path.suffix}"
    )
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mode_a", "mode_b", "wins_a", "ties", "wins_b"])
        writer.writerows(summary)

    for line in summary:
        print(f"{line[0]} vs {line[1]}: {line[2]} wins / {line[3]} ties / {line[4]} losses")
    print(f"report -> {out_path}")
    print(f"summary -> {summary_path}")

    return 0 if any(r.error == "" for r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_extraction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="shapelet count (default: 10 per class, max 200)")
    p.add_argument("--min-len", type=int, default=3, help="minimum candidate length")
    p.add_argument("--max-len", type=int, default=None, help="maximum candidate length (default: series length)")
    p.add_argument("--stride", type=int, default=1, help="candidate start-offset stride")


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=None, help="tree depth limit (default: unlimited)")
    p.add_argument("--min-samples-leaf", type=int, default=1, help="minimum samples per leaf")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ust",
        description="Uncertain shapelet transform for time-series classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("add-noise", help="inject Gaussian noise and record it as uncertainty")
    p.add_argument("--input", required=True, help="certain values TSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=None, help="noise scale (default: dataset std)")
    p.add_argument("--out-values", required=True)
    p.add_argument("--out-uncertainties", required=True)
    p.set_defaults(func=cmd_add_noise)

    p = sub.add_parser("extract", help="extract the top-k uncertain shapelets")
    p.add_argument("--data", required=True, help="values TSV")
    p.add_argument("--uncertainties", default=None, help="uncertainty TSV")
    _add_extraction_flags(p)
    p.add_argument("--out", required=True, help="shapelet JSON output")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("transform", help="compute uncertain distance features")
    p.add_argument("--data", required=True, help="values TSV")
    p.add_argument("--uncertainties", default=None, help="uncertainty TSV")
    p.add_argument("--shapelets", required=True, help="shapelet JSON from extract")
    p.add_argument("--out", required=True, help="feature CSV output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("classify", help="train a tree on features and report test accuracy")
    p.add_argument("--train-features", required=True)
    p.add_argument("--test-features", required=True)
    p.add_argument("--mode", choices=MODES, default="ust-flat")
    _add_tree_flags(p)
    p.add_argument("--model-out", default=None, help="write the fitted model JSON here")
    p.add_argument("--predictions-out", default=None, help="write one predicted label per line")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("benchmark", help="run all modes over a directory of datasets")
    p.add_argument("--data-dir", required=True, help="directory of <name>/<name>_TRAIN.tsv datasets")
    p.add_argument("--modes", default=",".join(MODES), help="comma-separated modes to run")
    p.add_argument("--seed", type=int, default=0, help="master seed for all noise streams")
    _add_extraction_flags(p)
    _add_tree_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel pipeline runs")
    p.add_argument("--no-timings", action="store_true", help="blank timing columns for byte-stable reports")
    p.add_argument("--out", required=True, help="report CSV output")
    p.add_argument("--summary-out", default=None, help="win/tie/loss CSV (default: <out>_summary.csv)")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
