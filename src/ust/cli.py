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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import (
    DecisionTreeModel,
    EncodedMatrix,
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
    _concurrent_tasks,
    extract_shapelets,
    load_shapelets,
    save_shapelets,
    shapelet_transform,
)

__all__ = ["main", "run_pipeline", "PipelineResult", "RunConfig", "MODES"]

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
SUMMARY_HEADER = ["mode_a", "mode_b", "wins_a", "ties", "wins_b"]


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
    model: DecisionTreeModel
    extract_s: float
    transform_s: float
    fit_s: float
    predict_s: float


@dataclass
class Features:
    """One view's shapelet features of both splits, and the time they took."""

    train: UncertainDataset
    test: UncertainDataset
    extract_s: float = 0.0
    transform_s: float = 0.0


def _encode_for_mode(
    mode: str, train: UncertainDataset, test: UncertainDataset
) -> tuple[EncodedMatrix, EncodedMatrix]:
    if mode == "st":
        return encode_best(train), encode_best(test)
    if mode == "ust-flat":
        return encode_flatten(train), encode_flatten(test)
    stats = fit_gaussian_stats(train)
    return encode_gaussian(train, stats), encode_gaussian(test, stats)


def _certain(d: UncertainDataset) -> UncertainDataset:
    return UncertainDataset.from_arrays(d.best, np.zeros_like(d.best), d.labels)


def _featurize_views(
    train: UncertainDataset, test: UncertainDataset, views: set[bool], extraction: ExtractionConfig
) -> dict[bool, Features | Exception]:
    """Each view's features (``True``: the certain view, without uncertainties), or the error it raised.

    A view extracts shapelets from its train split, which hands on that split's transform, and transforms its
    test split.  The uncertain view runs first; the certain view takes its best estimates and timings when its
    shapelet list says they are the certain view's features (``certain_alike``), and is featurized on its own
    otherwise.
    """
    features: dict[bool, Features | Exception] = {}
    alike = False
    for certain in sorted(views):
        if certain and alike:
            f = features[False]
            features[True] = replace(f, train=_certain(f.train), test=_certain(f.test))
            continue
        try:
            view = (_certain(train), _certain(test)) if certain else (train, test)
            t0 = time.perf_counter()
            shapelets = extract_shapelets(view[0], extraction)
            t1 = time.perf_counter()
            f_test = shapelet_transform(view[1], shapelets)
            features[certain] = Features(shapelets.train_features, f_test, t1 - t0, time.perf_counter() - t1)
            alike = shapelets.certain_alike
        except Exception as exc:  # noqa: BLE001 - per-view isolation by contract
            features[certain] = exc
    return features


def _classify(features: Features, mode: str, tree: TreeParams) -> PipelineResult:
    """Encode the features for ``mode``, fit a tree on the train split and evaluate it on the test split."""
    t0 = time.perf_counter()
    e_train, e_test = _encode_for_mode(mode, features.train, features.test)
    model = tree_fit(e_train, tree)
    t1 = time.perf_counter()
    predictions = tree_predict(model, e_test)
    t2 = time.perf_counter()
    accuracy = evaluate(predictions, features.test.labels)
    shapelet_count = features.train.series_length
    return PipelineResult(
        predictions, accuracy, shapelet_count, model, features.extract_s, features.transform_s, t1 - t0, t2 - t1
    )


def run_pipeline(
    train: UncertainDataset, test: UncertainDataset, config: RunConfig
) -> PipelineResult:
    """Extract, transform, fit and predict in-process: one featurize step, then one classify step.

    Mode ``st`` featurizes the certain view: uncertainties are dropped, so the
    classical pipeline runs on best estimates and the kernel takes its cheaper
    exact path for certain data.  The two ``ust-*`` modes featurize the
    uncertain view, which propagates uncertainties into the feature matrix;
    they differ only in how features are encoded for the tree.  ``ust benchmark``
    featurizes that view once per dataset, and ``st`` takes its best estimates when they are the certain view's.
    """
    certain = config.mode == "st"
    features = _featurize_views(train, test, {certain}, config.extraction)[certain]
    if isinstance(features, Exception):
        raise features
    return _classify(features, config.mode, config.tree)


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


def _check_outputs(*outputs: tuple[str, str | None], inputs: Sequence[tuple[str, str | None]] = ()) -> None:
    """Refuse (flag, path) outputs of one command that name one of its inputs or one another, are a directory
    or lie in a missing one.  Two inputs may be one file."""
    given = [(flag, path) for flag, path in outputs if path is not None]
    taken = [(flag, path) for flag, path in inputs if path is not None]
    for flag, path in given:
        for first, other in taken:
            if Path(path).resolve() == Path(other).resolve():
                raise ValueError(f"{flag} must differ from {first}, both are {other!r}")
        taken.append((flag, path))
    for flag, path in ((flag, Path(path)) for flag, path in given):
        if path.is_dir() or not path.parent.is_dir():
            why = "is a directory" if path.is_dir() else f"no directory {str(path.parent)!r}"
            raise ValueError(f"{flag} {str(path)!r}: {why}")


def cmd_add_noise(args: argparse.Namespace) -> int:
    outputs = ("--out-values", args.out_values), ("--out-uncertainties", args.out_uncertainties)
    _check_outputs(*outputs, inputs=[("--input", args.input)])
    spec = NoiseSpec(seed=args.seed, fixed_scale=args.sigma)
    data = load_dataset(args.input)
    try:
        noisy = inject_noise(data, spec)
    except ValueError as exc:  # only add-noise has a --sigma to offer
        if args.sigma is None and str(exc).startswith("default noise scale"):
            raise ValueError(f"{exc}; pass --sigma") from None
        raise
    save_dataset(noisy, args.out_values, args.out_uncertainties)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    _check_outputs(("--out", args.out), inputs=[("--data", args.data), ("--uncertainties", args.uncertainties)])
    config = _extraction_from_args(args)
    train = load_dataset(args.data, args.uncertainties)
    shapelets = extract_shapelets(train, config)
    save_shapelets(shapelets, args.out)
    print(f"extracted {len(shapelets)} shapelets -> {args.out}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    inputs = [("--data", args.data), ("--uncertainties", args.uncertainties), ("--shapelets", args.shapelets)]
    _check_outputs(("--out", args.out), inputs=inputs)
    data = load_dataset(args.data, args.uncertainties)
    shapelets = load_shapelets(args.shapelets)
    features = shapelet_transform(data, shapelets)
    write_feature_csv(features, args.out)
    print(f"wrote {len(features)}x{features.series_length} feature matrix -> {args.out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    outputs = ("--model-out", args.model_out), ("--predictions-out", args.predictions_out)
    _check_outputs(*outputs, inputs=[("--train-features", args.train_features), ("--test-features", args.test_features)])
    tree = _tree_from_args(args)
    train = read_feature_csv(args.train_features)
    test = read_feature_csv(args.test_features)
    if (k := train.series_length) != test.series_length:  # refused before a tree is fitted
        raise ValueError(f"{args.train_features} has k={k} features, {args.test_features} has k={test.series_length}")
    if args.mode == "st" and (train.uncertainty.any() or test.uncertainty.any()):
        warnings.warn("mode st ignores uncertainties: best estimates used, deltas dropped", RuntimeWarning)
    result = _classify(Features(train, test), args.mode, tree)
    if args.model_out:
        save_model(result.model, args.model_out)
    if args.predictions_out:
        with open(args.predictions_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.predictions) + "\n")
    print(f"accuracy {format_real(result.accuracy)}")
    return 0


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _discover_datasets(data_dir: Path) -> list[tuple[str, Path, Path]]:
    found = []
    for sub in sorted(p for p in data_dir.iterdir() if p.is_dir()):
        train = sub / f"{sub.name}_TRAIN.tsv"
        test = sub / f"{sub.name}_TEST.tsv"
        if train.is_file() or test.is_file():  # a missing one fails its dataset's rows
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


def _run_dataset(
    train: UncertainDataset, test: UncertainDataset, modes: Sequence[str], extraction: ExtractionConfig, tree: TreeParams
) -> list[PipelineResult | Exception]:
    """One benchmark task: each mode's result on one dataset, in ``modes`` order, or the error it raised.

    A ``--max-len`` past the train length m runs at m, unless m < ``--min-len``.  Each view the modes need is
    featurized once; a failed view fails every mode of it, and a failed mode only itself.
    """
    m = train.series_length
    if extraction.min_len <= m < (extraction.max_len or m):
        extraction = replace(extraction, max_len=m)
    views = _featurize_views(train, test, {mode == "st" for mode in modes}, extraction)
    results: list[PipelineResult | Exception] = []
    for mode in modes:
        view = views[mode == "st"]
        try:
            results.append(view if isinstance(view, Exception) else _classify(view, mode, tree))
        except Exception as exc:  # noqa: BLE001 - per-mode isolation by contract
            results.append(exc)
    return results


def _format_row(dataset: str, mode: str, seed: int, r: PipelineResult | Exception, with_timings: bool) -> list[str]:
    if isinstance(r, Exception):
        return [dataset, mode, str(seed), *[""] * 6, _error(r)]
    timings = (r.extract_s, r.transform_s, r.fit_s, r.predict_s)
    cells = [f"{x:.3f}" if with_timings else "" for x in timings]
    return [dataset, mode, str(seed), str(r.shapelet_count), format_real(r.accuracy), *cells, ""]


def _pairwise_summary(rows: list[tuple[str, str, PipelineResult | Exception]], modes: Sequence[str]) -> list[list[str]]:
    acc = {(name, mode): r.accuracy for name, mode, r in rows if isinstance(r, PipelineResult)}
    table = []
    for i, a in enumerate(modes):
        for b in modes[i + 1 :]:
            pairs = [(x, acc[name, b]) for (name, mode), x in acc.items() if mode == a and (name, b) in acc]
            wins_a, wins_b = sum(x > y for x, y in pairs), sum(x < y for x, y in pairs)
            table.append([a, b, str(wins_a), str(len(pairs) - wins_a - wins_b), str(wins_b)])
    return table


def cmd_benchmark(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    summary_path = Path(args.summary_out or out_path.parent / f"{out_path.stem}_summary{out_path.suffix}")
    outputs = (("--out", args.out), ("--summary-out", str(summary_path)))
    _check_outputs(*outputs)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or len(set(modes)) != len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"--modes must list distinct modes from {MODES}, got {args.modes!r}")
    extraction = _extraction_from_args(args)
    tree = _tree_from_args(args)
    datasets = _discover_datasets(Path(args.data_dir))
    # an output may not name a dataset TSV found, which is known only now, before any dataset loads
    _check_outputs(*outputs, inputs=[("--data-dir", str(path)) for _, *paths in datasets for path in paths])

    results: dict[str, list[PipelineResult | Exception]] = {}
    loaded: dict[str, tuple[UncertainDataset, UncertainDataset]] = {}
    for name, train_path, test_path in datasets:
        try:
            loaded[name] = _prepare_noisy(name, train_path, test_path, args.seed)
        except Exception as exc:  # noqa: BLE001 - per-dataset isolation by contract
            results[name] = [exc] * len(modes)  # a dataset that did not load: its error fills every row

    # one task per loaded dataset, largest first by the kernel's O(n²·m³) on the train split, so that no thread
    # idles while the last large task runs alone.  Each task's kernel takes its share of the CPUs, so the pools
    # together do not oversubscribe them; with fewer tasks than jobs, they share the CPUs of the idle jobs
    tasks = sorted(loaded, key=lambda name: -len(loaded[name][0]) ** 2 * loaded[name][0].series_length ** 3)
    jobs = max(1, min(args.jobs, len(tasks)))
    with ThreadPoolExecutor(jobs, initializer=_concurrent_tasks.set, initargs=(jobs,)) as pool:
        runs = {name: pool.submit(_run_dataset, *loaded[name], modes, extraction, tree) for name in tasks}
    results.update((name, run.result()) for name, run in runs.items())
    rows = [(name, mode, r) for name, _, _ in datasets for mode, r in zip(modes, results[name])]

    report = [REPORT_HEADER, *(_format_row(name, mode, args.seed, r, not args.no_timings) for name, mode, r in rows)]
    summary = _pairwise_summary(rows, modes)
    for path, table in ((out_path, report), (summary_path, [SUMMARY_HEADER, *summary])):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)

    for line in summary:
        print(f"{line[0]} vs {line[1]}: {line[2]} wins / {line[3]} ties / {line[4]} losses")
    print(f"report -> {out_path}")
    print(f"summary -> {summary_path}")

    return 0 if any(isinstance(r, PipelineResult) for _, _, r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_extraction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=ExtractionConfig.k, help="shapelet count (default: 10 per class, max 200)")
    p.add_argument("--min-len", type=int, default=ExtractionConfig.min_len, help="minimum candidate length")
    p.add_argument("--max-len", type=int, default=ExtractionConfig.max_len,
                   help="maximum candidate length (default: series length)")
    p.add_argument("--stride", type=int, default=ExtractionConfig.candidate_stride, help="candidate start-offset stride")


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-depth", type=int, default=TreeParams.max_depth, help="tree depth limit (default: unlimited)")
    p.add_argument("--min-samples-leaf", type=int, default=TreeParams.min_samples_leaf, help="minimum samples per leaf")


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
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # shown once per message, whatever the caller's filters
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ValueError, OSError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
