"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from ust import (
    ExtractionConfig,
    GaussianEncodingStats,
    NoiseSpec,
    UncertainDataset,
    UncertainValue,
    UncertainVector,
    dataset_std,
    encode_gaussian,
    extract_shapelets,
    inject_noise,
    load_dataset,
    u_add,
    u_eq,
    u_lt,
    u_pow,
    u_sub,
    udissim,
)
from ust.cli import MODES, RunConfig, main, run_pipeline

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "benchmark"


def report(criterion, detail):
    print(f"criterion {criterion} PASS: {detail}")


def test_criterion_1_udissim_correctness():
    rng = np.random.default_rng(101)
    t0 = time.thread_time()  # CPU time of this thread: a loaded host does not count against the bound

    for _ in range(1000):
        n = int(rng.integers(1, 65))
        a = rng.uniform(-100, 100, n)
        b = rng.uniform(-100, 100, n)
        d = udissim(UncertainVector(a, np.zeros(n)), UncertainVector(b, np.zeros(n)))
        assert d.uncertainty == 0.0
        expected = oracles.sq_euclidean(a.tolist(), b.tolist())
        assert d.best == pytest.approx(expected, rel=1e-12, abs=1e-300)

    for _ in range(1000):
        n = int(rng.integers(1, 65))
        v = UncertainVector(rng.uniform(-100, 100, n), rng.uniform(0, 10, n))
        u = UncertainVector(rng.uniform(-100, 100, n), rng.uniform(0, 10, n))
        acc = u_pow(u_sub(v[0], u[0]), 2)
        for i in range(1, n):
            acc = u_add(acc, u_pow(u_sub(v[i], u[i]), 2))
        d = udissim(v, u)
        assert d.best == pytest.approx(acc.best, rel=1e-12, abs=1e-300)
        assert d.uncertainty == pytest.approx(acc.uncertainty, rel=1e-12, abs=1e-300)

    elapsed = time.thread_time() - t0
    assert elapsed < 1.0
    report(1, f"2000 random pairs (closed form vs oracle and composition) in {elapsed:.2f}s CPU")


def test_criterion_2_order_axioms():
    rng = np.random.default_rng(202)
    t0 = time.thread_time()  # CPU time of this thread: a loaded host does not count against the bound

    def draw():
        if rng.random() < 0.5:  # coarse grid forces exact ties
            return UncertainValue(float(rng.integers(0, 3)), float(rng.choice([0.0, 0.5])))
        return UncertainValue(float(rng.uniform(-10, 10)), float(rng.uniform(0, 2)))

    violations = 0
    for _ in range(10_000):
        x, y, z = draw(), draw(), draw()
        if sum([u_lt(x, y), u_lt(y, x), u_eq(x, y)]) != 1:
            violations += 1
        if u_lt(x, y) and u_lt(y, x):
            violations += 1
        if u_lt(x, y) and u_lt(y, z) and not u_lt(x, z):
            violations += 1
        if u_lt(x, x):
            violations += 1
    elapsed = time.thread_time() - t0
    assert violations == 0
    assert elapsed < 1.0
    report(2, f"10000 triples, trichotomy/asymmetry/transitivity, 0 violations in {elapsed:.2f}s CPU")


def test_criterion_3_extraction_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.choice([4, 6, 8]))
        m = int(rng.integers(8, 17))
        bests, uncs = [], []
        for i in range(n):
            if trial % 3 == 0:  # integer grid: heavy exact ties
                bests.append(rng.integers(0, 3, m).astype(float))
                uncs.append(rng.choice([0.0, 0.5], m))
            else:
                bests.append(rng.normal(0, 1, m))
                uncs.append(rng.uniform(0, 0.5, m))
        train = UncertainDataset.from_arrays(bests, uncs, ["A" if i < n // 2 else "B" for i in range(n)])

        stride = 2 if trial % 5 == 0 else 1
        cfg = ExtractionConfig(
            min_len=3,
            max_len=int(min(m, rng.integers(5, 10))),
            k=5,
            candidate_stride=stride,
        )
        got = extract_shapelets(train, cfg)
        expected = oracles.extract(
            train.best.tolist(),
            train.uncertainty.tolist(),
            train.labels,
            cfg.min_len,
            cfg.max_len,
            cfg.k,
            stride,
        )
        assert len(got) == len(expected)
        for sh, (l, s, o, gain, tb, tu) in zip(got, expected):
            assert (sh.length, sh.source_instance, sh.start_offset) == (l, s, o)
            assert sh.quality == gain
            assert (sh.split_threshold.best, sh.split_threshold.uncertainty) == (tb, tu)
        checked += len(got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"20 datasets, {checked} selected candidates exactly equal brute force in {elapsed:.1f}s")


def test_criterion_4_zero_uncertainty_degeneration():
    train = load_dataset(FIXTURES / "BumpVsValley" / "BumpVsValley_TRAIN.tsv")
    test = load_dataset(FIXTURES / "BumpVsValley" / "BumpVsValley_TEST.tsv")
    cfg = ExtractionConfig(min_len=3, max_len=20, k=10)
    classical = run_pipeline(train, test, RunConfig("st", cfg))
    uncertain = run_pipeline(train, test, RunConfig("ust-flat", cfg))
    assert uncertain.predictions == classical.predictions
    report(4, f"certain data: ust-flat predictions identical to st ({len(test)} instances)")


def _planted_motif(seed_gen, n_per_class, m=40):
    rng = np.random.default_rng(seed_gen)
    rows, labels = [], []
    for label, sign in (("1", 1.0), ("2", -1.0)):
        for _ in range(n_per_class):
            s = 0.2 * np.sin(np.linspace(0, 2 * np.pi, m) + rng.uniform(0, 2 * np.pi))
            start = int(rng.integers(2, m - 6))
            x = np.linspace(-1, 1, 4)
            s[start : start + 4] += sign * 8.0 * (1 - x**2)
            rows.append(s)
            labels.append(label)
    return UncertainDataset.from_arrays(rows, np.zeros((len(rows), m)), labels)


def test_criterion_5_planted_motif_recovery():
    t0 = time.perf_counter()
    train = _planted_motif(1000, 15)
    test = _planted_motif(2000, 15)
    sigma = dataset_std(train)
    accuracies = {}
    for seed in (0, 1, 2):
        noisy_train = inject_noise(train, NoiseSpec(seed=seed))
        noisy_test = inject_noise(test, NoiseSpec(seed=seed + 10_000, fixed_scale=sigma))
        result = run_pipeline(noisy_train, noisy_test, RunConfig("ust-flat"))
        accuracies[seed] = result.accuracy
        assert result.accuracy >= 0.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    accs = ", ".join(f"seed {s}: {a:.3f}" for s, a in accuracies.items())
    report(5, f"30/30 planted-motif, noise at dataset std: {accs} in {elapsed:.1f}s")


def test_criterion_6_noise_protocol_statistics():
    sigma = 2.5
    n, m = 60, 200  # 12000 values
    d = UncertainDataset.from_arrays(np.zeros((n, m)), np.zeros((n, m)), ["x"] * n)
    out = inject_noise(d, NoiseSpec(seed=606, fixed_scale=sigma))
    noise = out.best.ravel()
    deltas = out.uncertainty.ravel()
    assert noise.size >= 10_000
    assert abs(noise.mean()) <= 0.05 * sigma
    assert abs(noise.std() - sigma) <= 0.05 * sigma
    assert (deltas == np.abs(noise)).all()
    report(
        6,
        f"{noise.size} draws: mean {noise.mean():+.4f} (limit ±{0.05 * sigma}), "
        f"std {noise.std():.4f} (target {sigma}), uncertainty == |noise| everywhere",
    )


def test_criterion_7_gaussian_encoding():
    stats = GaussianEncodingStats((0.0,), (2.0,))  # mean exactly 1.0
    at_mean = encode_gaussian(
        UncertainDataset.from_arrays([[1.0]], [[0.3]], ["a"]), stats
    )
    assert at_mean.features[0, 0] == 1.0

    for x in (0.0, 2.0):  # one unit below and above the mean
        enc = encode_gaussian(
            UncertainDataset.from_arrays([[x]], [[0.0]], ["a"]), stats
        )
        assert enc.features[0, 0] == pytest.approx(math.exp(-math.pi), rel=1e-12)
        independent = norm.pdf(x, loc=1.0, scale=1.0 / math.sqrt(2.0 * math.pi))
        assert enc.features[0, 0] == pytest.approx(independent, rel=1e-12)
    report(7, "density 1.0 exactly at the mean, exp(-pi) at unit offset vs scipy within 1e-12")


def test_criterion_8_benchmark_determinism(tmp_path):
    base = [
        "benchmark",
        "--data-dir", str(FIXTURES),
        "--seed", "0",
        "--k", "5",
        "--max-len", "12",
        "--no-timings",
    ]
    outputs = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / f"report_{tag}.csv"
        assert main(base + ["--jobs", str(jobs), "--out", str(out)]) == 0
        outputs.append(
            (out.read_bytes(), (tmp_path / f"report_{tag}_summary.csv").read_bytes())
        )
    assert outputs[0] == outputs[1], "same seed must give byte-identical reports"
    assert outputs[0] == outputs[2], "thread count must not change report bytes"
    report(8, "report and summary bytes identical across reruns and jobs {1, 4}")


def test_criterion_9_benchmark_shape(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "report.csv"
    assert main([
        "benchmark",
        "--data-dir", str(FIXTURES),
        "--seed", "0",
        "--no-timings",
        "--out", str(out),
    ]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    datasets = sorted({r["dataset"] for r in rows})
    assert len(datasets) == 3
    assert len(rows) == 3 * len(MODES)
    assert all(r["error"] == "" for r in rows)

    baselines = {}
    for name in datasets:
        labels = load_dataset(FIXTURES / name / f"{name}_TEST.tsv").labels
        baselines[name] = max(labels.count(c) for c in set(labels)) / len(labels)
    for r in rows:
        assert float(r["accuracy"]) > baselines[r["dataset"]], (
            f"{r['dataset']}/{r['mode']}: {r['accuracy']} "
            f"not above baseline {baselines[r['dataset']]:.3f}"
        )

    with open(tmp_path / "report_summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 3
    for s in summary:
        assert int(s["wins_a"]) + int(s["ties"]) + int(s["wins_b"]) == 3

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    accs = {name: max(float(r["accuracy"]) for r in rows if r["dataset"] == name) for name in datasets}
    report(
        9,
        f"3 datasets x {len(MODES)} modes, all above majority baseline, "
        f"win/tie/loss emitted, {elapsed:.1f}s (best accs: {accs})",
    )
