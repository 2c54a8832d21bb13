"""The three workloads: seeded inputs, the timed section, and output checks.

Each workload is three functions:

* ``setup(seed, work) -> state`` builds the inputs from the seed and writes
  them under ``work`` (this is what ``setup_s`` times, after the imports);
* ``run(state) -> outputs`` is the timed section; it calls ``ust`` only;
* ``finish(state, outputs) -> Outcome`` digests the deterministic outputs per
  task and checks them against references computed here, independently of
  ``ust``.  It runs after the clock stops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import ust.cli

MODES = ("st", "ust-flat", "ust-gauss")
FIXTURES = Path("tests") / "fixtures" / "benchmark"
REL_TOL = 1e-9  # independent numpy sums run in another order than ust's fold


@dataclass
class Outcome:
    tasks: list[dict]  # {"name", "error", "digest"}
    accuracies: list[float]
    series: int  # instances pushed through the pipeline, train + test per mode
    problems: list[str] = field(default_factory=list)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# seeded planted-motif inputs (after tests/fixtures/generate_benchmark_fixtures.py)
# ---------------------------------------------------------------------------

def _bump(width: int, amplitude: float) -> np.ndarray:
    x = np.linspace(-1.0, 1.0, width)
    return amplitude * (1.0 - x**2)


def planted_motif(rng, n: int, m: int, n_classes: int, amplitude: float, noise_sd: float):
    """Labels plus (best, uncertainty) arrays; the class is a localized shape.

    Shapes sit at a random offset on a random-phase sine; Gaussian noise is
    added and its absolute value recorded as the uncertainty, the paper's
    noise protocol.
    """
    shapes = [_bump(5, amplitude), -_bump(5, amplitude), _bump(11, amplitude / 2)][:n_classes]
    labels = rng.permutation(np.arange(n) % n_classes)
    t = np.linspace(0.0, 2.0 * np.pi, m)
    best = 0.3 * np.sin(t[None, :] + rng.uniform(0.0, 2.0 * np.pi, (n, 1)))
    starts = rng.integers(2, m - 12, n)
    for i, (c, s) in enumerate(zip(labels, starts)):
        best[i, s : s + len(shapes[c])] += shapes[c]
    noise = rng.normal(0.0, noise_sd, (n, m))
    return [str(c + 1) for c in labels], best + noise, np.abs(noise)


def write_split(work: Path, name: str, labels, best, unc) -> tuple[Path, Path]:
    vpath, upath = work / f"{name}_values.tsv", work / f"{name}_unc.tsv"
    with open(vpath, "w", encoding="utf-8") as fh:
        for lab, row in zip(labels, best.tolist()):
            fh.write(lab + "\t" + "\t".join(format(v, ".17g") for v in row) + "\n")
    with open(upath, "w", encoding="utf-8") as fh:
        for row in unc.tolist():
            fh.write("\t".join(format(v, ".17g") for v in row) + "\n")
    return vpath, upath


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed] + list(workload.encode("utf-8")))


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def min_dissim(sb: np.ndarray, su: np.ndarray, best: np.ndarray, unc: np.ndarray):
    """Window-minimal uncertain dissimilarity of one shapelet to each row.

    best = Σ(x−s)², uncertainty = 2·Σ|x−s|·(δx+δs); the minimum is taken
    under the order (best, then uncertainty).
    """
    wb = sliding_window_view(best, len(sb), axis=1)
    wu = sliding_window_view(unc, len(sb), axis=1)
    d = wb - sb
    db = (d * d).sum(axis=2)
    du = 2.0 * (np.abs(d) * (wu + su)).sum(axis=2)
    lo = db.min(axis=1)
    return lo, np.where(db == lo[:, None], du, np.inf).min(axis=1)


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))))


def walk_tree(node: dict, row: np.ndarray) -> tuple[str, bool]:
    """Leaf label for ``row`` in a model-JSON tree, and whether any decision
    on the way fell within REL_TOL of its threshold."""
    near = False
    while "leaf" not in node:
        x, thr = row[node["feature"]], node["threshold"]
        near |= abs(x - thr) <= REL_TOL * max(1.0, abs(thr))
        node = node["left"] if x <= thr else node["right"]
    return node["leaf"], near


def encode(mode: str, best: np.ndarray, unc: np.ndarray, model: dict) -> np.ndarray:
    if mode == "st":
        return best
    if mode == "ust-flat":
        return np.hstack([best, unc])
    stats = model["gaussian_stats"]
    mu = (np.asarray(stats["max"]) + np.asarray(stats["min"])) / 2.0
    return np.exp(-math.pi * (best - mu) ** 2)


def check_predictions(mode, best, unc, model, predictions, where) -> list[str]:
    features = encode(mode, best, unc, model)
    for i, row in enumerate(features):
        label, near = walk_tree(model["tree"], row)
        if label != predictions[i] and not near:
            return [f"{where}: row {i} predicted {predictions[i]!r}, model JSON gives {label!r}"]
    return []


def accuracy(predictions, truth) -> float:
    return sum(p == t for p, t in zip(predictions, truth)) / len(truth)


def check_shapelets(docs: list[dict], best, unc, k: int, where: str) -> list[str]:
    """Provenance, non-overlap, order and threshold of extracted shapelets."""
    problems = []
    if len(docs) != k:
        problems.append(f"{where}: {len(docs)} shapelets, expected {k}")
    taken: dict[int, list[tuple[int, int]]] = {}
    for j, doc in enumerate(docs):
        s, o, l = doc["source_instance"], doc["start_offset"], doc["length"]
        vb = np.array([v["best"] for v in doc["values"]])
        vu = np.array([v["uncertainty"] for v in doc["values"]])
        if not (np.array_equal(vb, best[s, o : o + l]) and np.array_equal(vu, unc[s, o : o + l])):
            problems.append(f"{where}: shapelet {j} values differ from row {s} [{o}:{o + l}]")
        if any(o < o2 + l2 and o2 < o + l for o2, l2 in taken.get(s, [])):
            problems.append(f"{where}: shapelet {j} overlaps an earlier one of row {s}")
        taken.setdefault(s, []).append((o, l))
        if j and doc["quality"] > docs[j - 1]["quality"]:
            problems.append(f"{where}: shapelet {j} out of quality order")
        db, _ = min_dissim(vb, vu, best, unc)
        if not np.any(np.abs(db - doc["threshold"]["best"]) <= REL_TOL * np.maximum(1.0, db)):
            problems.append(f"{where}: shapelet {j} threshold is no train distance")
    return problems


def _quiet_main(argv: list[str]) -> str:
    """Run ``ust.cli.main`` with its console output captured; '' or the error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # mode st drops uncertainties
        rc = ust.cli.main(argv)
    return "" if rc == 0 else (err.getvalue().strip() or f"exit {rc}")


def _read_features(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(x) for x in r[1:]] for r in rows])
    k = values.shape[1] // 2
    return [r[0] for r in rows], values[:, :k], values[:, k:]


# ---------------------------------------------------------------------------
# extract-motif: one run_pipeline call dominated by candidate scoring
# ---------------------------------------------------------------------------

EM = {"n": 30, "m": 50, "classes": 2, "amplitude": 3.0, "noise_sd": 0.5, "mode": "ust-flat"}


def setup_extract_motif(seed: int, work: Path) -> dict:
    rng = _rng(seed, "extract-motif")
    paths = {}
    for split in ("train", "test"):
        labels, best, unc = planted_motif(
            rng, EM["n"], EM["m"], EM["classes"], EM["amplitude"], EM["noise_sd"]
        )
        paths[split] = write_split(work, split, labels, best, unc)
    return paths


def run_extract_motif(paths: dict):
    train = ust.cli.load_dataset(*paths["train"])
    test = ust.cli.load_dataset(*paths["test"])
    return test, ust.cli.run_pipeline(train, test, ust.cli.RunConfig(EM["mode"]))


def finish_extract_motif(paths: dict, out) -> Outcome:
    from ust.classify import model_to_json

    test, result = out
    truth = test.labels
    model = model_to_json(result.model)
    preds = "\n".join(result.predictions).encode()
    problems = []
    if len(result.predictions) != len(truth):
        problems.append(f"{len(result.predictions)} predictions for {len(truth)} rows")
    elif accuracy(result.predictions, truth) != result.accuracy:
        problems.append("reported accuracy differs from the predictions")
    if json.loads(model)["n_features"] != 2 * result.shapelet_count:
        problems.append("ust-flat model does not have 2k features")
    task = {"name": f"motif/{EM['mode']}", "error": "", "digest": digest(model.encode(), preds)}
    return Outcome([task], [result.accuracy], 2 * EM["n"], problems)


# ---------------------------------------------------------------------------
# split-classify: the step-by-step CLI on large splits, CART and I/O bound
# ---------------------------------------------------------------------------

# One candidate length puts every shapelet in one transform group, and the
# depth cap keeps weak-motif nodes impure down to it, so transform memory and
# CART work (split_scans) barely change with the seed.
SC = {"n": 3000, "m": 60, "classes": 3, "amplitude": 2.0, "noise_sd": 0.7,
      "extract_n": 45, "k": 15, "min_len": 12, "max_len": 12, "stride": 1, "max_depth": 5}


def setup_split_classify(seed: int, work: Path) -> dict:
    rng = _rng(seed, "split-classify")
    state = {"work": work}
    for split in ("train", "test"):
        labels, best, unc = planted_motif(
            rng, SC["n"], SC["m"], SC["classes"], SC["amplitude"], SC["noise_sd"]
        )
        state[split] = (labels, best, unc, *write_split(work, split, labels, best, unc))
    labels, best, unc = state["train"][:3]
    per_class = SC["extract_n"] // SC["classes"]
    rows = np.sort(np.concatenate(
        [np.flatnonzero(np.array(labels) == c)[:per_class] for c in sorted(set(labels))]
    ))
    sub = ([labels[i] for i in rows], best[rows], unc[rows])
    state["sub"] = (*sub, *write_split(work, "sub", *sub))
    return state


def run_split_classify(state: dict) -> dict:
    work = state["work"]
    errors = {}
    sv, su = state["sub"][3:]
    errors["extract"] = _quiet_main([
        "extract", "--data", str(sv), "--uncertainties", str(su),
        "--k", str(SC["k"]), "--min-len", str(SC["min_len"]), "--max-len", str(SC["max_len"]),
        "--stride", str(SC["stride"]), "--out", str(work / "shapelets.json"),
    ])
    for split in ("train", "test"):
        v, u = state[split][3:]
        errors[split] = _quiet_main([
            "transform", "--data", str(v), "--uncertainties", str(u),
            "--shapelets", str(work / "shapelets.json"), "--out", str(work / f"{split}.csv"),
        ])
    for mode in MODES:
        errors[mode] = _quiet_main([
            "classify", "--train-features", str(work / "train.csv"),
            "--test-features", str(work / "test.csv"), "--mode", mode,
            "--max-depth", str(SC["max_depth"]),
            "--model-out", str(work / f"model_{mode}.json"),
            "--predictions-out", str(work / f"preds_{mode}.txt"),
        ])
    return errors


def finish_split_classify(state: dict, errors: dict) -> Outcome:
    work = state["work"]
    upstream = errors["extract"] or errors["train"] or errors["test"]
    problems: list[str] = []
    shapelet_json = b""
    if not upstream:
        shapelet_json = (work / "shapelets.json").read_bytes()
        docs = json.loads(shapelet_json)
        _, sub_best, sub_unc = state["sub"][:3]
        problems += check_shapelets(docs, sub_best, sub_unc, SC["k"], "extract")
        labels, best, unc = state["test"][:3]
        csv_labels, f_best, f_unc = _read_features(work / "test.csv")
        if csv_labels != labels:
            problems.append("transform: test CSV labels differ from the input")
        rows = np.arange(0, SC["n"], 10)
        for j, doc in enumerate(docs):
            vb = np.array([v["best"] for v in doc["values"]])
            vu = np.array([v["uncertainty"] for v in doc["values"]])
            db, du = min_dissim(vb, vu, best[rows], unc[rows])
            if not (_close(f_best[rows, j], db) and _close(f_unc[rows, j], du)):
                problems.append(f"transform: column {j} differs from the reference distance")
                break

    tasks, accs = [], []
    for mode in MODES:
        error = upstream or errors[mode]
        model = preds = b""
        if not error:
            model = (work / f"model_{mode}.json").read_bytes()
            preds = (work / f"preds_{mode}.txt").read_bytes()
            predictions = preds.decode().split()
            problems += check_predictions(
                mode, f_best, f_unc, json.loads(model), predictions, f"classify {mode}"
            )
            accs.append(accuracy(predictions, labels))
        tasks.append({"name": f"split/{mode}", "error": error,
                      "digest": digest(shapelet_json, model, preds)})
    return Outcome(tasks, accs, 2 * SC["n"] * len(MODES), problems)


# ---------------------------------------------------------------------------
# archive-cli: `ust benchmark` over the committed fixture archive, 2 threads
# ---------------------------------------------------------------------------

AC = {"jobs": 2}


def setup_archive_cli(seed: int, work: Path, jobs: int = AC["jobs"]) -> dict:
    names = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())
    sizes = {}
    for name in names:
        lines = [
            (FIXTURES / name / f"{name}_{split}.tsv").read_text(encoding="utf-8").splitlines()
            for split in ("TRAIN", "TEST")
        ]
        sizes[name] = (sum(1 for ln in lines[0] if ln), sum(1 for ln in lines[1] if ln),
                       len({ln.split("\t")[0] for ln in lines[0] if ln}))
    return {"seed": seed, "work": work, "jobs": jobs, "sizes": sizes}


def run_archive_cli(state: dict) -> str:
    work = state["work"]
    return _quiet_main([
        "benchmark", "--data-dir", str(FIXTURES), "--seed", str(state["seed"]),
        "--jobs", str(state["jobs"]), "--no-timings", "--out", str(work / "report.csv"),
    ])


def finish_archive_cli(state: dict, error: str) -> Outcome:
    work = state["work"]
    sizes = state["sizes"]
    series = sum(tr + te for tr, te, _ in sizes.values()) * len(MODES)
    if error:
        tasks = [{"name": f"{d}/{m}", "error": error, "digest": ""} for d in sizes for m in MODES]
        return Outcome(tasks, [], series)
    report = (work / "report.csv").read_text(encoding="utf-8").splitlines()
    summary = (work / "report_summary.csv").read_bytes()
    problems = []
    rows = {}
    for line in report[1:]:
        (r,) = csv.DictReader([report[0], line])
        rows[r["dataset"], r["mode"]] = (r, line)
    if sorted(rows) != sorted((d, m) for d in sizes for m in MODES):
        problems.append("report: rows do not cover every dataset and mode")
    tasks, accs, acc_of = [], [], {}
    for (d, m), (r, line) in sorted(rows.items()):
        if r["error"] == "":
            acc_of[d, m] = float(r["accuracy"])
            accs.append(acc_of[d, m])
            if r["k"] != str(10 * sizes[d][2]):
                problems.append(f"report: {d}/{m} has k={r['k']}, expected {10 * sizes[d][2]}")
            if any(r[c] for c in ("extract_s", "transform_s", "fit_s", "predict_s")):
                problems.append(f"report: {d}/{m} has timings despite --no-timings")
        tasks.append({"name": f"{d}/{m}", "error": r["error"],
                      "digest": digest(line.encode(), summary)})
    expected = ["mode_a,mode_b,wins_a,ties,wins_b"]
    for i, a in enumerate(MODES):
        for b in MODES[i + 1:]:
            both = [d for d in sizes if (d, a) in acc_of and (d, b) in acc_of]
            wins_a = sum(acc_of[d, a] > acc_of[d, b] for d in both)
            wins_b = sum(acc_of[d, a] < acc_of[d, b] for d in both)
            expected.append(f"{a},{b},{wins_a},{len(both) - wins_a - wins_b},{wins_b}")
    if summary.decode().splitlines() != expected:
        problems.append("summary: win/tie/loss table disagrees with the report")
    return Outcome(tasks, accs, series, problems)


WORKLOADS = {
    "extract-motif": (setup_extract_motif, run_extract_motif, finish_extract_motif, 1),
    "split-classify": (setup_split_classify, run_split_classify, finish_split_classify, 1),
    "archive-cli": (setup_archive_cli, run_archive_cli, finish_archive_cli, AC["jobs"]),
}
