"""Output bytes pinned to committed sha256 digests.

``fixtures/output_sha256.json`` holds the digests of four CLI outputs:

- the report and the summary of ``ust benchmark --data-dir
  tests/fixtures/benchmark --no-timings --seed 0 --out report.csv``;
- the shapelet JSON of ``ust extract --data v.tsv --uncertainties u.tsv``,
  after ``ust add-noise --input tests/fixtures/benchmark/TriShape/TriShape_TRAIN.tsv
  --seed 0 --out-values v.tsv --out-uncertainties u.tsv``;
- the shapelet JSON of ``ust extract`` on the tie-heavy data of
  :func:`write_tied_grid`, whose distances hold exact best ties that only
  their uncertainties order;
- for each of the modes ``st``, ``ust-flat`` and ``ust-gauss``, the model
  JSON and the predictions of ``ust classify`` on the ``ust extract`` and
  ``ust transform`` features of two such grids, a train and a test split
  (``st`` extracts and transforms the grids without their uncertainties).

Every run must reproduce them at one and at two concurrent tasks or kernel
workers.  A change that is meant to alter an output records its new digests
here, and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

import ust.shapelet
from ust.cli import MODES, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
DIGESTS = json.loads((FIXTURES / "output_sha256.json").read_text())


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_benchmark_report_bytes(jobs, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main([
        "benchmark", "--data-dir", str(FIXTURES / "benchmark"), "--no-timings", "--seed", "0",
        "--jobs", jobs, "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert sha256(out) == DIGESTS["benchmark_report"]
    assert sha256(tmp_path / "report_summary.csv") == DIGESTS["benchmark_summary"]


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_bytes_on_noisy_data(workers, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
    values, uncertainties, out = tmp_path / "v.tsv", tmp_path / "u.tsv", tmp_path / "sh.json"
    assert main([
        "add-noise", "--input", str(FIXTURES / "benchmark" / "TriShape" / "TriShape_TRAIN.tsv"), "--seed", "0",
        "--out-values", str(values), "--out-uncertainties", str(uncertainties),
    ]) == 0
    assert main(["extract", "--data", str(values), "--uncertainties", str(uncertainties), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == DIGESTS["extract_shapelets"]


def write_tied_grid(values, uncertainties, first_row=0):
    """A 16 x 24 two-class dataset of values in {0, 1, 2} and uncertainties in {0, 0.5}, by formula.

    Its rows are rows ``first_row`` to ``first_row + 15`` of one unbounded grid.
    """
    with open(values, "w", encoding="utf-8") as v, open(uncertainties, "w", encoding="utf-8") as u:
        for i in range(first_row, first_row + 16):
            v.write("\t".join(["AB"[i % 2]] + [str((j * j + i * (j // 2) + i) % 3) for j in range(24)]) + "\n")
            u.write("\t".join("0.5" if (i * j + i) % 4 == 0 else "0" for j in range(24)) + "\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_extract_bytes_on_tied_data(workers, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
    values, uncertainties, out = tmp_path / "v.tsv", tmp_path / "u.tsv", tmp_path / "sh.json"
    write_tied_grid(values, uncertainties)
    assert main(["extract", "--data", str(values), "--uncertainties", str(uncertainties), "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == DIGESTS["extract_shapelets_tied"]


@pytest.mark.parametrize("workers", [1, 2])
def test_classify_bytes_on_tied_data(workers, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ust.shapelet, "_CPUS", workers)
    split = {}
    for name, first_row in (("train", 0), ("test", 16)):
        split[name] = tmp_path / f"{name}_v.tsv", tmp_path / f"{name}_u.tsv"
        write_tied_grid(*split[name], first_row)
    for mode in MODES:
        # st runs the certain view: its grids are read without their uncertainties
        unc = {name: [] if mode == "st" else ["--uncertainties", str(split[name][1])] for name in split}
        shapelets = tmp_path / f"{mode}_sh.json"
        assert main(["extract", "--data", str(split["train"][0]), *unc["train"], "--out", str(shapelets)]) == 0
        for name in split:
            assert main([
                "transform", "--data", str(split[name][0]), *unc[name], "--shapelets", str(shapelets),
                "--out", str(tmp_path / f"{mode}_{name}.csv"),
            ]) == 0
        model, predictions = tmp_path / f"{mode}_model.json", tmp_path / f"{mode}_pred.txt"
        assert main([
            "classify", "--train-features", str(tmp_path / f"{mode}_train.csv"),
            "--test-features", str(tmp_path / f"{mode}_test.csv"), "--mode", mode,
            "--model-out", str(model), "--predictions-out", str(predictions),
        ]) == 0
        assert sha256(model) == DIGESTS[f"classify_model_{mode}"]
        assert sha256(predictions) == DIGESTS[f"classify_predictions_{mode}"]
    capsys.readouterr()
