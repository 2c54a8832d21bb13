import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_output_digests import FIXTURES, cpus, write_tied_grid
from ust import (
    ExtractionConfig,
    NoiseSpec,
    TreeParams,
    UncertainDataset,
    dataset_std,
    derive_split_seeds,
    inject_noise,
    load_dataset,
    load_shapelets,
    write_feature_csv,
)
import ust.cli
import ust.shapelet
from ust.cli import MODES, RunConfig, main, run_pipeline


def write_tsv(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for label, values in rows:
            fh.write("\t".join([label] + [format(v, ".17g") for v in values]) + "\n")
    return path


def synth_rows(rng, n_per_class, m=12):
    rows = []
    for label, sign in (("1", 1.0), ("2", -1.0)):
        for _ in range(n_per_class):
            s = 0.1 * rng.normal(size=m)
            start = int(rng.integers(1, m - 4))
            s[start : start + 3] += sign * np.array([2.0, 5.0, 2.0])
            rows.append((label, s))
    return rows


SHAPELET_DOC = {
    "source_instance": 0,
    "start_offset": 0,
    "length": 2,
    "quality": 0.5,
    "threshold": {"best": 1.0, "uncertainty": 0.0},
    "values": [{"best": 0.0, "uncertainty": 0.0}, {"best": 1.0, "uncertainty": 0.0}],
}


OVERFLOWING_SCALE = "default noise scale (the dataset's pooled standard deviation) is not finite"
OVERFLOWING_SCALE_HINT = f"{OVERFLOWING_SCALE}; pass --sigma"  # add-noise only: benchmark has no --sigma


@pytest.fixture()
def tiny_dataset(tmp_path):
    rng = np.random.default_rng(77)
    train = write_tsv(tmp_path / "train.tsv", synth_rows(rng, 4))
    test = write_tsv(tmp_path / "test.tsv", synth_rows(rng, 3))
    return train, test


class TestAddNoise:
    def test_writes_two_deterministic_files(self, tiny_dataset, tmp_path):
        train, _ = tiny_dataset
        args = [
            "add-noise",
            "--input", str(train),
            "--seed", "5",
            "--out-values", str(tmp_path / "nv.tsv"),
            "--out-uncertainties", str(tmp_path / "nu.tsv"),
        ]
        assert main(args) == 0
        v1 = (tmp_path / "nv.tsv").read_bytes()
        u1 = (tmp_path / "nu.tsv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "nv.tsv").read_bytes() == v1
        assert (tmp_path / "nu.tsv").read_bytes() == u1
        noisy = load_dataset(tmp_path / "nv.tsv", tmp_path / "nu.tsv")
        assert noisy == inject_noise(load_dataset(train), NoiseSpec(seed=5))

    def test_constant_dataset_warns_and_outputs_zero_uncertainty(self, tmp_path, capsys):
        train = write_tsv(tmp_path / "c.tsv", [("1", [2.0, 2.0]), ("2", [2.0, 2.0])])
        rc = main(
            [
                "add-noise",
                "--input", str(train),
                "--out-values", str(tmp_path / "v.tsv"),
                "--out-uncertainties", str(tmp_path / "u.tsv"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: dataset standard deviation is 0: no noise injected, output equals input\n"
        )
        out = load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert out == load_dataset(train)

    def test_overflowing_default_scale_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "big.tsv"
        data.write_text("1\t1e300\t-1e300\n")
        rc = main([
            "add-noise", "--input", str(data),
            "--out-values", str(tmp_path / "v.tsv"), "--out-uncertainties", str(tmp_path / "u.tsv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {OVERFLOWING_SCALE_HINT}\n"
        assert not (tmp_path / "v.tsv").exists() and not (tmp_path / "u.tsv").exists()

    def test_overflowing_noise_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "big.tsv"
        data.write_text("1\t1e308\t-1e308\n")
        rc = main([
            "add-noise", "--input", str(data), "--sigma", "1e308",
            "--out-values", str(tmp_path / "v.tsv"), "--out-uncertainties", str(tmp_path / "u.tsv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: dataset values must be finite\n"
        assert not (tmp_path / "v.tsv").exists() and not (tmp_path / "u.tsv").exists()


class TestStepComposition:
    def test_files_equal_in_process_pipeline(self, tiny_dataset, tmp_path, capsys):
        train_path, test_path = tiny_dataset
        master = 3
        train_seed, test_seed = derive_split_seeds(master, "tiny")
        sigma = dataset_std(load_dataset(train_path))

        assert main([
            "add-noise", "--input", str(train_path), "--seed", str(train_seed),
            "--out-values", str(tmp_path / "trv.tsv"),
            "--out-uncertainties", str(tmp_path / "tru.tsv"),
        ]) == 0
        assert main([
            "add-noise", "--input", str(test_path), "--seed", str(test_seed),
            "--sigma", format(sigma, ".17g"),
            "--out-values", str(tmp_path / "tev.tsv"),
            "--out-uncertainties", str(tmp_path / "teu.tsv"),
        ]) == 0
        assert main([
            "extract", "--data", str(tmp_path / "trv.tsv"),
            "--uncertainties", str(tmp_path / "tru.tsv"),
            "--k", "3", "--min-len", "3", "--max-len", "6",
            "--out", str(tmp_path / "shapelets.json"),
        ]) == 0
        for split, v, u in (("train", "trv", "tru"), ("test", "tev", "teu")):
            assert main([
                "transform", "--data", str(tmp_path / f"{v}.tsv"),
                "--uncertainties", str(tmp_path / f"{u}.tsv"),
                "--shapelets", str(tmp_path / "shapelets.json"),
                "--out", str(tmp_path / f"{split}.csv"),
            ]) == 0
        assert main([
            "classify",
            "--train-features", str(tmp_path / "train.csv"),
            "--test-features", str(tmp_path / "test.csv"),
            "--mode", "ust-flat",
            "--model-out", str(tmp_path / "model.json"),
            "--predictions-out", str(tmp_path / "preds.txt"),
        ]) == 0
        capsys.readouterr()

        file_preds = (tmp_path / "preds.txt").read_text().split()

        noisy_train = inject_noise(load_dataset(train_path), NoiseSpec(seed=train_seed))
        noisy_test = inject_noise(
            load_dataset(test_path), NoiseSpec(seed=test_seed, fixed_scale=sigma)
        )
        result = run_pipeline(
            noisy_train,
            noisy_test,
            RunConfig("ust-flat", ExtractionConfig(min_len=3, max_len=6, k=3), TreeParams()),
        )
        assert file_preds == result.predictions

    def test_transform_rejects_oversized_shapelet(self, tiny_dataset, tmp_path, capsys):
        train_path, _ = tiny_dataset
        assert main([
            "extract", "--data", str(train_path), "--k", "1",
            "--min-len", "8", "--max-len", "8",
            "--out", str(tmp_path / "sh.json"),
        ]) == 0
        short = write_tsv(tmp_path / "short.tsv", [("1", [0.0, 1.0]), ("2", [1.0, 0.0])])
        rc = main([
            "transform", "--data", str(short),
            "--shapelets", str(tmp_path / "sh.json"),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert rc != 0
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps([{key: v for key, v in SHAPELET_DOC.items() if key != "values"}]),
            json.dumps([dict(SHAPELET_DOC, threshold=1.0)]),
            json.dumps(SHAPELET_DOC),
            json.dumps([dict(SHAPELET_DOC, values=[{"best": "abc", "uncertainty": 0.0}] * 2)]),
            "[{",
            "[" * 100_000 + "]" * 100_000,
            b"[{\"\xff\": 1}]",
            json.dumps([dict(SHAPELET_DOC, start_offset=2.5)]),
            json.dumps([dict(SHAPELET_DOC, source_instance=-7)]),
            json.dumps([dict(SHAPELET_DOC, threshold={"best": "1.0", "uncertainty": 0.0})]),
            json.dumps([dict(SHAPELET_DOC, quality=True)]),
            json.dumps([dict(SHAPELET_DOC, quality=10**400)]),
            json.dumps([dict(SHAPELET_DOC, values=[{"best": "1.0", "uncertainty": 0.0}] * 2)]),
            json.dumps([dict(SHAPELET_DOC, values=[{"best": 1.0, "uncertainty": -0.5}] * 2)]),
            json.dumps([dict(SHAPELET_DOC, threshold={"best": 1.0, "uncertainty": -0.25})]),
        ],
        ids=[
            "missing-values", "scalar-threshold", "object-not-list", "string-best",
            "invalid-json", "too-deep", "not-utf8", "float-offset", "negative-source",
            "string-threshold", "bool-quality", "huge-quality", "numeric-string-best",
            "negative-value-uncertainty", "negative-threshold-uncertainty",
        ],
    )
    def test_transform_rejects_malformed_shapelet_file(self, text, tiny_dataset, tmp_path, capsys):
        train_path, _ = tiny_dataset
        shapelets = tmp_path / "sh.json"
        shapelets.write_bytes(text.encode() if isinstance(text, str) else text)
        rc = main([
            "transform", "--data", str(train_path),
            "--shapelets", str(shapelets),
            "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sh.json: malformed shapelet file" in err

    @pytest.mark.parametrize(
        "command, certain, huge, paths_run",
        [
            ("extract", True, "best", {"certain"}),
            ("transform", True, "best", set()),
            ("extract", False, "uncertainty", {"full"}),
            ("transform", False, "best", set()),
            ("extract", False, "best", {"certain"}),
        ],
        ids=["extract", "transform", "extract-uncertain", "transform-uncertain", "extract-uncertain-huge-best"],
    )
    def test_overflow_is_one_error_line(self, command, certain, huge, paths_run, tmp_path, capsys, monkeypatch):
        # extraction raises on a kernel worker thread, on any kernel path: it scores on the certain path,
        # which raises first when the best-estimate sums overflow; when only uncertainty sums can overflow
        # it scores on the full path, which raises.  The transform runs its own kernel, no extraction tile,
        # on two workers, and raises once they have left an overflowed entry
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2), raising=False)
        monkeypatch.setattr(ust.shapelet, "_TILE_ELEMS", 1)  # extraction's kernel takes one-cell tiles
        monkeypatch.setattr(ust.shapelet, "_ROW_CHUNK_ELEMS", 1)  # the 2-row transform takes one row per worker
        fill, paths = ust.shapelet._fill_tile, set()
        monkeypatch.setattr(ust.shapelet, "_fill_tile", lambda *args: paths.add(args[-1]) or fill(*args))
        if huge == "best":
            rows, u = [("1", [1e200, -1e200, 1e200]), ("2", [-1e200, 1e200, -1e200])], "0.5"
        else:
            rows, u = [("1", [0.0, 1.0, 0.5]), ("2", [1.0, 0.0, 0.25])], "1e308"
        data = write_tsv(tmp_path / "v.tsv", rows)
        (tmp_path / "u.tsv").write_text(("\t".join([u] * 3) + "\n") * 2)
        unc = [] if certain else ["--uncertainties", str(tmp_path / "u.tsv")]
        if command == "extract":
            argv = ["extract", "--data", str(data), *unc, "--min-len", "2", "--out", str(tmp_path / "sh.json")]
        else:
            (tmp_path / "sh.json").write_text(json.dumps([SHAPELET_DOC]))
            argv = ["transform", "--data", str(data), *unc, "--shapelets", str(tmp_path / "sh.json"),
                    "--out", str(tmp_path / "f.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: dissimilarity overflowed to non-finite values\n"
        assert paths == paths_run

    @pytest.mark.parametrize(
        "name, content",
        [("v.tsv", b"1\t0.5\n2\t\xff\n"), ("f.csv", b"label,f1,f2\nA,1,0\n\xff,1,0\n")],
        ids=["values-tsv", "feature-csv"],
    )
    def test_non_utf8_input_names_file(self, name, content, tmp_path, capsys):
        bad = tmp_path / name
        bad.write_bytes(content)
        if name.endswith(".tsv"):
            argv = ["extract", "--data", str(bad), "--out", str(tmp_path / "sh.json")]
        else:
            argv = ["classify", "--train-features", str(bad), "--test-features", str(bad)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{name}: not UTF-8 text" in err

    def test_classify_st_mode_warns_on_nonzero_uncertainty(self, tiny_dataset, tmp_path, capsys):
        train_path, test_path = tiny_dataset
        assert main([
            "add-noise", "--input", str(train_path), "--seed", "1",
            "--out-values", str(tmp_path / "nv.tsv"),
            "--out-uncertainties", str(tmp_path / "nu.tsv"),
        ]) == 0
        assert main([
            "extract", "--data", str(tmp_path / "nv.tsv"),
            "--uncertainties", str(tmp_path / "nu.tsv"),
            "--k", "2", "--min-len", "3", "--max-len", "4",
            "--out", str(tmp_path / "sh.json"),
        ]) == 0
        assert main([
            "transform", "--data", str(tmp_path / "nv.tsv"),
            "--uncertainties", str(tmp_path / "nu.tsv"),
            "--shapelets", str(tmp_path / "sh.json"),
            "--out", str(tmp_path / "f.csv"),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "classify",
            "--train-features", str(tmp_path / "f.csv"),
            "--test-features", str(tmp_path / "f.csv"),
            "--mode", "st",
        ])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "accuracy" in out
        assert err == "warning: mode st ignores uncertainties: best estimates used, deltas dropped\n"

    def test_extract_reports_shapelet_file(self, tiny_dataset, tmp_path, capsys):
        train_path, _ = tiny_dataset
        out = tmp_path / "sh.json"
        assert main([
            "extract", "--data", str(train_path), "--k", "4",
            "--min-len", "3", "--max-len", "5", "--out", str(out),
        ]) == 0
        shapelets = load_shapelets(out)
        assert 0 < len(shapelets) <= 4
        assert "extracted" in capsys.readouterr().out

    def test_classify_tree_deeper_than_recursion_limit(self, tmp_path, capsys):
        n = 1500  # alternating labels on 0..n-1 grow a chain n - 1 levels deep
        features = tmp_path / "deep.csv"
        features.write_text("label,f1,f2\n" + "".join(f"{i % 2},{i},0\n" for i in range(n)))
        base = ["classify", "--train-features", str(features), "--test-features", str(features),
                "--mode", "st"]
        assert main(base) == 0
        assert capsys.readouterr().out == "accuracy 1\n"
        model = tmp_path / "model.json"
        assert main(base + ["--model-out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "model.json: model tree is too deep" in err
        assert not model.exists()

    def test_classify_refuses_feature_files_of_different_widths(self, tmp_path, capsys, monkeypatch):
        # a train CSV of k = 3 and a test CSV of k = 4 used to fit a tree, then fail on "features of
        # shape (4, 8), model expects 6 columns", naming a model the user never gave
        fitted, paths = [], {}
        monkeypatch.setattr(ust.cli, "tree_fit", lambda *args: fitted.append(args))
        for split, k in (("train", 3), ("test", 4)):
            paths[split] = tmp_path / f"{split}_k{k}.csv"
            best = np.arange(4.0 * k).reshape(4, k)
            write_feature_csv(UncertainDataset.from_arrays(best, np.zeros((4, k)), ["A", "B"] * 2), paths[split])
        model = tmp_path / "model.json"
        assert main([
            "classify", "--train-features", str(paths["train"]), "--test-features", str(paths["test"]),
            "--model-out", str(model),
        ]) == 1
        assert capsys.readouterr().err == f"error: {paths['train']} has k=3 features, {paths['test']} has k=4\n"
        assert fitted == [] and not model.exists()


def make_benchmark_dir(tmp_path, n_datasets=2, corrupt=()):
    rng = np.random.default_rng(9)
    root = tmp_path / "bench"
    for i in range(n_datasets):
        name = f"ds{i}"
        write_tsv(root / name / f"{name}_TRAIN.tsv", synth_rows(rng, 3, m=10))
        write_tsv(root / name / f"{name}_TEST.tsv", synth_rows(rng, 2, m=10))
    for name in corrupt:
        (root / name).mkdir(parents=True, exist_ok=True)
        (root / name / f"{name}_TRAIN.tsv").write_text("1\tbogus\n")
        (root / name / f"{name}_TEST.tsv").write_text("1\t0.5\n")
    return root


class TestBenchmark:
    def test_report_shape(self, tmp_path, capsys):
        root = make_benchmark_dir(tmp_path)
        out = tmp_path / "report.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--seed", "0",
            "--k", "2", "--min-len", "3", "--max-len", "5",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(MODES)
        assert {r["mode"] for r in rows} == set(MODES)
        assert all(r["error"] == "" for r in rows)
        assert all(r["seed"] == "0" for r in rows)
        with open(tmp_path / "report_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 3  # three unordered mode pairs
        for s in summary:
            assert int(s["wins_a"]) + int(s["ties"]) + int(s["wins_b"]) == 2
        assert "report ->" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        root = make_benchmark_dir(tmp_path)
        args = [
            "benchmark", "--data-dir", str(root), "--seed", "7",
            "--k", "2", "--min-len", "3", "--max-len", "5", "--no-timings",
        ]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()

    def test_thread_count_invariance(self, tmp_path):
        root = make_benchmark_dir(tmp_path)
        base = [
            "benchmark", "--data-dir", str(root), "--seed", "3",
            "--k", "2", "--min-len", "3", "--max-len", "5", "--no-timings",
        ]
        for jobs in ("1", "2", "4"):
            assert main(base + ["--jobs", jobs, "--out", str(tmp_path / f"j{jobs}.csv")]) == 0
        for name in ("j{}.csv", "j{}_summary.csv"):
            first = (tmp_path / name.format(1)).read_bytes()
            assert (tmp_path / name.format(2)).read_bytes() == first
            assert (tmp_path / name.format(4)).read_bytes() == first

    @pytest.mark.parametrize(
        "modes, views, alone",
        [("st,ust-flat,ust-gauss", [True], [False, True]), ("ust-flat,ust-gauss", [True], [True]),
         ("st", [False], [False])],
        ids=["all-modes", "ust-modes", "st"],
    )
    def test_one_extraction_per_dataset_view(self, modes, views, alone, tmp_path, monkeypatch):
        # the two ust-* modes share one featurization, and on this tie-free data st takes its best
        # estimates, so all modes extract once per dataset; st alone featurizes the certain view.  With
        # the flag forced off, st featurizes the certain view on its own, into the same report bytes
        extract, seen = ust.cli.extract_shapelets, []

        def counted(train, cfg, alike=None):
            seen.append(bool(train.uncertainty.any()))
            shapelets = extract(train, cfg)
            if alike is not None:
                shapelets.certain_alike = alike
            return shapelets

        root = make_benchmark_dir(tmp_path)
        base = ["benchmark", "--data-dir", str(root), "--modes", modes, "--k", "2", "--min-len", "3",
                "--max-len", "5", "--jobs", "2", "--no-timings"]
        for name, spy, extractions in (("r", counted, views), ("alone", lambda *a: counted(*a, alike=False), alone)):
            seen.clear()
            monkeypatch.setattr(ust.cli, "extract_shapelets", spy)
            assert main(base + ["--out", str(tmp_path / f"{name}.csv")]) == 0
            assert sorted(seen) == sorted(extractions * 2)  # two datasets
        with open(tmp_path / "r.csv") as fh:
            assert [r["error"] for r in csv.DictReader(fh)] == [""] * 2 * len(modes.split(","))
        for name in ("{}.csv", "{}_summary.csv"):
            assert (tmp_path / name.format("r")).read_bytes() == (tmp_path / name.format("alone")).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("step", ["featurize", "classify"])
    def test_failures_are_isolated_per_view_and_mode(self, step, jobs, tmp_path, monkeypatch):
        # a failed featurization fails every mode of its view, and st then featurizes the certain view
        # on its own; a failed mode fails only itself
        def boom(*args):
            raise RuntimeError(f"{step} boom")

        extract, seen = ust.cli.extract_shapelets, []

        def spy(train, cfg):
            seen.append(bool(train.uncertainty.any()))
            return boom() if step == "featurize" and train.uncertainty.any() else extract(train, cfg)

        monkeypatch.setattr(ust.cli, "extract_shapelets", spy)
        if step == "featurize":
            failed = {"ust-gauss", "ust-flat"}
        else:
            monkeypatch.setattr(ust.cli, "encode_gaussian", boom)
            failed = {"ust-gauss"}
        root = make_benchmark_dir(tmp_path)
        out = tmp_path / "r.csv"
        modes = ["ust-gauss", "st", "ust-flat"]
        assert main([
            "benchmark", "--data-dir", str(root), "--modes", ",".join(modes), "--k", "2", "--min-len", "3",
            "--max-len", "5", "--jobs", jobs, "--no-timings", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = [(r["dataset"], r["mode"], r["accuracy"] != "", r["error"]) for r in csv.DictReader(fh)]
        assert rows == [
            (name, mode, mode not in failed, f"RuntimeError: {step} boom" if mode in failed else "")
            for name in ("ds0", "ds1") for mode in modes
        ]
        assert sorted(seen) == ([False, False, True, True] if step == "featurize" else [True, True])

    @pytest.mark.parametrize("jobs, workers", [("2", {1}), ("1", {2})])
    def test_kernel_workers_share_the_jobs_budget(self, jobs, workers, tmp_path, monkeypatch):
        # on 2 CPUs, two concurrent tasks get one kernel worker each and a lone task gets both
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2), raising=False)
        kernel = ust.shapelet._grid_min_dissims
        seen = set()

        def spy(*args):
            seen.add(ust.shapelet._worker_count())  # the number of workers running the kernel at once
            return kernel(*args)

        monkeypatch.setattr(ust.shapelet, "_grid_min_dissims", spy)
        root = make_benchmark_dir(tmp_path)
        assert main([
            "benchmark", "--data-dir", str(root), "--k", "2", "--min-len", "3", "--max-len", "5",
            "--jobs", jobs, "--no-timings", "--out", str(tmp_path / "r.csv"),
        ]) == 0
        assert seen == workers

    def test_fewer_tasks_than_jobs_share_the_cpus_of_the_idle_jobs(self, tmp_path, monkeypatch):
        # one dataset is one task: at --jobs 4 on 4 CPUs its kernel gets all 4 workers, not 1
        monkeypatch.setattr(os, "sched_getaffinity", cpus(4), raising=False)
        kernel, seen = ust.shapelet._grid_min_dissims, set()

        def spy(*args):
            seen.add(ust.shapelet._worker_count())
            return kernel(*args)

        monkeypatch.setattr(ust.shapelet, "_grid_min_dissims", spy)
        root = make_benchmark_dir(tmp_path, n_datasets=1)
        base = ["benchmark", "--data-dir", str(root), "--k", "2", "--min-len", "3", "--max-len", "5", "--no-timings"]
        for jobs in ("4", "1"):
            assert main(base + ["--jobs", jobs, "--out", str(tmp_path / f"j{jobs}.csv")]) == 0
            if jobs == "4":
                assert seen == {4}
        assert (tmp_path / "j4.csv").read_bytes() == (tmp_path / "j1.csv").read_bytes()
        assert (tmp_path / "j4_summary.csv").read_bytes() == (tmp_path / "j1_summary.csv").read_bytes()

    def test_refuses_an_output_that_names_a_dataset(self, tmp_path, capsys, monkeypatch):
        # the dataset TSVs are known only once discovered; an output naming one is refused before any loads
        root = make_benchmark_dir(tmp_path, n_datasets=1)
        train, before, loaded = root / "ds0" / "ds0_TRAIN.tsv", file_tree(root), []
        monkeypatch.setattr(ust.cli, "_prepare_noisy", lambda *args: loaded.append(args))
        assert main(["benchmark", "--data-dir", str(root), "--out", str(train)]) == 1
        assert capsys.readouterr().err == f"error: --out must differ from --data-dir, both are {str(train)!r}\n"
        assert loaded == [] and file_tree(root) == before

    def test_corrupt_dataset_is_isolated(self, tmp_path):
        root = make_benchmark_dir(tmp_path, corrupt=("broken",))
        out = tmp_path / "report.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--seed", "0",
            "--k", "2", "--min-len", "3", "--max-len", "5",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        broken = [r for r in rows if r["dataset"] == "broken"]
        healthy = [r for r in rows if r["dataset"] != "broken"]
        assert broken and all(r["error"] != "" for r in broken)
        assert healthy and all(r["error"] == "" for r in healthy)

    @pytest.mark.parametrize("missing", ["TRAIN", "TEST"])
    def test_half_dataset_is_a_dataset_error(self, missing, tmp_path):
        # a directory with only one of its two files is reported, its rows naming the missing file;
        # a directory with neither is no dataset
        root = make_benchmark_dir(tmp_path, n_datasets=1)
        present = "TEST" if missing == "TRAIN" else "TRAIN"
        write_tsv(root / "half" / f"half_{present}.tsv", synth_rows(np.random.default_rng(0), 3, m=10))
        (root / "none").mkdir()
        out = tmp_path / "report.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--k", "2", "--min-len", "3", "--max-len", "5",
            "--no-timings", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            errors = {(r["dataset"], r["mode"]): r["error"] for r in csv.DictReader(fh)}
        gone = f"FileNotFoundError: [Errno 2] No such file or directory: {str(root / 'half' / f'half_{missing}.tsv')!r}"
        assert errors == {(name, mode): gone if name == "half" else "" for name in ("ds0", "half") for mode in MODES}

    def test_overflowing_noise_scale_is_a_dataset_error(self, tmp_path, capsys):
        root = make_benchmark_dir(tmp_path, n_datasets=1)
        write_tsv(root / "big" / "big_TRAIN.tsv", [("1", [1e300, -1e300]), ("2", [1.0, 2.0])])
        write_tsv(root / "big" / "big_TEST.tsv", [("1", [1.0, 2.0])])
        out = tmp_path / "report.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--k", "2", "--min-len", "3", "--max-len", "5",
            "--no-timings", "--out", str(out),
        ]) == 0
        with open(out) as fh:
            errors = {(r["dataset"], r["mode"]): r["error"] for r in csv.DictReader(fh)}
        assert errors == {
            (name, mode): f"ValueError: {OVERFLOWING_SCALE}" if name == "big" else ""
            for name in ("big", "ds0") for mode in MODES
        }
        assert capsys.readouterr().err == ""

    def test_constant_dataset_warns_once_and_ties(self, tmp_path, capsys):
        # standard deviation 0: no noise on either split, one warning, and every mode sees one
        # constant feature, so each tree is one leaf that predicts the smaller label
        root = tmp_path / "bench"
        rows = [(label, [2.5] * 6) for label in ("a", "b", "a", "b")]
        write_tsv(root / "flat" / "flat_TRAIN.tsv", rows)
        write_tsv(root / "flat" / "flat_TEST.tsv", rows)
        out = tmp_path / "report.csv"
        assert main(["benchmark", "--data-dir", str(root), "--no-timings", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: dataset standard deviation is 0: no noise injected, output equals input\n"
        with open(out) as fh:
            report = [(r["mode"], r["accuracy"], r["error"]) for r in csv.DictReader(fh)]
        assert report == [(mode, "0.5", "") for mode in MODES]
        with open(tmp_path / "report_summary.csv") as fh:
            assert [(r["wins_a"], r["ties"], r["wins_b"]) for r in csv.DictReader(fh)] == [("0", "1", "0")] * 3
        assert captured.out.count("0 wins / 1 ties / 0 losses") == 3

    def test_views_start_largest_first(self, tmp_path, monkeypatch):
        # at --jobs 1 the dataset tasks run in task order, by n²·m³ of the train split; a dataset that did not
        # load is no task, and its rows are formatted last.  Each task featurizes its uncertain view once, which
        # st shares on this tie-free data.  The report keeps dataset order, then --modes order.  Each counted
        # extraction is (train shape, whether it is the certain view)
        extract, error, seen = ust.cli.extract_shapelets, ust.cli._error, []

        def spy(train, extraction):
            seen.append((train.best.shape, not train.uncertainty.any()))
            return extract(train, extraction)

        monkeypatch.setattr(ust.cli, "extract_shapelets", spy)
        monkeypatch.setattr(ust.cli, "_error", lambda exc: seen.append("failed") or error(exc))
        root = make_benchmark_dir(tmp_path, n_datasets=0, corrupt=("a",))
        rng = np.random.default_rng(4)
        for name, per_class, m in (("b", 4, 10), ("c", 6, 8), ("d", 5, 12)):  # n²·m³: 64000, 73728, 172800
            write_tsv(root / name / f"{name}_TRAIN.tsv", synth_rows(rng, per_class, m))
            write_tsv(root / name / f"{name}_TEST.tsv", synth_rows(rng, 2, m))
        out = tmp_path / "r.csv"
        modes = ["st", "ust-gauss", "ust-flat"]
        assert main([
            "benchmark", "--data-dir", str(root), "--modes", ",".join(modes), "--k", "2", "--min-len", "3",
            "--max-len", "5", "--jobs", "1", "--no-timings", "--out", str(out),
        ]) == 0
        assert seen == [((10, 12), False), ((12, 8), False), ((8, 10), False)] + ["failed"] * 3  # a: one per mode
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["dataset"], r["mode"]) for r in rows] == [(name, mode) for name in "abcd" for mode in modes]
        assert [r["error"] == "" for r in rows] == [name != "a" for name in "abcd" for _ in modes]

    def test_a_shared_featurization_times_every_row_it_serves(self, tmp_path, monkeypatch):
        # a clock whose every step is longer than the last gives each featurization its own timings: the
        # st row and the two ust-* rows of a tie-free dataset show those of the one they share
        ticks = iter(range(10**6))
        monkeypatch.setattr(ust.cli, "time", type("Clock", (), {"perf_counter": lambda: next(ticks) ** 2}))
        root = make_benchmark_dir(tmp_path)
        out = tmp_path / "r.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--k", "2", "--min-len", "3", "--max-len", "5",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        timings = [{(r["extract_s"], r["transform_s"]) for r in rows if r["dataset"] == ds} for ds in ("ds0", "ds1")]
        assert [len(t) for t in timings] == [1, 1] and timings[0] != timings[1]
        assert len({r["fit_s"] for r in rows}) == len(rows)  # the clock does tell the tasks apart

    def test_max_len_caps_each_dataset(self, tmp_path, capsys):
        # a --max-len past a dataset's train length runs it at that length, which is what no cap gives;
        # a dataset shorter than --min-len keeps its error, and ust extract refuses a cap past the length
        root, rows = FIXTURES / "benchmark", {}
        runs = {"none": [], "capped": ["--max-len", "28"], "short": ["--min-len", "27", "--max-len", "40"]}
        for name, flags in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main([
                "benchmark", "--data-dir", str(root), "--modes", "st,ust-flat", "--k", "2", *flags,
                "--no-timings", "--out", str(out),
            ]) == 0
            with open(out) as fh:
                rows[name] = list(csv.DictReader(fh))
        assert [r["error"] for r in rows["capped"]] == [""] * 6
        tall = [[r for r in rows[name] if r["dataset"] == "TallVsDeep"] for name in ("none", "capped")]
        assert len(tall[0]) == 2 and tall[0] == tall[1]
        refused = "ConfigurationError: length range [27, 40] admits no candidate in series of length 26"
        assert {(r["dataset"], r["error"]) for r in rows["short"]} == {
            ("BumpVsValley", ""), ("TallVsDeep", refused), ("TriShape", "")
        }
        capsys.readouterr()
        train = root / "TallVsDeep" / "TallVsDeep_TRAIN.tsv"
        assert main(["extract", "--data", str(train), "--max-len", "28", "--out", str(tmp_path / "sh.json")]) == 1
        assert capsys.readouterr().err == "error: max_len 28 exceeds series length 26\n"

    def test_all_failures_exit_nonzero(self, tmp_path):
        root = make_benchmark_dir(tmp_path, n_datasets=0, corrupt=("x", "y"))
        rc = main([
            "benchmark", "--data-dir", str(root), "--seed", "0",
            "--out", str(tmp_path / "report.csv"),
        ])
        assert rc == 1

    def test_step_by_step_reproduces_benchmark_accuracy(self, tmp_path, capsys):
        root = make_benchmark_dir(tmp_path, n_datasets=1)
        out = tmp_path / "report.csv"
        assert main([
            "benchmark", "--data-dir", str(root), "--seed", "3",
            "--modes", "ust-flat", "--k", "2", "--min-len", "3", "--max-len", "5",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            (benchmark_acc,) = [float(r["accuracy"]) for r in csv.DictReader(fh)]

        train_path = root / "ds0" / "ds0_TRAIN.tsv"
        test_path = root / "ds0" / "ds0_TEST.tsv"
        train_seed, test_seed = derive_split_seeds(3, "ds0")
        sigma = dataset_std(load_dataset(train_path))
        assert main([
            "add-noise", "--input", str(train_path), "--seed", str(train_seed),
            "--out-values", str(tmp_path / "trv.tsv"),
            "--out-uncertainties", str(tmp_path / "tru.tsv"),
        ]) == 0
        assert main([
            "add-noise", "--input", str(test_path), "--seed", str(test_seed),
            "--sigma", format(sigma, ".17g"),
            "--out-values", str(tmp_path / "tev.tsv"),
            "--out-uncertainties", str(tmp_path / "teu.tsv"),
        ]) == 0
        assert main([
            "extract", "--data", str(tmp_path / "trv.tsv"),
            "--uncertainties", str(tmp_path / "tru.tsv"),
            "--k", "2", "--min-len", "3", "--max-len", "5",
            "--out", str(tmp_path / "sh.json"),
        ]) == 0
        for split, v, u in (("train", "trv", "tru"), ("test", "tev", "teu")):
            assert main([
                "transform", "--data", str(tmp_path / f"{v}.tsv"),
                "--uncertainties", str(tmp_path / f"{u}.tsv"),
                "--shapelets", str(tmp_path / "sh.json"),
                "--out", str(tmp_path / f"{split}.csv"),
            ]) == 0
        capsys.readouterr()
        assert main([
            "classify",
            "--train-features", str(tmp_path / "train.csv"),
            "--test-features", str(tmp_path / "test.csv"),
            "--mode", "ust-flat",
        ]) == 0
        printed = capsys.readouterr().out
        step_acc = float(printed.split("accuracy")[1].split()[0])
        assert step_acc == benchmark_acc


def file_tree(root):
    """Every path under ``root``, with its bytes (None for a directory)."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


class TestArgumentsFirst:
    # every subcommand refuses a bad argument with one error line before it reads an input or writes an
    # output: each output must lie in an existing directory and not be one, and must not name another
    # output or an input of its command.  An output that exists is not refused

    @pytest.fixture()
    def refused(self, tiny_dataset, tmp_path, capsys, monkeypatch):
        """Run a command on valid inputs; assert it fails with one error line, reading and writing nothing."""
        train, _ = tiny_dataset
        make_benchmark_dir(tmp_path, n_datasets=1)
        (tmp_path / "sh.json").write_text(json.dumps([SHAPELET_DOC]))
        best = np.arange(8.0).reshape(4, 2)
        for name in ("f.csv", "g.csv"):
            write_feature_csv(UncertainDataset.from_arrays(best, np.zeros((4, 2)), ["A", "B"] * 2), tmp_path / name)
        (tmp_path / "old.txt").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        (tmp_path / "empty" / "not-a-dataset").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)  # a relative output lies here
        reads = []  # each read that returned: one that raises, as from a missing input, read nothing

        def spy(*args, fn):
            result = fn(*args)
            reads.append(args)
            return result

        for name in ("load_dataset", "load_shapelets", "read_feature_csv", "_discover_datasets"):
            monkeypatch.setattr(ust.cli, name, lambda *args, fn=getattr(ust.cli, name): spy(*args, fn=fn))

        def run(command, flags):
            before = file_tree(tmp_path)
            rc = main([command, *(flag.format(tmp=tmp_path, data=train) for flag in flags.split())])
            err = capsys.readouterr().err
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
            assert reads == [] and file_tree(tmp_path) == before
            return err[len("error: ") : -1].replace(str(tmp_path), "{tmp}")

        return run

    @pytest.mark.parametrize("flags, message", [
        ("--input {data} --out-values {tmp}/old.txt --out-uncertainties {tmp}/old.txt",
         "--out-uncertainties must differ from --out-values, both are '{tmp}/old.txt'"),
        ("--input {data} --out-values {tmp}/v.tsv --out-uncertainties {tmp}/missing/u.tsv",
         "--out-uncertainties '{tmp}/missing/u.tsv': no directory '{tmp}/missing'"),
        ("--input {data} --out-values {tmp}/dir --out-uncertainties {tmp}/u.tsv",
         "--out-values '{tmp}/dir': is a directory"),
        ("--input {data} --out-values {tmp}/v.tsv --out-uncertainties {tmp}/u.tsv --sigma -1",
         "fixed scale must be a finite number > 0, got -1.0"),
        ("--input {data} --out-values {tmp}/v.tsv --out-uncertainties {tmp}/u.tsv --seed -1",
         "seed must fit in an unsigned 64-bit integer"),
        ("--input {data} --out-values {tmp}/v.tsv --out-uncertainties {tmp}/u.tsv --sigma inf",
         "fixed scale must be a finite number > 0, got inf"),
        ("--input {tmp}/nope.tsv --out-values {tmp}/v.tsv --out-uncertainties {tmp}/u.tsv",
         "[Errno 2] No such file or directory: '{tmp}/nope.tsv'"),
        ("--input {data} --out-values {data} --out-uncertainties {tmp}/u.tsv",
         "--out-values must differ from --input, both are '{tmp}/train.tsv'"),
    ], ids=["one-file", "missing-directory", "a-directory", "noise-sigma", "noise-seed", "infinite-sigma",
            "missing-input", "output-names-input"])
    def test_add_noise(self, flags, message, refused):
        assert refused("add-noise", flags) == message

    @pytest.mark.parametrize("flags, message", [
        ("--out {tmp}/missing/s.json", "--out '{tmp}/missing/s.json': no directory '{tmp}/missing'"),
        ("--out {tmp}/dir", "--out '{tmp}/dir': is a directory"),
        ("--out {tmp}/s.json --min-len 0", "min_len must be >= 1, got 0"),
        ("--out {tmp}/s.json --k 0", "k must be >= 1, got 0"),
        ("--out {tmp}/s.json --stride 0", "candidate_stride must be >= 1, got 0"),
        ("--out {tmp}/s.json --min-len 5 --max-len 3", "max_len 3 is smaller than min_len 5"),
        ("--out {data}", "--out must differ from --data, both are '{tmp}/train.tsv'"),
        ("--uncertainties {tmp}/old.txt --out {tmp}/old.txt",
         "--out must differ from --uncertainties, both are '{tmp}/old.txt'"),
    ], ids=["missing-directory", "a-directory", "min-len", "k", "stride", "max-below-min", "output-names-data",
            "output-names-uncertainties"])
    def test_extract(self, flags, message, refused):
        assert refused("extract", "--data {data} " + flags) == message

    @pytest.mark.parametrize("flags, message", [
        ("--out {tmp}/missing/f.csv", "--out '{tmp}/missing/f.csv': no directory '{tmp}/missing'"),
        ("--out {tmp}/dir", "--out '{tmp}/dir': is a directory"),
        ("--out {tmp}/sh.json", "--out must differ from --shapelets, both are '{tmp}/sh.json'"),
    ], ids=["missing-directory", "a-directory", "output-names-shapelets"])
    def test_transform(self, flags, message, refused):
        assert refused("transform", "--data {data} --shapelets {tmp}/sh.json " + flags) == message

    @pytest.mark.parametrize("flags, message", [
        ("--model-out {tmp}/old.txt --predictions-out {tmp}/old.txt",
         "--predictions-out must differ from --model-out, both are '{tmp}/old.txt'"),
        ("--model-out {tmp}/m.json --predictions-out {tmp}/missing/p.txt",
         "--predictions-out '{tmp}/missing/p.txt': no directory '{tmp}/missing'"),
        ("--predictions-out {tmp}/dir", "--predictions-out '{tmp}/dir': is a directory"),
        ("--max-depth -1", "max_depth must be >= 0 or None"),
        ("--min-samples-leaf 0", "min_samples_leaf must be >= 1"),
        ("--predictions-out {tmp}/f.csv",
         "--predictions-out must differ from --train-features, both are '{tmp}/f.csv'"),
        ("--model-out {tmp}/g.csv", "--model-out must differ from --test-features, both are '{tmp}/g.csv'"),
    ], ids=["one-file", "missing-directory", "a-directory", "max-depth", "min-samples-leaf",
            "output-names-train-features", "output-names-test-features"])
    def test_classify(self, flags, message, refused):
        assert refused("classify", "--train-features {tmp}/f.csv --test-features {tmp}/g.csv " + flags) == message

    @pytest.mark.parametrize("flags, message", [
        ("--data-dir {tmp}/bench --out {tmp}/old.txt --summary-out {tmp}/old.txt",
         "--summary-out must differ from --out, both are '{tmp}/old.txt'"),
        ("--data-dir {tmp}/bench --out {tmp}/dir", "--out '{tmp}/dir': is a directory"),
        ("--data-dir {tmp}/bench --out {tmp}/r.csv --max-depth -1", "max_depth must be >= 0 or None"),
        ("--data-dir {tmp}/empty --out {tmp}/r.csv",
         "{tmp}/empty: no dataset directories with <name>_TRAIN.tsv / <name>_TEST.tsv found"),
        ("--data-dir {tmp}/bench --out {tmp}/bench --summary-out {tmp}/summary.csv",
         "--out '{tmp}/bench': is a directory"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --summary-out {tmp}/bench",
         "--summary-out '{tmp}/bench': is a directory"),
        ("--data-dir {tmp}/bench --out {tmp}/missing/r.csv --summary-out {tmp}/summary.csv",
         "--out '{tmp}/missing/r.csv': no directory '{tmp}/missing'"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --summary-out {tmp}/missing/r.csv",
         "--summary-out '{tmp}/missing/r.csv': no directory '{tmp}/missing'"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --summary-out report.csv",
         "--summary-out must differ from --out, both are '{tmp}/report.csv'"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --seed -1", "--seed must be >= 0, got -1"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --jobs 0", "--jobs must be >= 1, got 0"),
        ("--data-dir {tmp}/bench --out {tmp}/report.csv --jobs -2", "--jobs must be >= 1, got -2"),
        *((f"--data-dir {{tmp}}/bench --out {{tmp}}/report.csv --modes {modes}",
           f"--modes must list distinct modes from {MODES}, got {modes!r}") for modes in ("st,st", ",", "st,bogus")),
        ("--data-dir {tmp}/void --out {tmp}/report.csv", "[Errno 2] No such file or directory: '{tmp}/void'"),
    ], ids=["one-file", "a-directory", "tree-params", "no-dataset", "out-a-directory", "summary-a-directory",
            "missing-directory", "summary-missing-directory", "summary-over-report", "negative-seed", "jobs-0",
            "jobs-negative", "modes-repeated", "modes-empty", "modes-unknown", "missing-data-dir"])
    def test_benchmark(self, flags, message, refused):
        assert refused("benchmark", flags) == message


def test_run_config_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match=re.escape(f"unknown mode 'x', expected one of {MODES}")):
        RunConfig(mode="x")


def test_run_pipeline_raises_its_views_error():
    train = UncertainDataset.from_arrays(np.arange(12.0).reshape(2, 6), np.zeros((2, 6)), ["a", "a"])
    with pytest.raises(ValueError, match="^extraction needs at least two classes in the training set$"):
        run_pipeline(train, train, RunConfig())


def tied_grid_splits(tmp_path):
    """The train and test splits (rows 0-15, 16-31) of :func:`write_tied_grid`, with its uncertainties."""
    splits = []
    for first_row in (0, 16):
        values, uncertainties = tmp_path / f"v{first_row}.tsv", tmp_path / f"u{first_row}.tsv"
        write_tied_grid(values, uncertainties, first_row)
        splits.append(load_dataset(values, uncertainties))
    return splits


@pytest.mark.parametrize("workers", [1, 2])
class TestFeaturizeViews:
    # st takes the uncertain view's best estimates only when they are the certain view's features: when
    # that view's extraction scored on best estimates to the end with no exact best tie, or the data are
    # certain.  Otherwise st featurizes the certain view on its own, and the extraction runs twice.  Each
    # counted extraction is (whether its data are uncertain, the certain_alike of its shapelet list)

    @pytest.fixture(autouse=True)
    def extractions(self, workers, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(workers), raising=False)
        extract, seen = ust.cli.extract_shapelets, []

        def spy(d, cfg):
            shapelets = extract(d, cfg)
            assert isinstance(shapelets, list)
            seen.append((d.uncertainty.any(), shapelets.certain_alike))
            return shapelets

        monkeypatch.setattr(ust.cli, "extract_shapelets", spy)
        return seen

    def assert_st_is_the_certain_view(self, train, test, config=ExtractionConfig()):
        views = ust.cli._featurize_views(train, test, {False, True}, config)
        with pytest.MonkeyPatch.context() as mp:  # the reference featurization is not counted
            mp.setattr(ust.cli, "extract_shapelets", ust.shapelet.extract_shapelets)
            alone = ust.cli._featurize_views(train, test, {True}, config)[True]
        for got, want in ((views[True].train, alone.train), (views[True].test, alone.test)):
            assert np.array_equal(got.best.view(np.uint64), want.best.view(np.uint64))
            assert not got.uncertainty.any() and got.labels == want.labels
        return views

    def test_a_tie_restart_featurizes_st_on_its_own(self, extractions, tmp_path):
        train, test = tied_grid_splits(tmp_path)
        views = self.assert_st_is_the_certain_view(train, test)
        assert extractions == [(True, False), (False, True)]
        # the tie changes the picks: the uncertain view's best estimates are not st's features
        assert views[False].train.best.shape != views[True].train.best.shape

    def test_past_the_overflow_bound_st_featurizes_on_its_own(self, extractions):
        # one uncertainty of 1e300 puts the bound past 2**1000: extraction scores the full path from the
        # start, although no sum overflows
        rng = np.random.default_rng(5)
        unc = rng.uniform(0, 0.5, (8, 10))
        unc[3, 4] = 1e300
        d = UncertainDataset.from_arrays(rng.normal(size=(8, 10)), unc, ["A", "B"] * 4)
        views = self.assert_st_is_the_certain_view(d, d, ExtractionConfig(k=4))
        assert extractions == [(True, False), (False, True)]
        assert np.isfinite(views[False].train.uncertainty).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noisy_fixtures_featurize_once(self, seed, extractions):
        for name, train_path, test_path in ust.cli._discover_datasets(FIXTURES / "benchmark"):
            extractions.clear()
            train, test = ust.cli._prepare_noisy(name, train_path, test_path, seed)
            views = self.assert_st_is_the_certain_view(train, test)
            assert extractions == [(True, True)], name
            timings = [(f.extract_s, f.transform_s) for f in (views[True], views[False])]
            assert timings[0] == timings[1]

    def test_certain_data_featurize_once(self, extractions, tmp_path):
        # the tie-heavy grid without its uncertainties: the full path scores from the start and orders every tie
        train, test = (ust.cli._certain(d) for d in tied_grid_splits(tmp_path))
        self.assert_st_is_the_certain_view(train, test)
        assert extractions == [(False, True)]


class TestOneTrainTransformPerView:
    # extraction transforms its train split once, reads the thresholds there and hands the transform on,
    # so each featurized view runs ust.shapelet.shapelet_transform once, inside extraction, on its train
    # split, and ust.cli.shapelet_transform once, on its test split.  Each call is counted as (where,
    # the best estimates it transformed, whether they carry uncertainties)

    @pytest.fixture(autouse=True)
    def calls(self, monkeypatch):
        calls = []

        def counted(where, transform):
            def spy(d, shapelets):
                calls.append((where, d.best.tobytes(), bool(d.uncertainty.any())))
                return transform(d, shapelets)
            return spy

        monkeypatch.setattr(ust.shapelet, "shapelet_transform", counted("extraction", ust.shapelet.shapelet_transform))
        monkeypatch.setattr(ust.cli, "shapelet_transform", counted("cli", ust.cli.shapelet_transform))
        return calls

    @staticmethod
    def expected(splits, uncertain):
        views = [(("extraction", train), ("cli", test)) for train, test in splits]
        return sorted((where, d.best.tobytes(), uncertain) for view in views for where, d in view)

    @pytest.mark.parametrize("mode", MODES)
    def test_run_pipeline(self, mode, calls):
        name, train_path, test_path = ust.cli._discover_datasets(FIXTURES / "benchmark")[0]
        splits = ust.cli._prepare_noisy(name, train_path, test_path, 0)
        run_pipeline(*splits, RunConfig(mode=mode, extraction=ExtractionConfig(k=4)))
        assert sorted(calls) == self.expected([splits], mode != "st")

    @pytest.mark.parametrize("modes", ["st,ust-flat,ust-gauss", "st"])
    def test_benchmark(self, modes, calls, tmp_path, monkeypatch):
        # on the tie-free fixtures st takes the uncertain view's best estimates when a ust-* mode runs
        prepare, splits = ust.cli._prepare_noisy, []
        monkeypatch.setattr(ust.cli, "_prepare_noisy", lambda *args: splits.append(prepare(*args)) or splits[-1])
        argv = ["benchmark", "--data-dir", str(FIXTURES / "benchmark"), "--modes", modes, "--jobs", "2",
                "--no-timings", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        assert len(splits) == 3 and sorted(calls) == self.expected(splits, modes != "st")


@pytest.fixture()
def tracing(monkeypatch):
    """perfbench's tracer module, loaded read-only from its file."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # tracing imports its sibling counters
    spec = importlib.util.spec_from_file_location("tracing", bench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_traced_names_exist_in_cli(tracing):
    # perfbench's tracer rebinds these ust.cli names and skips, with only a
    # stderr notice, any the module lacks; load_model has no CLI caller yet
    missing = [name for name in tracing.LAYERS if name != "load_model" and not hasattr(ust.cli, name)]
    assert missing == []


def test_perfbench_traces_the_benchmark_extraction(tracing, tmp_path, capsys):
    # ust benchmark extracts through ust.cli.extract_shapelets, the name the tracer rebinds: the
    # tie-free fixtures extract once per dataset, and the extraction counters see every call
    rec = tracing.Recorder("benchmark")
    with tracing.patched(ust.cli, rec), rec.span(tracing.ROOT):
        assert main([
            "benchmark", "--data-dir", str(FIXTURES / "benchmark"), "--jobs", "2", "--out", str(tmp_path / "r.csv"),
        ]) == 0
    assert [sp["name"] for sp in rec.spans].count("shapelet.extract") == 3
    assert tracing.layer_metrics(rec, 2)["shapelet.candidates"] > 0


def test_perfbench_task_spans_do_not_nest(tracing, tiny_dataset, tmp_path, capsys, monkeypatch):
    # with the benchmark's per-dataset task mapped to cli.task, ust benchmark opens one cli.task span per
    # dataset and none inside another, so the pool's busy fraction is at most 1; run_pipeline and ust
    # classify open exactly one
    monkeypatch.setitem(tracing.LAYERS, "_run_dataset", "cli.task")

    def traced(run, jobs=1):
        rec = tracing.Recorder("tasks")
        with tracing.patched(ust.cli, rec), rec.span(tracing.ROOT):
            run()
        tasks = [i for i, sp in enumerate(rec.spans) if sp["name"] == "cli.task"]
        for i in tasks:  # no cli.task span among the ancestors of another
            parent = rec.spans[i]["parent"]
            while parent is not None:
                assert rec.spans[parent]["name"] != "cli.task"
                parent = rec.spans[parent]["parent"]
        return len(tasks), tracing.layer_metrics(rec, jobs)

    datasets = ust.cli._discover_datasets(FIXTURES / "benchmark")
    bench = ["benchmark", "--data-dir", str(FIXTURES / "benchmark"), "--jobs", "2", "--out", str(tmp_path / "r.csv")]
    count, metrics = traced(lambda: main(bench), jobs=2)
    assert count == len(datasets) == 3
    assert 0 < metrics["cli.pool_busy_frac"] <= 1

    train, test = (load_dataset(path) for path in tiny_dataset)
    config = RunConfig("st", ExtractionConfig(min_len=3, max_len=5, k=2))
    assert traced(lambda: ust.cli.run_pipeline(train, test, config))[0] == 1
    write_feature_csv(UncertainDataset.from_arrays(np.eye(2), np.zeros((2, 2)), ["A", "B"]), tmp_path / "f.csv")
    classify = ["classify", "--train-features", str(tmp_path / "f.csv"), "--test-features", str(tmp_path / "f.csv")]
    assert traced(lambda: main(classify))[0] == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, required", [
    ("extract", ["--data", "v.tsv", "--out", "s.json"]),
    ("classify", ["--train-features", "a.csv", "--test-features", "b.csv"]),
    ("benchmark", ["--data-dir", "d", "--out", "r.csv"]),
])
def test_flag_defaults_are_the_library_defaults(command, required):
    args = ust.cli.build_parser().parse_args([command, *required])
    if command != "classify":
        assert ust.cli._extraction_from_args(args) == ExtractionConfig()
    if command != "extract":
        assert ust.cli._tree_from_args(args) == TreeParams()


def test_committed_fixtures_are_the_generator_output(tmp_path, monkeypatch):
    # archive-cli and the acceptance tests read tests/fixtures/benchmark: it must be what the script writes
    fixtures = Path(__file__).resolve().parent / "fixtures"
    script = fixtures / "generate_benchmark_fixtures.py"
    spec = importlib.util.spec_from_file_location(script.stem, script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "OUT", tmp_path)
    generator.main()
    committed = sorted(p.relative_to(fixtures / "benchmark") for p in (fixtures / "benchmark").rglob("*.tsv"))
    assert len(committed) == 6
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.tsv")) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (fixtures / "benchmark" / name).read_bytes(), name


def test_no_pipeline_step_imports_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, from np.unique of integers among others: an import of about 9 ms
    # that nothing in ust needs.  A fresh process runs every step, the benchmark and the transform included
    fixtures = Path(__file__).resolve().parent / "fixtures" / "benchmark"
    data = fixtures / "TriShape" / "TriShape_TRAIN.tsv"
    steps = [
        ["benchmark", "--data-dir", str(fixtures), "--no-timings", "--out", str(tmp_path / "r.csv")],
        ["add-noise", "--input", str(data), "--out-values", str(tmp_path / "v.tsv"),
         "--out-uncertainties", str(tmp_path / "u.tsv")],
        ["extract", "--data", str(tmp_path / "v.tsv"), "--uncertainties", str(tmp_path / "u.tsv"),
         "--out", str(tmp_path / "sh.json")],
        ["transform", "--data", str(tmp_path / "v.tsv"), "--uncertainties", str(tmp_path / "u.tsv"),
         "--shapelets", str(tmp_path / "sh.json"), "--out", str(tmp_path / "f.csv")],
        ["classify", "--train-features", str(tmp_path / "f.csv"), "--test-features", str(tmp_path / "f.csv")],
    ]
    script = (
        "import json, sys\n"
        "from ust.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, argv[0]\n"
    )
    src = str(Path(ust.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(steps)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
