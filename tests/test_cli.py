import csv
import json

import numpy as np
import pytest

from ust import (
    ExtractionConfig,
    NoiseSpec,
    TreeParams,
    dataset_std,
    derive_split_seeds,
    inject_noise,
    load_dataset,
    load_shapelets,
)
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

    def test_missing_input_reports_path(self, tmp_path, capsys):
        rc = main(
            [
                "add-noise",
                "--input", str(tmp_path / "nope.tsv"),
                "--out-values", str(tmp_path / "v.tsv"),
                "--out-uncertainties", str(tmp_path / "u.tsv"),
            ]
        )
        assert rc != 0
        assert "nope.tsv" in capsys.readouterr().err

    def test_constant_dataset_warns_and_outputs_zero_uncertainty(self, tmp_path):
        train = write_tsv(tmp_path / "c.tsv", [("1", [2.0, 2.0]), ("2", [2.0, 2.0])])
        with pytest.warns(RuntimeWarning, match="standard deviation is 0"):
            rc = main(
                [
                    "add-noise",
                    "--input", str(train),
                    "--out-values", str(tmp_path / "v.tsv"),
                    "--out-uncertainties", str(tmp_path / "u.tsv"),
                ]
            )
        assert rc == 0
        out = load_dataset(tmp_path / "v.tsv", tmp_path / "u.tsv")
        assert out == load_dataset(train)


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
        ],
        ids=[
            "missing-values", "scalar-threshold", "object-not-list", "string-best",
            "invalid-json", "too-deep", "not-utf8", "float-offset", "negative-source",
            "string-threshold", "bool-quality", "huge-quality", "numeric-string-best",
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

    @pytest.mark.parametrize("command", ["extract", "transform"])
    def test_overflow_is_one_error_line(self, command, tmp_path, capsys):
        data = write_tsv(tmp_path / "v.tsv", [("1", [1e200, -1e200, 1e200]), ("2", [-1e200, 1e200, -1e200])])
        if command == "extract":
            argv = ["extract", "--data", str(data), "--min-len", "2", "--out", str(tmp_path / "sh.json")]
        else:
            (tmp_path / "sh.json").write_text(json.dumps([SHAPELET_DOC]))
            argv = ["transform", "--data", str(data), "--shapelets", str(tmp_path / "sh.json"),
                    "--out", str(tmp_path / "f.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: dissimilarity overflowed to non-finite values\n"

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
        with pytest.warns(RuntimeWarning, match="mode st ignores uncertainties"):
            rc = main([
                "classify",
                "--train-features", str(tmp_path / "f.csv"),
                "--test-features", str(tmp_path / "f.csv"),
                "--mode", "st",
            ])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

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
        assert main(base + ["--jobs", "1", "--out", str(tmp_path / "j1.csv")]) == 0
        assert main(base + ["--jobs", "4", "--out", str(tmp_path / "j4.csv")]) == 0
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j4.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_rejects_jobs_below_one(self, jobs, tmp_path, capsys):
        root = make_benchmark_dir(tmp_path)
        out = tmp_path / "report.csv"
        rc = main(["benchmark", "--data-dir", str(root), "--jobs", jobs, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--jobs" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, name",
        [(["--seed", "-1"], "--seed"), (["--summary-out", "report.csv"], "--summary-out")],
        ids=["negative-seed", "summary-over-report"],
    )
    def test_rejects_bad_arguments_before_writing(self, flags, name, tmp_path, capsys, monkeypatch):
        root = make_benchmark_dir(tmp_path)
        monkeypatch.chdir(tmp_path)
        rc = main(["benchmark", "--data-dir", str(root), "--out", str(tmp_path / "report.csv"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("modes", ["st,st", ",", "st,bogus"])
    def test_rejects_bad_mode_list(self, modes, tmp_path, capsys):
        root = make_benchmark_dir(tmp_path)
        out = tmp_path / "report.csv"
        rc = main(["benchmark", "--data-dir", str(root), "--modes", modes, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--modes" in err
        assert list(tmp_path.glob("*.csv")) == []

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

    def test_all_failures_exit_nonzero(self, tmp_path):
        root = make_benchmark_dir(tmp_path, n_datasets=0, corrupt=("x", "y"))
        rc = main([
            "benchmark", "--data-dir", str(root), "--seed", "0",
            "--out", str(tmp_path / "report.csv"),
        ])
        assert rc == 1

    def test_missing_directory(self, tmp_path, capsys):
        rc = main([
            "benchmark", "--data-dir", str(tmp_path / "void"),
            "--out", str(tmp_path / "report.csv"),
        ])
        assert rc != 0
        assert "void" in capsys.readouterr().err

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
