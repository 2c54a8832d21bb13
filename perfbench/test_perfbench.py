"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import counters  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ust.cli  # noqa: E402
from ust.classify import encode_flatten, tree_fit  # noqa: E402
from ust.shapelet import ExtractionConfig, shapelet_transform  # noqa: E402


def tiny_dataset(seed: int = 5, n: int = 8, m: int = 16):
    from ust.core import UncertainVector
    from ust.series import UncertainDataset, UncertainSeries

    labels, best, unc = workloads.planted_motif(np.random.default_rng(seed), n, m, 2, 3.0, 0.5)
    return UncertainDataset(
        [UncertainSeries(UncertainVector(b, u), lab) for lab, b, u in zip(labels, best, unc)]
    )


@pytest.mark.parametrize("min_len,max_len,stride", [(3, None, 1), (2, 7, 2), (12, 12, 3), (1, 4, 5)])
def test_extraction_closed_forms_match_enumeration(min_len, max_len, stride):
    n, m = 4, 12
    cands = cells = grid = 0
    for l in range(min_len, (max_len or m) + 1):
        for _source in range(n):
            for _offset in range(0, m - l + 1, stride):
                cands += 1
                for _series in range(n):
                    for _window in range(m - l + 1):
                        grid += 1
                        cells += sum(1 for _index in range(l))
    shape = (n, m, min_len, max_len, stride)
    assert counters.candidates(*shape) == cands
    assert counters.distance_cells(*shape) == cells
    assert counters.kernel_bytes(*shape) == 3 * 8 * grid


def test_transform_cells_match_enumeration():
    n, m, lengths = 5, 9, [3, 9, 4, 4]
    cells = sum(1 for l in lengths for _ in range(n) for _ in range(m - l + 1) for _ in range(l))
    assert counters.transform_cells(n, m, lengths) == cells


def test_tree_counters_match_row_by_row_walk():
    data = tiny_dataset(n=24)
    shapelets = ust.cli.extract_shapelets(data, ExtractionConfig(min_len=3, max_len=5, k=4))
    encoded = encode_flatten(shapelet_transform(data, shapelets))
    model = tree_fit(encoded)

    scans = 0
    leaf_rows: dict[int, list[str]] = {}
    for row, label in zip(encoded.features, encoded.labels):
        node = model.root
        while not node.is_leaf:
            scans += encoded.features.shape[1]
            node = node.left if row[node.feature] <= node.threshold else node.right
        leaf_rows.setdefault(id(node), []).append(label)

    nodes = depth = 0
    frontier = [(model.root, 0)]
    while frontier:
        node, d = frontier.pop()
        nodes, depth = nodes + 1, max(depth, d)
        if node.is_leaf:
            # routing with the prediction rule reproduces the fit's partition
            got = {lab: leaf_rows[id(node)].count(lab) for lab in set(leaf_rows[id(node)])}
            assert got == node.distribution
        else:
            frontier += [(node.left, d + 1), (node.right, d + 1)]
    assert counters.tree_shape(model.root) == (nodes, depth)
    assert counters.split_scans(model.root, encoded.features) == scans
    assert depth > 0


def traced_pipeline(data):
    rec = tracing.Recorder("test")
    with tracing.patched(ust.cli, rec), rec.span(tracing.ROOT):
        ust.cli.run_pipeline(data, data, ust.cli.RunConfig(
            "ust-flat", ExtractionConfig(min_len=3, max_len=6, candidate_stride=2)))
    return tracing.layer_metrics(rec, jobs=1)


def test_traced_counters_repeat_exactly_and_names_are_restored():
    data = tiny_dataset()
    original = ust.cli.extract_shapelets
    a, b = traced_pipeline(data), traced_pipeline(data)
    assert ust.cli.extract_shapelets is original
    for name, _, _ in spec.PER_LAYER:
        if spec.is_count(name):
            assert a[name] == b[name], name
    assert a["shapelet.candidates"] == counters.candidates(8, 16, 3, 6, 2)
    assert a["classify.tree_nodes"] >= 1
    assert a["trace.unattributed_frac"] < spec.MAX_UNATTRIBUTED
    assert set(a) | {"trace.overhead_frac"} == {n for n, _, _ in spec.PER_LAYER}


def test_artifact_bytes_and_values_loaded_come_from_the_files(tmp_path):
    labels, best, unc = workloads.planted_motif(np.random.default_rng(1), 8, 16, 2, 3.0, 0.5)
    v, u = workloads.write_split(tmp_path, "d", labels, best, unc)
    out = tmp_path / "sh.json"
    rec = tracing.Recorder("test")
    with tracing.patched(ust.cli, rec), rec.span(tracing.ROOT):
        assert workloads._quiet_main([
            "extract", "--data", str(v), "--uncertainties", str(u),
            "--k", "2", "--min-len", "3", "--max-len", "4", "--out", str(out),
        ]) == ""
    m = tracing.layer_metrics(rec, jobs=1)
    assert m["shapelet.json_io_bytes"] == out.stat().st_size
    assert m["series.values_loaded"] == 2 * 8 * 16
    assert m["io_s"] >= m["series.load_dataset_s"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps a (other thread)
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 3.0, 1.0]


def test_archive_cli_digest_is_independent_of_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    digests = {}
    for jobs in (1, 2):
        work = tmp_path / f"jobs{jobs}"
        work.mkdir()
        state = workloads.setup_archive_cli(11, work, jobs=jobs)
        outcome = workloads.finish_archive_cli(state, workloads.run_archive_cli(state))
        assert outcome.problems == []
        assert all(t["error"] == "" for t in outcome.tasks)
        digests[jobs] = {t["name"]: t["digest"] for t in outcome.tasks}
    assert digests[1] == digests[2]
    assert len(digests[1]) == 3 * len(workloads.MODES)


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()
    doc = json.loads(spec.benchmark_json())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"setup_s"} <= {m["name"] for m in doc["end_to_end"]}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract-motif",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_mismatch_error_and_drift_count_as_failed():
    import run

    def rep(digest, error=""):
        return {"tasks": [{"name": "t", "error": error, "digest": digest}], "problems": []}

    assert run.score_tasks([rep("a"), rep("a")], {"t": "a"})[:2] == (2, 0)
    assert run.score_tasks([rep("a"), rep("a")], {"t": "b"})[:2] == (2, 2)
    assert run.score_tasks([rep("a"), rep("b")], None)[:2] == (2, 1)
    attempted, failed, problems = run.score_tasks([rep("a", error="boom")], None)
    assert (attempted, failed) == (1, 1) and "boom" in problems[0]
