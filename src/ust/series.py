"""Uncertain time series, labeled datasets, their text files and noise injection.

A dataset is stored as one or two TSV files, or as one feature CSV:

* values file: UTF-8 TSV, one instance per line, first field is the class
  label, the remaining ``m`` fields are decimal reals.  No header.  This
  matches the common time-series archive layout.
* uncertainty file (optional): UTF-8 TSV with the same number of lines and
  ``m`` reals per line, no label column.  Row ``i`` column ``j`` pairs with
  values row ``i`` column ``j + 1``.
* feature CSV: UTF-8, header ``label,f1..f2k``, then per row a label, ``k``
  best estimates and their ``k`` uncertainties (the transform's output).

All three hold finite reals with 17 significant digits (a bit-exact round
trip for binary64), uncertainties >= 0 and non-empty labels without tab,
CR or LF.  A malformed number raises ``<file>:<line>: column <c>: ...``.

In memory a dataset is two read-only ``(n, m)`` float64 matrices, ``best``
and ``uncertainty``, plus one label per row; every stage after loading
works on those matrices.  The shapelet transform returns a dataset too:
row ``i`` holds the k uncertain distances from instance ``i`` to the k
shapelets, so ``m`` is k there.

Noise injection turns a certain dataset into an uncertain one: every value
gets an additive draw from ``N(0, sigma)`` and its recorded uncertainty is
the absolute difference between the noisy and the original value.  The
generator is pinned for reproducibility, see :func:`inject_noise`.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .core import DimensionMismatchError, UncertainVector

__all__ = [
    "UncertainSeries",
    "UncertainDataset",
    "NoiseSpec",
    "DatasetFormatError",
    "load_dataset",
    "save_dataset",
    "write_feature_csv",
    "read_feature_csv",
    "dataset_std",
    "inject_noise",
    "derive_split_seeds",
    "format_real",
]


class DatasetFormatError(ValueError):
    """A dataset file violates the documented TSV or feature-CSV format."""


@dataclass(frozen=True)
class UncertainSeries:
    """A chronological sequence of uncertain measurements, optionally labeled."""

    values: UncertainVector
    label: str | None = None

    def __len__(self) -> int:
        return len(self.values)


class UncertainDataset:
    """Equal-length labeled uncertain series, stored as two matrices.

    ``best`` and ``uncertainty`` are read-only, C-contiguous float64 arrays
    of shape ``(n_instances, series_length)``; row ``i`` of both, with
    ``labels[i]``, is instance ``i``.  Uncertainties are stored as absolute
    values, every value is finite, and every instance carries a label.
    ``d[i]`` and iteration yield :class:`UncertainSeries` built from a row.
    """

    __slots__ = ("best", "uncertainty", "_labels")

    def __init__(self, instances: Sequence[UncertainSeries]) -> None:
        instances = list(instances)
        if not instances:
            raise ValueError("a dataset must contain at least one instance")
        m = len(instances[0])
        for i, inst in enumerate(instances):
            if len(inst) != m:
                raise ValueError(
                    f"instance {i} has length {len(inst)}, expected {m}: datasets are equal-length"
                )
        self._freeze(
            np.stack([inst.values.best for inst in instances]),
            np.stack([inst.values.uncertainty for inst in instances]),
            [inst.label for inst in instances],
        )

    @classmethod
    def from_arrays(
        cls, best: ArrayLike, uncertainty: ArrayLike, labels: Sequence[str]
    ) -> "UncertainDataset":
        """Build a dataset from ``(n, m)`` matrices and ``n`` labels (all copied)."""
        d = cls.__new__(cls)
        d._freeze(best, uncertainty, labels)
        return d

    def _freeze(self, best: ArrayLike, uncertainty: ArrayLike, labels: Sequence[str]) -> None:
        b = np.array(best, dtype=np.float64, order="C", copy=True)
        u = np.array(uncertainty, dtype=np.float64, order="C", copy=True)
        labels = tuple(labels)
        if b.ndim != 2 or b.shape != u.shape:
            raise DimensionMismatchError(f"best {b.shape} and uncertainty {u.shape} must be equal (n, m)")
        if b.size == 0:
            raise ValueError("a dataset must contain at least one instance of at least one value")
        if len(labels) != b.shape[0]:
            raise ValueError(f"{len(labels)} labels for {b.shape[0]} instances")
        for i, label in enumerate(labels):
            if label is None or label == "":
                raise ValueError(f"instance {i} has no label: dataset instances must be labeled")
            if not isinstance(label, str) or "\t" in label or "\r" in label or "\n" in label:
                raise ValueError(f"instance {i} has label {label!r}: want a str without tab/CR/LF")
        if not np.isfinite(b).all() or not np.isfinite(u).all():
            raise ValueError("dataset values must be finite")
        np.abs(u, out=u)
        b.setflags(write=False)
        u.setflags(write=False)
        self.best = b
        self.uncertainty = u
        self._labels = labels

    def __len__(self) -> int:
        return self.best.shape[0]

    def __getitem__(self, i: int) -> UncertainSeries:
        return UncertainSeries(UncertainVector(self.best[i], self.uncertainty[i]), self._labels[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def series_length(self) -> int:
        return self.best.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    @property
    def class_set(self) -> set[str]:
        return set(self._labels)

    def is_certain(self) -> bool:
        return not self.uncertainty.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertainDataset):
            return NotImplemented
        return (
            self._labels == other._labels
            and np.array_equal(self.best, other.best)
            and np.array_equal(self.uncertainty, other.uncertainty)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one noise-injection run.

    ``fixed_scale=None`` means the Gaussian scale is the pooled population
    standard deviation of the target dataset; a float pins it explicitly.
    """

    seed: int = 0
    fixed_scale: float | None = None

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.fixed_scale is not None and not self.fixed_scale > 0:
            raise ValueError(f"fixed scale must be > 0, got {self.fixed_scale}")


def format_real(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe for binary64)."""
    return format(float(x), ".17g")


def _reals(at: str, tokens: Sequence[str], first_col: int, nonneg: bool = False) -> list[float]:
    """Parse the reals of row ``at`` (``<file>:<line>``); ``tokens[0]`` is column ``first_col``."""
    out = []
    for col, tok in enumerate(tokens, start=first_col):
        try:
            value = float(tok)
        except ValueError:
            raise DatasetFormatError(f"{at}: column {col}: not a decimal real: {tok!r}") from None
        if not math.isfinite(value):
            raise DatasetFormatError(f"{at}: column {col}: value must be finite, got {tok!r}")
        if nonneg and value < 0:
            raise DatasetFormatError(
                f"{at}: column {col}: negative uncertainty {tok}, must be >= 0"
            )
        out.append(value)
    return out


def _json_int(x, name: str, lo: int, hi: float = math.inf) -> int:
    """``x`` if it is a JSON integer in ``[lo, hi)``; raises naming ``name`` otherwise."""
    if type(x) is not int:  # excludes bool, which json.loads also yields
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if not lo <= x < hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {x}")
    return x


def _json_real(x, name: str) -> float:
    """``x`` as a float if it is a finite JSON number; raises naming ``name`` otherwise."""
    if type(x) not in (int, float):
        raise TypeError(f"{name} must be a number, got {x!r}")
    value = float(x)  # OverflowError for an integer beyond binary64
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return value


@contextmanager
def _open_text(path: str, newline: str | None = None):
    """Open a UTF-8 file for reading, skipping a leading byte-order mark.

    Undecodable bytes raise an error naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    with _open_text(path) as fh:
        lines = [(line_no, line.rstrip("\r\n")) for line_no, line in enumerate(fh, start=1)]
    return [(line_no, line.split("\t")) for line_no, line in lines if line]


def load_dataset(values_path: str | Path, uncertainty_path: str | Path | None = None) -> UncertainDataset:
    """Load a dataset from a values TSV and an optional uncertainty TSV.

    Without an uncertainty file every value gets uncertainty 0 (a certain
    dataset).  Raises :class:`DatasetFormatError` naming file, line and
    column on any malformed row, ragged lengths, or a shape mismatch between
    the two files.
    """
    vpath = str(values_path)
    vrows = _read_rows(vpath)
    if not vrows:
        raise DatasetFormatError(f"{vpath}: no instances found")

    labels: list[str] = []
    bests: list[list[float]] = []
    m = len(vrows[0][1]) - 1
    for line_no, fields in vrows:
        if len(fields) < 2:
            raise DatasetFormatError(
                f"{vpath}:{line_no}: expected a label followed by at least one value"
            )
        if not fields[0]:
            raise DatasetFormatError(f"{vpath}:{line_no}: column 1: missing label")
        if len(fields) - 1 != m:
            raise DatasetFormatError(
                f"{vpath}:{line_no}: ragged row: {len(fields) - 1} values, expected {m}"
            )
        labels.append(fields[0])
        bests.append(_reals(f"{vpath}:{line_no}", fields[1:], 2))

    if uncertainty_path is None:
        uncs = np.zeros((len(bests), m))
    else:
        upath = str(uncertainty_path)
        urows = _read_rows(upath)
        if len(urows) != len(vrows):
            raise DatasetFormatError(
                f"{upath}: {len(urows)} rows but {vpath} has {len(vrows)}: shape mismatch"
            )
        uncs = []
        for line_no, fields in urows:
            if len(fields) != m:
                raise DatasetFormatError(
                    f"{upath}:{line_no}: {len(fields)} values, expected {m}: shape mismatch"
                )
            uncs.append(_reals(f"{upath}:{line_no}", fields, 1, nonneg=True))

    return UncertainDataset.from_arrays(bests, uncs, labels)


def save_dataset(d: UncertainDataset, values_path: str | Path, uncertainty_path: str | Path) -> None:
    """Write a values TSV and an uncertainty TSV that :func:`load_dataset` reads back."""
    with open(values_path, "w", encoding="utf-8", newline="") as fh:
        for label, row in zip(d.labels, d.best.tolist()):
            fh.write("\t".join([label] + [format_real(x) for x in row]) + "\n")
    with open(uncertainty_path, "w", encoding="utf-8", newline="") as fh:
        for row in d.uncertainty.tolist():
            fh.write("\t".join(format_real(x) for x in row) + "\n")


def _feature_header(k: int) -> list[str]:
    return ["label"] + [f"f{j + 1}" for j in range(2 * k)]


def write_feature_csv(f: UncertainDataset, path: str | Path) -> None:
    """Write ``label,f1..f2k`` rows, best estimates then uncertainties (lossless)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_feature_header(f.series_length))
        for label, row in zip(f.labels, np.hstack([f.best, f.uncertainty]).tolist()):
            writer.writerow([label] + [format_real(x) for x in row])


def read_feature_csv(path: str | Path) -> UncertainDataset:
    """Load a feature CSV; errors name the file and, for a bad row, its line."""
    path = str(path)
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from None
    k = (len(rows[0]) - 1) // 2 if rows else 0
    if len(rows) < 2 or k < 1 or rows[0] != _feature_header(k):
        raise DatasetFormatError(f"{path}: expected header 'label,f1..f2k' and at least one row")
    bests, uncs = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        at = f"{path}:{line_no}"
        if len(row) != 2 * k + 1:
            raise DatasetFormatError(f"{at}: expected {2 * k + 1} fields, got {len(row)}")
        bests.append(_reals(at, row[1 : k + 1], 2))
        uncs.append(_reals(at, row[k + 1 :], k + 2, nonneg=True))
    try:
        return UncertainDataset.from_arrays(bests, uncs, [row[0] for row in rows[1:]])
    except ValueError as exc:  # a label the format cannot hold
        raise DatasetFormatError(f"{path}: {exc}") from None


def dataset_std(d: UncertainDataset) -> float:
    """Population standard deviation of all best values pooled together."""
    return float(np.std(d.best))


def _instance_noise(seed: int, instance_index: int, size: int) -> np.ndarray:
    """Standard-normal draws for one instance, from its own pinned substream.

    The substream is ``SeedSequence(entropy=seed, spawn_key=(instance_index,))``
    feeding a Philox4x32-10 counter-based generator; each value consumes two
    64-bit uniform doubles ``u1, u2`` in sequence order and maps them through
    the Box-Muller transform ``sqrt(-2*ln(1 - u1)) * cos(2*pi*u2)``.  This
    derivation makes instances independent, so injection can be parallelized
    across instances without changing results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(instance_index,))
    gen = np.random.Generator(np.random.Philox(ss))
    u = gen.random(2 * size)
    u1 = u[0::2]
    u2 = u[1::2]
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def inject_noise(d: UncertainDataset, spec: NoiseSpec) -> UncertainDataset:
    """Add Gaussian noise to a certain dataset and record it as uncertainty.

    Every value ``t`` becomes ``t + e`` with ``e ~ N(0, sigma)``; the stored
    uncertainty is ``|noisy - t|``, i.e. exactly the absolute injected noise.
    ``sigma`` is ``spec.fixed_scale`` or, when that is None, the pooled
    population standard deviation of ``d``.  The same spec always produces a
    bit-identical dataset.
    """
    if not d.is_certain():
        raise ValueError("noise injection expects a certain dataset (all uncertainties zero)")
    sigma = spec.fixed_scale if spec.fixed_scale is not None else dataset_std(d)
    if sigma == 0.0:
        warnings.warn(
            "dataset standard deviation is 0: no noise injected, output equals input",
            RuntimeWarning,
            stacklevel=2,
        )
        return d

    n, m = d.best.shape
    noisy = sigma * np.stack([_instance_noise(spec.seed, i, m) for i in range(n)])
    noisy += d.best
    return UncertainDataset.from_arrays(noisy, np.abs(noisy - d.best), d.labels)


def derive_split_seeds(master_seed: int, dataset_name: str) -> tuple[int, int]:
    """Derive (train, test) injection seeds from a master seed and a dataset name.

    Keeps one user-facing seed while giving the two splits independent noise
    streams; the derivation depends only on the name, not on enumeration
    order.
    """
    entropy = [int(master_seed)] + list(dataset_name.encode("utf-8"))
    train_seed, test_seed = np.random.SeedSequence(entropy=entropy).generate_state(2, np.uint64)
    return int(train_seed), int(test_seed)
