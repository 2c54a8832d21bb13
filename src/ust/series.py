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
CR or LF.  A number is any string Python's ``float`` accepts.

A reader splits a file into lines in Python: a leading byte-order mark is
skipped, CR LF, CR and LF end a line, and a TSV skips empty lines.  NumPy's
C text reader then parses a table's number fields when each is printable
ASCII without ``_`` and, in a CSV, no line holds a ``"``, a NUL or more
characters than ``csv.field_size_limit()`` (such a CSV is read again by the
:mod:`csv` module).  Labels may hold anything.  On such fields NumPy's
reader accepts exactly what ``float`` accepts, and both convert through
CPython's correctly rounded ``PyOS_string_to_double``, a scalar routine
that NumPy's SIMD dispatch does not reach, so the values keep ``float``'s
bits.  Any other table, or one with a ragged row or a refused, non-finite
or negative-uncertainty value, takes the per-row checked parse: ``float``
on each field in line order, which raises
``<file>:<line>: column <c>: ...`` for the first bad one.  So the accepted
set, the bits and the messages do not depend on the path.
A writer formats each row with one ``%`` operation.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

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

    @property
    def series_length(self) -> int:
        return self.best.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

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
        if self.fixed_scale is not None and not (math.isfinite(self.fixed_scale) and self.fixed_scale > 0):
            raise ValueError(f"fixed scale must be a finite number > 0, got {self.fixed_scale}")


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


# the characters a number field may hold for NumPy's reader: printable ASCII without "_"
_NUMBER_BYTES = bytes(range(0x20, 0x7F)).replace(b"_", b"")


def _json_int(x, name: str, lo: int, hi: float = math.inf) -> int:
    """``x`` if it is a JSON integer in ``[lo, hi)``; raises naming ``name`` otherwise."""
    if type(x) is not int:  # excludes bool, which json.loads also yields
        raise TypeError(f"{name} must be an integer, got {x!r}")
    if not lo <= x < hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {x}")
    return x


def _json_real(x, name: str, lo: float = -math.inf) -> float:
    """``x`` as a float if it is a finite JSON number ``>= lo``; raises naming ``name`` otherwise."""
    if type(x) not in (int, float):
        raise TypeError(f"{name} must be a number, got {x!r}")
    value = float(x)  # OverflowError for an integer beyond binary64
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {x!r}")
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


def _read_lines(path: str, newline: str | None = None) -> list[str]:
    """A UTF-8 file's lines, each with its line break; CR LF, CR and LF all end a line."""
    with _open_text(path, newline) as fh:
        return list(fh)


def _tsv_lines(path: str) -> list[tuple[int, str]]:
    """The non-empty lines of a TSV file with their line numbers, line breaks stripped."""
    numbered = enumerate((line.rstrip("\n") for line in _read_lines(path)), start=1)
    return [(line_no, line) for line_no, line in numbered if line]


def _parse_table(lines: Sequence[str] | None, sep: str, labeled: bool, width: int, nonneg_from: int,
                 rows: Iterable[tuple[int, list[str]]],
                 check_row: Callable[[int, list[str]], list[float]]) -> np.ndarray:
    """The reals of a table as one ``(n, width)`` float64 matrix; columns from ``nonneg_from`` on are >= 0.

    ``lines`` holds the table's rows as text, a label field if ``labeled`` and
    then ``width`` number fields joined by ``sep``, or is None when the caller's
    own checks already refuse the table.  NumPy's C reader parses the number
    fields when each is printable ASCII without ``_``: there it accepts what
    ``float`` accepts and gives the same bits, as both convert through
    CPython's ``PyOS_string_to_double``.  On any other table, or when a row is
    not ``width`` wide or a value is refused, ``check_row`` parses the
    ``(line_no, fields)`` of ``rows`` in line order: it returns a row's reals
    or raises the first error.
    """
    values = None
    if lines is not None and width >= 1:
        numbers = [line.partition(sep)[2] for line in lines] if labeled else lines
        allowed = _NUMBER_BYTES + sep.encode()
        # NumPy's reader skips an empty line
        if all(text and text.isascii() and not text.encode("ascii").translate(None, allowed) for text in numbers):
            try:
                values = np.loadtxt(numbers, delimiter=sep, comments=None, quotechar=None, ndmin=2)
            except ValueError:  # a number float refuses too, or a ragged row
                pass
    if (values is None or values.shape != (len(lines), width)
            or not np.isfinite(values).all() or (values[:, nonneg_from:] < 0).any()):
        values = np.array([check_row(line_no, fields) for line_no, fields in rows], dtype=np.float64)
    return values


def load_dataset(values_path: str | Path, uncertainty_path: str | Path | None = None) -> UncertainDataset:
    """Load a dataset from a values TSV and an optional uncertainty TSV.

    Without an uncertainty file every value gets uncertainty 0 (a certain
    dataset).  Raises :class:`DatasetFormatError` naming file, line and
    column on any malformed row, ragged lengths, or a shape mismatch between
    the two files.
    """
    vpath = str(values_path)
    vlines = _tsv_lines(vpath)
    if not vlines:
        raise DatasetFormatError(f"{vpath}: no instances found")
    m = vlines[0][1].count("\t")

    def check_values(line_no: int, fields: list[str]) -> list[float]:
        if len(fields) < 2:
            raise DatasetFormatError(f"{vpath}:{line_no}: expected a label followed by at least one value")
        if not fields[0]:
            raise DatasetFormatError(f"{vpath}:{line_no}: column 1: missing label")
        if len(fields) - 1 != m:
            raise DatasetFormatError(f"{vpath}:{line_no}: ragged row: {len(fields) - 1} values, expected {m}")
        return _reals(f"{vpath}:{line_no}", fields[1:], 2)

    labels = [line.partition("\t")[0] for _, line in vlines]
    lines = [line for _, line in vlines] if all(labels) else None
    best = _parse_table(lines, "\t", True, m, m,  # best estimates may be negative
                        ((line_no, line.split("\t")) for line_no, line in vlines), check_values)

    if uncertainty_path is None:
        unc = np.zeros_like(best)
    else:
        upath = str(uncertainty_path)
        ulines = _tsv_lines(upath)
        if len(ulines) != len(vlines):
            raise DatasetFormatError(
                f"{upath}: {len(ulines)} rows but {vpath} has {len(vlines)}: shape mismatch"
            )

        def check_uncertainties(line_no: int, fields: list[str]) -> list[float]:
            if len(fields) != m:
                raise DatasetFormatError(f"{upath}:{line_no}: {len(fields)} values, expected {m}: shape mismatch")
            return _reals(f"{upath}:{line_no}", fields, 1, nonneg=True)

        unc = _parse_table([line for _, line in ulines], "\t", False, m, 0,
                           ((line_no, line.split("\t")) for line_no, line in ulines), check_uncertainties)

    return UncertainDataset.from_arrays(best, unc, labels)


def _write_rows(path: str | Path, matrix: np.ndarray, labels: Sequence[str] | None, sep: str, header: str = "") -> None:
    """Write ``header``, then per row of ``matrix`` its label (if any) and its reals, joined by ``sep``.

    Each row is one ``%`` operation; ``"%.17g"`` gives the bytes of :func:`format_real`.
    """
    row_format = sep.join(["%.17g"] * matrix.shape[1]) + "\n"
    lines = (row_format % tuple(row) for row in matrix.tolist())
    if labels is not None:
        lines = (label + sep + line for label, line in zip(labels, lines))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.writelines(lines)


def save_dataset(d: UncertainDataset, values_path: str | Path, uncertainty_path: str | Path) -> None:
    """Write a values TSV and an uncertainty TSV that :func:`load_dataset` reads back."""
    # a first label that starts with U+FEFF follows a byte-order mark: the reader skips that mark, not the label's
    _write_rows(values_path, d.best, d.labels, "\t", "\ufeff" if d.labels[0].startswith("\ufeff") else "")
    _write_rows(uncertainty_path, d.uncertainty, None, "\t")


def _feature_header(k: int) -> list[str]:
    return ["label"] + [f"f{j + 1}" for j in range(2 * k)]


def _csv_field(text: str) -> str:
    """``text`` as one field of a feature CSV row, quoted as :mod:`csv` quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def write_feature_csv(f: UncertainDataset, path: str | Path) -> None:
    """Write ``label,f1..f2k`` rows, best estimates then uncertainties (lossless)."""
    quoted = {label: _csv_field(label) for label in set(f.labels)}
    header = ",".join(_feature_header(f.series_length)) + "\n"
    _write_rows(path, np.hstack([f.best, f.uncertainty]), [quoted[label] for label in f.labels], ",", header)


def read_feature_csv(path: str | Path) -> UncertainDataset:
    """Load a feature CSV; errors name the file and, for a bad row, its line."""
    path = str(path)
    lines = _read_lines(path)
    limit = csv.field_size_limit()
    if any('"' in line or "\0" in line or len(line) > limit for line in lines):
        # quoting and csv's own errors (an oversized field; before Python 3.11, a NUL) take the csv module,
        # which reads the line breaks inside a quoted field as they are
        reader = csv.reader(_read_lines(path, newline=""))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from None
        header = rows[0] if rows else []
        labels = [row[0] if row else "" for row in rows[1:]]  # an empty row fails its check first
        lines, data = None, enumerate(rows[1:], start=2)
    else:  # a row is then its line split at ",", and an empty line an empty row
        lines = [line.rstrip("\n") for line in lines]
        header, lines = (lines[0].split(",") if lines else []), lines[1:]
        labels = [line.partition(",")[0] for line in lines]
        data = ((line_no, line.split(",") if line else []) for line_no, line in enumerate(lines, start=2))
    k = (len(header) - 1) // 2
    if not labels or k < 1 or header != _feature_header(k):
        raise DatasetFormatError(f"{path}: expected header 'label,f1..f2k' and at least one row")

    def check_row(line_no: int, row: list[str]) -> list[float]:
        at = f"{path}:{line_no}"
        if len(row) != 2 * k + 1:
            raise DatasetFormatError(f"{at}: expected {2 * k + 1} fields, got {len(row)}")
        return _reals(at, row[1 : k + 1], 2) + _reals(at, row[k + 1 :], k + 2, nonneg=True)

    values = _parse_table(lines, ",", True, 2 * k, k, data, check_row)
    try:
        return UncertainDataset.from_arrays(values[:, :k], values[:, k:], labels)
    except ValueError as exc:  # a label the format cannot hold
        raise DatasetFormatError(f"{path}: {exc}") from None


def dataset_std(d: UncertainDataset) -> float:
    """Population standard deviation of all best values pooled together; ``inf`` or ``nan`` if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    if d.uncertainty.any():
        raise ValueError("noise injection expects a certain dataset (all uncertainties zero)")
    sigma = spec.fixed_scale if spec.fixed_scale is not None else dataset_std(d)
    if not math.isfinite(sigma):
        raise ValueError("default noise scale (the dataset's pooled standard deviation) is not finite")
    if sigma == 0.0:
        warnings.warn(
            "dataset standard deviation is 0: no noise injected, output equals input",
            RuntimeWarning,
            stacklevel=2,
        )
        return d

    n, m = d.best.shape
    with np.errstate(over="ignore"):  # an overflowed value is refused below as not finite
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
