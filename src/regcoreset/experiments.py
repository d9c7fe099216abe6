"""Experiment protocols: data generation, coreset quality tables, sparsity.

The relative-error protocol solves the chosen objective once on the full data
(value V1), then for every (scheme, sample size, lambda, trial) cell solves on
a sampled coreset and re-evaluates that solution on the full data (value V2).
The cell statistic is the median over trials of |V1 - V2| / V1.  All
randomness flows through seeds mixed from the master seed and the cell's
integer coordinates, so no trial depends on another and reports are
byte-identical across runs.
"""

from __future__ import annotations

import csv as csv_module
import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from .conditioning import p_conditioned_basis
from .coreset import build_coreset, identity_coreset
from .errors import DegenerateSignalError, ParseError, SchemaError
from .linalg import (RegressionInstance, _as_array, as_matrix, as_vector, augment, check_count,
                     check_integer, check_keys, check_lambda, check_list, check_positive,
                     check_string, input_rule, row_blocks)
from .objective import FAMILIES, ObjectiveSpec
from .seeding import mix_seed
from .sensitivity import (
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
    uniform_scores,
)
from .solvers import (
    evaluate_objective,
    solve_lasso,
    solve_modified_lasso,
    solve_rlad,
    solve_ridge,
    sparsity_count,
)

_TAG_DATA = 0x01
_TAG_XTRUE = 0x02
_TAG_NOISE = 0x03
_TAG_CELL = 0x05

EXPERIMENT_SCHEMES = ("uniform", "ridge_leverage", "rlad_sensitivity", "identity")
_check_scheme = input_rule(str, EXPERIMENT_SCHEMES.__contains__,
                           f"be one of {', '.join(EXPERIMENT_SCHEMES)}")
# Every family but lp_lp, whose p the config has no field for.
_FAMILIES = tuple(family for family in FAMILIES if family != "lp_lp")


def canonical_json(doc) -> str:
    """The one text form of every document: compact, with sorted keys."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    d: int
    lambda_grid: tuple
    sample_sizes: tuple
    schemes: tuple = ("ridge_leverage", "uniform")
    objective_family: str = "modified_lasso"
    ng_alpha: float = 0.00065
    noise_scale: float = 1e-5
    trials_per_cell: int = 5
    master_seed: int = 0
    csv_path: str | None = None
    target_column: str | None = None
    normalize: bool = True

    def __post_init__(self):
        for name, check, kind in (("lambda_grid", check_lambda, float),
                                  ("sample_sizes", check_count, int),
                                  ("schemes", _check_scheme, str)):
            values = tuple(kind(v) for v in check_list(getattr(self, name), name, check))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        for name in ("n", "d", "master_seed"):
            check_integer(getattr(self, name), name)
        if check_count(self.trials_per_cell, "trials_per_cell") % 2 == 0:
            raise ValueError(f"trials_per_cell must be odd, got {self.trials_per_cell}")
        if self.objective_family not in _FAMILIES:
            raise ValueError(f"unknown objective family {self.objective_family!r}")
        for name in ("csv_path", "target_column"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        if not isinstance(self.normalize, bool):
            raise ValueError(f"normalize must be true or false, got {self.normalize!r}")
        if self.csv_path is None:
            _check_ng_shape(self.n, self.d)
        elif self.target_column is None:
            raise ValueError("csv_path requires target_column")
        check_positive(self.ng_alpha, "ng_alpha")
        check_lambda(self.noise_scale, "noise_scale")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        check_keys(doc, ("n", "d", "lambda_grid", "sample_sizes"), "config")
        unknown = doc.keys() - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


@dataclass
class DataTable:
    """Per-cell values, their per-trial values and the config digest.

    to_dict is the document emit_report encodes and parse_report reads.
    """

    row_labels: list
    col_labels: list
    cells: list
    trials: list
    config_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "cells": [[float(c) for c in row] for row in self.cells],
            "trials": [
                [[float(v) for v in cell] for cell in row] for row in self.trials
            ],
            "config_digest": self.config_digest,
        }


def generate_ng_matrix(n: int, d: int, alpha: float, seed: int) -> np.ndarray:
    """Nearly-degenerate design: a faint Gaussian block over a pinned identity.

    Top n - d/2 rows are [alpha * N(0,1), 1e-8 * U(0,1)]; the bottom d/2 rows
    are [0, I].  The tiny alpha makes the first d/2 columns almost invisible
    to uniform sampling while the identity rows are indispensable.
    """
    _check_ng_shape(n, d)
    check_positive(alpha, "alpha")
    A = np.empty((n, d))
    _fill_ng_matrix(A, alpha, seed)
    return A


def _check_ng_shape(n, d) -> None:
    """The NG rule on n and d: d even and >= 2, n > d/2."""
    if d < 2 or d % 2 != 0:
        raise ValueError(f"d must be even and >= 2, got {d}")
    if n <= d // 2:
        raise ValueError(f"need n > d/2, got n={n}, d={d}")


def _fill_ng_matrix(out: np.ndarray, alpha: float, seed: int) -> None:
    """Write generate_ng_matrix(n, d, alpha, seed) into `out`, of shape (n, d).

    `out` may be a view with strided rows.  Each block is drawn in the order
    one whole draw takes from the stream, so the bits do not depend on the
    block size.
    """
    n, d = out.shape
    half = d // 2
    rng = np.random.default_rng(seed)
    top = out[: n - half]
    for part, scale, draw in ((top[:, :half], alpha, rng.standard_normal),
                              (top[:, half:], 1e-8, rng.random)):
        for rows in row_blocks(n - half):
            np.multiply(scale, draw(part[rows].shape), out=part[rows])
    out[n - half:, :half] = 0.0
    out[n - half:, half:] = np.eye(half)


def generate_response(A, x_true, noise_scale: float, seed: int) -> np.ndarray:
    """b = A x + noise_scale * (||Ax||_2 / ||e||_2) * e with Gaussian e.

    The rescaling pins the relative noise level exactly:
    ||b - Ax|| / ||Ax|| = noise_scale.
    """
    A, x_true = as_matrix(A, "A"), as_vector(x_true, "x_true")
    check_lambda(noise_scale, "noise_scale")
    signal = A @ x_true
    if noise_scale == 0:
        return signal
    norm = np.linalg.norm(signal)
    if norm == 0:
        raise DegenerateSignalError("cannot scale noise against a zero signal")
    e = np.random.default_rng(seed).standard_normal(A.shape[0])
    return signal + noise_scale * (norm / np.linalg.norm(e)) * e


def load_csv(path, target_column: str, normalize: bool = True) -> RegressionInstance:
    """Read a numeric CSV with a header into a regression instance.

    The named target column becomes the response; every other column is a
    feature.  With normalize=True each feature column is divided by its max
    absolute value (all-zero columns are left alone).  Parse failures name
    the 1-based row and the column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_module.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        if target_column not in header:
            raise SchemaError(
                f"{path}: target column {target_column!r} not in header {header}"
            )
        if len(header) < 2:
            raise SchemaError(f"{path}: need at least one feature column")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ParseError(
                    f"{path}: row {lineno} has {len(record)} fields, "
                    f"expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, record):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    target_idx = header.index(target_column)
    response = data[:, target_idx]
    features = np.delete(data, target_idx, axis=1)
    if normalize:
        scale = np.max(np.abs(features), axis=0)
        nonzero = scale > 0
        features[:, nonzero] /= scale[nonzero]
    return RegressionInstance(features, response)


# The last synthetic instance built, keyed by the fields that generate it.
_INSTANCE_SLOT: dict = {}


def build_experiment_instance(
    config: ExperimentConfig,
) -> tuple[RegressionInstance, np.ndarray | None]:
    """Synthesize the NG instance, or load the configured CSV.

    A synthetic instance is kept in a one-slot memo keyed by (n, d,
    ng_alpha, noise_scale, master_seed): a call with the same fields returns
    the same instance, so its cached squared-loss factor serves every table
    built on it.  A call with other fields empties the slot before building,
    so at most one instance is held.  The returned arrays, x_true included,
    are read-only.  A CSV file is read again on every call.
    """
    if config.csv_path is not None:
        return load_csv(config.csv_path, config.target_column, config.normalize), None
    key = (config.n, config.d, config.ng_alpha, config.noise_scale, config.master_seed)
    if key not in _INSTANCE_SLOT:
        _INSTANCE_SLOT.clear()  # drop the old instance before the new one is built
        _INSTANCE_SLOT[key] = _build_ng_instance(*key)
    return _INSTANCE_SLOT[key]


def ng_draws(master_seed: int, d: int) -> tuple[int, np.ndarray, int]:
    """The NG instance's design seed, read-only x_true and noise seed, from master_seed."""
    rng = np.random.default_rng(mix_seed(master_seed, _TAG_XTRUE))
    x_true = rng.standard_normal(check_count(d, "d"))
    x_true.flags.writeable = False
    return mix_seed(master_seed, _TAG_DATA), x_true, mix_seed(master_seed, _TAG_NOISE)


def _build_ng_instance(n, d, ng_alpha, noise_scale, master_seed):
    """The NG instance, its design and response written straight into its [A  b]."""
    data_seed, x_true, noise_seed = ng_draws(master_seed, d)
    aprime = np.empty((n, d + 1))
    _fill_ng_matrix(aprime[:, :-1], ng_alpha, data_seed)
    aprime[:, -1] = generate_response(aprime[:, :-1], x_true, noise_scale, noise_seed)
    return RegressionInstance._owning(aprime), x_true


def _solve(family: str, instance: RegressionInstance, lam: float):
    if family == "modified_lasso":
        return solve_modified_lasso(instance, lam)
    if family == "lasso":
        return solve_lasso(instance, lam)
    if family == "ridge":
        return solve_ridge(instance, lam)
    return solve_rlad(instance, lam)


def _scheme_scores(scheme, instance, lam, rlad_basis):
    if scheme == "uniform":
        return uniform_scores(instance.n)
    if scheme == "ridge_leverage":
        return ridge_leverage_scores(instance, lam)
    return rlad_sensitivity_bounds(rlad_basis, lam)


def run_relative_error_experiment(
    config: ExperimentConfig, threads: int = 1
) -> DataTable:
    """Median relative error |V1 - V2| / V1 per (size, lambda) x scheme cell.

    Trials whose coreset solver failed to converge are dropped from the
    median; a cell with no surviving trial raises.  The full-data solves, the
    RLAD basis (which depends on neither lambda nor a seed) and the identity
    instance are built up front.  The trials then run lambda by lambda and
    scheme by scheme: each (lambda, scheme) score set is built just before
    its trials and dropped after them, so at most one is held.  Each trial
    has its own seed and each cell's median reads only its own trials, so
    the order changes no value.

    The harness is serial: ``threads`` accepts only 1.  It is kept for the
    benchmark's ``perfbench/workload.py``, which still passes ``threads=1``,
    and goes with the next change to that benchmark.
    """
    if threads != 1:
        raise ValueError(f"the harness is serial; threads must be 1, got {threads}")
    instance, _ = build_experiment_instance(config)
    family = config.objective_family
    spec_for = {
        lam: ObjectiveSpec.for_family(family, lam) for lam in config.lambda_grid
    }
    p = spec_for[config.lambda_grid[0]].p  # the loss exponent, the same at every lambda

    full_values = {}
    for lam in config.lambda_grid:
        result = _solve(family, instance, lam)
        if not result.converged:
            raise RuntimeError(
                f"full-data {family} solve failed to converge at lambda={lam}"
            )
        full_values[lam] = result.objective_value

    # The RLAD basis depends on neither lambda nor a seed: one serves the grid.
    rlad_basis = None
    if "rlad_sensitivity" in config.schemes:
        rlad_basis = p_conditioned_basis(augment(instance), 1.0)
    # Every identity trial solves this one instance, factored at most once.
    # It is a separate object from `instance`, the full data.
    if "identity" in config.schemes:
        identity_instance = identity_coreset(instance).as_instance(p)

    # Rows are size-major: row zi * n_lambdas + li holds (size, lambda).
    n_lambdas = len(config.lambda_grid)
    rows = range(len(config.sample_sizes) * n_lambdas)
    cells = [[None] * len(config.schemes) for _ in rows]
    trials = [[None] * len(config.schemes) for _ in rows]
    for li, lam in enumerate(config.lambda_grid):
        v1 = full_values[lam]
        for si, scheme in enumerate(config.schemes):
            scores = None  # drop the last score set before this one is built
            if scheme != "identity":
                scores = _scheme_scores(scheme, instance, lam, rlad_basis)
            for zi, size in enumerate(config.sample_sizes):
                errors, kept = [], []  # every trial's error; the converged ones
                for ti in range(config.trials_per_cell):
                    seed = mix_seed(config.master_seed, _TAG_CELL, si, zi, li, ti)
                    if scheme == "identity":
                        core_instance = identity_instance
                    else:
                        core_instance = build_coreset(instance, scores, size, seed).as_instance(p)
                    sub = _solve(family, core_instance, lam)
                    v2 = evaluate_objective(instance, sub.solution, spec_for[lam])
                    errors.append(abs(v1 - v2) / v1)
                    if sub.converged:
                        kept.append(errors[-1])
                if not kept:
                    raise RuntimeError(
                        f"no converged trials for scheme={scheme} "
                        f"size={size} lambda={lam}"
                    )
                row = zi * n_lambdas + li
                cells[row][si] = _median(kept)
                trials[row][si] = errors
    return DataTable(
        row_labels=[_row_label(config, *divmod(row, n_lambdas)) for row in rows],
        col_labels=list(config.schemes),
        cells=cells,
        trials=trials,
        config_digest=config.digest(),
    )


def _median(values: list) -> float:
    """The middle value of the sorted list, or the mean of its two middle values."""
    ordered, mid = sorted(values), len(values) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def _row_label(config: ExperimentConfig, zi: int, li: int) -> str:
    size = config.sample_sizes[zi]
    lam = config.lambda_grid[li]
    if len(config.lambda_grid) == 1:
        return str(size)
    if len(config.sample_sizes) == 1:
        return format(lam, "g")
    return f"{size}|{format(lam, 'g')}"


def run_sparsity_experiment(config: ExperimentConfig) -> DataTable:
    """Zero-coordinate counts (|x_j| < 1e-6) per solver across the lambda grid.

    Rows are the three solvers (lasso, squared-l1 lasso, ridge); columns are
    the lambda values; each solver runs on the full instance.
    """
    instance, _ = build_experiment_instance(config)
    methods = ("lasso", "modified_lasso", "ridge")
    cells = [[0] * len(config.lambda_grid) for _ in methods]
    for li, lam in enumerate(config.lambda_grid):
        for mi, method in enumerate(methods):
            result = _solve(method, instance, lam)
            if not result.converged:
                raise RuntimeError(
                    f"{method} failed to converge at lambda={lam}"
                )
            cells[mi][li] = sparsity_count(result.solution)
    return DataTable(
        row_labels=list(methods),
        col_labels=[format(lam, "g") for lam in config.lambda_grid],
        cells=[[float(c) for c in row] for row in cells],
        trials=[[[float(c)] for c in row] for row in cells],
        config_digest=config.digest(),
    )


def emit_report(table: DataTable, format: str = "json") -> str:
    """Serialize a table: canonical JSON, or CSV with 6-significant-digit cells."""
    if format == "json":
        return canonical_json(table.to_dict())
    if format == "csv":
        lines = ["label," + ",".join(str(c) for c in table.col_labels)]
        for label, row in zip(table.row_labels, table.cells):
            rendered = [_six_significant(float(value)) for value in row]
            lines.append(f"{label}," + ",".join(rendered))
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")


def _six_significant(value: float) -> str:
    """Positional rendering with six significant digits, zeros kept."""
    if value == 0.0 or not np.isfinite(value):
        return "0.000000" if value == 0.0 else repr(value)
    exponent = int(np.floor(np.log10(abs(value))))
    return f"{value:.{max(5 - exponent, 0)}f}"


def parse_report(text: str) -> DataTable:
    """Inverse of emit_report(..., 'json'); ValueError names a malformed field."""
    doc = check_keys(json.loads(text), ("rows", "cols", "cells", "trials", "config_digest"),
                     "report")
    return DataTable(
        row_labels=check_list(doc["rows"], "rows", check_string),
        col_labels=check_list(doc["cols"], "cols", check_string),
        cells=_as_array(doc["cells"], "cells", 2).tolist(),
        trials=_as_array(doc["trials"], "trials", 3).tolist(),
        config_digest=check_string(doc["config_digest"], "config_digest"),
    )
