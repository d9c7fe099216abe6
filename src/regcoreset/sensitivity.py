"""Per-row sensitivity scores and upper bounds for importance sampling.

The sensitivity of row i of the augmented matrix A' = [A  b] under the
objective ||A'x'||_p^p + lam*||x'||_p^p (x' ranging over all queries) is

    s_i = sup_x' (|a'_i x'|^p + lam*||x'||_p^p / n)
                 / (sum_j |a'_j x'|^p + lam*||x'||_p^p).

Analytic upper bounds come from a well-conditioned basis:
s_i <= beta^p * ||u_i||_p^p / (1 + lam / ||A'||_p^p) + 1/n, where ||A'||_p is
the induced p-norm the basis records (an upper bound on it only loosens the
score).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .conditioning import WellConditionedBasis
from .errors import (
    DimensionTooLargeError,
    InvalidScoresError,
    SchemeMismatchError,
    ShapeError,
)
from .linalg import (
    RegressionInstance,
    as_matrix,
    augment,
    check_full_column_rank,
    check_lambda,
    induced_norm_upper,
    row_blocks,
)
from .objective import ObjectiveSpec

SCHEME_LP_LP = "lp_lp_bound"
SCHEME_RLAD = "rlad_bound"
SCHEME_MULTIRESPONSE = "multiresponse_rlad_bound"
SCHEME_RIDGE_LEVERAGE = "ridge_leverage"
SCHEME_UNIFORM = "uniform"
SCHEME_BRUTE_FORCE = "brute_force"

SCHEMES = (
    SCHEME_LP_LP,
    SCHEME_RLAD,
    SCHEME_MULTIRESPONSE,
    SCHEME_RIDGE_LEVERAGE,
    SCHEME_UNIFORM,
    SCHEME_BRUTE_FORCE,
)


@dataclass(frozen=True)
class SensitivityScores:
    """Non-negative per-row scores, their positive sum and the scheme that built them.

    A zero score belongs to a row that no query can weigh, such as an all-zero
    row of [A  b]: it is never sampled, and its loss is 0 for every x.  info
    carries scheme-specific extras such as the induced norms that went into a
    bound.
    """

    values: np.ndarray
    scheme: str
    total: float = None  # type: ignore[assignment]
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise InvalidScoresError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)) or np.any(values < 0) or not values.any():
            raise InvalidScoresError("scores must be finite, >= 0 and not all zero")
        if self.scheme not in SCHEMES:
            raise InvalidScoresError(f"unknown scheme {self.scheme!r}")
        total = self.total
        if total is None:
            total = float(values.sum())
        elif abs(total - values.sum()) > 1e-12 * max(abs(total), 1e-30):
            raise InvalidScoresError("total does not match sum of values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "total", float(total))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative sampling probabilities, built as Generator.choice builds them.

        Computed on first use, read-only; it ends at exactly 1.
        """
        cdf = (self.values / self.values.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf


def uniform_scores(n: int) -> SensitivityScores:
    """Every row scores 1/n; the total is 1 by definition."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SensitivityScores(np.full(n, 1.0 / n), scheme=SCHEME_UNIFORM, total=1.0)


def lp_lp_sensitivity_bounds(
    basis: WellConditionedBasis, lam: float
) -> SensitivityScores:
    """beta^p * ||u_i||_p^p / (1 + lam/||A'||_p^p) + 1/n per row.

    Everything but lam comes from the basis: U, beta, p and its induced_norm,
    the bound on ||A'||_p of the matrix it was built from.  With lam = 0 this
    is exactly beta^p * ||u_i||_p^p + 1/n.  The total is certified against
    (alpha*beta)^p / (1 + lam/||A'||_p^p) + 1.
    """
    check_lambda(lam)
    U = basis.basis
    p = basis.p
    denom = 1.0 + lam / basis.induced_norm**p
    row_mass = np.sum(np.abs(U) ** p, axis=1)
    values = (basis.beta**p) * row_mass / denom + 1.0 / U.shape[0]
    total = float(values.sum())
    cap = (basis.alpha * basis.beta) ** p / denom + 1.0
    if total > cap * (1 + 1e-9):
        raise InvalidScoresError(
            f"total {total:.6g} exceeds certificate cap {cap:.6g}; "
            "the basis alpha certificate is broken"
        )
    return SensitivityScores(
        values=values,
        scheme=SCHEME_LP_LP,
        info={"induced_norm": basis.induced_norm},
    )


def rlad_sensitivity_bounds(
    basis: WellConditionedBasis, lam: float
) -> SensitivityScores:
    """The l_p bound on a p = 1 basis, whose induced norm is the max column sum."""
    if basis.p != 1:
        raise SchemeMismatchError(f"basis was built for p={basis.p}, need p=1")
    return replace(lp_lp_sensitivity_bounds(basis, lam), scheme=SCHEME_RLAD)


def multiresponse_rlad_sensitivity_bounds(
    basis: WellConditionedBasis, lam: float, ahat, k: int
) -> SensitivityScores:
    """Bounds for the k-response absolute-deviations objective.

    ahat is the stacked matrix [A  -B] the basis was built from.  The
    denominator uses the induced 1-norm of the design block A alone; the
    basis's norm of the full stacked matrix is recorded alongside it since the
    two differ whenever B carries the largest column.
    """
    if basis.p != 1:
        raise SchemeMismatchError(f"basis was built for p={basis.p}, need p=1")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ahat = as_matrix(ahat, "ahat")
    n, cols = ahat.shape
    if cols <= k:
        raise ShapeError(f"ahat has {cols} columns, need more than k={k}")
    if basis.basis.shape[0] != n:
        raise ShapeError(f"basis has {basis.basis.shape[0]} rows, ahat has {n}")
    design_norm = induced_norm_upper(ahat[:, : cols - k], 1)
    scores = lp_lp_sensitivity_bounds(replace(basis, induced_norm=design_norm), lam)
    return replace(
        scores,
        scheme=SCHEME_MULTIRESPONSE,
        info={
            "induced_norm_design": design_norm,
            "induced_norm_stacked": basis.induced_norm,
        },
    )


def ridge_leverage_scores(
    instance: RegressionInstance, lam: float
) -> SensitivityScores:
    """tau_i = a'_i (A'^T A' + lam I)^-1 a'_i from the (d+1)-row factor of A'.

    A' = [A  b] is the instance's augmented matrix.  With A' = QT, T its
    cached squared_loss_factor, and the m x m SVD T = W diag(sigma) V^T, row i
    gets sum_j (a'_i v_j)^2 / (sigma_j^2 + lam): one small SVD and a product
    with A' formed one block of rows at a time, no n-row SVD and no n x m
    temporary.  The total equals the statistical dimension of A' at lam.
    lam = 0 needs full column rank and returns ordinary leverage scores, each
    accurate to about cond(A') * eps relative.
    """
    check_lambda(lam)
    if instance.n < instance.d + 1:
        raise ShapeError("leverage scores need a tall matrix")
    _, sigma, vt = np.linalg.svd(np.column_stack(instance.squared_loss_factor))
    if lam == 0:
        check_full_column_rank(sigma, "aprime")
    scaled = vt.T / np.sqrt(sigma**2 + lam)
    aprime, values = augment(instance), np.empty(instance.n)
    for rows in row_blocks(instance.n):
        block = aprime[rows] @ scaled
        block **= 2
        values[rows] = block.sum(axis=1)
    return SensitivityScores(values=values, scheme=SCHEME_RIDGE_LEVERAGE)


def _sphere_grid(dim: int) -> np.ndarray:
    """Deterministic unit directions in R^dim, 64 angles per axis, as columns."""
    if dim == 1:
        return np.array([[1.0, -1.0]])
    if dim == 2:
        theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.vstack([np.cos(theta), np.sin(theta)])
    theta = np.linspace(0.0, np.pi, 64)
    phi = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.vstack(
        [
            (np.sin(T) * np.cos(P)).ravel(),
            (np.sin(T) * np.sin(P)).ravel(),
            np.cos(T).ravel(),
        ]
    )
    return dirs


def brute_force_sensitivity(
    instance: RegressionInstance, spec: ObjectiveSpec
) -> SensitivityScores:
    """Grid under-approximation of the true sensitivities, d + 1 <= 3 only.

    Candidate queries are unit directions in the augmented space (the ratio is
    scale invariant there) plus [rho*u, -1] for unit u in the design space and
    rho on a 9-point log grid between 1e-3 and 1e3, where the pinned last
    coordinate breaks scale invariance.  Being a max over finitely many queries, the
    result never exceeds the true sensitivity.
    """
    m = instance.d + 1
    if m > 3:
        raise DimensionTooLargeError(
            f"brute force search supports d + 1 <= 3, got {m}"
        )
    p, lam = spec.p, spec.lam
    aprime = augment(instance)
    n = instance.n

    candidates = [_sphere_grid(m)]
    dirs = _sphere_grid(instance.d)
    radii = np.logspace(-3.0, 3.0, 9)
    scaled = dirs[:, None, :] * radii[None, :, None]  # (d, levels, dirs)
    scaled = scaled.reshape(instance.d, -1)
    pinned = np.vstack([scaled, -np.ones(scaled.shape[1])])
    candidates.append(pinned)
    X = np.hstack(candidates)

    proj = np.abs(aprime @ X) ** p  # (n, queries)
    reg = lam * np.sum(np.abs(X) ** p, axis=0)  # (queries,)
    denom = proj.sum(axis=0) + reg
    ok = denom > 1e-300
    ratios = (proj[:, ok] + reg[ok] / n) / denom[ok]
    values = ratios.max(axis=1)
    return SensitivityScores(values=values, scheme=SCHEME_BRUTE_FORCE)
