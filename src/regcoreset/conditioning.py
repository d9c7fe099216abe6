"""Well-conditioned bases for entrywise l_p geometry.

A basis U with change-of-basis V satisfies A' = U V, the entrywise norm bound
||U||_p <= alpha, and ||z||_q <= beta * ||U z||_p for every z, where q is the
dual exponent of p.  The product alpha*beta controls how sharp the sensitivity
bounds built on top of the basis are.

beta is certified at p = 1 and estimated for p > 1.  At p = 1 the basis comes
from an iteration towards the l1 Lewis weights, and beta follows from computed
numbers.  For p in (1, 4] a p-stable sketch records an empirical beta: the
largest ratio over sampled directions, a lower bound on the true beta, times a
margin.  The orthonormal basis for p = 2 has beta = 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningFailureError, RankDeficiencyError, ShapeError
from .linalg import as_matrix, entrywise_p_norm
from .seeding import mix_seed

_SKETCH_CONSTANT = 8
_ALPHA_MARGIN = 1.01
# The sketch path's beta is empirical: a sampled maximum times this margin.
_BETA_MARGIN = 1.25
_CERT_TRIALS = 10_000
_RESEED_ATTEMPTS = 3
# Lewis fixed-point steps at p = 1.  On NG instances (d = 30) alpha*beta is
# within 0.15% of its limit after 12 steps, at n = 400 and at n = 20 000.
_LEWIS_STEPS = 12
# The p = 1 certificate beta = c assumes W^{-1/2} U is exactly orthonormal;
# in floating point its Gram matrix is off by ~1e-11, which this covers.
_BETA_ROUNDING = 1.0 + 1e-9

ORTHONORMAL = "orthonormal"
P_STABLE_SKETCH = "p_stable_sketch"
L1_LEWIS = "l1_lewis"


@dataclass(frozen=True)
class WellConditionedBasis:
    basis: np.ndarray
    change_of_basis: np.ndarray
    alpha: float
    beta: float
    p: float
    construction: str


@dataclass(frozen=True)
class ConditioningReport:
    alpha_witness: float
    beta_empirical: float
    recorded_alpha: float
    recorded_beta: float
    trials: int
    seed: int
    violation: bool


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; p = 1 pairs with q = inf."""
    if p == 1:
        return np.inf
    return p / (p - 1.0)


def _diag_signs(R: np.ndarray) -> np.ndarray:
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return signs


def _positive_diag_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR normalized so diag(R) >= 0, which makes the factors unique."""
    Q, R = np.linalg.qr(M)
    signs = _diag_signs(R)
    return Q * signs, signs[:, None] * R


def _positive_diag_r(M: np.ndarray) -> np.ndarray:
    """The R factor of _positive_diag_qr without forming Q."""
    R = np.linalg.qr(M, mode="r")
    return _diag_signs(R)[:, None] * R


def _is_singular(R: np.ndarray) -> bool:
    diag = np.abs(np.diag(R))
    return not diag.min() > diag.max() * 1e-10


def _dual_norms(Z: np.ndarray, q: float) -> np.ndarray:
    if q == np.inf:
        return np.max(np.abs(Z), axis=0)
    return np.sum(np.abs(Z) ** q, axis=0) ** (1.0 / q)


def _conditioning_ratios(U: np.ndarray, p: float, Z: np.ndarray) -> np.ndarray:
    """||z||_q / ||Uz||_p per column of Z (scale invariant in z)."""
    q = dual_exponent(p)
    num = _dual_norms(Z, q)
    # One n x N buffer: |UZ|^p is formed in place, and at p = 1 the power and
    # the root are skipped, which is exact since x ** 1.0 == x.
    UZ = U @ Z
    np.abs(UZ, out=UZ)
    if p != 1:
        np.power(UZ, p, out=UZ)
    den = np.sum(UZ, axis=0)
    if p != 1:
        den **= 1.0 / p
    mask = den > 0
    out = np.zeros(Z.shape[1])
    out[mask] = num[mask] / den[mask]
    return out


def _probe_directions(U: np.ndarray, m: int, trials: int, seed: int) -> np.ndarray:
    """Random unit vectors plus axes and right singular directions of U."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, trials))
    Z /= np.linalg.norm(Z, axis=0, keepdims=True)
    extras = [np.eye(m)]
    if min(U.shape) >= m:
        _, _, vt = np.linalg.svd(U, full_matrices=False)
        extras.append(vt.T)
    return np.hstack([Z] + extras)


def empirical_beta(U: np.ndarray, p: float, trials: int, seed: int) -> float:
    """Largest observed ||z||_q / ||Uz||_p over sampled directions.

    This is a lower bound on the true beta; the sketch path scales it by
    _BETA_MARGIN and records the result as an estimate.
    """
    Z = _probe_directions(U, U.shape[1], trials, seed)
    return float(np.max(_conditioning_ratios(U, p, Z)))


def orthonormal_basis(Aprime) -> WellConditionedBasis:
    """QR-based basis for p = 2: alpha = sqrt(m), beta = 1.

    For A' with orthonormal columns this returns U = A' and V = I exactly
    because of the positive-diagonal convention on R.
    """
    Aprime = as_matrix(Aprime, "Aprime")
    n, m = Aprime.shape
    if n < m:
        raise ShapeError(f"need a tall matrix, got {n}x{m}")
    Q, R = _positive_diag_qr(Aprime)
    diag = np.abs(np.diag(R))
    if diag.min() <= diag.max() * max(n, m) * np.finfo(float).eps:
        raise RankDeficiencyError("input matrix is rank deficient")
    return WellConditionedBasis(
        basis=Q,
        change_of_basis=R,
        alpha=float(np.sqrt(m)),
        beta=1.0,
        p=2.0,
        construction=ORTHONORMAL,
    )


def _stable_draws(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """Symmetric p-stable variates for the sketch path, p in (1, 4].

    p in (1, 2] uses the Chambers-Mallows-Stuck transform; p > 2 falls back to
    Gaussian draws, which still flatten the l_p row mass well enough in
    practice.
    """
    if p > 2:
        return rng.standard_normal(shape)
    theta = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    w = rng.exponential(1.0, shape)
    return (np.sin(p * theta) / np.cos(theta) ** (1.0 / p)) * (
        np.cos(theta * (1.0 - p)) / w
    ) ** ((1.0 - p) / p)


def _l1_lewis_basis(Aprime: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """U = A' R^-1 from _LEWIS_STEPS steps towards the l1 Lewis weights.

    Each step factors W^{-1/2} A' = QR, so that W^{-1/2} U = Q is orthonormal,
    and records c = max_i ||u_i||_2 / w_i before moving w to ||u_i||_2.  For
    any positive w and every z,
        ||z||_2^2 = sum_i (u_i z)^2 / w_i <= c ||z||_2 ||Uz||_1,
    so ||z||_inf <= ||z||_2 <= c ||Uz||_1 whether or not w has converged
    (Cohen & Peng, Lp Row Sampling by Lewis Weights, arXiv:1412.0588).
    Returns (U, R, c).
    """
    w = np.ones(Aprime.shape[0])
    for _ in range(_LEWIS_STEPS):
        R = _positive_diag_r(Aprime / np.sqrt(w)[:, None])
        if _is_singular(R):
            raise ConditioningFailureError("weighted QR of A' is singular")
        U = Aprime @ np.linalg.inv(R)
        norms = np.linalg.norm(U, axis=1)
        c = float(np.max(norms / w))
        # A zero row keeps a tiny positive weight, so no step divides by 0.
        w = np.maximum(norms, np.finfo(float).eps * norms.max())
    return U, R, c


def _sketch_basis(Aprime: np.ndarray, p: float, seed: int) -> tuple[np.ndarray, ...]:
    """U = A' R^-1 with R from QR(S A') for a p-stable sketch S."""
    n, m = Aprime.shape
    rows = max(int(np.ceil(_SKETCH_CONSTANT * m * np.log(max(m, 2)))), 2 * m)
    for attempt in range(_RESEED_ATTEMPTS):
        rng = np.random.default_rng(mix_seed(seed, attempt))
        R = _positive_diag_r(_stable_draws(rng, p, (rows, n)) @ Aprime)
        if not _is_singular(R):
            return np.linalg.solve(R.T, Aprime.T).T, R
    raise ConditioningFailureError(
        f"sketch remained singular after {_RESEED_ATTEMPTS} attempts"
    )


def p_conditioned_basis(Aprime, p: float, seed: int) -> WellConditionedBasis:
    """(alpha, beta, p) well-conditioned basis U = A' R^-1 for p in [1, 4].

    At p = 1, R comes from the l1 Lewis-weight iteration and beta is
    certified: beta = c * (1 + 1e-9) with c = max_i ||u_i||_2 / w_i, which
    bounds ||z||_inf / ||Uz||_1 for every z; the seed is unused.  For p > 1,
    R comes from QR of a p-stable sketch S A' and beta is an estimate, not a
    certificate: the largest ratio over sampled directions, which is only a
    lower bound on the true beta, times a 25% safety factor; a singular sketch
    triggers up to two reseeds before giving up.  alpha is the measured
    entrywise norm of U times a 1% slack.
    """
    Aprime = as_matrix(Aprime, "Aprime")
    n, m = Aprime.shape
    if n < m:
        raise ShapeError(f"need a tall matrix, got {n}x{m}")
    if not 1 <= p <= 4:
        raise ValueError(f"p must lie in [1, 4], got {p}")
    if p == 1:
        U, R, c = _l1_lewis_basis(Aprime)
        beta, construction = c * _BETA_ROUNDING, L1_LEWIS
    else:
        U, R = _sketch_basis(Aprime, p, seed)
        beta = empirical_beta(U, p, _CERT_TRIALS, mix_seed(seed, 0xBE7A)) * _BETA_MARGIN
        construction = P_STABLE_SKETCH
    alpha = entrywise_p_norm(U, p) * _ALPHA_MARGIN
    residual = np.linalg.norm(U @ R - Aprime) / max(np.linalg.norm(Aprime), 1e-30)
    if residual > 1e-8:
        raise ConditioningFailureError(f"factorization residual {residual:.3e}")
    return WellConditionedBasis(
        basis=U,
        change_of_basis=R,
        alpha=float(alpha),
        beta=float(beta),
        p=float(p),
        construction=construction,
    )


def verify_conditioning(
    basis: WellConditionedBasis, trials: int, seed: int
) -> ConditioningReport:
    """Replay the recorded pair: measure ||U||_p and the worst dual-norm ratio.

    This is an independent sampled check.  Its beta uses random unit
    directions only, so it can only under-shoot the true beta: it never
    exceeds a certified beta (the l1 Lewis basis, the orthonormal basis), and
    for the sketch's estimated beta a violation flag means the recorded pair
    is genuinely broken.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    U = basis.basis
    m = U.shape[1]
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, trials))
    Z /= np.linalg.norm(Z, axis=0, keepdims=True)
    beta_emp = float(np.max(_conditioning_ratios(U, basis.p, Z)))
    alpha_wit = entrywise_p_norm(U, basis.p)
    violation = bool(
        beta_emp > basis.beta * (1 + 1e-12) or alpha_wit > basis.alpha * (1 + 1e-12)
    )
    return ConditioningReport(
        alpha_witness=alpha_wit,
        beta_empirical=beta_emp,
        recorded_alpha=basis.alpha,
        recorded_beta=basis.beta,
        trials=trials,
        seed=seed,
        violation=violation,
    )
