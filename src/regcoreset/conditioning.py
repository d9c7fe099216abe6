"""Well-conditioned bases for entrywise l_p geometry.

A basis U with change-of-basis V satisfies A' = U V, the entrywise norm bound
||U||_p <= alpha, and ||z||_q <= beta * ||U z||_p for every z, where q is the
dual exponent of p.  The product alpha*beta controls how sharp the sensitivity
bounds built on top of the basis are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningFailureError, RankDeficiencyError, ShapeError
from .linalg import as_matrix, entrywise_p_norm
from .seeding import mix_seed

_SKETCH_CONSTANT = 8
_ALPHA_MARGIN = 1.01
_BETA_MARGIN = 1.25
_CERT_TRIALS = 10_000
_RESEED_ATTEMPTS = 3

ORTHONORMAL = "orthonormal"
P_STABLE_SKETCH = "p_stable_sketch"


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


def _positive_diag_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR normalized so diag(R) >= 0, which makes the factors unique."""
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs, signs[:, None] * R


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
    """Largest observed ||z||_q / ||Uz||_p over sampled directions."""
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
    """Symmetric p-stable variates.

    p = 1 is exact Cauchy via tan(pi*(u - 1/2)); p in (1, 2] uses the
    Chambers-Mallows-Stuck transform; p > 2 falls back to Gaussian draws,
    which still flatten the l_p row mass well enough in practice.
    """
    if p == 1:
        return np.tan(np.pi * (rng.random(shape) - 0.5))
    if p > 2:
        return rng.standard_normal(shape)
    theta = rng.uniform(-np.pi / 2, np.pi / 2, shape)
    w = rng.exponential(1.0, shape)
    return (np.sin(p * theta) / np.cos(theta) ** (1.0 / p)) * (
        np.cos(theta * (1.0 - p)) / w
    ) ** ((1.0 - p) / p)


def p_conditioned_basis(Aprime, p: float, seed: int) -> WellConditionedBasis:
    """Basis from a p-stable sketch: U = A' R^-1 with R from QR(S A').

    alpha is the measured entrywise norm of U times a 1% slack.  beta is an
    estimate, not a certificate: the largest ratio over sampled directions,
    which is only a lower bound on the true beta, times a 25% safety factor.
    A singular sketch triggers up to two reseeds before giving up.
    """
    Aprime = as_matrix(Aprime, "Aprime")
    n, m = Aprime.shape
    if n < m:
        raise ShapeError(f"need a tall matrix, got {n}x{m}")
    if not 1 <= p <= 4:
        raise ValueError(f"p must lie in [1, 4], got {p}")
    rows = max(int(np.ceil(_SKETCH_CONSTANT * m * np.log(max(m, 2)))), 2 * m)
    R = None
    for attempt in range(_RESEED_ATTEMPTS):
        rng = np.random.default_rng(mix_seed(seed, attempt))
        sketch = _stable_draws(rng, p, (rows, n)) @ Aprime
        _, R_try = _positive_diag_qr(sketch)
        diag = np.abs(np.diag(R_try))
        if diag.min() > diag.max() * 1e-10:
            R = R_try
            break
    if R is None:
        raise ConditioningFailureError(
            f"sketch remained singular after {_RESEED_ATTEMPTS} attempts"
        )
    U = np.linalg.solve(R.T, Aprime.T).T
    alpha = entrywise_p_norm(U, p) * _ALPHA_MARGIN
    beta = empirical_beta(U, p, _CERT_TRIALS, mix_seed(seed, 0xBE7A)) * _BETA_MARGIN
    residual = np.linalg.norm(U @ R - Aprime) / max(np.linalg.norm(Aprime), 1e-30)
    if residual > 1e-8:
        raise ConditioningFailureError(f"factorization residual {residual:.3e}")
    return WellConditionedBasis(
        basis=U,
        change_of_basis=R,
        alpha=float(alpha),
        beta=float(beta),
        p=float(p),
        construction=P_STABLE_SKETCH,
    )


def verify_conditioning(
    basis: WellConditionedBasis, trials: int, seed: int
) -> ConditioningReport:
    """Replay the recorded pair: measure ||U||_p and the worst dual-norm ratio.

    The beta estimate here uses random unit directions only, so it can only
    under-shoot the true beta; a violation flag means the recorded pair is
    genuinely broken.
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
