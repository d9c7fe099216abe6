"""Well-conditioned bases for entrywise l_p geometry.

A basis U with change-of-basis V satisfies A' = U V, the entrywise norm bound
||U||_p <= alpha, and ||z||_q <= beta * ||U z||_p for every z, where q is the
dual exponent of p.  The product alpha*beta controls how sharp the sensitivity
bounds built on top of the basis are.

beta is certified at every p in [1, 4]: the basis comes from a fixed number of
steps towards the l_p Lewis weights (one QR of the rows, then Cholesky
updates through m x m Gram matrices), and beta follows from computed numbers
by an inequality that holds whether or not the weights have converged.
Building a basis samples nothing and takes no seed; verify_conditioning is
the separate sampled check.  At p = 2 the Lewis weights are all 1, so one
step gives the orthonormal QR factor; its beta, as at every p, is scaled by
the measured distance of U from orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningFailureError, ShapeError
from .linalg import (as_matrix, check_basis_exponent, check_count, entrywise_p_norm,
                     induced_norm_upper, tall_qr_r)

_ALPHA_MARGIN = 1.01
# Lewis fixed-point steps at every p but 2, which needs one.  Measured at
# p = 1 on NG instances (d = 30): alpha*beta is within 0.15% of its limit
# after 12 steps, at n = 400 and at n = 20 000.
_LEWIS_STEPS = 12
# c is scaled for the measured distance of V^{1/2} U from orthonormal at
# every p, 2 included; this covers the rounding in c and in that distance.
_BETA_ROUNDING = 1.0 + 1e-9


@dataclass(frozen=True)
class WellConditionedBasis:
    """U and R with A' = U R, the certified pair (alpha, beta) at p, and the
    upper bound induced_norm_upper(A', p) on the operator norm of A'."""

    basis: np.ndarray
    change_of_basis: np.ndarray
    alpha: float
    beta: float
    p: float
    induced_norm: float


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


def _positive_diag_r(M: np.ndarray) -> np.ndarray:
    """The R factor of a thin QR of M, its rows signed so that diag(R) >= 0."""
    R = tall_qr_r(M)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return signs[:, None] * R


def _is_singular(R: np.ndarray) -> bool:
    diag = np.abs(np.diag(R))
    return not diag.min() > diag.max() * 1e-10


def _gram_cholesky(S: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of S^T S, or None where Cholesky fails."""
    try:
        return np.linalg.cholesky(S.T @ S)
    except np.linalg.LinAlgError:
        return None


def _dual_norms(Z: np.ndarray, q: float) -> np.ndarray:
    if q == np.inf:
        return np.max(np.abs(Z), axis=0)
    return np.sum(np.abs(Z) ** q, axis=0) ** (1.0 / q)


def _conditioning_ratios(U: np.ndarray, p: float, Z: np.ndarray) -> np.ndarray:
    """||z||_q / ||Uz||_p per column of Z (scale invariant in z)."""
    q = dual_exponent(p)
    num = _dual_norms(Z, q)
    # One n x N buffer: |UZ|^p is formed in place.
    UZ = U @ Z
    np.abs(UZ, out=UZ)
    np.power(UZ, p, out=UZ)
    den = np.sum(UZ, axis=0) ** (1.0 / p)
    mask = den > 0
    out = np.zeros(Z.shape[1])
    out[mask] = num[mask] / den[mask]
    return out


def _lewis_basis(Aprime: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, float]:
    """U = A' R^-1 from _LEWIS_STEPS steps towards the l_p Lewis weights.

    Each step takes weights w > 0, sets v_i = w_i^(1 - 2/p) and makes
    V^{1/2} U orthonormal, so that ||z||_2^2 = sum_i v_i (u_i z)^2 for every
    z.  It records c with the w that built U, then moves w to ||u_i||_2^p,
    the Lewis fixed-point map.  For any positive w and every z, with q the
    dual exponent of p:
      p <= 2:  (u_i z)^2 <= |u_i z|^p (||u_i||_2 ||z||_2)^(2-p) gives
               ||z||_q <= ||z||_2 <= c ||Uz||_p, c = (max_i v_i ||u_i||_2^(2-p))^(1/p);
      p > 2:   Hoelder gives ||z||_2 <= (sum_i w_i)^(1/2 - 1/p) ||Uz||_p, and
               ||z||_q <= m^(1/q - 1/2) ||z||_2, so c = (m sum_i w_i)^(1/2 - 1/p)
    (Cohen & Peng, Lp Row Sampling by Lewis Weights, arXiv:1412.0588).

    The first step factors V^{1/2} A' = QR and sets U = A' R^-1.  Later
    steps start from a U that is orthonormal in the previous weights, so
    the Gram matrix G = U^T V U is near the identity and well conditioned:
    each factors G = L L^T by Cholesky and sets U <- U L^-T, R <- L^T R,
    an m x m factorization in place of a QR of the n rows.  A step whose
    Cholesky fails is a QR step instead.  Orthonormality then holds only
    up to rounding, so after the last step
    delta = ||(V^{1/2}U)^T (V^{1/2}U) - I||_2 is measured: ||z||_2^2 <= sum_i v_i (u_i z)^2 / (1 - delta), which
    multiplies c by (1 - delta)^(-1/p) at p <= 2 and (1 - delta)^(-1/2)
    above (a ConditioningFailureError if delta >= 1).  At p = 1 the
    exponents are 0.5 and 1.0, which numpy evaluates exactly as a square
    root and a copy.  At p = 2 the row scale w^(1/p - 1/2) is exactly 1
    whatever w is, so every step would repeat the first one bit for bit:
    one QR step is taken.  Its U is off orthonormal by about cond(A') times
    the machine epsilon, so delta is measured there too.  Returns (U, R, c).
    """
    m = Aprime.shape[1]
    w = np.ones(Aprime.shape[0])
    U = None
    for _ in range(1 if p == 2 else _LEWIS_STEPS):
        scale = (w ** (1 / p - 0.5))[:, None]
        L = None if U is None else _gram_cholesky(U / scale)
        if L is not None:
            U, R = U @ np.linalg.inv(L).T, L.T @ R
        else:
            R = _positive_diag_r(Aprime / scale)
            if _is_singular(R):
                raise ConditioningFailureError("weighted QR of A' is singular")
            U = Aprime @ np.linalg.inv(R)
        norms = np.linalg.norm(U, axis=1)
        if p <= 2:
            c = float(np.max(norms ** (2 - p) / w ** (2 / p - 1))) ** (1 / p)
        else:
            c = float(m * np.sum(w)) ** (0.5 - 1 / p)
        # A zero row keeps a tiny positive weight, so no step divides by 0.
        w = norms**p
        w = np.maximum(w, np.finfo(float).eps * w.max())
    S = U / scale
    delta = float(np.linalg.norm(S.T @ S - np.eye(m), 2))
    if not delta < 1:
        raise ConditioningFailureError(f"Lewis basis {delta:.3e} off orthonormal")
    c *= (1 - delta) ** -max(1 / p, 0.5)
    return U, R, c


def p_conditioned_basis(Aprime, p: float) -> WellConditionedBasis:
    """(alpha, beta, p) well-conditioned basis U = A' R^-1 for p in [1, 4].

    R comes from _LEWIS_STEPS steps of the l_p Lewis-weight iteration (one
    step at p = 2, where it is the QR factor with diag(R) >= 0), and
    beta = c * (1 + 1e-9) is certified at every p: c bounds ||z||_q / ||Uz||_p
    for every z (see _lewis_basis).  Nothing is sampled, so equal inputs give
    equal bits.  alpha is the measured entrywise norm of U times a 1% slack,
    and induced_norm is induced_norm_upper(A', p).
    """
    Aprime = as_matrix(Aprime, "Aprime")
    n, m = Aprime.shape
    if n < m:
        raise ShapeError(f"need a tall matrix, got {n}x{m}")
    check_basis_exponent(p)
    # Before the Lewis steps, so its |A'| temporaries do not add to their peak.
    induced_norm = induced_norm_upper(Aprime, p)
    U, R, c = _lewis_basis(Aprime, p)
    alpha = entrywise_p_norm(U, p) * _ALPHA_MARGIN
    residual = np.linalg.norm(U @ R - Aprime) / max(np.linalg.norm(Aprime), 1e-30)
    if residual > 1e-8:
        raise ConditioningFailureError(f"factorization residual {residual:.3e}")
    return WellConditionedBasis(
        basis=U,
        change_of_basis=R,
        alpha=float(alpha),
        beta=c * _BETA_ROUNDING,
        p=float(p),
        induced_norm=induced_norm,
    )


def verify_conditioning(
    basis: WellConditionedBasis, trials: int, seed: int
) -> ConditioningReport:
    """Replay the recorded pair: measure ||U||_p and the worst dual-norm ratio.

    This is an independent sampled check, the one sampler left in the module.
    Its beta is the largest ratio over random unit directions, so it can only
    under-shoot the true beta: it never exceeds the certified beta of a
    p_conditioned_basis at any p, and a violation flag means the recorded
    pair is broken.  The same seed gives the same report.
    """
    check_count(trials, "trials")
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
