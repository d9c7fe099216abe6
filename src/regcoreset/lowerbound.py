"""Counterexample machinery for mismatched loss/penalty exponents.

When r != s, any row subset that already distorts the unregularized loss at
some query x can be rescaled into a query y = alpha * x whose regularized
objectives disagree by more than the target epsilon: scaling shifts the
balance between the degree-r loss and the degree-s penalty, so the distortion
survives regularization.  This module finds such an x, computes the scaling,
and produces a checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coreset import Coreset
from .errors import ShapeError, TheoremInapplicableError
from .linalg import as_matrix, augment, check_lambda
from .objective import ObjectiveSpec
from .solvers import _objective

OVERSHOOT = "overshoot"
UNDERSHOOT = "undershoot"

_MARGIN_UP = 1.01
_MARGIN_DOWN = 0.99


@dataclass(frozen=True)
class ViolationProbe:
    x: np.ndarray
    epsilon_prime: float
    direction: str


@dataclass(frozen=True)
class CounterexampleWitness:
    """A certified violation y = alpha * base_x; to_dict is its document."""

    base_x: np.ndarray
    alpha: float
    y: np.ndarray
    epsilon: float
    epsilon_prime: float
    direction: str
    regularized_ratio: float

    def to_dict(self) -> dict:
        return {
            "base_x": self.base_x.tolist(),
            "alpha": self.alpha,
            "y": self.y.tolist(),
            "epsilon": self.epsilon,
            "epsilon_prime": self.epsilon_prime,
            "direction": self.direction,
            "regularized_ratio": self.regularized_ratio,
        }


def _loss_ratio(aprime, coreset_rows, x, p, r):
    full = np.linalg.norm(aprime @ x, ord=p) ** r
    if full == 0.0:
        return None
    return float(np.linalg.norm(coreset_rows @ x, ord=p) ** r / full)


def find_unregularized_violation(
    aprime,
    coreset: Coreset,
    p: float,
    r: float,
    epsilon: float,
    probes: int = 200,
    seed: int = 0,
) -> ViolationProbe | None:
    """Search for x with ||Cx||_p^r outside (1 +/- eps) * ||A'x||_p^r.

    C is the coreset's rows weighted for the loss exponent p.  Candidates are
    seeded random unit directions plus the right singular vectors of A'
    (which expose directions the sampled rows miss entirely).
    Returns the probe with the largest deviation epsilon', or None when every
    candidate is preserved within epsilon.
    """
    aprime = as_matrix(aprime, "aprime")
    if coreset.rows.shape[1] != aprime.shape[1]:
        raise ShapeError(
            f"coreset rows have {coreset.rows.shape[1]} columns but aprime has "
            f"{aprime.shape[1]}"
        )
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    m = aprime.shape[1]
    rng = np.random.default_rng(seed)
    candidates = rng.standard_normal((probes, m))
    candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
    if aprime.shape[0] >= m:
        _, _, vt = np.linalg.svd(aprime, full_matrices=False)
        candidates = np.vstack([candidates, vt])
    weighted = augment(coreset.as_instance(p))
    best: ViolationProbe | None = None
    for x in candidates:
        ratio = _loss_ratio(aprime, weighted, x, p, r)
        if ratio is None:
            continue
        if ratio > 1.0 + epsilon:
            probe = ViolationProbe(x=x.copy(), epsilon_prime=ratio - 1.0, direction=OVERSHOOT)
        elif ratio < 1.0 - epsilon:
            probe = ViolationProbe(x=x.copy(), epsilon_prime=1.0 - ratio, direction=UNDERSHOOT)
        else:
            continue
        if best is None or probe.epsilon_prime > best.epsilon_prime:
            best = probe
    return best


def counterexample_alpha(
    epsilon: float,
    epsilon_prime: float,
    lam: float,
    norm_ax_p_r: float,
    norm_x_q_s: float,
    r: float,
    s: float,
) -> float:
    """Scaling that pushes the unregularized violation past the penalty.

    For r > s the threshold is
    alpha^(r-s) > ((eps' + eps) / (eps' - eps)) * lam*||x||_q^s / ||Ax||_p^r,
    taken with a 1% margin; for r < s the reciprocal inequality holds and the
    margin shrinks instead.  lam = 0 needs no scaling at all.
    """
    if r == s:
        raise TheoremInapplicableError(
            "matching loss and penalty exponents admit no scaling counterexample"
        )
    check_lambda(lam)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if epsilon_prime <= epsilon:
        raise ValueError(
            f"need epsilon_prime > epsilon, got {epsilon_prime} <= {epsilon}"
        )
    if norm_ax_p_r <= 0 or norm_x_q_s <= 0:
        raise ValueError("both norms must be positive")
    if lam == 0:
        return 1.0
    if r > s:
        threshold = (
            (epsilon_prime + epsilon)
            / (epsilon_prime - epsilon)
            * lam
            * norm_x_q_s
            / norm_ax_p_r
        )
        return float((_MARGIN_UP * threshold) ** (1.0 / (r - s)))
    threshold = (
        (epsilon_prime - epsilon)
        / (epsilon_prime + epsilon)
        * norm_ax_p_r
        / (lam * norm_x_q_s)
    )
    return float((_MARGIN_DOWN * threshold) ** (1.0 / (s - r)))


def demonstrate_violation(
    aprime,
    coreset: Coreset,
    spec: ObjectiveSpec,
    epsilon: float,
    seed: int = 0,
    probes: int = 200,
) -> CounterexampleWitness | None:
    """Full chain: find a violation, rescale it, certify the regularized gap.

    The witness query y = alpha * x must push the coreset-to-full ratio of
    ||.||_p^r + lam*||.||_q^s outside 1 -/+ (eps + eps')/2; that band check is
    asserted before returning.  Returns None when no unregularized violation
    is found at epsilon.
    """
    if spec.r == spec.s:
        raise TheoremInapplicableError(
            "matching loss and penalty exponents admit no scaling counterexample"
        )
    aprime = as_matrix(aprime, "aprime")
    probe = find_unregularized_violation(
        aprime, coreset, spec.p, spec.r, epsilon, probes=probes, seed=seed
    )
    if probe is None:
        return None
    x = probe.x
    norm_loss = float(np.linalg.norm(aprime @ x, ord=spec.p) ** spec.r)
    norm_pen = float(np.linalg.norm(x, ord=spec.q) ** spec.s)
    alpha = counterexample_alpha(
        epsilon, probe.epsilon_prime, spec.lam, norm_loss, norm_pen, spec.r, spec.s
    )
    y = alpha * x
    weighted = augment(coreset.as_instance(spec.p))
    ratio = _objective(weighted @ y, y, spec) / _objective(aprime @ y, y, spec)
    band = (epsilon + probe.epsilon_prime) / 2.0
    if probe.direction == OVERSHOOT and not ratio > 1.0 + band:
        raise AssertionError(
            f"overshoot witness ratio {ratio:.6g} failed to clear 1 + {band:.6g}"
        )
    if probe.direction == UNDERSHOOT and not ratio < 1.0 - band:
        raise AssertionError(
            f"undershoot witness ratio {ratio:.6g} failed to clear 1 - {band:.6g}"
        )
    return CounterexampleWitness(
        base_x=x,
        alpha=alpha,
        y=y,
        epsilon=epsilon,
        epsilon_prime=probe.epsilon_prime,
        direction=probe.direction,
        regularized_ratio=ratio,
    )
