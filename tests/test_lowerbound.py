"""Tests for the mismatched-exponent counterexample construction."""

import json

import numpy as np
import pytest

from regcoreset.coreset import Coreset, identity_coreset
from regcoreset.errors import ShapeError, TheoremInapplicableError
from regcoreset.linalg import RegressionInstance
from regcoreset.lowerbound import (
    OVERSHOOT,
    UNDERSHOOT,
    counterexample_alpha,
    demonstrate_violation,
    find_unregularized_violation,
)
from regcoreset.objective import ObjectiveSpec

MISMATCHED = ObjectiveSpec(p=2, q=1, r=2, s=1, lam=1.0)


def _single_row_coreset() -> Coreset:
    return Coreset(
        rows=np.array([[1.0, 0.0]]),
        weights=np.array([1.0]),
        source_indices=np.array([0]),
        seed=0,
        scheme="uniform",
        n_source=2,
    )


def test_identity_coreset_has_no_violation():
    inst = RegressionInstance(
        np.random.default_rng(0).standard_normal((20, 2)),
        np.random.default_rng(1).standard_normal(20),
    )
    core = identity_coreset(inst)
    from regcoreset.linalg import augment

    aprime = augment(inst)
    assert find_unregularized_violation(aprime, core, 2.0, 2.0, 0.1) is None
    assert demonstrate_violation(aprime, core, MISMATCHED, 0.1) is None


def test_single_row_coreset_violation_found():
    probe = find_unregularized_violation(np.eye(2), _single_row_coreset(), 2.0, 2.0, 0.1)
    assert probe is not None
    assert probe.direction == UNDERSHOOT
    assert probe.epsilon_prime == pytest.approx(1.0, abs=1e-12)
    assert np.abs(probe.x) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_violation_search_is_deterministic():
    core = _single_row_coreset()
    a = find_unregularized_violation(np.eye(2), core, 2.0, 2.0, 0.1, seed=5)
    b = find_unregularized_violation(np.eye(2), core, 2.0, 2.0, 0.1, seed=5)
    assert np.array_equal(a.x, b.x)
    assert a.epsilon_prime == b.epsilon_prime


def test_coreset_width_must_match_aprime():
    core = Coreset(
        rows=np.array([[1.0, 0.0, 0.0]]),
        weights=np.array([1.0]),
        source_indices=np.array([0]),
        seed=0,
        scheme="uniform",
        n_source=2,
    )
    with pytest.raises(ShapeError, match="3 columns but aprime has 2"):
        find_unregularized_violation(np.eye(2), core, 2.0, 2.0, 0.1)
    with pytest.raises(ShapeError):
        demonstrate_violation(np.eye(2), core, MISMATCHED, 0.1)


def test_violation_search_validation():
    core = _single_row_coreset()
    with pytest.raises(ValueError):
        find_unregularized_violation(np.eye(2), core, 2.0, 2.0, 1.5)


def test_alpha_hand_value():
    # (0.3+0.1)/(0.3-0.1) * 1 = 2, times the 1.01 margin.
    assert counterexample_alpha(0.1, 0.3, 1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(
        2.02
    )


def test_alpha_reciprocal_case():
    # r < s flips the inequality: (0.3-0.1)/(0.3+0.1) * 1 = 0.5, times 0.99.
    assert counterexample_alpha(0.1, 0.3, 1.0, 1.0, 1.0, 1.0, 2.0) == pytest.approx(
        0.495
    )


def test_alpha_degenerate_and_inapplicable():
    assert counterexample_alpha(0.1, 0.3, 0.0, 1.0, 1.0, 2.0, 1.0) == 1.0
    with pytest.raises(TheoremInapplicableError):
        counterexample_alpha(0.1, 0.3, 1.0, 1.0, 1.0, 2.0, 2.0)


def test_alpha_scale_covariance():
    lo = counterexample_alpha(0.1, 0.3, 1.0, 1.0, 1.0, 2.0, 1.0)
    hi = counterexample_alpha(0.1, 0.3, 2.0, 1.0, 1.0, 2.0, 1.0)
    assert hi == pytest.approx(2.0 * lo, rel=1e-12)
    # general exponent gap: alpha scales by 2^(1/(r-s))
    lo3 = counterexample_alpha(0.1, 0.3, 1.0, 1.0, 1.0, 3.0, 1.0)
    hi3 = counterexample_alpha(0.1, 0.3, 2.0, 1.0, 1.0, 3.0, 1.0)
    assert hi3 == pytest.approx(2 ** 0.5 * lo3, rel=1e-12)


def test_alpha_validation():
    with pytest.raises(ValueError):
        counterexample_alpha(0.1, 0.05, 1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        counterexample_alpha(1.5, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        counterexample_alpha(0.1, 0.3, -1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        counterexample_alpha(0.1, 0.3, 1.0, 0.0, 1.0, 2.0, 1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_alpha_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        counterexample_alpha(0.1, 0.3, lam, 1.0, 1.0, 2.0, 1.0)


def test_undershoot_witness_end_to_end():
    witness = demonstrate_violation(np.eye(2), _single_row_coreset(), MISMATCHED, 0.1)
    assert witness.direction == UNDERSHOOT
    assert witness.epsilon_prime == pytest.approx(1.0, abs=1e-12)
    assert witness.alpha == pytest.approx(1.01 * (1.1 / 0.9), rel=1e-12)
    band = (0.1 + witness.epsilon_prime) / 2
    assert witness.regularized_ratio < 1.0 - band


def test_overshoot_witness_end_to_end():
    # A coreset that doubles one row overshoots along that axis.
    core = Coreset(
        rows=np.array([[2.0, 0.0], [0.0, 1.0]]),
        weights=np.array([1.0, 1.0]),
        source_indices=np.array([0, 1]),
        seed=0,
        scheme="uniform",
        n_source=2,
    )
    witness = demonstrate_violation(np.eye(2), core, MISMATCHED, 0.1, seed=3)
    assert witness.direction == OVERSHOOT
    assert witness.epsilon_prime == pytest.approx(3.0, abs=1e-10)
    assert witness.regularized_ratio > 1.0 + (0.1 + witness.epsilon_prime) / 2


def test_witness_ratio_recomputable():
    witness = demonstrate_violation(np.eye(2), _single_row_coreset(), MISMATCHED, 0.1)
    y = witness.y
    full_inst = RegressionInstance(np.eye(2), np.zeros(2))
    core_inst = RegressionInstance(np.array([[1.0, 0.0]]), np.zeros(1))
    from regcoreset.solvers import evaluate_objective

    full = evaluate_objective(full_inst, y, MISMATCHED)
    approx = evaluate_objective(core_inst, y, MISMATCHED)
    assert approx / full == pytest.approx(witness.regularized_ratio, abs=1e-10)


def test_matching_exponents_are_rejected():
    square = ObjectiveSpec.ridge(1.0)
    with pytest.raises(TheoremInapplicableError):
        demonstrate_violation(np.eye(2), _single_row_coreset(), square, 0.1)


def test_witness_serializes():
    witness = demonstrate_violation(np.eye(2), _single_row_coreset(), MISMATCHED, 0.1)
    doc = json.loads(json.dumps(witness.to_dict()))
    assert set(doc) == {
        "base_x",
        "alpha",
        "y",
        "epsilon",
        "epsilon_prime",
        "direction",
        "regularized_ratio",
    }
    assert doc["direction"] == UNDERSHOOT
    assert doc["alpha"] == witness.alpha


def test_in_span_response_reduces_to_homogeneous_ratio():
    # With b = Au, sampling the residual at y = u + v only sees Av, so the
    # sampled-to-full residual ratio equals the homogeneous ratio at v.
    rng = np.random.default_rng(17)
    A = rng.standard_normal((40, 5))
    u = rng.standard_normal(5)
    b = A @ u
    pick = rng.choice(40, size=8, replace=False)
    S = np.zeros((8, 40))
    S[np.arange(8), pick] = rng.uniform(0.5, 2.0, size=8)
    for trial in range(10):
        v = rng.standard_normal(5)
        y = u + v
        lhs = np.linalg.norm(S @ (A @ y - b)) / np.linalg.norm(A @ y - b)
        rhs = np.linalg.norm(S @ (A @ v)) / np.linalg.norm(A @ v)
        assert lhs == pytest.approx(rhs, abs=1e-10)
