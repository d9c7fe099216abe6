"""Tests for sensitivity bounds, leverage scores, and the brute-force oracle."""

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcoreset.conditioning import p_conditioned_basis
from regcoreset.coreset import build_coreset
from regcoreset.errors import (
    DimensionTooLargeError,
    InvalidScoresError,
    RankDeficiencyError,
    SchemeMismatchError,
    ShapeError,
)
from regcoreset.experiments import ExperimentConfig, build_experiment_instance
from regcoreset.linalg import (
    RegressionInstance,
    augment,
    statistical_dimension,
)
from regcoreset.objective import ObjectiveSpec
from regcoreset.sensitivity import (
    SensitivityScores,
    brute_force_sensitivity,
    lp_lp_sensitivity_bounds,
    multiresponse_rlad_sensitivity_bounds,
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
    uniform_scores,
)


def test_scores_validation():
    with pytest.raises(InvalidScoresError):
        SensitivityScores(values=np.array([0.5, -0.1]), scheme="uniform")
    with pytest.raises(InvalidScoresError):
        SensitivityScores(values=np.array([0.0, 0.0]), scheme="uniform")
    with pytest.raises(InvalidScoresError):
        SensitivityScores(values=np.array([[0.5]]), scheme="uniform")
    with pytest.raises(InvalidScoresError):
        SensitivityScores(values=np.array([0.5]), scheme="made_up")
    with pytest.raises(InvalidScoresError):
        SensitivityScores(values=np.array([0.5, 0.5]), scheme="uniform", total=2.0)


def test_uniform_scores():
    four = uniform_scores(4)
    assert np.array_equal(four.values, np.full(4, 0.25))
    assert four.total == 1.0
    assert np.array_equal(uniform_scores(1).values, np.array([1.0]))
    for n in (2, 17, 301):
        assert uniform_scores(n).total == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        uniform_scores(0)


def test_lp_lp_hand_example():
    # I2 stacked over one zero row: the p = 2 basis is the matrix itself,
    # beta = 1 + 1e-9, induced 2-norm 1, lam = 1 halves the row mass term.
    aprime = np.vstack([np.eye(2), np.zeros((1, 2))])
    basis = p_conditioned_basis(aprime, 2.0)
    scores = lp_lp_sensitivity_bounds(basis, 1.0)
    half = (1 + 1e-9) ** 2 / 2
    expected = [half + 1 / 3, half + 1 / 3, 1 / 3]
    assert scores.values == pytest.approx(expected, abs=1e-12)
    assert scores.total == pytest.approx(2 * half + 1, abs=1e-12)
    assert scores.info["induced_norm"] == 1.0


def test_lp_lp_lambda_zero_collapses_denominator():
    M = np.random.default_rng(1).standard_normal((40, 3))
    basis = p_conditioned_basis(M, 1.0)
    scores = lp_lp_sensitivity_bounds(basis, 0.0)
    expected = basis.beta * np.sum(np.abs(basis.basis), axis=1) + 1.0 / 40
    assert np.allclose(scores.values, expected, rtol=1e-12)


def test_lp_lp_doubling_lambda_shrinks_first_term():
    M = np.random.default_rng(2).standard_normal((30, 3))
    basis = p_conditioned_basis(M, 2.0)
    lo = lp_lp_sensitivity_bounds(basis, 0.5)
    hi = lp_lp_sensitivity_bounds(basis, 1.0)
    assert np.all((hi.values - 1 / 30) < (lo.values - 1 / 30))


def test_lp_lp_total_monotone_in_lambda():
    M = np.random.default_rng(3).standard_normal((50, 4))
    basis = p_conditioned_basis(M, 2.0)
    totals = [
        lp_lp_sensitivity_bounds(basis, lam).total
        for lam in (0.0, 0.5, 5.0, 50.0)
    ]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_lp_lp_rejects_bad_inputs():
    basis = p_conditioned_basis(np.eye(3), 2.0)
    with pytest.raises(ValueError):
        lp_lp_sensitivity_bounds(basis, -0.1)


def test_lp_lp_broken_alpha_certificate_is_caught():
    from regcoreset.conditioning import WellConditionedBasis

    good = p_conditioned_basis(np.random.default_rng(4).standard_normal((20, 3)), 2.0)
    forged = WellConditionedBasis(
        basis=good.basis,
        change_of_basis=good.change_of_basis,
        alpha=1e-3,
        beta=good.beta,
        p=2.0,
        induced_norm=1.0,
    )
    with pytest.raises(InvalidScoresError):
        lp_lp_sensitivity_bounds(forged, 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_lp_lp_bounds_reject_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        lp_lp_sensitivity_bounds(p_conditioned_basis(np.eye(3), 2.0), lam)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_rlad_bounds_reject_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        rlad_sensitivity_bounds(p_conditioned_basis(np.eye(3), 1.0), lam)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_multiresponse_bounds_reject_non_finite_lambda(lam):
    ahat = np.random.default_rng(5).standard_normal((30, 4))
    with pytest.raises(ValueError, match="lambda must be finite"):
        multiresponse_rlad_sensitivity_bounds(p_conditioned_basis(ahat, 1.0), lam, ahat, 2)


def test_rlad_specializes_lp_lp():
    M = np.random.default_rng(10).standard_normal((100, 3))
    basis = p_conditioned_basis(M, 1.0)
    via_rlad = rlad_sensitivity_bounds(basis, 0.7)
    via_lp = lp_lp_sensitivity_bounds(basis, 0.7)
    assert np.array_equal(via_rlad.values, via_lp.values)
    assert via_rlad.scheme == "rlad_bound"
    assert via_rlad.total <= basis.alpha * basis.beta + 1


def test_rlad_requires_p1_basis():
    M = np.random.default_rng(11).standard_normal((20, 2))
    with pytest.raises(SchemeMismatchError):
        rlad_sensitivity_bounds(p_conditioned_basis(M, 2.0), 0.0)


def test_multiresponse_matches_single_response_formula():
    # With the same basis and a design block carrying the dominant column,
    # the k = 1 multiresponse bound and the plain one coincide.
    rng = np.random.default_rng(4)
    A = rng.standard_normal((40, 2))
    A[:, 0] *= 5.0
    b = 0.1 * rng.standard_normal(40)
    ahat = np.column_stack([A, -b])
    aprime = np.column_stack([A, b])
    basis = p_conditioned_basis(ahat, 1.0)
    mr = multiresponse_rlad_sensitivity_bounds(basis, 0.3, ahat, 1)
    rl = rlad_sensitivity_bounds(basis, 0.3)
    assert np.allclose(mr.values, rl.values, rtol=1e-12)
    # flipping the response sign leaves the basis row norms untouched
    flipped = p_conditioned_basis(aprime, 1.0)
    assert np.allclose(
        np.sum(np.abs(basis.basis), axis=1),
        np.sum(np.abs(flipped.basis), axis=1),
        rtol=1e-9,
    )
    assert mr.info["induced_norm_design"] <= mr.info["induced_norm_stacked"]


def test_multiresponse_lambda_zero_and_validation():
    rng = np.random.default_rng(5)
    ahat = rng.standard_normal((30, 4))
    basis = p_conditioned_basis(ahat, 1.0)
    scores = multiresponse_rlad_sensitivity_bounds(basis, 0.0, ahat, 2)
    expected = basis.beta * np.sum(np.abs(basis.basis), axis=1) + 1.0 / 30
    assert np.allclose(scores.values, expected, rtol=1e-12)
    with pytest.raises(ValueError):
        multiresponse_rlad_sensitivity_bounds(basis, 0.0, ahat, 0)
    with pytest.raises(ShapeError):
        multiresponse_rlad_sensitivity_bounds(basis, 0.0, ahat, 4)
    with pytest.raises(ShapeError):
        multiresponse_rlad_sensitivity_bounds(basis, 0.0, ahat[:20], 2)


def test_multiresponse_dominates_grid_oracle():
    # Tiny instance; queries are d x k matrices stacked over the identity,
    # swept over a symmetric logarithmic entry grid.
    rng = np.random.default_rng(15)
    n, d, k = 6, 2, 2
    ahat = np.column_stack([rng.standard_normal((n, d)), -rng.standard_normal((n, k))])
    lam = 0.5
    basis = p_conditioned_basis(ahat, 1.0)
    bound = multiresponse_rlad_sensitivity_bounds(basis, lam, ahat, k)

    levels = np.array([0.0, 0.01, 0.1, 1.0, 10.0, 100.0])
    entries = np.concatenate([-levels[1:][::-1], levels])
    cands = np.array(list(product(entries, repeat=d * k)))
    count = cands.shape[0]
    tops = cands.T.reshape(d, k, count)
    eye = np.broadcast_to(np.eye(k)[:, :, None], (k, k, count))
    stacked = np.concatenate([tops, eye], axis=0)
    per_row = np.abs(np.einsum("nm,mkK->nkK", ahat, stacked)).sum(axis=1)
    reg = lam * np.abs(cands).sum(axis=1)
    denom = per_row.sum(axis=0) + reg
    keep = denom > 1e-300
    ratios = (per_row[:, keep] + reg[keep] / n) / denom[keep]
    oracle = ratios.max(axis=1)
    assert np.all(oracle <= bound.values * (1 + 1e-9))


def _instance_of(aprime):
    """The instance whose augmented matrix [A  b] is aprime."""
    return RegressionInstance(aprime[:, :-1], aprime[:, -1])


def test_ridge_leverage_identity_example():
    scores = ridge_leverage_scores(_instance_of(np.eye(3)), 1.0)
    assert scores.values == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
    assert scores.total == pytest.approx(1.5, abs=1e-12)


def test_ridge_leverage_lambda_zero_is_projector_trace():
    M = np.random.default_rng(20).standard_normal((50, 4))
    scores = ridge_leverage_scores(_instance_of(M), 0.0)
    assert scores.total == pytest.approx(4.0, abs=1e-8)
    assert np.all(scores.values > 0) and np.all(scores.values <= 1 + 1e-12)


def test_ridge_leverage_total_is_statistical_dimension():
    for seed, lam in ((1, 0.3), (2, 2.0), (3, 17.0)):
        M = np.random.default_rng(seed).standard_normal((50, 4))
        scores = ridge_leverage_scores(_instance_of(M), lam)
        sd = statistical_dimension(np.linalg.svd(M, compute_uv=False), lam)
        assert scores.total == pytest.approx(sd, abs=1e-8)


def test_ridge_leverage_errors():
    with pytest.raises(RankDeficiencyError):
        ridge_leverage_scores(_instance_of(np.ones((5, 2))), 0.0)
    with pytest.raises(ShapeError):
        ridge_leverage_scores(_instance_of(np.ones((2, 5))), 1.0)
    with pytest.raises(ValueError):
        ridge_leverage_scores(_instance_of(np.eye(2)), -0.5)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_ridge_leverage_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        ridge_leverage_scores(_instance_of(np.eye(3)), lam)


def _thin_svd_ridge_leverage(aprime, lam):
    left, sigma, _ = np.linalg.svd(aprime, full_matrices=False)
    return (left**2) @ (sigma**2 / (sigma**2 + lam))


def _oracle_instances():
    for seed, (n, d) in enumerate(((60, 2), (300, 7), (1000, 19), (500, 30))):
        rng = np.random.default_rng(400 + seed)
        M = rng.standard_normal((n, d + 1)) * 10 ** rng.uniform(0, 3, (n, 1))
        yield RegressionInstance(M[:, :-1], M[:, -1])
    config = ExperimentConfig(n=2000, d=30, lambda_grid=(0.5,), sample_sizes=(30,),
                              master_seed=2)
    yield build_experiment_instance(config)[0]


@pytest.mark.parametrize("lam", [0.0, 0.1, 5.0])
def test_ridge_leverage_matches_thin_svd_oracle(lam):
    # The NG instance has cond(A') ~ 6.6e5, so at lam = 0 the factor path
    # agrees with the n-row SVD to about 2e-10 there and 5e-13 elsewhere.
    for inst in _oracle_instances():
        np.testing.assert_allclose(
            ridge_leverage_scores(inst, lam).values,
            _thin_svd_ridge_leverage(augment(inst), lam),
            rtol=1e-9,
            atol=0,
        )


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_all_zero_row_scores_zero_and_is_never_sampled(lam):
    # An all-zero row of [A  b] has loss 0 for every x, so no query weighs it.
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((50, 3)), rng.standard_normal(50)
    A[7], b[7] = 0.0, 0.0
    inst = RegressionInstance(A, b)
    scores = ridge_leverage_scores(inst, lam)
    assert scores.values[7] == 0.0
    assert np.all(np.delete(scores.values, 7) > 0)
    core = build_coreset(inst, scores, 500, seed=3)
    assert 7 not in core.source_indices


def test_brute_force_single_row_is_one():
    inst = RegressionInstance(np.array([[2.0]]), np.array([3.0]))
    scores = brute_force_sensitivity(inst, ObjectiveSpec.rlad(0.5))
    assert scores.values == pytest.approx([1.0], abs=1e-12)


def test_brute_force_identical_rows_split_evenly():
    inst = RegressionInstance(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]))
    scores = brute_force_sensitivity(inst, ObjectiveSpec.rlad(0.0))
    assert scores.values == pytest.approx([0.5, 0.5], abs=1e-12)


def test_brute_force_validation():
    inst = RegressionInstance(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5))
    with pytest.raises(DimensionTooLargeError):
        brute_force_sensitivity(inst, ObjectiveSpec.ridge(1.0))


def test_brute_force_below_rlad_bound_rowwise():
    rng = np.random.default_rng(42)
    inst = RegressionInstance(rng.standard_normal((8, 1)), rng.standard_normal(8))
    aprime = augment(inst)
    basis = p_conditioned_basis(aprime, 1.0)
    bound = rlad_sensitivity_bounds(basis, 0.5)
    oracle = brute_force_sensitivity(inst, ObjectiveSpec.rlad(0.5))
    assert np.all(oracle.values <= bound.values * (1 + 1e-9))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
def test_oracle_domination_sweep(p, lam):
    # The analytic bound must sit above the grid oracle row by row.
    for seed in range(4):
        rng = np.random.default_rng(1000 + seed)
        inst = RegressionInstance(
            rng.standard_normal((30, 2)), rng.standard_normal(30)
        )
        aprime = augment(inst)
        if p == 1.0:
            basis = p_conditioned_basis(aprime, 1.0)
            bound = rlad_sensitivity_bounds(basis, lam)
            spec = ObjectiveSpec.rlad(lam)
        elif p == 2.0:
            bound = lp_lp_sensitivity_bounds(p_conditioned_basis(aprime, 2.0), lam)
            spec = ObjectiveSpec.ridge(lam)
        else:
            bound = lp_lp_sensitivity_bounds(p_conditioned_basis(aprime, p), lam)
            spec = ObjectiveSpec.lp_lp(p, lam)
        oracle = brute_force_sensitivity(inst, spec)
        assert np.all(oracle.values <= bound.values * (1 + 1e-9))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    d=st.integers(1, 2),
    data_seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([0.0, 0.5, 5.0]),
    max_row_scale=st.sampled_from([1.0, 1e2, 1e4]),
    zero_row=st.booleans(),
)
@example(d=1, data_seed=0, lam=0.0, max_row_scale=1.0, zero_row=True)
@example(d=2, data_seed=0, lam=0.0, max_row_scale=1e4, zero_row=True)
def test_score_bounds_dominate_grid_oracle(d, data_seed, lam, max_row_scale, zero_row):
    # Every row's bound must sit above the grid oracle, which never exceeds
    # the true sensitivity, also with badly scaled rows and an empty row.
    rng = np.random.default_rng(data_seed)
    n = int(rng.integers(d + 3, 16))
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n)
    rows = 10.0 ** rng.uniform(0.0, np.log10(max_row_scale), n)
    A *= rows[:, None]
    b *= rows
    if zero_row:
        A[0], b[0] = 0.0, 0.0
    inst = RegressionInstance(A, b)
    aprime = augment(inst)
    bounds = [
        (rlad_sensitivity_bounds(p_conditioned_basis(aprime, 1.0), lam),
         ObjectiveSpec.rlad(lam)),
        (lp_lp_sensitivity_bounds(p_conditioned_basis(aprime, 2.0), lam),
         ObjectiveSpec.ridge(lam)),
    ]
    for bound, spec in bounds:
        oracle = brute_force_sensitivity(inst, spec)
        assert np.all(oracle.values <= bound.values * (1 + 1e-9))
