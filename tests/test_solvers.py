"""Tests for objective evaluation and the solver family."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcoreset import experiments, solvers
from regcoreset.errors import RankDeficiencyError, ShapeError
from regcoreset.experiments import (
    ExperimentConfig,
    build_experiment_instance,
    run_relative_error_experiment,
    run_sparsity_experiment,
)
from regcoreset.linalg import RegressionInstance
from regcoreset.objective import ObjectiveSpec
from regcoreset.seeding import mix_seed
from regcoreset.solvers import (
    evaluate_objective,
    multiresponse_rlad_objective,
    solve_lasso,
    solve_lp_lp,
    solve_modified_lasso,
    solve_multiresponse_rlad,
    solve_rlad,
    solve_ridge,
    sparsity_count,
)

MEDIAN_INSTANCE = RegressionInstance(np.ones((3, 1)), np.array([1.0, 2.0, 9.0]))


def _instance(seed: int, n: int, d: int) -> RegressionInstance:
    rng = np.random.default_rng(seed)
    return RegressionInstance(rng.standard_normal((n, d)), rng.standard_normal(n))


def test_evaluate_objective_hand_values():
    zero = RegressionInstance(np.eye(2), np.zeros(2))
    for spec in (ObjectiveSpec.ridge(1.0), ObjectiveSpec.rlad(0.5)):
        assert evaluate_objective(zero, np.zeros(2), spec) == 0.0
    one = RegressionInstance(np.array([[1.0]]), np.array([3.0]))
    assert evaluate_objective(one, np.array([1.0]), ObjectiveSpec.ridge(1.0)) == 5.0
    flat = RegressionInstance(np.zeros((2, 2)), np.zeros(2))
    assert evaluate_objective(
        flat, np.array([1.0, -1.0]), ObjectiveSpec.modified_lasso(2.0)
    ) == pytest.approx(8.0)


def test_evaluate_objective_validation():
    inst = _instance(0, 5, 2)
    with pytest.raises(ShapeError):
        evaluate_objective(inst, np.zeros(3), ObjectiveSpec.ridge(1.0))


def test_multiresponse_objective_separates():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 3))
    B = rng.standard_normal((10, 2))
    X = rng.standard_normal((3, 2))
    total = multiresponse_rlad_objective(A, B, X, 0.5)
    spec = ObjectiveSpec.rlad(0.5)
    split = sum(
        evaluate_objective(RegressionInstance(A, B[:, j]), X[:, j], spec)
        for j in range(2)
    )
    assert total == pytest.approx(split, abs=1e-10)


def test_sparsity_count_rules():
    assert sparsity_count(np.array([0.0, 1e-7, 0.5])) == 2
    assert sparsity_count(np.zeros(7)) == 7
    assert sparsity_count(np.array([1e-6])) == 0  # strict inequality


def test_ridge_hand_example():
    result = solve_ridge(RegressionInstance(np.array([[1.0]]), np.array([2.0])), 1.0)
    assert result.solution == pytest.approx([1.0])
    assert result.converged
    assert result.optimality_residual < 1e-12


def test_ridge_interpolates_at_lambda_zero():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    result = solve_ridge(RegressionInstance(A, b), 0.0)
    assert np.allclose(result.solution, np.linalg.solve(A, b), atol=1e-8)


def test_ridge_shrinks_to_zero():
    inst = _instance(3, 20, 3)
    result = solve_ridge(inst, 1e12)
    atb = inst.design.T @ inst.response
    assert np.linalg.norm(result.solution) < 1e-9 * np.linalg.norm(atb)


def test_ridge_validation():
    with pytest.raises(RankDeficiencyError):
        solve_ridge(RegressionInstance(np.ones((5, 2)), np.ones(5)), 0.0)
    with pytest.raises(ValueError):
        solve_ridge(_instance(4, 5, 2), -1.0)


def test_lasso_soft_threshold_example():
    inst = RegressionInstance(np.eye(2), np.array([3.0, 0.5]))
    result = solve_lasso(inst, 2.0)
    assert result.converged
    assert result.solution == pytest.approx([2.0, 0.0], abs=1e-8)


def test_lasso_lambda_zero_is_least_squares():
    inst = _instance(5, 30, 3)
    result = solve_lasso(inst, 0.0, tol=1e-7)
    ls, *_ = np.linalg.lstsq(inst.design, inst.response, rcond=None)
    assert np.allclose(result.solution, ls, atol=1e-4)


def test_lasso_zero_threshold():
    inst = _instance(6, 20, 3)
    lam = 2.0 * np.max(np.abs(inst.design.T @ inst.response)) + 1.0
    result = solve_lasso(inst, lam)
    assert np.array_equal(result.solution, np.zeros(3))


def _assert_history_is_monotone(result):
    # One entry before the first step and one after each, ending at the
    # returned point (whose objective is evaluated on the n rows).
    hist = result.objective_history
    assert len(hist) == result.iterations + 1 >= 2
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    assert hist[-1] == pytest.approx(result.objective_value, rel=1e-12)


def test_lasso_history_is_monotone():
    inst = _instance(7, 25, 4)
    _assert_history_is_monotone(solve_lasso(inst, 0.8, tol=1e-7))


def test_modified_lasso_history_is_monotone():
    inst = _instance(7, 25, 4)
    _assert_history_is_monotone(solve_modified_lasso(inst, 0.8, tol=1e-7))


def test_modified_lasso_scalar_example():
    inst = RegressionInstance(np.array([[1.0]]), np.array([2.0]))
    result = solve_modified_lasso(inst, 1.0)
    assert result.converged
    assert result.solution == pytest.approx([1.0], abs=1e-8)


def test_modified_lasso_lambda_zero_is_least_squares():
    inst = _instance(8, 30, 3)
    result = solve_modified_lasso(inst, 0.0, tol=1e-7)
    ls, *_ = np.linalg.lstsq(inst.design, inst.response, rcond=None)
    assert np.allclose(result.solution, ls, atol=1e-4)


def test_rlad_median_example():
    result = solve_rlad(MEDIAN_INSTANCE, 0.0, tol=1e-8)
    assert result.converged
    assert result.solution == pytest.approx([2.0], abs=1e-4)


def test_rlad_shrinks_to_zero():
    result = solve_rlad(_instance(9, 20, 3), 1e6)
    assert np.sum(np.abs(result.solution)) < 1e-3


def test_rlad_beats_least_squares_point():
    inst = _instance(10, 40, 4)
    lam = 0.7
    result = solve_rlad(inst, lam, tol=1e-8)
    assert result.converged
    spec = ObjectiveSpec.rlad(lam)
    ls, *_ = np.linalg.lstsq(inst.design, inst.response, rcond=None)
    assert result.objective_value <= evaluate_objective(inst, ls, spec) + 1e-8


def test_lp_lp_p2_matches_ridge():
    inst = _instance(11, 30, 3)
    via_lp = solve_lp_lp(inst, 2.0, 0.6)
    via_ridge = solve_ridge(inst, 0.6)
    assert np.allclose(via_lp.solution, via_ridge.solution, atol=1e-8)
    assert via_lp.iterations == 1


def test_lp_lp_p1_matches_median():
    result = solve_lp_lp(MEDIAN_INSTANCE, 1.0, 0.0)
    assert result.solution == pytest.approx([2.0], abs=1e-3)


def test_lp_lp_p3_beats_grid_oracle():
    rng = np.random.default_rng(0)
    rng.standard_normal((20, 3))
    rng.standard_normal(20)
    inst = RegressionInstance(rng.standard_normal((4, 1)), rng.standard_normal(4))
    result = solve_lp_lp(inst, 3.0, 0.1)
    grid = np.linspace(-5.0, 5.0, 100_001)
    resid = inst.design @ grid[None, :] - inst.response[:, None]
    oracle = np.min(np.sum(np.abs(resid) ** 3, axis=0) + 0.1 * np.abs(grid) ** 3)
    assert result.objective_value <= oracle + 1e-6


def test_lp_lp_validation():
    inst = _instance(12, 10, 2)
    with pytest.raises(ValueError):
        solve_lp_lp(inst, 0.5, 0.0)
    with pytest.raises(ValueError):
        solve_lp_lp(inst, 5.0, 0.0)
    with pytest.raises(ValueError):
        solve_lp_lp(inst, 2.0, -1.0)


def test_cross_solver_agreement(l1_vertex_minimum):
    for seed in range(10):
        inst = _instance(100 + seed, 30, 3)
        rlad = solve_rlad(inst, 0.3, tol=1e-9)
        exact = l1_vertex_minimum(inst, 0.3)
        assert abs(rlad.objective_value - exact) / exact < 1e-6
        p2 = solve_lp_lp(inst, 2.0, 0.3)
        ridge = solve_ridge(inst, 0.3)
        rel2 = abs(p2.objective_value - ridge.objective_value) / max(
            ridge.objective_value, 1e-30
        )
        assert rel2 < 1e-8


def test_rlad_certificate_bounds_the_exact_gap(l1_vertex_minimum):
    # Odd seeds repeat rows, as coresets drawn with replacement do, which
    # makes the optimal LP vertex degenerate unless the repeats are merged.
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        A, b = rng.standard_normal((12, 3)), rng.standard_normal(12)
        if seed % 2:
            A[6:9], b[6:9] = A[0], b[0]
        inst = RegressionInstance(A, b)
        for lam in (0.1, 0.3, 1.0):
            result = solve_rlad(inst, lam, tol=1e-9)
            exact = l1_vertex_minimum(inst, lam)
            obj = result.objective_value
            assert result.converged and result.gap <= 1e-9
            # 1e-14 allows for rounding in the two sums being compared.
            assert result.gap >= (obj - exact) / obj - 1e-14
            assert abs(obj - exact) / exact < 1e-12


def test_rlad_on_weighted_repeats_reaches_the_exact_minimum(l1_vertex_minimum):
    # A coreset holds each drawn row scaled by its weight, so a row drawn
    # twice appears twice, identically; its vertices are degenerate until
    # the repeats are merged into one row.
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        rows, resp = rng.standard_normal((8, 3)), rng.standard_normal(8)
        weight = rng.uniform(0.5, 4.0, 8)
        drawn = rng.integers(0, 8, 14)
        inst = RegressionInstance(rows[drawn] * weight[drawn, None], resp[drawn] * weight[drawn])
        for lam in (0.2, 1.0):
            result = solve_rlad(inst, lam)
            exact = l1_vertex_minimum(inst, lam)
            assert result.converged and result.gap <= 1e-6
            assert abs(result.objective_value - exact) / exact < 1e-12
            history = np.asarray(result.objective_history)
            assert np.all(np.diff(history) <= 0)
            assert result.objective_value == history[-1]


def test_rlad_falls_back_to_irls_when_the_descent_fails(monkeypatch):
    # A failed descent leaves the iterate to IRLS and its stall test, with
    # no certificate, and its pivots still count as iterations.
    monkeypatch.setattr(solvers, "_l1_vertex_descent", lambda A, b, lam, x: (None, 7, None))
    inst = _instance(10, 40, 4)
    result = solve_rlad(inst, 0.7, tol=1e-8)
    assert result.converged and result.gap == np.inf
    history = np.asarray(result.objective_history)
    assert result.iterations == history.size - 1 + 7
    assert np.all(np.diff(history) <= 0)


def test_rlad_finishes_by_irls_when_the_descent_reaches_its_pivot_cap(l1_vertex_minimum):
    # Data rows +-e_1 and -2 e_2 with b_i = 0 share their hyperplanes with the
    # penalty rows lam e_1 and lam e_2.  Merging identical rows leaves those
    # degenerate vertices in place, the descent cycles until its 10 d pivots
    # are spent, and IRLS finishes under the stall test.
    A = [[-1, 0, 0], [1, 0, 1], [1, 1, -2], [1, 0, 0], [0, 0, 0], [0, -2, 0], [-1, 1, 0]]
    inst = RegressionInstance(A, [0, -1, -1, 0, -1, 0, 0])
    result = solve_rlad(inst, 0.0379)
    exact = l1_vertex_minimum(inst, 0.0379)
    assert result.converged
    assert abs(result.objective_value - exact) <= 1e-6 * exact
    # One history entry per sweep, and one more only for a vertex taken.
    assert len(result.objective_history) - 1 <= solvers._IRLS_SWEEPS


def test_rlad_lambda_zero_on_repeated_rows_stays_finite_and_monotone():
    # Eight weighted copies of three rows in five columns: A^T A is singular,
    # so the unit-weight start solves a singular system.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        rows, resp = rng.standard_normal((3, 5)), rng.standard_normal(3)
        idx = np.array([0, 0, 1, 2, 2, 2, 1, 0])
        w = rng.uniform(0.5, 3.0, idx.size)
        inst = RegressionInstance(rows[idx] * w[:, None], resp[idx] * w)
        result = solve_rlad(inst, 0.0)
        assert np.all(np.isfinite(result.solution))
        assert np.isfinite(result.objective_value)
        history = np.asarray(result.objective_history)
        assert history.size == result.iterations + 1
        assert np.all(np.diff(history) <= 0)
        assert result.objective_value == history[-1]


def test_rlad_lambda_zero_with_a_zero_column_stays_finite_and_monotone():
    # Every row is a multiple of (1, 0, 2), so A^T W A is exactly singular in
    # every sweep, not only at the unit-weight start.  The optimum puts
    # x_1 + 2 x_3 at the weighted median 1.5 of b_i / a_i1.
    inst = RegressionInstance(
        [[1, 0, 2], [1, 0, 2], [2, 0, 4], [0.5, 0, 1]], [1, 2, 3, 0.1]
    )
    result = solve_rlad(inst, 0.0)
    assert np.all(np.isfinite(result.solution))
    history = np.asarray(result.objective_history)
    assert history.size == result.iterations + 1 >= 2
    assert np.all(np.isfinite(history))
    assert np.all(np.diff(history) <= 0)
    assert result.objective_value == history[-1]
    assert result.objective_value == pytest.approx(1.65, rel=1e-6)


def test_rlad_table_sweep_count(monkeypatch):
    # The first of the sixteen n = 400 tables of the rlad-small benchmark
    # workload at seed 2.  With the vertex descent its eleven solves take
    # 54 sweeps and pivots; the threshold polish it replaced took 145, and
    # the stall test alone 272.
    seen = []

    def counted(instance, lam, **kw):
        result = solve_rlad(instance, lam, **kw)
        seen.append(result)
        return result

    monkeypatch.setattr(experiments, "solve_rlad", counted)
    run_relative_error_experiment(ExperimentConfig(
        n=400, d=30, lambda_grid=(0.5,), sample_sizes=(30, 50, 100, 150, 200),
        schemes=("rlad_sensitivity", "uniform"), objective_family="rlad",
        trials_per_cell=1, master_seed=mix_seed(2, 0),
    ))
    assert len(seen) == 11
    assert all(r.converged and r.gap <= 1e-6 for r in seen)
    assert sum(r.iterations for r in seen) <= 80


def test_multiresponse_rlad_single_column_matches():
    inst = _instance(13, 25, 3)
    single = solve_rlad(inst, 0.4, tol=1e-8)
    multi = solve_multiresponse_rlad(inst.design, inst.response[:, None], 0.4, tol=1e-8)
    assert np.allclose(multi.solution[:, 0], single.solution, atol=1e-10)
    assert multi.objective_value == pytest.approx(single.objective_value, abs=1e-10)


def test_multiresponse_rlad_duplicate_columns():
    inst = _instance(14, 25, 3)
    B = np.column_stack([inst.response, inst.response])
    result = solve_multiresponse_rlad(inst.design, B, 0.4)
    assert np.allclose(result.solution[:, 0], result.solution[:, 1], atol=1e-12)
    total = multiresponse_rlad_objective(inst.design, B, result.solution, 0.4)
    assert result.objective_value == pytest.approx(total, abs=1e-10)
    with pytest.raises(ShapeError):
        solve_multiresponse_rlad(inst.design, B[:-1], 0.4)


def test_multiresponse_rlad_certifies_every_column(l1_vertex_minimum):
    inst = _instance(17, 12, 3)
    rng = np.random.default_rng(17)
    B = np.column_stack([inst.response, rng.standard_normal(12), -2.0 * inst.response])
    result = solve_multiresponse_rlad(inst.design, B, 0.3)
    assert result.converged and np.isfinite(result.gap) and result.gap <= 1e-6
    for j in range(B.shape[1]):
        column = RegressionInstance(inst.design, B[:, j])
        exact = l1_vertex_minimum(column, 0.3)
        value = evaluate_objective(column, result.solution[:, j], ObjectiveSpec.rlad(0.3))
        assert abs(value - exact) / exact < 1e-12


def test_objective_value_matches_reported_solution():
    inst = _instance(15, 25, 4)
    cases = [
        (solve_ridge(inst, 0.8), ObjectiveSpec.ridge(0.8)),
        (solve_lasso(inst, 0.8, tol=1e-7), ObjectiveSpec.lasso(0.8)),
        (
            solve_modified_lasso(inst, 0.8, tol=1e-7),
            ObjectiveSpec.modified_lasso(0.8),
        ),
        (solve_rlad(inst, 0.8, tol=1e-8), ObjectiveSpec.rlad(0.8)),
        (solve_lp_lp(inst, 1.5, 0.8), ObjectiveSpec.lp_lp(1.5, 0.8)),
    ]
    for result, spec in cases:
        recomputed = evaluate_objective(inst, result.solution, spec)
        assert result.objective_value == pytest.approx(
            recomputed, rel=1e-10, abs=1e-30
        )


def test_converged_solutions_beat_perturbations():
    # Convexity makes a local probe a global one: no nearby point may improve
    # the objective by more than numerical noise.
    inst = _instance(55, 25, 4)
    cases = [
        (solve_ridge(inst, 0.8), ObjectiveSpec.ridge(0.8)),
        (solve_lasso(inst, 0.8, tol=1e-7), ObjectiveSpec.lasso(0.8)),
        (
            solve_modified_lasso(inst, 0.8, tol=1e-7),
            ObjectiveSpec.modified_lasso(0.8),
        ),
        (solve_rlad(inst, 0.8, tol=1e-8), ObjectiveSpec.rlad(0.8)),
        (solve_lp_lp(inst, 1.5, 0.8), ObjectiveSpec.lp_lp(1.5, 0.8)),
    ]
    rng = np.random.default_rng(9)
    for result, spec in cases:
        assert result.converged
        base = evaluate_objective(inst, result.solution, spec)
        for _ in range(20):
            delta = rng.standard_normal(4)
            delta *= 1e-3 * (1 + np.linalg.norm(result.solution)) / np.linalg.norm(delta)
            probe = evaluate_objective(inst, result.solution + delta, spec)
            assert base <= probe + 1e-10 * max(base, 1.0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    d=st.integers(1, 6),
    shape=st.sampled_from(["wide", "square_plus_one", "tall"]),
    data_seed=st.integers(0, 2**32 - 1),
    duplicate_column=st.booleans(),
    zero_response=st.booleans(),
    scale_rows=st.booleans(),
)
def test_squared_loss_factor_is_lossless(
    d, shape, data_seed, duplicate_column, zero_response, scale_rows
):
    # [A b] = QT keeps every squared loss: ||T[:, :-1] x - T[:, -1]|| equals
    # ||Ax - b|| for all x, on at most d + 1 rows, whatever n is.
    rng = np.random.default_rng(data_seed)
    n = {"wide": int(rng.integers(1, d + 1)), "square_plus_one": d + 1,
         "tall": int(rng.integers(20, 60)) * d}[shape]
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n)
    if duplicate_column and d >= 2:
        A[:, -1] = A[:, 0]
    if zero_response:
        b[:] = 0.0
    if scale_rows:
        rows = 10.0 ** rng.uniform(-6, 6, n)
        A *= rows[:, None]
        b *= rows
    inst = RegressionInstance(A, b)
    R, c = inst.squared_loss_factor
    assert R.shape[0] <= d + 1 and R.shape == (c.shape[0], d)
    for x in rng.standard_normal((5, d)):
        full = np.linalg.norm(A @ x - b)
        assert abs(np.linalg.norm(R @ x - c) - full) <= 1e-12 * full
    atb_tol = 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(b)
    assert np.all(np.abs(R.T @ c - A.T @ b) <= atb_tol)


_SQUARED_LOSS_SPECS = {
    "ridge": ObjectiveSpec.ridge,
    "lasso": ObjectiveSpec.lasso,
    "modified_lasso": ObjectiveSpec.modified_lasso,
    "custom": lambda lam: ObjectiveSpec(p=2, q=1.5, r=2, s=3, lam=lam),
}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    d=st.integers(1, 6),
    shape=st.sampled_from(["short", "square", "tall"]),
    design=st.sampled_from(["gaussian", "rank_deficient", "zero"]),
    family=st.sampled_from(sorted(_SQUARED_LOSS_SPECS)),
    lam=st.sampled_from([0.0, 1e-3, 0.7, 50.0]),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_squared_loss_on_the_factor_matches_the_rows(
    d, shape, design, family, lam, data_seed
):
    # The squared loss comes from the cached (d+1)-row factor.  It must equal
    # the n-row sum to rounding, measured against ||[A b]|| ||[x; -1]|| and
    # not against the residual, which the least-squares query makes tiny.
    rng = np.random.default_rng(data_seed)
    n = {"short": int(rng.integers(1, d + 1)), "square": d,
         "tall": int(rng.integers(3, 40)) * d}[shape]
    A = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
    if design == "rank_deficient":
        A[:, -1] = A[:, 0] if d >= 2 else 0.0
    elif design == "zero":
        A[:] = 0.0
    b = rng.standard_normal(n)
    inst, spec = RegressionInstance(A, b), _SQUARED_LOSS_SPECS[family](lam)
    queries = [*rng.standard_normal((3, d)), np.linalg.lstsq(A, b, rcond=None)[0]]
    scale = np.linalg.norm(np.column_stack([A, b]))
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        for x in queries:
            rows = np.sum((A @ x - b) ** 2) + lam * np.linalg.norm(x, spec.q) ** spec.s
            tol = 1e-12 * (scale * np.linalg.norm(np.append(x, -1.0))) ** 2
            assert abs(evaluate_objective(inst, x, spec) - rows) <= tol
    assert qr.call_count == 1  # later calls reuse the cached factor


def test_sparsity_table_factors_the_instance_once(factored_shapes):
    # Lasso, modified lasso and ridge at six lambdas are 18 full-data solves
    # on one instance; they share its cached factor, so one QR of the n rows.
    config = ExperimentConfig(
        n=2000, d=30, lambda_grid=(0.0, 0.05, 0.2, 1.0, 5.0, 20.0),
        sample_sizes=(30,), master_seed=2,
    )
    run_sparsity_experiment(config)
    assert [s for s in factored_shapes if s[0] == config.n] == [(config.n, config.d + 1)]


def test_active_set_reaches_least_squares_at_tiny_residual():
    # Noise 1e-5 leaves a loss of about 1e-10 ||b||^2, below the rounding of
    # the normal-equations form x^T A^T A x - 2 b^T A x + b^T b; the factor
    # keeps it.
    inst, _ = build_experiment_instance(
        ExperimentConfig(n=2000, d=30, lambda_grid=(0.0,), sample_sizes=(30,), master_seed=2)
    )
    result = solve_modified_lasso(inst, 0.0, tol=1e-9)
    x_ls = np.linalg.lstsq(inst.design, inst.response, rcond=None)[0]
    floor = float(np.linalg.norm(inst.design @ x_ls - inst.response) ** 2)
    assert abs(result.objective_history[-1] - result.objective_value) <= (
        1e-9 * result.objective_value
    )
    assert result.objective_value <= (1.0 + 1e-8) * floor
    assert result.converged


_L1_SOLVERS = {1: solve_lasso, 2: solve_modified_lasso}


def test_active_set_matches_enumeration_oracle(l1_penalized_least_squares_minimum):
    # Column scales over four orders of magnitude; lam from nearly least
    # squares to an all-zero solution.
    for seed in range(40):
        rng = np.random.default_rng(600 + seed)
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 1, 15))
        A = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-2, 2, d)
        inst = RegressionInstance(A, rng.standard_normal(n))
        for lam in (0.01, 0.3, 3.0, 30.0):
            for s, solve in _L1_SOLVERS.items():
                result = solve(inst, lam)
                exact = l1_penalized_least_squares_minimum(inst, lam, s)
                obj = result.objective_value
                assert result.converged and result.gap <= 1e-8
                assert abs(obj - exact) <= 1e-12 * exact
                # 1e-14 allows for rounding in the two sums being compared.
                assert result.gap >= (obj - exact) / obj - 1e-14


def test_active_set_on_rank_deficient_factor(l1_penalized_least_squares_minimum):
    # Weighted copies of two or three distinct rows in four columns, as
    # coresets drawn with replacement give: R has rank below d.
    for seed in range(8):
        rng = np.random.default_rng(700 + seed)
        distinct = 2 + seed % 2
        rows, resp = rng.standard_normal((distinct, 4)), rng.standard_normal(distinct)
        idx = rng.integers(0, distinct, 9)
        w = rng.uniform(0.5, 3.0, idx.size)
        inst = RegressionInstance(rows[idx] * w[:, None], resp[idx] * w)
        assert np.linalg.matrix_rank(inst.squared_loss_factor[0]) < inst.d
        for lam in (0.1, 1.0):
            for s, solve in _L1_SOLVERS.items():
                result = solve(inst, lam)
                exact = l1_penalized_least_squares_minimum(inst, lam, s)
                assert np.all(np.isfinite(result.solution))
                assert result.converged
                assert abs(result.objective_value - exact) <= 1e-10 * exact


def test_active_set_on_nearly_dependent_columns(l1_penalized_least_squares_minimum):
    # Columns 0 and 2 differ by 1e-7 noise, so a face holding both has a
    # condition number near 1e7: its normal equations would lose every digit.
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        A = rng.standard_normal((12, 3))
        A[:, 2] = A[:, 0] + 1e-7 * rng.standard_normal(12)
        b = A @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.standard_normal(12)
        inst = RegressionInstance(A, b)
        for lam in (1e-3, 0.1, 1.0):
            for s, solve in _L1_SOLVERS.items():
                result = solve(inst, lam)
                exact = l1_penalized_least_squares_minimum(inst, lam, s)
                obj = result.objective_value
                assert abs(obj - exact) <= 1e-12 * exact
                assert result.gap >= (obj - exact) / obj - 1e-14


def test_active_set_certifies_an_exact_solve_a_rounding_short_of_its_face(
    l1_penalized_least_squares_minimum,
):
    # The last step stops one rounding short of the face minimum, and the
    # dual point of that x certifies only 1.75e-8; the dual point of one
    # more solve on the face certifies the same x to rounding.
    rng = np.random.default_rng(906)
    A = rng.standard_normal((12, 3))
    A[:, 2] = A[:, 0] + 1e-7 * rng.standard_normal(12)
    b = A @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.standard_normal(12)
    inst = RegressionInstance(A, b)
    result = solve_lasso(inst, 0.1)
    exact = l1_penalized_least_squares_minimum(inst, 0.1, 1)
    obj = result.objective_value
    assert result.converged is True and result.gap <= 1e-8
    assert abs(obj - exact) <= 1e-12 * exact
    assert result.gap >= (obj - exact) / obj - 1e-14


def test_active_set_certifies_a_tiny_optimum_to_rounding(
    l1_penalized_least_squares_minimum,
):
    # The optimum is 1.4e-8 of ||c||^2, the objective at x = 0, so the
    # dual objective's rounding alone is a relative gap of 5.8e-8 of it;
    # measured against the floor the solve certifies.
    inst = RegressionInstance(
        [[-51.42501129355623, -838.9981820737216],
         [142.43660706578532, -1379.0155862960587]],
        [-0.8973953680052013, -0.7069258591070188],
    )
    result = solve_modified_lasso(inst, 1e-3)
    exact = l1_penalized_least_squares_minimum(inst, 1e-3, 2)
    assert result.converged is True and result.gap <= 1e-8
    assert abs(result.objective_value - exact) <= 1e-12 * exact


def test_result_to_dict_is_the_json_document():
    inst = _instance(16, 25, 3)
    keys = {"solution", "objective_value", "iterations", "converged",
            "optimality_residual", "gap"}
    ridge = solve_ridge(inst, 0.8).to_dict()
    assert set(ridge) == keys  # objective_history is left out
    assert ridge["gap"] is None and ridge["converged"] is True
    assert isinstance(ridge["solution"], list)
    lasso = solve_lasso(inst, 0.8)
    assert lasso.to_dict()["gap"] == lasso.gap <= 1e-8
    B = np.column_stack([inst.response, 2.0 * inst.response])
    multi = solve_multiresponse_rlad(inst.design, B, 0.4)
    doc = multi.to_dict()
    assert doc["solution"] == multi.solution.tolist()
    assert [len(row) for row in doc["solution"]] == [2, 2, 2]
    assert json.loads(json.dumps(doc)) == doc


def test_modified_lasso_converges_where_fista_stalled():
    # test_10's seed-8007 instance: the first-order method this solver
    # replaced ran 50 000 iterations on it and stopped unconverged.
    rng = np.random.default_rng(8007)
    design = rng.standard_normal((400, 5))
    response = design @ rng.standard_normal(5) + 0.2 * rng.standard_normal(400)
    result = solve_modified_lasso(
        RegressionInstance(design, response), 0.8, tol=1e-9
    )
    assert result.converged is True
    assert result.gap <= 1e-9
    assert result.iterations <= 2 * design.shape[1]


def test_lambda_zero_converged_is_the_kkt_check(monkeypatch):
    # No finite dual bound exists for least squares, so gap stays inf.
    inst = _instance(9, 30, 3)
    for solve in _L1_SOLVERS.values():
        result = solve(inst, 0.0)
        assert result.converged is True and result.gap == np.inf
    monkeypatch.setattr(solvers, "_ACTIVE_SET_STEPS", 1)
    for solve in _L1_SOLVERS.values():
        truncated = solve(inst, 0.0)
        assert truncated.iterations == 1 and truncated.converged is False


def _ridge_by_svd_of_design(inst, lam):
    U, sigma, Vt = np.linalg.svd(inst.design, full_matrices=False)
    return Vt.T @ ((sigma / (sigma**2 + lam)) * (U.T @ inst.response))


@pytest.mark.parametrize(
    "n, d, lam",
    [(200, 6, 0.5), (6, 6, 0.5), (3, 6, 0.5), (200, 6, 0.0), (40, 12, 0.0)],
)
def test_ridge_matches_svd_of_design(n, d, lam):
    inst = _instance(100 + n + d, n, d)
    expected = _ridge_by_svd_of_design(inst, lam)
    got = solve_ridge(inst, lam).solution
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
