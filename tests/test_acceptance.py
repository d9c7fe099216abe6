"""Acceptance gate: headline accuracy, soundness, and determinism checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured numbers, so the suite output doubles as a scorecard.
The heavy synthetic-benchmark runs are shared through module fixtures.
"""

import dataclasses
import hashlib
import time

import numpy as np
import pytest

from regcoreset.conditioning import p_conditioned_basis
from regcoreset.coreset import (
    Coreset,
    build_coreset,
    transfer_check,
    verify_coreset,
)
from regcoreset.errors import TheoremInapplicableError
from regcoreset.experiments import (
    ExperimentConfig,
    emit_report,
    run_relative_error_experiment,
    run_sparsity_experiment,
)
from regcoreset.linalg import (
    RegressionInstance,
    augment,
    statistical_dimension,
)
from regcoreset.lowerbound import UNDERSHOOT, demonstrate_violation
from regcoreset.objective import ObjectiveSpec
from regcoreset.sensitivity import (
    brute_force_sensitivity,
    lp_lp_sensitivity_bounds,
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
)
from regcoreset.solvers import (
    evaluate_objective,
    solve_lasso,
    solve_lp_lp,
    solve_modified_lasso,
    solve_rlad,
    solve_ridge,
)

MASTER_SEED = 2

# sha256 of the seed-2 reports whose bytes do not depend on the BLAS thread
# count (they match at 1 and 2 OpenBLAS threads); the relative-error JSONs
# differ between thread counts in their last digits, so they are not pinned.
PINNED_SHA256 = {
    "leverage/csv": "d0b8c12a6c087ce730396b86de872a0ef8f55d9df2f83d9c9efe614c31ab915c",
    "lambda-sweep/csv": "72373ea44db6b597b7f2fe374e6eea32916d395c3aac0f23fe0cd10a61a799f8",
    "rlad/csv": "4549191efa6fa9e200924a97919420ea42631f5aa13f4786c67612cfc2a00c0f",
    "sparsity/json": "86d44248d0a95f781b2773b9e6018f664882f56074051f4c92bc217daf8190f8",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} :: {detail}")
    assert ok, f"{name}: {detail}"


def _run(config):
    # "one" is the key the checks below read the single run's table from.
    start = time.time()
    one = run_relative_error_experiment(config)
    elapsed = time.time() - start
    return {"config": config, "one": one, "elapsed": elapsed}


@pytest.fixture(scope="module")
def leverage_run():
    return _run(
        ExperimentConfig(
            n=20_000,
            d=30,
            lambda_grid=(0.5,),
            sample_sizes=(30, 50, 100, 150, 200),
            schemes=("ridge_leverage", "uniform"),
            objective_family="modified_lasso",
            master_seed=MASTER_SEED,
        )
    )


@pytest.fixture(scope="module")
def lambda_sweep_run():
    return _run(
        ExperimentConfig(
            n=20_000,
            d=30,
            lambda_grid=(0.1, 0.5, 1.0, 5.0),
            sample_sizes=(200,),
            schemes=("ridge_leverage", "uniform"),
            objective_family="modified_lasso",
            master_seed=MASTER_SEED,
        )
    )


@pytest.fixture(scope="module")
def rlad_run():
    return _run(
        ExperimentConfig(
            n=20_000,
            d=30,
            lambda_grid=(0.5,),
            sample_sizes=(30, 50, 100, 150, 200),
            schemes=("rlad_sensitivity", "uniform"),
            objective_family="rlad",
            master_seed=MASTER_SEED,
        )
    )


def test_01_leverage_beats_uniform_on_modified_lasso(leverage_run):
    table = leverage_run["one"]
    leverage = [row[0] for row in table.cells]
    uniform = [row[1] for row in table.cells]
    ratios = [u / l for u, l in zip(uniform, leverage)]
    ok = (
        all(v < 0.1 for v in leverage)
        and all(r > 5.0 for r in ratios)
        and leverage[-1] <= leverage[0]
        and leverage_run["elapsed"] < 300.0
    )
    _verdict(
        "modified-lasso accuracy ordering",
        ok,
        f"leverage medians {[f'{v:.4f}' for v in leverage]}, "
        f"min uniform/leverage ratio {min(ratios):.2f}, "
        f"runtime {leverage_run['elapsed']:.0f}s",
    )


def test_02_uniform_error_decreases_with_lambda(lambda_sweep_run):
    table = lambda_sweep_run["one"]
    uniform = [row[1] for row in table.cells]
    ok = all(a > b for a, b in zip(uniform, uniform[1:]))
    _verdict(
        "uniform-sampling error vs regularization strength",
        ok,
        f"medians at lambda 0.1/0.5/1/5: {[f'{v:.4f}' for v in uniform]}",
    )


def test_03_rlad_sensitivity_sampling_accuracy(rlad_run):
    table = rlad_run["one"]
    sens = [row[0] for row in table.cells]
    uniform = [row[1] for row in table.cells]
    ratios = [u / s for u, s in zip(uniform, sens)]
    ok = sens[0] < 1.0 and sens[-1] < 0.5 and all(r > 10.0 for r in ratios)
    _verdict(
        "rlad sensitivity-sampling accuracy and uniform gap",
        ok,
        f"sensitivity medians {[f'{v:.4f}' for v in sens]}, "
        f"uniform medians {[f'{v:.4f}' for v in uniform]}, "
        f"min uniform/sensitivity ratio {min(ratios):.2f} (need > 10 at every size)",
    )


def test_04_sparsity_profile_across_lambda():
    config = ExperimentConfig(
        n=20_000,
        d=30,
        lambda_grid=(0.0, 0.05, 0.2, 1.0, 5.0, 20.0),
        sample_sizes=(30,),
        schemes=("uniform",),
        objective_family="modified_lasso",
        master_seed=MASTER_SEED,
    )
    table = run_sparsity_experiment(config)
    rows = dict(zip(table.row_labels, table.cells))
    nondecreasing = all(
        a <= b for name in ("lasso", "modified_lasso")
        for a, b in zip(rows[name], rows[name][1:])
    )
    digest = _sha256(emit_report(table, "json"))
    ok = (
        nondecreasing
        and rows["lasso"][-1] >= config.d / 2
        and rows["modified_lasso"][-1] >= config.d / 2
        and all(v == 0 for v in rows["ridge"])
        and digest == PINNED_SHA256["sparsity/json"]
    )
    _verdict(
        "zero-count growth under l1-style penalties",
        ok,
        f"lasso {[int(v) for v in rows['lasso']]}, "
        f"modified {[int(v) for v in rows['modified_lasso']]}, "
        f"ridge {[int(v) for v in rows['ridge']]}, report sha256 {digest}",
    )


def test_05_sensitivity_bounds_dominate_grid_oracle():
    combos = [(1.0, 0.0), (1.0, 0.5), (1.0, 5.0), (2.0, 0.0), (2.0, 0.5), (2.0, 5.0)]
    start = time.time()
    violations = 0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        d = 1 + i % 2
        n = 8 + i % 5
        inst = RegressionInstance(
            rng.standard_normal((n, d)), rng.standard_normal(n)
        )
        aprime = augment(inst)
        p, lam = combos[i % 6]
        if p == 1.0:
            basis = p_conditioned_basis(aprime, 1.0)
            bound = rlad_sensitivity_bounds(basis, lam)
            spec = ObjectiveSpec.rlad(lam)
        else:
            basis = p_conditioned_basis(aprime, 2.0)
            bound = lp_lp_sensitivity_bounds(basis, lam)
            spec = ObjectiveSpec.ridge(lam)
        oracle = brute_force_sensitivity(inst, spec)
        if not np.all(oracle.values <= bound.values * (1 + 1e-9)):
            violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 60.0
    _verdict(
        "analytic sensitivity bounds vs brute-force oracle",
        ok,
        f"50 instances, {violations} row-wise violations, {elapsed:.1f}s",
    )


def test_06_ridge_leverage_total_is_statistical_dimension():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(6000 + i)
        matrix = rng.standard_normal((40 + 3 * i, 4))
        spectrum = np.linalg.svd(matrix, compute_uv=False)
        for lam in (0.0, 0.7, 13.0):
            scores = ridge_leverage_scores(
                RegressionInstance(matrix[:, :-1], matrix[:, -1]), lam
            )
            worst = max(worst, abs(scores.total - statistical_dimension(spectrum, lam)))
    ok = worst <= 1e-8
    _verdict(
        "ridge-leverage mass equals effective dimension",
        ok,
        f"worst |sum - sd| = {worst:.2e} over 20 matrices x 3 lambdas",
    )


def test_07_accuracy_transfers_to_l1_penalty_queries():
    exceptions = 0
    for i in range(10):
        rng = np.random.default_rng(7000 + i)
        design = rng.standard_normal((500, 5))
        response = design @ rng.standard_normal(5) + 0.1 * rng.standard_normal(500)
        inst = RegressionInstance(design, response)
        scores = ridge_leverage_scores(inst, 0.5)
        core = build_coreset(inst, scores, 150, seed=i)
        qrng = np.random.default_rng(7100 + i)
        queries = qrng.standard_normal((500, 5)) * qrng.uniform(
            0.1, 5.0, size=(500, 1)
        )
        try:
            transfer_check(inst, core, 2.0, 1.0, 0.5, queries, 0.3)
        except Exception:
            exceptions += 1
    ok = exceptions == 0
    _verdict(
        "squared-loss guarantee carries to the l1-penalty objective",
        ok,
        f"10 coresets x 500 queries, {exceptions} transfer exceptions",
    )


def test_08_single_row_coreset_counterexample():
    mismatched = ObjectiveSpec(p=2, q=1, r=2, s=1, lam=1.0)
    core = Coreset(
        rows=np.array([[1.0, 0.0]]),
        weights=np.array([1.0]),
        source_indices=np.array([0]),
        seed=0,
        scheme="uniform",
        n_source=2,
    )
    witness = demonstrate_violation(np.eye(2), core, mismatched, 0.1)
    full = evaluate_objective(
        RegressionInstance(np.eye(2), np.zeros(2)), witness.y, mismatched
    )
    approx = evaluate_objective(
        RegressionInstance(np.array([[1.0, 0.0]]), np.zeros(1)), witness.y, mismatched
    )
    ratio = approx / full
    band = (witness.epsilon + witness.epsilon_prime) / 2
    with pytest.raises(TheoremInapplicableError):
        demonstrate_violation(np.eye(2), core, ObjectiveSpec.ridge(1.0), 0.1)
    ok = (
        witness.direction == UNDERSHOOT
        and abs(ratio - witness.regularized_ratio) < 1e-10
        and ratio < 1.0 - band
    )
    _verdict(
        "mismatched-exponent counterexample witness",
        ok,
        f"re-evaluated ratio {ratio:.4f} vs band 1 - {band:.3f}; "
        "equal-exponent request correctly rejected",
    )


def test_09_solver_oracle_equivalences(l1_vertex_minimum):
    checks = []
    ridge = solve_ridge(RegressionInstance(np.array([[1.0]]), np.array([2.0])), 1.0)
    checks.append(abs(ridge.solution[0] - 1.0) < 1e-12)
    lasso = solve_lasso(
        RegressionInstance(np.eye(2), np.array([3.0, 0.5])), 2.0
    )
    checks.append(np.allclose(lasso.solution, [2.0, 0.0], atol=1e-8))
    squared_l1 = solve_modified_lasso(RegressionInstance([[1.0]], [3.0]), 1.0)
    checks.append(abs(squared_l1.solution[0] - 1.5) < 1e-12)
    median = solve_rlad(
        RegressionInstance(np.ones((3, 1)), np.array([1.0, 2.0, 9.0])), 0.0, tol=1e-8
    )
    checks.append(abs(median.solution[0] - 2.0) < 1e-4)
    rng = np.random.default_rng(0)
    rng.standard_normal((20, 3))
    rng.standard_normal(20)
    small = RegressionInstance(rng.standard_normal((4, 1)), rng.standard_normal(4))
    cubic = solve_lp_lp(small, 3.0, 0.1)
    grid = np.linspace(-5.0, 5.0, 100_001)
    resid = small.design @ grid[None, :] - small.response[:, None]
    oracle = np.min(np.sum(np.abs(resid) ** 3, axis=0) + 0.1 * np.abs(grid) ** 3)
    checks.append(cubic.objective_value <= oracle + 1e-6)
    agree = True
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        inst = RegressionInstance(rng.standard_normal((30, 3)), rng.standard_normal(30))
        rlad = solve_rlad(inst, 0.3, tol=1e-9)
        exact = l1_vertex_minimum(inst, 0.3)
        agree &= abs(rlad.objective_value - exact) / exact < 1e-6
        p2 = solve_lp_lp(inst, 2.0, 0.3)
        ridge2 = solve_ridge(inst, 0.3)
        agree &= (
            abs(p2.objective_value - ridge2.objective_value) / ridge2.objective_value
            < 1e-8
        )
    checks.append(agree)
    ok = all(checks)
    _verdict(
        "closed-form solver examples and exact-oracle agreement",
        ok,
        f"hand examples {checks[:5]}, 10-seed oracle agreement {checks[5]}",
    )


def test_10_coreset_optimum_is_near_optimal_on_full_data():
    epsilon = 0.3
    verified, violations = 0, 0
    for i in range(10):
        rng = np.random.default_rng(8000 + i)
        design = rng.standard_normal((400, 5))
        response = design @ rng.standard_normal(5) + 0.2 * rng.standard_normal(400)
        inst = RegressionInstance(design, response)
        lam = 0.8
        family = "ridge" if i % 2 == 0 else "modified_lasso"
        spec = ObjectiveSpec.for_family(family, lam)
        scores = ridge_leverage_scores(inst, lam)
        core = build_coreset(inst, scores, 150, seed=100 + i)
        if family == "ridge":
            x_full = solve_ridge(inst, lam).solution
            x_core = solve_ridge(core.as_instance(2.0), lam).solution
        else:
            x_full = solve_modified_lasso(inst, lam, tol=1e-9).solution
            x_core = solve_modified_lasso(core.as_instance(2.0), lam, tol=1e-7).solution
        qrng = np.random.default_rng(8100 + i)
        queries = list(qrng.standard_normal((200, 5))) + [x_full, x_core]
        report = verify_coreset(inst, core, spec, queries, epsilon)
        if not report.passed:
            continue
        verified += 1
        full_at_core = evaluate_objective(inst, x_core, spec)
        full_at_full = evaluate_objective(inst, x_full, spec)
        if full_at_core > (1 + 3 * epsilon) * full_at_full:
            violations += 1
    ok = verified >= 8 and violations == 0
    _verdict(
        "surrogate optimum within (1 + 3 eps) of the full optimum",
        ok,
        f"{verified}/10 coresets verified at eps={epsilon}, {violations} bound violations",
    )


def test_11_reports_reproduce_trial_by_trial(leverage_run, lambda_sweep_run, rlad_run):
    mismatches, digests, changed = [], [], []
    for name, run in (
        ("leverage", leverage_run),
        ("lambda-sweep", lambda_sweep_run),
        ("rlad", rlad_run),
    ):
        # A one-trial rerun shares only trial 0 of each cell with the full
        # run and reaches it after a different sequence of trials, so equal
        # bits mean every trial depends on its own seed alone.
        first = run_relative_error_experiment(
            dataclasses.replace(run["config"], trials_per_cell=1)
        )
        full = [[cell[0] for cell in row] for row in run["one"].trials]
        rerun = [[cell[0] for cell in row] for row in first.trials]
        if full != rerun:
            mismatches.append(name)
        for fmt in ("json", "csv"):
            key, digest = f"{name}/{fmt}", _sha256(emit_report(run["one"], fmt))
            digests.append(f"{key} {digest}")
            if PINNED_SHA256.get(key, digest) != digest:
                changed.append(key)
    ok = not mismatches and not changed
    _verdict(
        "one-trial reruns reproduce trial 0 of every cell; pinned reports keep their bytes",
        ok,
        ("all cells of the three benchmark configs match; " if not mismatches
         else f"mismatches: {mismatches}; ")
        + (f"pinned reports changed: {changed}; " if changed else "")
        + "report sha256 " + ", ".join(digests),
    )
