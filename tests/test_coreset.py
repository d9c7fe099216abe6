"""Tests for coreset sampling, verification, and the penalty transfer check."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcoreset.coreset import (
    Coreset,
    build_coreset,
    identity_coreset,
    sample_size,
    transfer_check,
    verify_coreset,
)
from regcoreset.errors import InvalidScoresError, ShapeError
from regcoreset.linalg import RegressionInstance, augment
from regcoreset.objective import ObjectiveSpec
from regcoreset.sensitivity import (
    SensitivityScores,
    ridge_leverage_scores,
    uniform_scores,
)
from regcoreset.solvers import evaluate_objective


def _instance(seed: int, n: int, d: int) -> RegressionInstance:
    rng = np.random.default_rng(seed)
    return RegressionInstance(rng.standard_normal((n, d)), rng.standard_normal(n))


def test_identity_coreset_instance_holds_one_copy_of_the_rows():
    # The instance keeps the scaled rows as its [A b]; building it from views
    # of them copied them again, 2.07 times the bytes of [A b] in all.
    inst = _instance(6, 20_000, 30)
    core = identity_coreset(inst)
    for p in (1.0, 2.0):
        tracemalloc.start()
        try:
            scaled = core.as_instance(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * augment(inst).nbytes
        assert augment(scaled).tobytes() == augment(inst).tobytes()


def test_sample_size_hand_value():
    # 0.5 * 2/0.25 * (1*ln2 + ln2) = 8*ln2 = 5.55..., rounded up.
    assert sample_size(2.0, 0.5, 0.5, 1) == 6


def test_sample_size_epsilon_scaling():
    base = sample_size(3.0, 0.5, 0.1, 4)
    finer = sample_size(3.0, 0.25, 0.1, 4)
    assert finer > 4 * base


def test_sample_size_floor_and_validation():
    assert sample_size(1e-9, 0.9, 0.9, 1) == 1
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            sample_size(1.0, bad, 0.5, 1)
        with pytest.raises(ValueError):
            sample_size(1.0, 0.5, bad, 1)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            sample_size(bad, 0.5, 0.5, 1)
    with pytest.raises(ValueError):
        sample_size(1.0, 0.5, 0.5, 0)


def test_uniform_full_size_coreset_has_unit_weights():
    inst = _instance(1, 4, 2)
    core = build_coreset(inst, uniform_scores(4), 4, seed=3)
    assert np.array_equal(core.weights, np.ones(4))
    assert np.array_equal(core.rows, augment(inst)[core.source_indices])


def test_build_coreset_deterministic():
    inst = _instance(2, 50, 3)
    scores = ridge_leverage_scores(inst, 0.5)
    a = build_coreset(inst, scores, 10, seed=7)
    b = build_coreset(inst, scores, 10, seed=7)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.source_indices, b.source_indices)
    c = build_coreset(inst, scores, 10, seed=8)
    assert not np.array_equal(a.source_indices, c.source_indices)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 90210])
def test_sampler_draws_what_generator_choice_draws(seed):
    # The CDF the scores build once must give the rows choice(p=s/S) gives,
    # for score vectors with zeros at either end and in between.
    rng = np.random.default_rng(seed + 500)
    n = 60
    inst = _instance(seed, n, 3)
    spiky = rng.random(n) ** 4
    spiky[[0, n - 1, *rng.choice(n, 15)]] = 0.0
    spiky[n // 2] = 1.0
    live = np.arange(n) % 4 > 0  # every fourth row of [A b] is zero
    zero_rows = RegressionInstance(inst.design * live[:, None], inst.response * live)
    for scores in (
        SensitivityScores(spiky, "brute_force"),
        ridge_leverage_scores(zero_rows, 0.5),
    ):
        values = scores.values
        assert np.count_nonzero(values == 0.0) >= 3
        for r in (1, 17, 400):
            drawn = build_coreset(inst, scores, r, seed=seed).source_indices
            expected = np.random.default_rng(seed).choice(
                n, r, replace=True, p=values / values.sum()
            )
            assert np.array_equal(drawn, expected)


def test_weight_formula_exactness():
    inst = _instance(3, 80, 4)
    scores = ridge_leverage_scores(inst, 1.0)
    core = build_coreset(inst, scores, 25, seed=0)
    recovered = core.weights * 25 * scores.values[core.source_indices]
    assert np.allclose(recovered, scores.total, rtol=1e-12)
    assert np.all(core.source_indices >= 0)
    assert np.all(core.source_indices < 80)


def test_coreset_loss_is_unbiased():
    # Mean over many rebuilds of the weighted l_p^p loss approximates the
    # full loss at p = 1, 2 and 3; every draw serves all three exponents.
    rng = np.random.default_rng(77)
    inst = RegressionInstance(rng.standard_normal((500, 3)), rng.standard_normal(500))
    aprime = augment(inst)
    scores = ridge_leverage_scores(inst, 0.5)
    xs = rng.standard_normal((5, 4))
    exponents = (1.0, 2.0, 3.0)
    full = np.array([np.sum(np.abs(aprime @ xs.T) ** p, axis=0) for p in exponents])
    estimates = np.zeros((2000, len(exponents), 5))
    for k in range(2000):
        core = build_coreset(inst, scores, 50, seed=10_000 + k)
        for j, p in enumerate(exponents):
            weighted = augment(core.as_instance(p))
            estimates[k, j] = np.sum(np.abs(weighted @ xs.T) ** p, axis=0)
    assert np.all(np.abs(estimates.mean(axis=0) - full) / full < 0.02)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    d=st.integers(1, 4),
    r=st.integers(1, 60),
    p=st.floats(1.0, 4.0),
    q=st.floats(1.0, 4.0),
    s=st.floats(0.5, 4.0),
    lam=st.floats(0.0, 5.0),
)
def test_one_draw_serves_every_exponent(seed, n, d, r, p, q, s, lam):
    # Each drawn row i carries w = S / (r s_i), and as_instance(p) turns the
    # stored rows into an instance whose l_p^p loss is sum_k w_k |a'_k x'|^p:
    # the importance-weighted estimate of the full loss, for any p.
    rng = np.random.default_rng(seed)
    inst = RegressionInstance(rng.standard_normal((n, d)), rng.standard_normal(n))
    values = rng.random(n) * (rng.random(n) < 0.8)
    values[rng.integers(n)] += 0.5  # at least one row can be drawn
    scores = SensitivityScores(values, "brute_force")
    core = build_coreset(inst, scores, r, seed=seed)
    idx = core.source_indices
    assert np.allclose(core.weights * r * values[idx], scores.total, rtol=1e-12, atol=0)
    aprime = augment(inst)[idx]
    weighted = augment(core.as_instance(p))
    assert np.array_equal(weighted, aprime * core.weights[:, None] ** (1.0 / p))
    x = rng.standard_normal(d)
    spec = ObjectiveSpec(p=p, q=q, r=p, s=s, lam=lam)
    expected = np.sum(core.weights * np.abs(aprime @ np.append(x, -1.0)) ** p)
    expected += lam * np.linalg.norm(x, ord=q) ** s
    assert evaluate_objective(core.as_instance(p), x, spec) == pytest.approx(
        expected, rel=1e-9
    )


def test_build_coreset_validation():
    inst = _instance(4, 10, 2)
    scores = uniform_scores(10)
    with pytest.raises(ValueError):
        build_coreset(inst, scores, 0, seed=0)
    with pytest.raises(ValueError):
        build_coreset(inst, scores, 5, seed=0).as_instance(0.5)
    with pytest.raises(InvalidScoresError):
        build_coreset(inst, uniform_scores(9), 5, seed=0)


def test_as_instance_rejects_an_infinite_exponent():
    # w^(1/p) would be 1 for every row: the rows would come back unweighted.
    core = build_coreset(_instance(4, 10, 2), uniform_scores(10), 5, seed=0)
    with pytest.raises(ValueError, match="p must be a finite real >= 1"):
        core.as_instance(np.inf)


def test_coreset_dataclass_validation():
    with pytest.raises(ShapeError):
        Coreset(
            rows=np.ones((2, 3)),
            weights=np.ones(3),
            source_indices=np.arange(2),
            seed=0,
            scheme="uniform",
            n_source=5,
        )
    with pytest.raises(ValueError):
        Coreset(
            rows=np.ones((2, 3)),
            weights=np.array([1.0, 0.0]),
            source_indices=np.arange(2),
            seed=0,
            scheme="uniform",
            n_source=5,
        )


def test_coreset_constructor_checks_every_field():
    # The constructor is the one place a coreset's fields are checked: an
    # index is an integer among the n_source rows it was drawn from.
    good = dict(rows=np.ones((1, 3)), weights=np.ones(1), source_indices=[2], seed=0,
                scheme="uniform", n_source=3)
    assert Coreset(**good).source_indices.tolist() == [2]
    for field, value, words in (
        ("source_indices", [0.5], "source_indices entries must be integers"),
        ("source_indices", [-1], r"source_indices must lie in \[0, 3\)"),
        ("source_indices", [3], r"source_indices must lie in \[0, 3\)"),
        ("n_source", 0, "n must be an integer >= 1"),
        ("seed", 0.5, "seed must be an integer"),
        ("scheme", 3, "scheme must be a string"),
    ):
        with pytest.raises(ValueError, match=words):
            Coreset(**{**good, field: value})


def test_coreset_json_roundtrip():
    inst = _instance(5, 30, 3)
    core = build_coreset(inst, uniform_scores(30), 8, seed=11)
    clone = Coreset.from_dict(json.loads(json.dumps(core.to_dict())))
    assert np.array_equal(clone.rows, core.rows)
    assert np.array_equal(clone.weights, core.weights)
    assert np.array_equal(clone.source_indices, core.source_indices)
    assert clone.seed == 11 and clone.scheme == "uniform" and clone.n_source == 30
    assert clone.r == 8 and clone.d == 3
    sub = clone.as_instance(2.0)
    assert sub.n == 8 and sub.d == 3


def test_coreset_json_validation():
    doc = identity_coreset(_instance(6, 3, 2)).to_dict()
    incomplete = {k: v for k, v in doc.items() if k != "weights"}
    with pytest.raises(ValueError):
        Coreset.from_dict(incomplete)
    # The former key held rows pre-scaled for one p; it is not read.
    renamed = {**doc, "rows": doc["sampled_rows"]}
    del renamed["sampled_rows"]
    with pytest.raises(ValueError, match="sampled_rows"):
        Coreset.from_dict(renamed)
    doc["sampled_rows"] = doc["sampled_rows"][:-1]
    with pytest.raises(ShapeError):
        Coreset.from_dict(doc)


def test_identity_coreset_has_zero_deviation():
    inst = _instance(7, 40, 3)
    core = identity_coreset(inst)
    queries = list(np.random.default_rng(1).standard_normal((20, 3)))
    for spec in (
        ObjectiveSpec.ridge(1.0),
        ObjectiveSpec.modified_lasso(0.5),
        ObjectiveSpec.rlad(2.0),
    ):
        report = verify_coreset(inst, core, spec, queries, 0.5)
        assert report.max_relative_deviation == 0.0
        assert report.passed
        assert report.queries_checked == 20
        assert report.degenerate_queries == 0


def test_duplicated_row_coreset_is_exact():
    inst = RegressionInstance(np.array([[1.0], [1.0]]), np.array([2.0, 2.0]))
    core = build_coreset(inst, uniform_scores(2), 1, seed=0)
    assert core.weights == pytest.approx([2.0])
    queries = list(np.random.default_rng(2).standard_normal((10, 1)))
    report = verify_coreset(inst, core, ObjectiveSpec.ridge(0.0), queries, 0.5)
    assert report.max_relative_deviation < 1e-12


def test_ridge_leverage_coreset_passes_verification():
    rng = np.random.default_rng(123)
    inst = RegressionInstance(rng.standard_normal((2000, 10)), rng.standard_normal(2000))
    lam = 1.0
    scores = ridge_leverage_scores(inst, lam)
    r = sample_size(scores.total, 0.5, 0.1, inst.d + 1)
    queries = list(rng.standard_normal((200, 10)))
    passed = sum(
        verify_coreset(
            inst,
            build_coreset(inst, scores, r, seed=seed),
            ObjectiveSpec.ridge(lam),
            queries,
            0.5,
        ).passed
        for seed in range(10)
    )
    assert passed >= 6


def test_verify_counts_degenerate_queries():
    inst = RegressionInstance(np.eye(2), np.zeros(2))
    core = identity_coreset(inst)
    queries = [np.zeros(2), np.array([1.0, 0.0])]
    report = verify_coreset(inst, core, ObjectiveSpec.ridge(1.0), queries, 0.5)
    assert report.degenerate_queries == 1
    assert report.queries_checked == 1
    all_degen = verify_coreset(
        inst, core, ObjectiveSpec.ridge(1.0), [np.zeros(2)], 0.5
    )
    assert all_degen.passed
    assert all_degen.worst_query_index == -1
    assert all_degen.queries_checked == 0


def test_verify_validation():
    inst = _instance(8, 10, 2)
    core = identity_coreset(inst)
    queries = [np.zeros(2)]
    with pytest.raises(ValueError):
        verify_coreset(inst, core, ObjectiveSpec.ridge(1.0), queries, 1.5)
    with pytest.raises(ValueError):
        verify_coreset(inst, core, ObjectiveSpec.ridge(1.0), [], 0.5)
    other = _instance(9, 10, 3)
    with pytest.raises(ShapeError):
        verify_coreset(other, core, ObjectiveSpec.ridge(1.0), [np.zeros(3)], 0.5)
    drawn_elsewhere = identity_coreset(_instance(9, 12, 2))
    with pytest.raises(ShapeError, match="drawn from 12 rows"):
        verify_coreset(inst, drawn_elsewhere, ObjectiveSpec.ridge(1.0), queries, 0.5)
    with pytest.raises(ShapeError, match="drawn from 12 rows"):
        transfer_check(inst, drawn_elsewhere, 2.0, 1.0, 1.0, queries, 0.5)


def test_transfer_check_equal_exponents_match():
    inst = _instance(10, 60, 4)
    core = build_coreset(inst, uniform_scores(60), 30, seed=1)
    queries = list(np.random.default_rng(3).standard_normal((50, 4)))
    rep_p, rep_q = transfer_check(inst, core, 2.0, 2.0, 0.7, queries, 0.9)
    assert rep_p.max_relative_deviation == rep_q.max_relative_deviation


def test_transfer_check_lambda_zero_match():
    inst = _instance(11, 60, 4)
    core = build_coreset(inst, uniform_scores(60), 30, seed=2)
    queries = list(np.random.default_rng(4).standard_normal((50, 4)))
    rep_p, rep_q = transfer_check(inst, core, 2.0, 1.0, 0.0, queries, 0.9)
    assert rep_p.max_relative_deviation == rep_q.max_relative_deviation


def test_transfer_check_p2_to_q1():
    # Queries that pass under the l2^2 penalty must pass under the l1^2 one.
    inst = _instance(12, 300, 5)
    scores = ridge_leverage_scores(inst, 0.5)
    core = build_coreset(inst, scores, 120, seed=5)
    queries = list(np.random.default_rng(5).standard_normal((500, 5)))
    rep_p, rep_q = transfer_check(inst, core, 2.0, 1.0, 0.5, queries, 0.5)
    assert rep_p.epsilon == rep_q.epsilon == 0.5


def test_transfer_check_rejects_bad_exponents():
    # The implication itself can never fail for honest inputs (the penalty
    # cancels in the numerator and the q-penalty denominator dominates), so
    # only the precondition errors are reachable.
    inst = _instance(13, 10, 2)
    core = identity_coreset(inst)
    queries = [np.ones(2)]
    with pytest.raises(ValueError):
        transfer_check(inst, core, 1.0, 2.0, 0.5, queries, 0.5)
    with pytest.raises(ValueError):
        transfer_check(inst, core, 2.0, 0.5, 0.5, queries, 0.5)
