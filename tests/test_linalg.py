import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcoreset.conditioning import p_conditioned_basis
from regcoreset.coreset import build_coreset
from regcoreset.errors import RankDeficiencyError, ShapeError
from regcoreset.experiments import ExperimentConfig, build_experiment_instance
from regcoreset.linalg import (
    _BLOCK_ROWS,
    RegressionInstance,
    augment,
    as_matrix,
    as_vector,
    check_full_column_rank,
    decode_array,
    encode_array,
    entrywise_p_norm,
    induced_norm_upper,
    statistical_dimension,
    tall_qr_r,
)
from regcoreset.sensitivity import ridge_leverage_scores, uniform_scores


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_vector_rejects_bad_shapes_and_values():
    with pytest.raises(ShapeError):
        as_vector([[1.0]])
    with pytest.raises(ShapeError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([np.nan])


def test_arrays_are_read_by_the_type_of_each_entry():
    # numpy alone reads [1.5, True] as floats and "1" as 1.0 with dtype=float.
    for values, words in (
        ([1.5, True], "v entries must be numbers, got True"),
        (["1"], "v entries must be numbers, got '1'"),
        ([{}], "v entries must be numbers, got {}"),
        ([10**400], "v entries must fit in float64"),
        (np.array([True]), "v must hold numbers, got dtype bool"),
    ):
        with pytest.raises(ValueError, match=words):
            as_vector(values, "v")
    assert as_vector([1, np.float32(0.5), np.int64(2)]).tolist() == [1.0, 0.5, 2.0]
    held = np.arange(3.0)
    assert as_vector(held) is held  # an ndarray of a numeric dtype is not copied
    design = np.empty((4, 3))[:, :-1]  # the harness's strided view of [A  b]
    assert as_matrix(design) is design


_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(_FLOATS, min_size=1, max_size=12).map(np.array),
    st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(_FLOATS, min_size=d, max_size=d), min_size=1, max_size=6
    ).map(np.array)),
))
def test_array_encoding_round_trips_bit_for_bit(a):
    doc = json.loads(json.dumps(encode_array(a)))
    back = decode_array(doc)
    assert back.dtype == np.float64
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


def test_encoded_instance_equals_list_instance():
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((7, 3)), rng.standard_normal(7)
    A[0, 0], b[1] = -0.0, 5e-324
    from_lists = RegressionInstance(A.tolist(), b.tolist())
    encoded = json.loads(json.dumps([encode_array(A), encode_array(b)]))
    from_encoded = RegressionInstance(*encoded)
    assert from_encoded.design.tobytes() == from_lists.design.tobytes()
    assert from_encoded.response.tobytes() == from_lists.response.tobytes()
    assert not from_encoded.design.flags.writeable


def test_decode_array_rejects_malformed_input(malformed_arrays):
    for doc, words in malformed_arrays.values():
        with pytest.raises(ValueError, match=words):
            decode_array(doc)


def test_instance_shape_agreement():
    inst = RegressionInstance([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1.0, 2.0, 3.0])
    assert inst.n == 3
    assert inst.d == 2
    with pytest.raises(ShapeError):
        RegressionInstance([[1.0], [2.0]], [1.0, 2.0, 3.0])


def test_instance_owns_read_only_copies():
    A = np.arange(8.0).reshape(4, 2)
    b = np.array([1.0, -2.0, 0.5, 3.0])
    reference = RegressionInstance(A.copy(), b.copy())
    before = RegressionInstance(A, b)
    factor_before = before.squared_loss_factor
    after = RegressionInstance(A, b)
    A[:] = -7.0
    b[:] = 11.0
    for inst in (before, after):
        assert np.array_equal(inst.design, reference.design)
        assert np.array_equal(inst.response, reference.response)
    for R, c in (factor_before, after.squared_loss_factor):
        assert np.array_equal(R, reference.squared_loss_factor[0])
        assert np.array_equal(c, reference.squared_loss_factor[1])


def test_instance_arrays_and_factor_are_read_only():
    inst = RegressionInstance(np.eye(3), np.ones(3))
    R, c = inst.squared_loss_factor
    for array, index in ((inst.design, (0, 0)), (inst.response, 0), (R, (0, 0)), (c, 0)):
        with pytest.raises(ValueError):
            array[index] = 5.0


def test_instance_holds_one_array():
    # [A b] is stored once: design, response, the factor's QR, the leverage
    # product and the coreset's rows all read it without another n-row copy.
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((20_000, 30)), rng.standard_normal(20_000)
    for inst in (RegressionInstance(A, b),
                 RegressionInstance(encode_array(A), encode_array(b))):
        aprime = augment(inst)
        assert aprime is augment(inst) and aprime.flags.c_contiguous
        for array in (aprime, inst.design, inst.response):
            assert np.shares_memory(array, aprime) and not array.flags.writeable
        assert aprime.tobytes() == np.column_stack([A, b]).tobytes()
        core = build_coreset(inst, uniform_scores(inst.n), 500, seed=4)
        assert core.rows.tobytes() == aprime[core.source_indices].tobytes()
    # The factor is computed (and cached) first, so the leverage call's peak
    # is its own.
    for measure in (lambda: inst.squared_loss_factor, lambda: ridge_leverage_scores(inst, 0.5)):
        tracemalloc.start()
        try:
            measure()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * aprime.nbytes


def test_owning_constructor_keeps_the_array():
    aprime = np.random.default_rng(4).standard_normal((30, 5))
    inst = RegressionInstance._owning(aprime)
    assert augment(inst) is aprime and not aprime.flags.writeable
    assert np.shares_memory(inst.design, aprime) and np.shares_memory(inst.response, aprime)
    assert aprime.tobytes() == augment(RegressionInstance(inst.design, inst.response)).tobytes()
    spoiled = aprime.copy()
    spoiled[3, 2] = np.nan
    with pytest.raises(ValueError):
        RegressionInstance._owning(spoiled)
    for bad in (np.ones((4, 1)), np.ones((4, 6))[:, ::2]):
        with pytest.raises(ShapeError):
            RegressionInstance._owning(bad)


def _ng_aprime(n: int) -> np.ndarray:
    config = ExperimentConfig(n=n, d=10, lambda_grid=(0.5,), sample_sizes=(5,), master_seed=2)
    return augment(build_experiment_instance(config)[0])


def _with_nonnegative_diagonal(R: np.ndarray) -> np.ndarray:
    return np.where(np.diag(R) < 0, -1.0, 1.0)[:, None] * R


@pytest.mark.parametrize(
    "n", [7, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS - 500, 20_000]
)
def test_tall_qr_matches_one_shot_qr_up_to_row_signs(n):
    # n = 7 is shorter than the 11 or 12 columns; 3 blocks - 500 rows end in
    # a short block.  Up to one block, one QR call gives the one-shot bits.
    rng = np.random.default_rng(n)
    scaled = rng.standard_normal((n, 12)) * 10.0 ** rng.uniform(-3, 3, 12)
    for M in (scaled, _ng_aprime(n)):
        R, want = tall_qr_r(M), np.linalg.qr(M, mode="r")
        assert R.shape == want.shape == (min(n, M.shape[1]), M.shape[1])
        assert np.array_equal(np.triu(R), R)
        if n <= _BLOCK_ROWS:
            assert np.array_equal(R, want)
        error = _with_nonnegative_diagonal(R) - _with_nonnegative_diagonal(want)
        assert np.linalg.norm(error) <= 1e-12 * np.linalg.norm(want)


def test_no_qr_call_sees_more_than_a_block_and_the_factor(monkeypatch):
    # np.linalg.qr copies its input twice, once where tracemalloc does not
    # look; the factor and each Lewis step hand it [R; one block of rows].
    instance, _ = build_experiment_instance(ExperimentConfig(
        n=20_000, d=30, lambda_grid=(0.5,), sample_sizes=(5,), master_seed=2))
    rows, qr = [], np.linalg.qr

    def counting_qr(M, *args, **kwargs):
        rows.append(np.shape(M)[0])
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    instance.squared_loss_factor
    p_conditioned_basis(augment(instance), 1.0)
    assert len(rows) == 13 * math.ceil(instance.n / _BLOCK_ROWS)  # factor + 12 steps
    assert max(rows) <= _BLOCK_ROWS + instance.d + 1


def test_squared_loss_factor_is_computed_once():
    inst = RegressionInstance([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [0.0, 1.0, 3.0])
    assert inst.squared_loss_factor is inst.squared_loss_factor


def test_augment_appends_response_column():
    inst = RegressionInstance([[1.0]], [2.0])
    assert np.array_equal(augment(inst), [[1.0, 2.0]])
    inst = RegressionInstance(np.eye(3), np.zeros(3))
    ap = augment(inst)
    assert ap.shape == (3, 4)
    assert np.all(ap[:, -1] == 0.0)


def test_augment_shape_law():
    rng = np.random.default_rng(11)
    for n, d in [(2, 1), (5, 3), (10, 10)]:
        inst = RegressionInstance(rng.standard_normal((n, d)), rng.standard_normal(n))
        assert augment(inst).shape == (n, d + 1)


def test_entrywise_norm_hand_values():
    assert entrywise_p_norm(np.eye(2), 2) == pytest.approx(math.sqrt(2))
    assert entrywise_p_norm([[1.0, -2.0], [3.0, 0.0]], 1) == pytest.approx(6.0)
    assert entrywise_p_norm([[3.0, 4.0]], 2) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        entrywise_p_norm(np.eye(2), 0.5)


def test_entrywise_norm_matches_singular_values():
    # Frobenius norm equals the l2 norm of the spectrum.
    rng = np.random.default_rng(5)
    for trial in range(10):
        M = rng.standard_normal((6, 4))
        sigma = np.linalg.svd(M, compute_uv=False)
        assert entrywise_p_norm(M, 2) == pytest.approx(
            math.sqrt(np.sum(sigma**2)), abs=1e-8
        )


def test_induced_norm_hand_values():
    assert induced_norm_upper(np.diag([1.0, 2.0]), 1) == pytest.approx(2.0)
    assert induced_norm_upper([[0.0, 1.0], [1.0, 0.0]], 2) == pytest.approx(1.0)
    assert induced_norm_upper([[1.0, 1.0], [1.0, 1.0]], 1) == pytest.approx(2.0)
    assert induced_norm_upper([[1.0, 1.0], [1.0, 1.0]], np.inf) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        induced_norm_upper(np.eye(2), 0.9)


def test_induced_norm_dominates_random_directions():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((8, 5))
    for p in (1.0, 1.5, 2.0, 3.0):
        bound = induced_norm_upper(M, p)
        x = rng.standard_normal((10000, 5))
        x /= np.linalg.norm(x, ord=p, axis=1, keepdims=True)
        attained = np.max(np.linalg.norm(x @ M.T, ord=p, axis=1))
        assert attained <= bound * (1 + 1e-12)


def test_statistical_dimension_hand_values():
    assert statistical_dimension([1.0, 1.0, 1.0], 0.0) == pytest.approx(3.0)
    # 1/(1 + 2/4) + 1/(1 + 2/1) = 2/3 + 1/3
    assert statistical_dimension([2.0, 1.0], 2.0) == pytest.approx(1.0)
    assert statistical_dimension([1.0], 1e12) < 1e-11


def test_statistical_dimension_monotone_in_lambda():
    sigma = np.array([3.0, 1.0, 0.2])
    lams = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
    values = [statistical_dimension(sigma, lam) for lam in lams]
    for earlier, later in zip(values, values[1:]):
        assert later < earlier
    assert 0.0 < values[-1] <= 3.0


def test_statistical_dimension_rejects_bad_input():
    with pytest.raises(RankDeficiencyError):
        statistical_dimension([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        statistical_dimension([1.0], -1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_statistical_dimension_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        statistical_dimension([2.0, 1.0], lam)


def test_rank_check():
    check_full_column_rank(np.array([3.0, 1e-3]))
    with pytest.raises(RankDeficiencyError):
        check_full_column_rank(np.array([1.0, 0.0]))
    with pytest.raises(RankDeficiencyError):
        check_full_column_rank(np.array([1.0, 1e-14]))
