"""Tests for well-conditioned basis construction and certification."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regcoreset
from regcoreset.conditioning import (
    WellConditionedBasis,
    _conditioning_ratios,
    dual_exponent,
    p_conditioned_basis,
    verify_conditioning,
)
from regcoreset.errors import ConditioningFailureError, ShapeError
from regcoreset.experiments import ExperimentConfig, build_experiment_instance
from regcoreset.linalg import augment, entrywise_p_norm, induced_norm_upper
from regcoreset.sensitivity import rlad_sensitivity_bounds


def test_dual_exponent_pairs():
    assert dual_exponent(1.0) == np.inf
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(1.5) == pytest.approx(3.0)
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)


def test_orthonormal_input_returns_itself():
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((30, 4)))
    basis = p_conditioned_basis(Q, 2.0)
    assert np.allclose(basis.basis, Q, atol=1e-12)
    assert np.allclose(basis.change_of_basis, np.eye(4), atol=1e-12)
    assert basis.beta == 1 + 1e-9


def test_orthonormal_diagonal_example():
    basis = p_conditioned_basis(np.diag([2.0, 3.0]), 2.0)
    assert basis.alpha == pytest.approx(np.sqrt(2) * 1.01)
    assert basis.beta == 1 + 1e-9
    assert basis.p == 2.0
    assert np.allclose(basis.basis, np.eye(2))
    assert np.allclose(basis.change_of_basis, np.diag([2.0, 3.0]))


def test_orthonormal_random_has_orthonormal_columns():
    M = np.random.default_rng(12).standard_normal((50, 4))
    basis = p_conditioned_basis(M, 2.0)
    gram = basis.basis.T @ basis.basis
    assert np.linalg.norm(gram - np.eye(4)) < 1e-8
    resid = np.linalg.norm(basis.basis @ basis.change_of_basis - M)
    assert resid / np.linalg.norm(M) < 1e-8


def test_orthonormal_rejects_rank_deficient_and_wide():
    with pytest.raises(ConditioningFailureError):
        p_conditioned_basis(np.ones((50, 3)), 2.0)
    with pytest.raises(ShapeError):
        p_conditioned_basis(np.ones((2, 5)), 2.0)


def test_lewis_p2_quality_near_orthonormal():
    # At p = 2 the Lewis weights are all 1, so U is the orthonormal factor:
    # beta = 1 up to rounding and alpha*beta within the 1% alpha slack of sqrt(m).
    for seed in (0, 1, 2):
        M = np.random.default_rng(11 + seed).standard_normal((100, 4))
        basis = p_conditioned_basis(M, 2.0)
        assert basis.beta <= 1 + 1e-9
        assert basis.alpha * basis.beta <= 1.02 * np.sqrt(4)


def test_sketch_p1_quality_cap():
    M = np.random.default_rng(7).standard_normal((200, 3))
    basis = p_conditioned_basis(M, 1.0)
    assert basis.alpha * basis.beta <= 3**1.5 * 4


def test_sketch_alpha_is_certified():
    M = np.random.default_rng(21).standard_normal((80, 5))
    basis = p_conditioned_basis(M, 1.0)
    assert basis.alpha >= entrywise_p_norm(basis.basis, 1.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_constructed_bases_pass_certificate(p):
    M = np.random.default_rng(int(p * 10)).standard_normal((120, 4))
    basis = p_conditioned_basis(M, p)
    report = verify_conditioning(basis, 10_000, seed=99)
    assert not report.violation
    assert report.recorded_alpha == basis.alpha
    assert report.recorded_beta == basis.beta
    resid = np.linalg.norm(basis.basis @ basis.change_of_basis - M)
    assert resid / np.linalg.norm(M) < 1e-8


def test_sketch_rejects_bad_inputs():
    for p in (1.0, 2.0):
        with pytest.raises(ConditioningFailureError):
            p_conditioned_basis(np.ones((50, 3)), p)
        with pytest.raises(ShapeError):
            p_conditioned_basis(np.ones((2, 5)), p)
    M = np.random.default_rng(0).standard_normal((20, 2))
    with pytest.raises(ValueError):
        p_conditioned_basis(M, 0.5)
    with pytest.raises(ValueError):
        p_conditioned_basis(M, 4.5)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_lewis_basis_is_deterministic_and_certified(p):
    # Nothing is sampled: repeat calls give equal bits, and the sampled check
    # never finds a ratio above the recorded beta.
    M = np.random.default_rng(8).standard_normal((60, 3))
    a = p_conditioned_basis(M, p)
    b = p_conditioned_basis(M, p)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.change_of_basis, b.change_of_basis)
    assert a.alpha == b.alpha and a.beta == b.beta
    for seed in (4, 5):
        assert verify_conditioning(a, 10_000, seed).beta_empirical <= a.beta


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    m=st.integers(1, 4),
    extra_rows=st.integers(1, 36),
    data_seed=st.integers(0, 2**32 - 1),
    zero_row=st.booleans(),
    spike=st.sampled_from([1.0, 1e2, 1e4, 1e6]),
)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_lewis_beta_is_a_certificate(p, m, extra_rows, data_seed, zero_row, spike):
    # ||z||_q <= beta ||Uz||_p must hold for every z, not only on average:
    # probe random directions, the axes and every row direction of U, which
    # is where the bound is tight (one column, or one high-leverage row).
    # For p <= 2 the proof bounds ||z||_2 >= ||z||_q, so that is checked.
    rng = np.random.default_rng(data_seed)
    M = rng.standard_normal((m + extra_rows, m))
    if zero_row:
        M[0] = 0.0
    M[-1] *= spike
    basis = p_conditioned_basis(M, p)
    U = basis.basis
    assert np.all(np.isfinite(U)) and np.isfinite(basis.beta)
    Z = np.hstack([rng.standard_normal((m, 200)), np.eye(m), U.T])
    Z = Z[:, np.linalg.norm(Z, axis=0) > 0]
    lhs = np.linalg.norm(Z, ord=min(dual_exponent(p), 2.0), axis=0)
    rhs = basis.beta * np.linalg.norm(U @ Z, ord=p, axis=0)
    assert np.all(lhs <= rhs)
    assert verify_conditioning(basis, 2_000, data_seed).beta_empirical <= basis.beta


def test_l1_lewis_zero_row_gives_finite_basis_and_scores():
    M = np.random.default_rng(13).standard_normal((50, 4))
    M[[0, 17]] = 0.0
    basis = p_conditioned_basis(M, 1.0)
    assert np.all(np.isfinite(basis.basis)) and np.isfinite(basis.beta)
    assert np.all(basis.basis[[0, 17]] == 0.0)
    scores = rlad_sensitivity_bounds(basis, 0.5)
    assert np.all(np.isfinite(scores.values)) and np.isfinite(scores.total)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_lewis_basis_memory_is_a_few_copies_of_the_input(p):
    M = np.random.default_rng(14).standard_normal((20_000, 31))
    tracemalloc.start()
    try:
        basis = p_conditioned_basis(M, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * M.nbytes


def test_import_and_l1_basis_load_no_scipy():
    code = (
        "import sys, numpy as np, regcoreset\n"
        "M = np.random.default_rng(0).standard_normal((50, 3))\n"
        "for p in (1.0, 1.5, 3.0):\n"
        "    regcoreset.p_conditioned_basis(M, p)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(regcoreset.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_verify_reports_exact_alpha_witness():
    M = np.random.default_rng(5).standard_normal((40, 3))
    basis = p_conditioned_basis(M, 2.0)
    report = verify_conditioning(basis, 100, seed=1)
    assert report.alpha_witness == entrywise_p_norm(basis.basis, 2.0)
    assert report.trials == 100 and report.seed == 1


def test_verify_orthonormal_beta_at_most_one():
    basis = p_conditioned_basis(np.vstack([np.eye(2), np.zeros((1, 2))]), 2.0)
    report = verify_conditioning(basis, 2000, seed=1)
    assert report.beta_empirical <= 1 + 1e-8
    assert not report.violation


def test_verify_flags_corrupted_beta():
    good = p_conditioned_basis(np.vstack([np.eye(2), np.zeros((1, 2))]), 2.0)
    bad = WellConditionedBasis(
        basis=good.basis,
        change_of_basis=good.change_of_basis,
        alpha=good.alpha,
        beta=0.5,
        p=2.0,
        induced_norm=good.induced_norm,
    )
    assert verify_conditioning(bad, 500, seed=3).violation
    assert not verify_conditioning(good, 500, seed=3).violation


def test_verify_rejects_zero_trials():
    basis = p_conditioned_basis(np.eye(2), 2.0)
    with pytest.raises(ValueError):
        verify_conditioning(basis, 0, seed=0)


def test_verify_conditioning_deterministic():
    basis = p_conditioned_basis(np.random.default_rng(9).standard_normal((30, 3)), 1.0)
    first = verify_conditioning(basis, 200, seed=7)
    assert verify_conditioning(basis, 200, seed=7) == first


def _ratios_out_of_place(U, p, Z):
    """The ratio formula with a fresh array per step, as a reference."""
    q = dual_exponent(p)
    if q == np.inf:
        num = np.max(np.abs(Z), axis=0)
    else:
        num = np.sum(np.abs(Z) ** q, axis=0) ** (1.0 / q)
    den = np.sum(np.abs(U @ Z) ** p, axis=0) ** (1.0 / p)
    out = np.zeros(Z.shape[1])
    mask = den > 0
    out[mask] = num[mask] / den[mask]
    return out


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_conditioning_ratios_match_out_of_place_formula(p):
    rng = np.random.default_rng(21)
    U = rng.standard_normal((200, 6))
    Z = rng.standard_normal((6, 300))
    Z[:, 0] = 0.0  # a zero direction keeps ratio 0
    got = _conditioning_ratios(U, p, Z)
    want = _ratios_out_of_place(U, p, Z)
    if p == 1:
        assert np.array_equal(got, want)
    else:
        # In-place and out-of-place power may take different SIMD loops.
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[0] == 0.0


def test_verify_conditioning_holds_one_probe_buffer():
    # 4000 x 2000 probe products of 8 bytes are 61 MiB; a second buffer of
    # the same size would push the peak past 96 MiB.
    M = np.random.default_rng(4).standard_normal((4000, 31))
    basis = p_conditioned_basis(M, 2.0)
    tracemalloc.start()
    try:
        report = verify_conditioning(basis, 2_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.beta_empirical) and report.beta_empirical > 0
    assert peak < 96 * 2**20


def test_basis_records_the_induced_norm_of_its_matrix():
    M = np.random.default_rng(15).standard_normal((200, 5))
    for p in (1.0, 1.5, 2.0, 3.0):
        assert p_conditioned_basis(M, p).induced_norm == induced_norm_upper(M, p)


def test_orthonormal_basis_norm_from_r_matches_the_n_row_svd():
    rng = np.random.default_rng(16)
    tall = [rng.standard_normal((n, m)) * scale
            for n, m, scale in ((50, 1, 1.0), (300, 7, 1e-3), (2000, 31, 1e4))]
    ng, _ = build_experiment_instance(ExperimentConfig(
        n=20_000, d=30, lambda_grid=(0.5,), sample_sizes=(30,), master_seed=2))
    for M in (*tall, augment(ng)):
        # The p = 2 basis records the n-row SVD norm; sigma_max(R) agrees.
        basis = p_conditioned_basis(M, 2.0)
        assert basis.induced_norm == induced_norm_upper(M, 2)
        assert np.linalg.norm(basis.change_of_basis, 2) == pytest.approx(
            basis.induced_norm, rel=1e-12
        )


def test_p2_basis_takes_a_single_qr(monkeypatch):
    # At p = 2 the Lewis row scale is exactly 1, so later steps would only
    # repeat the first QR bit for bit.
    qr = np.linalg.qr
    calls = []

    def counting_qr(M, *args, **kwargs):
        calls.append(np.shape(M))
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    M = np.random.default_rng(18).standard_normal((500, 6))
    p_conditioned_basis(M, 2.0)
    assert calls == [M.shape]


def test_p2_basis_keeps_its_bits():
    # Recorded from the twelve-step construction on this fixed matrix: the
    # one-step p = 2 basis must reproduce it bit for bit.
    M = np.random.default_rng(17).standard_normal((40, 4))
    basis = p_conditioned_basis(M, 2.0)
    digest = hashlib.sha256()
    for array in (basis.basis, basis.change_of_basis):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(np.array([basis.alpha, basis.beta, basis.induced_norm]).tobytes())
    assert (basis.alpha, basis.beta, basis.induced_norm) == (
        2.0199999999999996, 1.000000001, 8.279486616000016
    )
    assert digest.hexdigest() == (
        "4a8d894a379cfe28a817cf2b95fc1e812940b37d24a6d0e30fbae3f786e4604f"
    )
