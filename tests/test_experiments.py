"""Tests for data generation, CSV ingestion, and the experiment protocols."""

import dataclasses
import json
import statistics
import weakref

import numpy as np
import pytest

from regcoreset import experiments
from regcoreset.errors import DegenerateSignalError, ParseError, SchemaError
from regcoreset.experiments import (
    DataTable,
    ExperimentConfig,
    build_experiment_instance,
    emit_report,
    generate_ng_matrix,
    generate_response,
    load_csv,
    parse_report,
    run_relative_error_experiment,
    run_sparsity_experiment,
)
from regcoreset.linalg import RegressionInstance, augment
from regcoreset.seeding import mix_seed
from regcoreset.sensitivity import ridge_leverage_scores


def _small_config(**overrides) -> ExperimentConfig:
    base = dict(
        n=60,
        d=4,
        lambda_grid=(0.5,),
        sample_sizes=(10, 20),
        schemes=("uniform", "identity"),
        objective_family="ridge",
        trials_per_cell=3,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(lambda_grid=())
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            _small_config(lambda_grid=(0.5, bad))
    with pytest.raises(ValueError):
        _small_config(sample_sizes=())
    with pytest.raises(ValueError):
        _small_config(trials_per_cell=4)
    with pytest.raises(ValueError):
        _small_config(objective_family="huber")
    with pytest.raises(ValueError):
        _small_config(schemes=("made_up",))
    with pytest.raises(ValueError):
        _small_config(d=5)
    with pytest.raises(ValueError):
        _small_config(n=2)


def test_config_dict_roundtrip_and_digest():
    config = _small_config()
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config
    assert clone.digest() == config.digest()
    assert _small_config(master_seed=8).digest() != config.digest()
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"n": 10, "d": 4, "lambda_grid": [1], "sample_sizes": [5], "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"n": 10, "d": 4})


def test_ng_matrix_block_structure():
    A = generate_ng_matrix(100, 6, 0.00065, seed=3)
    assert A.shape == (100, 6)
    assert np.array_equal(A[-3:, 3:], np.eye(3))
    assert np.array_equal(A[-3:, :3], np.zeros((3, 3)))
    assert np.all(A[:-3, 3:] >= 0) and np.all(A[:-3, 3:] <= 1e-8)
    assert np.max(np.abs(A[:-3, :3])) < 0.00065 * 6  # six sigmas of slack
    assert np.array_equal(A, generate_ng_matrix(100, 6, 0.00065, seed=3))
    assert not np.array_equal(A, generate_ng_matrix(100, 6, 0.00065, seed=4))


def test_ng_matrix_identity_rows_carry_all_leverage():
    A = generate_ng_matrix(300, 6, 0.00065, seed=1)
    scores = ridge_leverage_scores(RegressionInstance(A[:, :-1], A[:, -1]), 0.0)
    assert np.all(scores.values[-3:] > 0.999)


def test_ng_matrix_validation():
    with pytest.raises(ValueError):
        generate_ng_matrix(100, 5, 0.1, 0)
    with pytest.raises(ValueError):
        generate_ng_matrix(2, 6, 0.1, 0)
    with pytest.raises(ValueError):
        generate_ng_matrix(100, 6, 0.0, 0)


def _one_shot_ng_matrix(n, d, alpha, seed):
    """The NG design drawn whole, the reference for generate_ng_matrix's bits."""
    half = d // 2
    rng = np.random.default_rng(seed)
    top = np.hstack([alpha * rng.standard_normal((n - half, half)),
                     1e-8 * rng.random((n - half, half))])
    return np.vstack([top, np.hstack([np.zeros((half, half)), np.eye(half)])])


@pytest.mark.parametrize("n", [60, 2_500, 20_000])
def test_harness_instance_is_the_library_instance(n):
    # The harness writes the NG design and response straight into [A b], a
    # block of rows at a time; the bits are those of the library's functions
    # and of one whole draw.
    config = _small_config(n=n, d=30, master_seed=2)
    instance, x_true = build_experiment_instance(config)
    data_seed = mix_seed(2, experiments._TAG_DATA)
    A = generate_ng_matrix(n, 30, config.ng_alpha, data_seed)
    assert A.tobytes() == _one_shot_ng_matrix(n, 30, config.ng_alpha, data_seed).tobytes()
    b = generate_response(A, x_true, config.noise_scale, mix_seed(2, experiments._TAG_NOISE))
    assert augment(instance).tobytes() == augment(RegressionInstance(A, b)).tobytes()


def test_response_noise_level_is_exact():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((50, 3))
    x = rng.standard_normal(3)
    clean = generate_response(A, x, 0.0, seed=5)
    assert np.array_equal(clean, A @ x)
    noisy = generate_response(A, x, 1e-5, seed=5)
    level = np.linalg.norm(noisy - A @ x) / np.linalg.norm(A @ x)
    assert level == pytest.approx(1e-5, abs=1e-12)
    assert np.array_equal(noisy, generate_response(A, x, 1e-5, seed=5))
    assert not np.array_equal(noisy, generate_response(A, x, 1e-5, seed=6))


def test_response_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        generate_response(A, np.ones(3), -1e-5, seed=0)
    with pytest.raises(DegenerateSignalError):
        generate_response(A, np.zeros(3), 1e-5, seed=0)
    # Both arrays go through the array rule: numpy alone reads "1" and true.
    for bad_A, bad_x in (([["1", True]], [2.0, 1.0]), ([[1.0, 1.0]], ["2", 1])):
        with pytest.raises(ValueError, match="entries must be numbers"):
            generate_response(bad_A, bad_x, 0.0, seed=0)


def test_load_csv_normalization(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f,y\n2,1\n4,3\n")
    inst = load_csv(path, "y", normalize=True)
    assert np.array_equal(inst.design, np.array([[0.5], [1.0]]))
    assert np.array_equal(inst.response, np.array([1.0, 3.0]))
    raw = load_csv(path, "y", normalize=False)
    assert np.array_equal(raw.design, np.array([[2.0], [4.0]]))


def test_load_csv_power_plant_shape(tmp_path):
    path = tmp_path / "ccpp.csv"
    rows = ["T,V,AP,RH,EP"]
    rng = np.random.default_rng(0)
    for _ in range(12):
        rows.append(",".join(f"{v:.3f}" for v in rng.uniform(1, 100, 5)))
    path.write_text("\n".join(rows) + "\n")
    inst = load_csv(path, "EP")
    assert inst.d == 4 and inst.n == 12
    assert np.allclose(np.max(np.abs(inst.design), axis=0), 1.0, atol=1e-12)


def test_load_csv_errors(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("f,y\nabc,1\n")
    with pytest.raises(ParseError, match="row 2.*'f'"):
        load_csv(bad_cell, "y")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f,y\n1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(ragged, "y")
    missing = tmp_path / "missing.csv"
    missing.write_text("f,y\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(missing, "z")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError):
        load_csv(empty, "y")
    headeronly = tmp_path / "header.csv"
    headeronly.write_text("f,y\n")
    with pytest.raises(SchemaError):
        load_csv(headeronly, "y")


def test_load_csv_keeps_zero_columns(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("a,b,y\n0,2,1\n0,4,2\n")
    inst = load_csv(path, "y")
    assert np.array_equal(inst.design[:, 0], np.zeros(2))
    assert np.array_equal(inst.design[:, 1], np.array([0.5, 1.0]))


def test_build_instance_deterministic():
    config = _small_config()
    a1, x1 = build_experiment_instance(config)
    experiments._INSTANCE_SLOT.clear()  # the second call builds its own
    a2, x2 = build_experiment_instance(config)
    assert a1 is not a2
    assert np.array_equal(a1.design, a2.design)
    assert np.array_equal(a1.response, a2.response)
    assert np.array_equal(x1, x2)


def test_relative_error_table_structure():
    table = run_relative_error_experiment(_small_config())
    assert table.col_labels == ["uniform", "identity"]
    assert table.row_labels == ["10", "20"]
    identity_col = [row[1] for row in table.cells]
    assert all(c < 1e-10 for c in identity_col)
    for row_cells, row_trials in zip(table.cells, table.trials):
        for cell, trial_list in zip(row_cells, row_trials):
            assert cell >= 0
            assert cell == statistics.median(trial_list)
            assert len(trial_list) == 3


def test_relative_error_runs_are_byte_identical():
    config = _small_config(schemes=("uniform", "ridge_leverage"))
    first = run_relative_error_experiment(config)
    experiments._INSTANCE_SLOT.clear()  # the second run builds its own instance
    second = run_relative_error_experiment(config)
    for fmt in ("json", "csv"):
        assert emit_report(first, fmt) == emit_report(second, fmt)


def test_relative_error_trials_share_no_state():
    # With five trials per cell, every cell after the first is reached after
    # a different sequence of earlier trials than with three.
    config = _small_config(
        schemes=("uniform", "ridge_leverage"), lambda_grid=(0.1, 1.0)
    )
    three = run_relative_error_experiment(config)
    five = run_relative_error_experiment(dataclasses.replace(config, trials_per_cell=5))
    assert [[cell[:3] for cell in row] for row in five.trials] == three.trials


def test_identity_trials_share_one_factored_instance(factored_shapes):
    # One n-row QR for the full data and one for the identity coreset, which
    # every identity trial reuses; a fresh instance per trial made 1 + 6.
    config = _small_config(
        n=2000, d=30, sample_sizes=(50, 100), objective_family="modified_lasso",
        master_seed=2,
    )
    table = run_relative_error_experiment(config)
    assert sum(shape[0] == config.n for shape in factored_shapes) == 2
    assert all(row[1] < 1e-10 for row in table.cells)


def test_l2_table_takes_no_n_row_svd(monkeypatch, factored_shapes):
    # Ridge leverage scores come from the instance's cached factor, the one
    # n-row QR its solves share; the thin SVD of A' took one per lambda.
    n = 2000
    n_row_svds = []
    svd = np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        n_row_svds.append(np.shape(M)[0] == n)
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    config = _small_config(
        n=n, d=30, lambda_grid=(0.1, 0.5, 5.0), sample_sizes=(100,),
        schemes=("ridge_leverage", "uniform"), objective_family="modified_lasso",
        master_seed=2,
    )
    run_relative_error_experiment(config)
    assert sum(n_row_svds) == 0
    assert sum(shape[0] == n for shape in factored_shapes) == 1


def test_l2_tables_of_one_seed_share_one_build_and_one_qr(monkeypatch, factored_shapes):
    # The size table, the lambda sweep and the sparsity profile differ only
    # in fields that do not generate the instance, so the memo serves all
    # three: one NG build and one n-row QR in total, not three of each.
    n = 2000
    builds = []
    generate = experiments._fill_ng_matrix

    def counting_generate(*args, **kwargs):
        builds.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments, "_fill_ng_matrix", counting_generate)
    same = dict(n=n, d=30, objective_family="modified_lasso", master_seed=2)
    l2 = ("ridge_leverage", "uniform")
    run_relative_error_experiment(
        _small_config(lambda_grid=(0.5,), sample_sizes=(30, 100), schemes=l2, **same)
    )
    run_relative_error_experiment(
        _small_config(lambda_grid=(0.1, 5.0), sample_sizes=(100,), schemes=l2, **same)
    )
    run_sparsity_experiment(
        _small_config(lambda_grid=(0.0, 1.0), sample_sizes=(30,), schemes=("uniform",),
                      **same)
    )
    assert len(builds) == 1
    assert sum(shape[0] == n for shape in factored_shapes) == 1


def test_another_instance_evicts_the_memoized_one(monkeypatch):
    # The slot is emptied before the next instance is built, so two of them
    # are never held at once.
    first, _ = build_experiment_instance(_small_config(master_seed=1))
    assert build_experiment_instance(_small_config(master_seed=1))[0] is first
    old = weakref.ref(first)
    del first
    alive_at_build = []
    generate = experiments._fill_ng_matrix

    def recording_generate(*args, **kwargs):
        alive_at_build.append(old() is not None)
        return generate(*args, **kwargs)

    monkeypatch.setattr(experiments, "_fill_ng_matrix", recording_generate)
    build_experiment_instance(_small_config(master_seed=2))
    assert alive_at_build == [False]
    assert old() is None


def test_memoized_x_true_is_read_only():
    _, x_true = build_experiment_instance(_small_config())
    with pytest.raises(ValueError, match="read-only"):
        x_true[0] = 0.0
    _, again = build_experiment_instance(_small_config())
    assert again is x_true


def test_csv_config_rereads_its_file(tmp_path):
    path = tmp_path / "data.csv"
    config = _small_config(n=2, d=2, csv_path=str(path), target_column="y",
                           normalize=False)
    path.write_text("a,y\n1,2\n3,4\n")
    first, x_true = build_experiment_instance(config)
    path.write_text("a,y\n5,6\n7,8\n")
    second, _ = build_experiment_instance(config)
    assert x_true is None
    assert first.design.tolist() == [[1.0], [3.0]]
    assert second.design.tolist() == [[5.0], [7.0]]
    assert second.response.tolist() == [6.0, 8.0]


def test_rlad_basis_is_built_once_per_run(monkeypatch):
    # p_conditioned_basis(A', 1) depends on neither lambda nor a seed, so one
    # basis serves every lambda of the grid, and the ||A'||_1 it records
    # serves every bound.
    from regcoreset import conditioning, linalg, sensitivity

    calls, norms = [], []
    basis = experiments.p_conditioned_basis

    def counting_basis(*args, **kwargs):
        calls.append(args[1:])
        return basis(*args, **kwargs)

    def counting_norm(M, p):
        norms.append(p)
        return linalg.induced_norm_upper(M, p)

    monkeypatch.setattr(experiments, "p_conditioned_basis", counting_basis)
    for module in (conditioning, sensitivity):
        monkeypatch.setattr(module, "induced_norm_upper", counting_norm, raising=False)
    config = _small_config(
        n=400, d=30, lambda_grid=(0.1, 0.5, 1.0), sample_sizes=(60,),
        schemes=("rlad_sensitivity", "uniform"), objective_family="rlad",
        master_seed=2,
    )
    run_relative_error_experiment(config)
    assert calls == [(1.0,)]
    assert norms == [1.0]


def test_relative_error_rejects_threads():
    with pytest.raises(ValueError, match="serial"):
        run_relative_error_experiment(_small_config(), threads=2)


def test_relative_error_rlad_scheme_runs():
    config = _small_config(
        objective_family="rlad",
        schemes=("rlad_sensitivity", "uniform"),
        sample_sizes=(15,),
    )
    table = run_relative_error_experiment(config)
    assert table.col_labels == ["rlad_sensitivity", "uniform"]
    assert all(all(c >= 0 for c in row) for row in table.cells)


def test_row_labels_cover_both_grids():
    config = _small_config(lambda_grid=(0.1, 1.0), sample_sizes=(10, 20))
    table = run_relative_error_experiment(config)
    assert table.row_labels == ["10|0.1", "10|1", "20|0.1", "20|1"]
    lam_only = run_relative_error_experiment(
        _small_config(lambda_grid=(0.1, 1.0), sample_sizes=(10,))
    )
    assert lam_only.row_labels == ["0.1", "1"]


def test_sparsity_experiment_shape_and_lambda_zero_agreement():
    config = _small_config(lambda_grid=(0.0, 0.5), objective_family="ridge")
    table = run_sparsity_experiment(config)
    assert table.row_labels == ["lasso", "modified_lasso", "ridge"]
    assert table.col_labels == ["0", "0.5"]
    at_zero = [row[0] for row in table.cells]
    assert at_zero[0] == at_zero[1] == at_zero[2]
    assert all(c == 0 for c in table.cells[2])
    assert table.cells[0][1] > 0 and table.cells[1][1] > 0


def test_emit_csv_frozen_format():
    table = DataTable(
        row_labels=["row"], col_labels=["col"], cells=[[0.5]], trials=[[[0.5]]]
    )
    assert emit_report(table, "csv") == "label,col\nrow,0.500000"


def test_emit_json_roundtrip():
    table = run_relative_error_experiment(_small_config())
    doc = emit_report(table, "json")
    clone = parse_report(doc)
    assert clone.row_labels == table.row_labels
    assert clone.col_labels == table.col_labels
    assert clone.cells == [[float(c) for c in row] for row in table.cells]
    assert clone.config_digest == table.config_digest
    assert emit_report(clone, "json") == doc
    with pytest.raises(ValueError):
        parse_report(json.dumps({"rows": []}))
    # Each field is checked by type, so a malformed report is not re-emitted
    # as a different one.
    valid = json.loads(doc)
    for key, value, message in (
        ("cells", [[True]], "cells entries must be numbers"),
        ("cells", [0.5], "cells must be 2-D"),
        ("trials", [[["1"]]], "trials entries must be numbers"),
        ("trials", [[0.5]], "trials must be 3-D"),
        ("rows", [5], "rows entry must be a string"),
        ("cols", "uniform", "cols must be a list"),
        ("config_digest", 5, "config_digest must be a string"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_report(json.dumps({**valid, key: value}))
    with pytest.raises(ValueError):
        emit_report(table, "yaml")
