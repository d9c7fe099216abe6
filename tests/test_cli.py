"""End-to-end tests for the command-line interface."""

import binascii
import dataclasses
import hashlib
import json
import os
import reprlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import regcoreset
from regcoreset.cli import (
    _EXPERIMENT_FLAGS,
    _TAG_QUERIES,
    _load_coreset,
    _load_instance,
    build_parser,
    dispatch,
)
from regcoreset.conditioning import p_conditioned_basis
from regcoreset.coreset import build_coreset, identity_coreset, verify_coreset
from regcoreset.experiments import (
    _TAG_DATA,
    ExperimentConfig,
    build_experiment_instance,
    canonical_json,
    generate_ng_matrix,
)
from regcoreset.linalg import RegressionInstance, augment, decode_array, encode_array
from regcoreset.objective import ObjectiveSpec
from regcoreset.seeding import mix_seed
from regcoreset.sensitivity import (
    lp_lp_sensitivity_bounds,
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
    uniform_scores,
)
from regcoreset.solvers import (
    solve_lasso,
    solve_lp_lp,
    solve_modified_lasso,
    solve_ridge,
    solve_rlad,
)


def _write_instance(path, design, response):
    path.write_text(
        json.dumps({"design": design, "response": response})
    )
    return str(path)


def test_solve_ridge_hand_instance(tmp_path, capsys):
    inst = _write_instance(tmp_path / "inst.json", [[1.0]], [2.0])
    code = dispatch(["solve", "--instance", inst, "--family", "ridge", "--lambda", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solution"] == pytest.approx([1.0])
    assert doc["converged"] is True
    assert doc["config"]["family"] == "ridge"


def test_gen_ng_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-ng", "--n", "50", "--d", "4", "--seed", "11"]
    assert dispatch(args + ["--out", str(out1)]) == 0
    assert dispatch(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    A = decode_array(doc["design"])
    assert A.shape == (50, 4)
    assert np.array_equal(A[-2:, 2:], np.eye(2))
    assert len(decode_array(doc["response"])) == 50
    assert doc["config"]["seed"] == 11


def test_gen_ng_writes_the_whole_document(tmp_path, capsys):
    # The design's text is written a slice at a time, yet the file is the
    # one canonical document, with the design encoded whole; so is stdout.
    path = tmp_path / "inst.json"
    args = ["gen-ng", "--n", "5000", "--d", "30", "--seed", "2"]
    assert dispatch(args + ["--out", str(path)]) == 0
    text = path.read_text()
    A = generate_ng_matrix(5000, 30, 0.00065, mix_seed(2, _TAG_DATA))
    doc = json.loads(text)
    doc["design"]["base64"] = binascii.b2a_base64(A, newline=False).decode("ascii")
    assert text == canonical_json(doc) + "\n"
    capsys.readouterr()
    assert dispatch(args) == 0
    assert capsys.readouterr().out == text.replace(str(path), "None")


def test_gen_ng_matches_experiment_instance(tmp_path):
    out = tmp_path / "inst.json"
    args = ["gen-ng", "--n", "60", "--d", "4", "--seed", "11", "--out", str(out)]
    assert dispatch(args) == 0
    doc = json.loads(out.read_text())
    instance, x_true = build_experiment_instance(
        ExperimentConfig(n=60, d=4, lambda_grid=(0.5,), sample_sizes=(10,), master_seed=11)
    )
    assert np.array_equal(decode_array(doc["design"]), instance.design)
    assert np.array_equal(decode_array(doc["response"]), instance.response)
    assert np.array_equal(decode_array(doc["x_true"]), x_true)


def test_coreset_and_solve_chain(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert dispatch(["gen-ng", "--n", "80", "--d", "4", "--out", str(inst_path)]) == 0
    core_path = tmp_path / "core.json"
    code = dispatch(
        [
            "coreset",
            "--instance", str(inst_path),
            "--scheme", "ridge-leverage",
            "--lambda", "0.5",
            "--size", "20",
            "--seed", "3",
            "--out", str(core_path),
        ]
    )
    assert code == 0
    doc = json.loads(core_path.read_text())
    assert doc["coreset"]["r"] == 20
    assert doc["coreset"]["scheme"] == "ridge_leverage"
    assert len(doc["coreset"]["weights"]) == 20
    code = dispatch(
        ["solve", "--coreset", str(core_path), "--family", "ridge", "--lambda", "0.5"]
    )
    assert code == 0
    solved = json.loads(capsys.readouterr().out)
    assert len(solved["solution"]) == 4


def test_documents_are_compact_canonical_json(tmp_path):
    inst, core = str(tmp_path / "inst.json"), str(tmp_path / "core.json")
    solved, verified = str(tmp_path / "solve.json"), str(tmp_path / "verify.json")
    family = ["--family", "rlad", "--lambda", "0.5"]
    steps = [
        ["gen-ng", "--n", "60", "--d", "4", "--seed", "3", "--out", inst],
        ["coreset", "--instance", inst, "--scheme", "rlad", "--lambda", "0.5",
         "--size", "20", "--seed", "3", "--out", core],
        ["solve", "--coreset", core, *family, "--out", solved],
        ["verify", "--instance", inst, "--coreset", core, *family,
         "--epsilon", "0.5", "--queries", "20", "--out", verified],
    ]
    for argv in steps:
        assert dispatch(argv) == 0
    for path in (inst, core, solved, verified):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == canonical + "\n"


# The README chain at seed 6: gen-ng, a ridge-leverage coreset, then a
# modified-lasso solve of that coreset at the default --tol.
_SEED6_CHAIN = """
import sys
from regcoreset.cli import dispatch
inst, core, out = sys.argv[1:]
steps = [
    ["gen-ng", "--n", "20000", "--d", "30", "--seed", "6", "--out", inst],
    ["coreset", "--instance", inst, "--scheme", "ridge-leverage",
     "--lambda", "0.5", "--size", "200", "--seed", "6", "--out", core],
    ["solve", "--coreset", core, "--family", "modified_lasso",
     "--lambda", "0.5", "--out", out],
]
for argv in steps:
    if dispatch(argv):
        sys.exit(1)
"""


def _one_blas_thread_env() -> dict:
    """The environment of a subprocess that imports this package on one BLAS thread.

    The gen-ng file's last bits depend on the BLAS thread count.
    """
    return dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.path.dirname(os.path.dirname(regcoreset.__file__)),
    )


def test_default_tol_converges_on_readme_chain(tmp_path):
    # This coreset once held a first-order solver's residual just above a
    # 1e-8 default, so it ran all 20000 iterations and printed converged:
    # false; the active set ends in a few steps with a certified gap.
    paths = [str(tmp_path / name) for name in ("inst.json", "core.json", "out.json")]
    subprocess.run(
        [sys.executable, "-c", _SEED6_CHAIN, *paths], env=_one_blas_thread_env(), check=True,
        timeout=300,
    )
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["converged"] is True
    assert doc["iterations"] < 100


# sha256 of each document of the README chain at n = 400, d = 6 and seed 2,
# on one BLAS thread, less its config echo (which names the files).
_CHAIN_SHA256 = {
    "instance": "d3ba6613335fb72d2e0fa3239a150499a4d8c4980676ac867b3b178e2196cee1",
    "coreset": "1414ba3b87101e6be70a12a00ac70523d0f1a3ee087fa962e458861c7de10b88",
    "solve-instance": "07e679905af9e24faa81c202395388429a1e56c395b81291738e048ecdd4743c",
    "solve-coreset": "6a226969bed0fe04c8b803252ff178854524c6b821d4460a14a00fd51c28008b",
    "verify": "fa100818660ee2d63cd076b3f0230ad207faf90a00efaf3786f5c38ddfa9d45f",
}


def test_readme_chain_documents_keep_their_bytes(tmp_path):
    # Each step runs in its own process, as the README runs it.
    path = {name: str(tmp_path / f"{name}.json") for name in _CHAIN_SHA256}
    lam = ["--family", "modified_lasso", "--lambda", "0.5"]
    steps = {
        "instance": ["gen-ng", "--n", "400", "--d", "6", "--seed", "2"],
        "coreset": ["coreset", "--instance", path["instance"], "--scheme", "ridge-leverage",
                    "--lambda", "0.5", "--size", "50", "--seed", "2"],
        "solve-instance": ["solve", "--instance", path["instance"], *lam],
        "solve-coreset": ["solve", "--coreset", path["coreset"], *lam],
        "verify": ["verify", "--instance", path["instance"], "--coreset", path["coreset"],
                   *lam, "--epsilon", "0.3", "--queries", "500", "--seed", "2"],
    }
    digests = {}
    for name, argv in steps.items():
        subprocess.run([sys.executable, "-m", "regcoreset.cli", *argv, "--out", path[name]],
                       env=_one_blas_thread_env(), check=True, timeout=120)
        doc = json.loads(Path(path[name]).read_text())
        del doc["config"]
        digests[name] = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digests == _CHAIN_SHA256


def test_coreset_epsilon_sizing(tmp_path):
    inst_path = tmp_path / "inst.json"
    dispatch(["gen-ng", "--n", "60", "--d", "4", "--out", str(inst_path)])
    core_path = tmp_path / "core.json"
    code = dispatch(
        [
            "coreset",
            "--instance", str(inst_path),
            "--scheme", "uniform",
            "--epsilon", "0.5",
            "--out", str(core_path),
        ]
    )
    assert code == 0
    doc = json.loads(core_path.read_text())
    assert doc["coreset"]["r"] >= 1
    assert doc["config"] == {
        "subcommand": "coreset", "instance": str(inst_path), "scheme": "uniform",
        "size": None, "epsilon": 0.5, "delta": 0.1, "seed": 0,
    }


def test_coreset_takes_exactly_one_of_size_and_epsilon(tmp_path, capsys):
    inst = _write_instance(tmp_path / "i.json", [[1.0], [2.0]], [1.0, 3.0])
    out = tmp_path / "c.json"
    argv = ["coreset", "--instance", inst, "--scheme", "uniform", "--out", str(out)]
    for sizing in ([], ["--size", "2", "--epsilon", "0.5"]):
        assert dispatch([*argv, *sizing]) == 1, sizing
        assert "give exactly one of --size or --epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_verify_identity_coreset(tmp_path, capsys):
    rng = np.random.default_rng(2)
    design = rng.standard_normal((30, 3))
    response = rng.standard_normal(30)
    inst_path = _write_instance(
        tmp_path / "inst.json", design.tolist(), response.tolist()
    )
    core = identity_coreset(RegressionInstance(design, response))
    core_path = tmp_path / "core.json"
    core_path.write_text(json.dumps(core.to_dict()))
    code = dispatch(
        [
            "verify",
            "--instance", inst_path,
            "--coreset", str(core_path),
            "--family", "ridge",
            "--lambda", "1.0",
            "--epsilon", "0.5",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["max_relative_deviation"] == 0.0


def test_experiment_outputs_are_byte_identical(tmp_path):
    config = {
        "n": 60,
        "d": 4,
        "lambda_grid": [0.5],
        "sample_sizes": [10],
        "schemes": ["uniform"],
        "objective_family": "ridge",
        "trials_per_cell": 3,
        "master_seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outs = [tmp_path / f"r{i}.json" for i in range(3)]
    for out in outs:
        code = dispatch(
            ["experiment", "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    doc = json.loads(outs[0].read_text())
    assert set(doc) == {"config", "table"}
    assert doc["config"]["master_seed"] == 5


def test_experiment_csv_format(tmp_path, capsys):
    code = dispatch(
        [
            "experiment",
            "--n", "60",
            "--d", "4",
            "--lambda-grid", "0.5",
            "--sample-sizes", "10",
            "--schemes", "uniform",
            "--objective-family", "ridge",
            "--trials-per-cell", "3",
            "--master-seed", "5",
            "--format", "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("label,uniform\n")
    assert len(out.strip().splitlines()) == 2


def test_sparsity_subcommand(tmp_path, capsys):
    code = dispatch(
        [
            "sparsity",
            "--n", "60",
            "--d", "4",
            "--lambda-grid", "0,0.5",
            "--objective-family", "ridge",
            "--master-seed", "7",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"]["rows"] == ["lasso", "modified_lasso", "ridge"]


def test_lowerbound_default_emits_witness(capsys):
    assert dispatch(["lowerbound"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "violation"
    assert doc["witness"]["direction"] == "undershoot"
    assert doc["witness"]["regularized_ratio"] < 1.0


def test_lowerbound_matching_exponents(capsys):
    assert dispatch(["lowerbound", "--r", "2", "--s", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "theorem-inapplicable"


def test_lowerbound_instance_without_coreset_names_both_widths(tmp_path, capsys):
    # The default coreset has two columns; this instance's A' has four.
    rng = np.random.default_rng(0)
    inst = _write_instance(
        tmp_path / "i.json", rng.standard_normal((10, 3)).tolist(),
        rng.standard_normal(10).tolist(),
    )
    assert dispatch(["lowerbound", "--instance", inst]) == 1
    assert "2 columns but aprime has 4" in capsys.readouterr().err


def test_lowerbound_rejects_a_coreset_of_another_n(tmp_path, capsys):
    paths = {}
    for n in (40, 60):
        paths[n] = str(tmp_path / f"i{n}.json")
        assert dispatch(["gen-ng", "--n", str(n), "--d", "4", "--out", paths[n]]) == 0
    core = str(tmp_path / "c40.json")
    assert dispatch(["coreset", "--instance", paths[40], "--scheme", "uniform",
                     "--size", "10", "--out", core]) == 0
    assert dispatch(["lowerbound", "--instance", paths[60], "--coreset", core]) == 1
    assert "coreset was drawn from 40 rows but instance has n=60" in capsys.readouterr().err
    assert dispatch(["lowerbound", "--instance", paths[40], "--coreset", core]) == 0
    assert dispatch(["lowerbound", "--coreset", core]) == 1  # widths differ, not n
    assert "columns" in capsys.readouterr().err
    # The default coreset (n_source 2) runs against an instance of any n.
    rng = np.random.default_rng(0)
    inst = _write_instance(tmp_path / "d1.json", rng.standard_normal((10, 1)).tolist(),
                           rng.standard_normal(10).tolist())
    assert dispatch(["lowerbound", "--instance", inst]) == 0


def test_non_finite_lambda_exits_one(tmp_path, capsys):
    inst, core = str(tmp_path / "inst.json"), str(tmp_path / "core.json")
    assert dispatch(["gen-ng", "--n", "60", "--d", "4", "--out", inst]) == 0
    assert dispatch(["coreset", "--instance", inst, "--scheme", "uniform",
                     "--size", "20", "--out", core]) == 0
    capsys.readouterr()
    for argv in (
        ["solve", "--instance", inst, "--family", "rlad", "--lambda", "nan"],
        ["solve", "--instance", inst, "--family", "ridge", "--lambda", "inf"],
        ["verify", "--instance", inst, "--coreset", core, "--family", "ridge",
         "--lambda", "inf", "--epsilon", "0.5"],
        ["coreset", "--instance", inst, "--scheme", "ridge-leverage", "--size", "5",
         "--lambda", "nan"],
        ["lowerbound", "--lambda", "nan"],
        ["experiment", "--n", "60", "--d", "4", "--lambda-grid", "nan"],
    ):
        assert dispatch(argv) == 1, argv
        assert "must be" in capsys.readouterr().err, argv


def test_lowerbound_echoes_every_setting(tmp_path, capsys):
    rng = np.random.default_rng(0)
    design = rng.standard_normal((12, 2))
    inst = _write_instance(
        tmp_path / "i.json", design.tolist(), rng.standard_normal(12).tolist()
    )
    core = tmp_path / "c.json"
    assert dispatch(["coreset", "--instance", inst, "--scheme", "uniform",
                     "--size", "3", "--out", str(core)]) == 0
    assert dispatch(["lowerbound", "--instance", inst, "--coreset", str(core),
                     "--lambda", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "subcommand": "lowerbound", "instance": inst, "coreset": str(core),
        "p": 2.0, "q": 1.0, "r": 2.0, "s": 1.0, "lambda": 5.0, "epsilon": 0.1,
        "seed": 0,
    }
    # A misspelled setting is an error, not a silent default.
    assert dispatch(["lowerbound", "--lamda", "5"]) == 1
    assert "--lamda" in capsys.readouterr().err


def test_invalid_inputs_exit_one(tmp_path, capsys):
    inst = _write_instance(tmp_path / "i.json", [[1.0]], [2.0])
    assert dispatch(["frobnicate"]) == 1
    assert dispatch([]) == 1
    assert (
        dispatch(["solve", "--instance", inst, "--family", "ridge", "--lambda", "-1"])
        == 1
    )
    core_path = tmp_path / "c.json"
    core = identity_coreset(RegressionInstance(np.eye(2), np.ones(2)))
    core_path.write_text(json.dumps(core.to_dict()))
    inst2 = _write_instance(tmp_path / "i2.json", np.eye(2).tolist(), [1.0, 1.0])
    assert (
        dispatch(
            [
                "verify",
                "--instance", inst2,
                "--coreset", str(core_path),
                "--epsilon", "1.5",
            ]
        )
        == 1
    )
    inst3 = _write_instance(tmp_path / "rows3.json", np.ones((3, 2)).tolist(), [1.0, 1.0, 1.0])
    assert dispatch(["verify", "--instance", inst3, "--coreset", str(core_path),
                     "--epsilon", "0.5"]) == 1
    assert "coreset was drawn from 2 rows but instance has n=3" in capsys.readouterr().err
    assert dispatch(["coreset", "--instance", inst, "--scheme", "uniform"]) == 1
    assert dispatch(["solve", "--family", "ridge"]) == 1
    assert dispatch(["solve", "--instance", inst, "--coreset", inst, "--family", "ridge"]) == 1
    assert dispatch(["experiment", "--n", "60", "--d", "4", "--threads", "2"]) == 1
    for text in ("[1, 2]", '{"config": 5, "coreset": {}}', '{"coreset": 5}'):
        core_path.write_text(text)
        assert dispatch(["solve", "--coreset", str(core_path), "--family", "ridge"]) == 1
    capsys.readouterr()
    inst_path = tmp_path / "i3.json"
    for text in ("5", '"design response"', "[1, 2]"):
        inst_path.write_text(text)
        assert dispatch(["solve", "--instance", str(inst_path), "--family", "ridge"]) == 1
        assert dispatch(["verify", "--instance", str(inst_path), "--coreset", inst2,
                         "--epsilon", "0.5"]) == 1
        assert capsys.readouterr().err.count("does not hold a JSON object") == 2


def test_malformed_encoded_instance_exits_one(tmp_path, capsys, malformed_arrays):
    inst = tmp_path / "inst.json"
    for case, (bad, words) in malformed_arrays.items():
        inst.write_text(json.dumps({"design": bad, "response": encode_array([1.0, 2.0])}))
        assert dispatch(["solve", "--instance", str(inst), "--family", "ridge"]) == 1, case
        err = capsys.readouterr().err
        assert err.startswith("error: design ") and words in err, case


def test_loading_an_instance_holds_about_three_designs(tmp_path):
    # Reading keeps the file's text and the decoded bytes, and copies neither
    # whole: the traced peak stays under 3.5 times the design's bytes.
    rng = np.random.default_rng(5)
    design, response = rng.standard_normal((20_000, 30)), rng.standard_normal(20_000)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"design": encode_array(design),
                                "response": encode_array(response)}))
    tracemalloc.start()
    try:
        instance = _load_instance(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * design.nbytes
    for loaded, original in ((instance.design, design), (instance.response, response)):
        assert not loaded.flags.writeable
        assert loaded.tobytes() == original.tobytes()


def test_gen_ng_rejects_non_finite_settings(tmp_path, capsys):
    # Every reader rejects the instance a NaN or Inf setting would write.
    out = tmp_path / "inst.json"
    for flag, field in (("--alpha", "alpha"), ("--noise-scale", "noise_scale")):
        for value in ("nan", "inf"):
            argv = ["gen-ng", "--n", "20", "--d", "4", flag, value, "--out", str(out)]
            assert dispatch(argv) == 1, (flag, value)
            assert f"error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_solve_has_no_iteration_cap_flag(tmp_path, capsys):
    # The caps are solver constants: --max-iter is an unknown flag.
    inst = _write_instance(tmp_path / "i.json", [[1.0], [2.0]], [1.0, 3.0])
    argv = ["solve", "--instance", inst, "--family", "lasso", "--lambda", "0.5",
            "--out", str(tmp_path / "s.json")]
    assert dispatch(argv) == 0
    assert dispatch([*argv, "--max-iter", "5"]) == 1
    capsys.readouterr()


def test_sampling_and_witness_recipes_have_no_flags(tmp_path, capsys):
    # The sample-size constant and the witness search's probe count are
    # constants of their recipes: --constant and --probes are unknown flags.
    inst = _write_instance(tmp_path / "i.json", [[1.0], [2.0]], [1.0, 3.0])
    coreset = ["coreset", "--instance", inst, "--scheme", "uniform", "--epsilon", "0.5",
               "--out", str(tmp_path / "c.json")]
    assert dispatch(coreset) == 0
    assert dispatch([*coreset, "--constant", "0.5"]) == 1
    assert dispatch(["lowerbound"]) == 0
    assert dispatch(["lowerbound", "--probes", "200"]) == 1
    err = capsys.readouterr().err
    assert "--constant" in err and "--probes" in err


# Every subcommand's flags.  A new setting is a change to this table.
_FLAGS = {
    "gen-ng": "--n --d --alpha --noise-scale --seed --out",
    "coreset": "--instance --scheme --lambda --size --epsilon --delta --p --seed --out",
    "solve": "--instance --coreset --family --lambda --p --tol --out",
    "verify": "--instance --coreset --family --lambda --p --epsilon --queries --seed --out",
    **dict.fromkeys(("experiment", "sparsity"),
                    "--config --n --d --master-seed --trials-per-cell --objective-family "
                    "--ng-alpha --noise-scale --lambda-grid --sample-sizes --schemes "
                    "--csv-path --target-column --format --out"),
    "lowerbound": "--instance --coreset --p --q --r --s --lambda --epsilon --seed --out",
}


def test_flag_inventory():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    flags = {
        name: " ".join(f for a in parser._actions for f in a.option_strings
                       if f not in ("-h", "--help"))
        for name, parser in sub.choices.items()
    }
    assert flags == _FLAGS
    assert sum(len(f.split()) for f in flags.values()) == 71


def test_malformed_list_flags_name_their_field(capsys):
    for flag, text, field in (("--lambda-grid", "x,1", "lambda_grid"),
                              ("--sample-sizes", "2.5", "sample_sizes")):
        flags = {"--lambda-grid": "1", "--sample-sizes": "20", flag: text}
        args = ["experiment", "--n", "300", "--d", "4"]
        for name, value in flags.items():
            args += [name, value]
        assert dispatch(args) == 1
        assert f"error: {field}: " in capsys.readouterr().err


# A config that runs: each config case below changes one of its fields.
_GOOD_CONFIG = {"n": 60, "d": 4, "lambda_grid": [0.5], "sample_sizes": [10],
                "schemes": ["uniform"], "objective_family": "ridge", "trials_per_cell": 1}
# A 400-digit integer: JSON allows it, and no float64 or int64 holds it.
_HUGE = 10**400
# (what, field, value): a config or coreset document with one field, or the
# first (or second) entry of one list field, set to value; a list-form
# instance with the first entry of its design or response set to value; a
# config of a CSV instance with one field set to value; or a flag set to
# value.  Each such input ran, or stopped on an internal error, before every
# document field and flag went through an input rule, and every array
# through one rule by entry type.
_MALFORMED = [
    ("config", "config", [1, 2]),  # the whole file
    *[("config", field, value) for field, values in (
        ("n", [None, "60", 60.5]),
        ("d", ["4", 4.0]),
        ("trials_per_cell", [None, "1", 1.0, True]),
        ("master_seed", [None, 1.5, True, "1"]),
        ("ng_alpha", [None, "x"]),
        ("noise_scale", [None, "x"]),
        ("sample_sizes", [[2.5]]),
        ("normalize", ["no"]),
    ) for value in values],
    *[("coreset", field, value) for field, value in (
        ("n", None), ("d", None), ("r", None), ("seed", None),
        ("n", 1.5), ("seed", 1.5), ("source_indices", 1.5), ("scheme", 3),
    )],
    ("coreset entry", "source_indices", 0.5),
    ("coreset entry", "weights", {}),
    ("coreset entry", "sampled_rows", {}),
    # ng_path's n is 120, so an index must lie in [0, 120).
    *[("coreset entry", "source_indices", value) for value in (-1, 120, 10**30)],
    ("coreset entry", "weights", _HUGE),
    # A rule on numpy's inferred dtype alone would let these through, as
    # numpy reads [w, true, ...] as floats.
    ("coreset second entry", "weights", True),
    ("coreset second entry", "sampled_rows", True),
    *[("instance", "design", value) for value in ("1", True, {}, _HUGE)],
    ("instance", "response", "1"),
    ("csv config", "ng_alpha", "x"),
    ("csv config", "ng_alpha", None),
    ("csv config", "noise_scale", None),
    ("coreset --epsilon", "epsilon", "1e-200"),
    ("coreset --epsilon", "epsilon", "1e-160"),
    *[("solve --tol", "tol", value) for value in ("nan", "-1", "0", "inf")],
]


@pytest.mark.parametrize(
    "what, field, value", _MALFORMED,
    ids=[f"{what}-{field}-{reprlib.repr(value)}" for what, field, value in _MALFORMED],
)
def test_malformed_input_exits_one_and_names_its_field(ng_path, tmp_path, capsys,
                                                       what, field, value):
    doc = tmp_path / "doc.json"
    if what == "config":
        doc.write_text(json.dumps(value if field == "config" else {**_GOOD_CONFIG, field: value}))
        argv = ["experiment", "--config", str(doc)]
    elif what == "coreset --epsilon":
        argv = ["coreset", "--instance", ng_path, "--scheme", "uniform", "--epsilon", value]
    elif what == "solve --tol":
        argv = ["solve", "--instance", ng_path, "--family", "rlad", "--lambda", "0.5",
                "--tol", value]
    elif what == "instance":
        inst = {"design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "response": [1.0, 2.0, 3.0]}
        (inst["design"][0] if field == "design" else inst["response"])[0] = value
        doc.write_text(json.dumps(inst))
        argv = ["solve", "--instance", str(doc), "--family", "ridge"]
    elif what == "csv config":
        # With valid NG settings this config runs on the 4-row CSV and exits 0.
        csv = tmp_path / "d.csv"
        csv.write_text("a,b,y\n1,0,1\n0,1,2\n1,1,3\n2,1,5\n")
        doc.write_text(json.dumps({**_GOOD_CONFIG, "csv_path": str(csv), "target_column": "y",
                                   field: value}))
        argv = ["experiment", "--config", str(doc)]
    else:  # a coreset document
        assert dispatch(["coreset", "--instance", ng_path, "--scheme", "uniform",
                         "--size", "5", "--out", str(doc)]) == 0
        core = json.loads(doc.read_text())["coreset"]
        if what == "coreset entry":
            core[field][0] = value
        elif what == "coreset second entry":
            core[field][1] = value
        else:
            core[field] = value
        doc.write_text(json.dumps(core))
        argv = ["solve", "--coreset", str(doc), "--family", "ridge"]
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}")


def test_missing_file_exits_one(tmp_path, capsys):
    assert (
        dispatch(["solve", "--instance", str(tmp_path / "nope.json"), "--family", "ridge"])
        == 1
    )
    capsys.readouterr()


def test_module_entry_point_runs_main():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(regcoreset.__file__)))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "regcoreset.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == regcoreset.__version__ == "0.1.0"
    assert run("experiment", "--threads", "2", "--n", "60", "--d", "4").returncode == 1


@pytest.fixture(scope="module")
def ng_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("ng") / "inst.json"
    argv = ["gen-ng", "--n", "120", "--d", "4", "--seed", "4", "--out", str(path)]
    assert dispatch(argv) == 0
    return str(path)


def _read_instance(path):
    doc = json.loads(Path(path).read_text())
    return RegressionInstance(doc["design"], doc["response"])


# scheme -> (extra flags, score builder on (instance, A'))
_SCHEMES = {
    "uniform": ([], lambda inst, ap: uniform_scores(inst.n)),
    "ridge-leverage": ([], lambda inst, ap: ridge_leverage_scores(inst, 0.5)),
    "lp-lp": (
        ["--p", "1.5"],
        lambda inst, ap: lp_lp_sensitivity_bounds(p_conditioned_basis(ap, 1.5), 0.5),
    ),
    "rlad": (
        [],
        lambda inst, ap: rlad_sensitivity_bounds(p_conditioned_basis(ap, 1.0), 0.5),
    ),
}


@pytest.mark.parametrize("case", sorted(_SCHEMES))
def test_coreset_document_matches_library(ng_path, tmp_path, case):
    flags, scores_for = _SCHEMES[case]
    out = tmp_path / "core.json"
    argv = ["coreset", "--instance", ng_path, "--scheme", case, "--lambda", "0.5",
            "--size", "30", "--seed", "9", "--out", str(out), *flags]
    assert dispatch(argv) == 0
    doc = json.loads(out.read_text())
    instance = _read_instance(ng_path)
    scores = scores_for(instance, augment(instance))
    expected = build_coreset(instance, scores, 30, 9)
    assert doc["coreset"] == expected.to_dict()
    # Echoed are only the flags the scheme reads: --size sizing ignores
    # --epsilon, --delta and --constant, uniform scores ignore --lambda, and
    # only the lp-lp bounds read --p.
    expected_config = {
        "subcommand": "coreset", "instance": ng_path, "scheme": case,
        "lambda": 0.5, "size": 30, "seed": 9,
    }
    if case == "uniform":
        del expected_config["lambda"]
    if case == "lp-lp":
        expected_config["p"] = 1.5
    assert doc["config"] == expected_config


# family -> (extra flags, p echoed, library call at the CLI defaults)
_FAMILY_SOLVES = {
    "ridge": ([], 2.0, lambda inst: solve_ridge(inst, 0.5)),
    "lasso": ([], 2.0, lambda inst: solve_lasso(inst, 0.5, tol=1e-7)),
    "modified_lasso": ([], 2.0, lambda inst: solve_modified_lasso(inst, 0.5, tol=1e-7)),
    "rlad": ([], 1.0, lambda inst: solve_rlad(inst, 0.5, tol=1e-7)),
    "lp_lp": (["--p", "1.5"], 1.5, lambda inst: solve_lp_lp(inst, 1.5, 0.5, tol=1e-7)),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_SOLVES))
def test_solve_document_matches_library(ng_path, tmp_path, family):
    flags, p, solve = _FAMILY_SOLVES[family]
    out = tmp_path / "solve.json"
    argv = ["solve", "--instance", ng_path, "--family", family, "--lambda", "0.5",
            "--out", str(out), *flags]
    assert dispatch(argv) == 0
    doc = json.loads(out.read_text())
    result = solve(_read_instance(ng_path))
    expected_config = {
        "subcommand": "solve", "instance": ng_path, "coreset": None, "family": family,
        "lambda": 0.5, "p": p, "tol": 1e-7,
    }
    if family == "ridge":  # the closed form reads no --tol
        del expected_config["tol"]
    assert doc.pop("config") == expected_config
    assert doc == json.loads(json.dumps({
        "solution": result.solution.tolist(),
        "objective_value": result.objective_value,
        "iterations": result.iterations,
        "converged": result.converged,
        "optimality_residual": result.optimality_residual,
        "gap": result.gap if np.isfinite(result.gap) else None,
    }))


def test_solve_document_reports_the_certified_gap(ng_path, tmp_path):
    out = tmp_path / "solve.json"
    flags = ["--instance", ng_path, "--lambda", "0.5", "--out", str(out)]
    assert dispatch(["solve", *flags, "--family", "modified_lasso", "--tol", "1e-9"]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert 0.0 <= doc["gap"] <= 1e-9
    # Ridge certifies no gap; inf would be written as Infinity, which is not JSON.
    assert dispatch(["solve", *flags, "--family", "ridge"]) == 0
    assert '"gap":null' in out.read_text()


def test_readme_chain_exits_zero_and_echoes_config(tmp_path):
    inst, core, out = (str(tmp_path / name) for name in ("i.json", "c.json", "v.json"))
    family = ["--family", "modified_lasso", "--lambda", "0.5"]
    assert dispatch(["gen-ng", "--n", "200", "--d", "6", "--seed", "2", "--out", inst]) == 0
    assert dispatch(["coreset", "--instance", inst, "--scheme", "ridge-leverage",
                     "--lambda", "0.5", "--size", "40", "--out", core]) == 0
    assert dispatch(["solve", "--coreset", core, *family, "--out", out]) == 0
    assert dispatch(["verify", "--instance", inst, "--coreset", core, *family,
                     "--epsilon", "0.3", "--queries", "50", "--out", out]) == 0
    assert json.loads(Path(out).read_text())["config"] == {
        "subcommand": "verify", "instance": inst, "coreset": core,
        "family": "modified_lasso", "lambda": 0.5, "p": 2.0, "epsilon": 0.3,
        "queries": 50, "seed": 0,
    }
    assert json.loads(Path(inst).read_text())["config"] == {
        "subcommand": "gen-ng", "n": 200, "d": 6, "alpha": 0.00065,
        "noise_scale": 1e-5, "seed": 2,
    }


def test_bare_and_wrapped_coreset_documents_read_the_same(ng_path, tmp_path):
    wrapped, bare = tmp_path / "core.json", tmp_path / "bare.json"
    assert dispatch(["coreset", "--instance", ng_path, "--scheme", "ridge-leverage",
                     "--lambda", "0.5", "--size", "30", "--out", str(wrapped)]) == 0
    bare.write_text(json.dumps(json.loads(wrapped.read_text())["coreset"]))
    # One document serves every loss exponent: its rows are weighted only
    # where a loss is evaluated.
    for family in ("ridge", "rlad", "lp_lp"):
        flags = ["--family", family, "--lambda", "0.5", "--p", "3"]
        docs = []
        for core in (wrapped, bare):
            solved, verified = tmp_path / "s.json", tmp_path / "v.json"
            assert dispatch(["solve", "--coreset", str(core), *flags,
                             "--out", str(solved)]) == 0
            assert dispatch(["verify", "--instance", ng_path, "--coreset", str(core),
                             *flags, "--epsilon", "0.9", "--queries", "20",
                             "--out", str(verified)]) == 0
            docs.append([{k: v for k, v in json.loads(path.read_text()).items()
                          if k != "config"} for path in (solved, verified)])
        assert docs[0] == docs[1]


def test_list_and_encoded_instance_documents_read_the_same(ng_path, tmp_path):
    doc = json.loads(Path(ng_path).read_text())
    listed = dict(doc, **{key: decode_array(doc[key]).tolist()
                          for key in ("design", "response", "x_true")})
    listed_path = tmp_path / "listed.json"
    listed_path.write_text(json.dumps(listed))
    core, solved, verified = (str(tmp_path / name) for name in ("c.json", "s.json", "v.json"))
    family = ["--family", "rlad", "--lambda", "0.5"]
    outputs = []
    for inst in (ng_path, str(listed_path)):
        for argv in (
            ["coreset", "--instance", inst, "--scheme", "rlad", "--lambda", "0.5",
             "--size", "30", "--seed", "3", "--out", core],
            ["solve", "--instance", inst, *family, "--out", solved],
            ["solve", "--coreset", core, *family, "--out", solved],
            ["verify", "--instance", inst, "--coreset", core, *family,
             "--epsilon", "0.5", "--queries", "20", "--out", verified],
        ):
            assert dispatch(argv) == 0
            # Only the config echo of the instance path may differ.
            outputs.append(Path(argv[-1]).read_text().replace(json.dumps(inst), "INST"))
    assert outputs[:4] == outputs[4:]


def test_coreset_document_of_the_former_format_exits_one(ng_path, tmp_path, capsys):
    # The former document stored rows pre-scaled by weight^(1/p) under "rows";
    # read as unweighted rows they would be weighted twice, so it is refused.
    core = tmp_path / "core.json"
    assert dispatch(["coreset", "--instance", ng_path, "--scheme", "uniform",
                     "--size", "30", "--out", str(core)]) == 0
    doc = json.loads(core.read_text())
    body = doc["coreset"]
    body["rows"] = body.pop("sampled_rows")
    doc["config"]["p"] = 2.0
    for former in (doc, body):
        core.write_text(json.dumps(former))
        assert dispatch(["solve", "--coreset", str(core), "--family", "ridge"]) == 1
        assert dispatch(["verify", "--instance", ng_path, "--coreset", str(core),
                         "--epsilon", "0.5"]) == 1
        assert dispatch(["lowerbound", "--instance", ng_path, "--coreset", str(core)]) == 1
    assert capsys.readouterr().err.count("missing keys: ['sampled_rows']") == 6


def test_experiment_reads_csv_config(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 4))
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        "a,b,c,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
    )
    config = {
        "n": 40, "d": 3, "lambda_grid": [0.5], "sample_sizes": [10],
        "schemes": ["uniform"], "objective_family": "ridge", "trials_per_cell": 1,
        "csv_path": str(csv_path), "target_column": "y",
    }
    config_path, out = tmp_path / "config.json", tmp_path / "table.json"
    config_path.write_text(json.dumps(config))
    assert dispatch(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["csv_path"] == str(csv_path)
    assert doc["config"]["target_column"] == "y"
    del config["target_column"]
    config_path.write_text(json.dumps(config))
    assert dispatch(["experiment", "--config", str(config_path), "--out", str(out)]) == 1


def test_verify_document_is_the_library_report(ng_path, tmp_path):
    core, out = tmp_path / "core.json", tmp_path / "verify.json"
    assert dispatch(["coreset", "--instance", ng_path, "--scheme", "ridge-leverage",
                     "--lambda", "0.5", "--size", "30", "--seed", "2",
                     "--out", str(core)]) == 0
    assert dispatch(["verify", "--instance", ng_path, "--coreset", str(core),
                     "--family", "rlad", "--lambda", "0.5", "--epsilon", "0.3",
                     "--queries", "40", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["config"]
    instance = _read_instance(ng_path)
    queries = np.random.default_rng(mix_seed(7, _TAG_QUERIES)).standard_normal((40, 4))
    report = verify_coreset(instance, _load_coreset(str(core)),
                            ObjectiveSpec.for_family("rlad", 0.5), list(queries), 0.3)
    assert doc == dataclasses.asdict(report)


# The flag-settable fields of a synthetic run (the CSV fields are covered by
# test_experiment_reads_csv_config), as flag text and as --config value.
_EXPERIMENT_SETTINGS = {
    "n": ("60", 60),
    "d": ("4", 4),
    "master_seed": ("5", 5),
    "trials_per_cell": ("3", 3),
    "objective_family": ("ridge", "ridge"),
    "ng_alpha": ("0.001", 0.001),
    "noise_scale": ("1e-4", 1e-4),
    "lambda_grid": ("0.1,1", [0.1, 1.0]),
    "sample_sizes": ("10,20", [10, 20]),
    "schemes": ("uniform,identity", ["uniform", "identity"]),
}


@pytest.mark.parametrize("command", ["experiment", "sparsity"])
def test_experiment_flags_and_config_file_write_the_same_document(tmp_path, command):
    flags = []
    for name, (text, _) in _EXPERIMENT_SETTINGS.items():
        flags += ["--" + name.replace("_", "-"), text]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({k: v for k, (_, v) in _EXPERIMENT_SETTINGS.items()}))
    by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
    assert dispatch([command, *flags, "--out", str(by_flags)]) == 0
    assert dispatch([command, "--config", str(config), "--out", str(by_file)]) == 0
    assert by_flags.read_bytes() == by_file.read_bytes()


def test_experiment_flags_are_the_config_fields():
    # A config field without a flag must be declared --config-only here.
    fields = set(ExperimentConfig.__dataclass_fields__)
    assert set(_EXPERIMENT_FLAGS) <= fields
    assert fields - set(_EXPERIMENT_FLAGS) == {"normalize"}
