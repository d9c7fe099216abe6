"""One repetition of one workload, run in its own process.

    python3 perfbench/workload.py --workload rlad-sizes --seed 2 --trace 0 \
        --spawned <time.monotonic() at spawn> --work DIR [--n ROWS]
    python3 perfbench/workload.py --setup-probe --spawned <...>

PYTHONPATH must put the checkout's ``src`` first.  The process prints one
JSON object: the end-to-end figures of this repetition, the per-layer figures
when traced, the solver operations it attempted and failed, and the problems
the correctness checks found.  A layer that is expected on the workload but
recorded no call makes the process exit 3 instead: a wrapper was bypassed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time

import regcoreset  # setup_s ends once the package is imported

READY = time.monotonic()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import layers  # noqa: E402
from spans import Recorder  # noqa: E402

D = 30
SIZES = (30, 50, 100, 150, 200)
# Rows per instance.  rlad-sizes is the RLAD acceptance table (n=20000, five
# trials per cell): one repetition takes 25-130 s and 3.1 GB, and its
# full-data ADMM solve takes 5000-10000 iterations depending on the seed.
# rlad-small runs the same table at n=400 with one trial per cell, on
# RLAD_SMALL_TABLES instances drawn from the seed, so that a repetition takes
# about 9 s on a 2-vCPU VM and the solver iterations it sums vary by about 4%
# (IQR/median) between seeds instead of by a factor of two.  At n=2000 the
# full-data ADMM solve stalls at its iteration cap on five of seeds 0-5.
DEFAULT_N = {"rlad-sizes": 20_000, "rlad-small": 400, "l2-tables": 20_000,
             "cli-chain": 20_000}
RLAD_SMALL_TABLES = 16


def _rlad_table(n: int, master_seed: int, trials: int = 5):
    return regcoreset.ExperimentConfig(
        n=n, d=D, lambda_grid=(0.5,), sample_sizes=SIZES,
        schemes=("rlad_sensitivity", "uniform"), objective_family="rlad",
        trials_per_cell=trials, master_seed=master_seed)


def experiment_plan(workload: str, n: int, seed: int) -> list:
    """(kind, config) pairs, run back to back in one process."""
    cfg = regcoreset.ExperimentConfig
    if workload == "rlad-sizes":
        return [("relative", _rlad_table(n, seed))]
    if workload == "rlad-small":
        return [("relative", _rlad_table(n, regcoreset.mix_seed(seed, k), trials=1))
                for k in range(RLAD_SMALL_TABLES)]
    if workload == "l2-tables":
        l2 = dict(n=n, d=D, schemes=("ridge_leverage", "uniform"),
                  objective_family="modified_lasso", master_seed=seed)
        return [
            ("relative", cfg(lambda_grid=(0.5,), sample_sizes=SIZES, **l2)),
            ("relative", cfg(lambda_grid=(0.1, 0.5, 1.0, 5.0), sample_sizes=(200,), **l2)),
            ("sparsity", cfg(n=n, d=D, lambda_grid=(0.0, 0.05, 0.2, 1.0, 5.0, 20.0),
                             sample_sizes=(30,), schemes=("uniform",),
                             objective_family="modified_lasso", master_seed=seed)),
        ]
    raise ValueError(f"{workload!r} is not an experiment workload")


def run_experiments(workload: str, n: int, seed: int, trace: bool, work: str) -> dict:
    plan = experiment_plan(workload, n, seed)
    rec = Recorder(timed=trace)
    rec.install("experiments")
    problems, texts, sampled = [], [], []
    start = time.perf_counter()
    for kind, config in plan:
        try:
            with rec.span("experiments.run"):
                if kind == "relative":
                    table = regcoreset.run_relative_error_experiment(config, threads=1)
                else:
                    table = regcoreset.run_sparsity_experiment(config)
            with rec.span("experiments.report"):
                text = regcoreset.emit_report(table, "json")
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        problems += checks.check_report(kind, config, text, regcoreset)
        texts.append(text)
        if kind == "relative":
            sampled += [row[0] for row in table.cells]  # the importance-sampling column
    wall = time.perf_counter() - start

    solves = [s for s in rec.spans if s["name"] == "solvers.solve"]
    if not any(s.get("full") for s in solves) or not any(s.get("full") is False for s in solves):
        print(f"{workload}: the solver wrappers saw {len(solves)} calls and not both "
              "full-data and coreset solves; a solver entry point was bypassed",
              file=sys.stderr)
        sys.exit(3)
    failed = sum(1 for s in solves if s.get("raised") or not s.get("converged"))
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(solves),
        "failed": failed,
        "problems": problems,
        "quality": {
            "err_sampled": sum(sampled) / len(sampled) if sampled else math.nan,
            "full_obj": sum(s["objective"] for s in solves if s.get("full") and "objective" in s),
        },
        "digest": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
    }
    if trace:
        result["layers"] = layers.layer_metrics(workload, rec.spans)
        os.makedirs(work, exist_ok=True)
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    return result


def _run_step(args: list[str], env: dict, trace_file: str | None) -> dict:
    """Spawn one CLI process and wait for it; return its exit code and peak RSS."""
    step = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_step.py")
    env = dict(env)
    if trace_file:
        env["PERFBENCH_TRACE"] = trace_file
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, step, *args], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stderr": stderr.decode(errors="replace")[-2000:],
    }


def chain_steps(n: int, seed: int, work: str) -> list[tuple[str, list[str], list[str], str]]:
    """(name, argv, files read, file written) for the README chain."""
    inst, core = os.path.join(work, "instance.json"), os.path.join(work, "coreset.json")
    out = {name: os.path.join(work, f"{name}.json")
           for name in ("solve-instance", "solve-coreset", "verify")}
    lam = ["--family", "modified_lasso", "--lambda", "0.5"]
    return [
        ("gen-ng", ["gen-ng", "--n", str(n), "--d", str(D), "--seed", str(seed),
                    "--out", inst], [], inst),
        ("coreset", ["coreset", "--instance", inst, "--scheme", "ridge-leverage",
                     "--lambda", "0.5", "--size", "200", "--seed", str(seed),
                     "--out", core], [inst], core),
        ("solve-instance", ["solve", "--instance", inst, *lam,
                            "--out", out["solve-instance"]], [inst], out["solve-instance"]),
        # The harness's coreset tolerance (experiments._solve): at the CLI's
        # default 1e-8 the stall test never passes on some coresets (seeds 6,
        # 39 and 45 of 0-48), though 1e-7 converges there in under 20
        # iterations to the same objective.
        ("solve-coreset", ["solve", "--coreset", core, *lam, "--tol", "1e-7",
                           "--out", out["solve-coreset"]], [core], out["solve-coreset"]),
        ("verify", ["verify", "--instance", inst, "--coreset", core, *lam,
                    "--epsilon", "0.3", "--queries", "500", "--seed", str(seed),
                    "--out", out["verify"]], [inst, core], out["verify"]),
    ]


def run_chain(n: int, seed: int, trace: bool, work: str) -> dict:
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    steps = chain_steps(n, seed, work)
    trace_files = {name: os.path.join(work, f"{name}.spans.json") for name, *_ in steps}
    runs = {}
    start = time.perf_counter()
    for name, args, _, _ in steps:
        runs[name] = _run_step(args, env, trace_files[name] if trace else None)
        if runs[name]["code"] != 0:
            break
    wall = time.perf_counter() - start

    outcome = {}
    for name, _, _, written in steps:
        if name not in runs:
            outcome[name] = {"code": None, "doc": None}
            continue
        doc = None
        if runs[name]["code"] == 0 and name != "gen-ng":
            with open(written, encoding="utf-8") as fh:
                doc = json.load(fh)
        outcome[name] = {"code": runs[name]["code"], "doc": doc}

    at_core = None
    if all(o["code"] == 0 for o in outcome.values()):
        with open(steps[0][3], encoding="utf-8") as fh:
            doc = json.load(fh)
        instance = regcoreset.RegressionInstance(doc["design"], doc["response"])
        at_core = regcoreset.evaluate_objective(
            instance, outcome["solve-coreset"]["doc"]["solution"],
            regcoreset.ObjectiveSpec.modified_lasso(0.5))
    problems = checks.check_chain(outcome, at_core)
    problems += [f"{name}: {r['stderr'].strip()}" for name, r in runs.items() if r["code"]]

    failed = sum(1 for name, o in outcome.items()
                 if o["code"] != 0 or (name.startswith("solve") and
                                       (o["doc"] or {}).get("converged") is not True))
    full = (outcome["solve-instance"]["doc"] or {}).get("objective_value", math.nan)
    result = {
        "wall_s": wall,
        "peak_rss_mb": max(r["rss_mb"] for r in runs.values()),
        "attempted": len(steps),
        "failed": failed,
        "problems": problems,
        "quality": {
            "err_sampled": abs(at_core - full) / full if at_core is not None else math.nan,
            "full_obj": full,
            "verify_max_dev": (outcome["verify"]["doc"] or {}).get(
                "max_relative_deviation", math.nan),
        },
        "digest": hashlib.sha256(json.dumps(  # "config" echoes this repetition's paths
            [{k: v for k, v in (o["doc"] or {}).items() if k != "config"}
             for o in outcome.values()], sort_keys=True).encode()).hexdigest(),
    }
    if trace:
        spans, startup = [], 0.0
        for name, _, _, _ in steps:
            with open(trace_files[name], encoding="utf-8") as fh:
                doc = json.load(fh)
            startup += doc["startup_s"]
            for span in doc["spans"]:
                if span["parent"] is not None:  # indices were per step process
                    span["parent"] += len(spans)
                if span["name"] == "solvers.solve":
                    span["full"] = name == "solve-instance"
            spans += doc["spans"]
        io = {
            "startup_s": startup,
            "bytes_read": sum(os.path.getsize(f) for _, _, read, _ in steps for f in read),
            "bytes_written": sum(os.path.getsize(w) for *_, w in steps),
        }
        result["layers"] = layers.layer_metrics("cli-chain", spans, io)
    for _, _, _, written in steps:  # keep only the span files
        if os.path.exists(written):
            os.remove(written)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--n", type=int, help="rows per instance; default per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work", help="directory for this repetition's span and CLI files")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args()
    if args.setup_probe:
        print(json.dumps({"setup_s": READY - args.spawned, "module": regcoreset.__file__}))
        return
    n = args.n or DEFAULT_N[args.workload]
    if args.workload == "cli-chain":
        result = run_chain(n, args.seed, bool(args.trace), args.work)
    else:
        result = run_experiments(args.workload, n, args.seed, bool(args.trace), args.work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
