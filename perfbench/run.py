"""Benchmark for regcoreset: runs one workload, checks it, prints its metrics.

    python3 perfbench/run.py --workload rlad-small|l2-tables|cli-chain|rlad-sizes \
        [--seed 2] [--seconds <run_seconds of BENCHMARK.json>] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table

rlad-small and rlad-sizes drive the conditioning basis and the ADMM solver.
rlad-sizes, the RLAD acceptance table at n=20000, is not listed in
BENCHMARK.json: one repetition takes 25-130 s and 3.1 GB; rlad-small stands in
for it (see workload.py).  Metric names, units and the default --seconds come
from BENCHMARK.json.

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/regcoreset``, imported from source.  Each repetition runs in
its own process (``workload.py``) so peak RSS is not mixed between
repetitions, and repetitions continue while the next one, as long as the last,
still ends within --seconds (at least one runs).  BLAS is pinned to one
thread, which keeps the load within the cores and the outputs independent of
the core count; the setting is recorded with every result.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate, and it carries the
per-layer metrics and the tracing overhead.  The line before it records the
environment, the samples, the correctness problems and, when traced, whether
the layers expected to dominate wall_s did.  Both are also written to
``.perfbench/<workload>-seed<seed>-trace<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
import layers  # noqa: E402

WORKLOADS = ("rlad-small", "l2-tables", "cli-chain", "rlad-sizes")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# These repeat exactly for one seed and environment but differ widely between
# seeds, which pick the data, so they are reported without a bound: in the
# diagnostics of every run and among the per-layer metrics as quality.*.
QUALITY = ("err_sampled", "full_obj", "verify_max_dev")
SETUP_PROBES = 12  # setup_s is their median
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


class BenchmarkBroken(Exception):
    """The benchmark cannot measure this checkout (not a wrong result)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment(seed: int) -> dict:
    """What a result depends on besides the code: compare only like with like."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "regcoreset"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a benchmark checkout may have no history
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    probe = ("import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']"
             "['blas']; print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=child_env(), timeout=60)
    numpy_version, blas, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                         else [None] * 3)
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _spawn(args: list[str]) -> tuple[int, str, str]:
    """Run a child in its own session, so a timeout also ends what it started."""
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def setup_probe(workload: str) -> float:
    """Spawn-to-ready time of the process a workload starts with."""
    if workload == "cli-chain":
        start = time.monotonic()
        code, out, err = _spawn([sys.executable, os.path.join(HERE, "cli_step.py"), "--version"])
        elapsed = time.monotonic() - start
        if code != 0:
            raise BenchmarkBroken(f"regcoreset --version exited {code}: {err.strip()}")
        return elapsed
    code, out, err = _spawn([sys.executable, os.path.join(HERE, "workload.py"),
                             "--setup-probe", "--spawned", repr(time.monotonic())])
    if code != 0:
        raise BenchmarkBroken(f"importing regcoreset failed: {err.strip()[-2000:]}")
    doc = json.loads(out.splitlines()[-1])
    if not os.path.abspath(doc["module"]).startswith(SRC + os.sep):
        raise BenchmarkBroken(f"imported {doc['module']}, not the checkout's source")
    return doc["setup_s"]


def repetition(workload: str, seed: int, trace: bool, n: int | None, work: str) -> dict:
    args = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--work", work,
            *(["--n", str(n)] if n else []), "--spawned", repr(time.monotonic())]
    code, out, err = _spawn(args)
    if code == 3:
        raise BenchmarkBroken(err.strip())
    if code != 0:
        return {"crashed": f"exit {code}: {err.strip()[-2000:]}"}
    return json.loads(out.splitlines()[-1])


def _tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(ordered), "value": ordered[k - 1]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 n: int | None) -> tuple[dict, dict]:
    """Measure one workload; return (the result line, the diagnostics)."""
    run_dir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env_doc = environment(seed)
    setups = [setup_probe(workload) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    deadline, last = time.monotonic() + seconds, 0.0
    while not plain or time.monotonic() + last < deadline:
        started = time.monotonic()
        plain.append(repetition(workload, seed, False, n,
                                os.path.join(run_dir, f"rep{len(plain)}")))
        if trace:
            traced.append(repetition(workload, seed, True, n,
                                     os.path.join(run_dir, f"traced{len(traced)}")))
        last = time.monotonic() - started
    reps = plain + traced

    problems, attempted, failed = [], 0, 0
    for i, rep in enumerate(reps):
        if "crashed" in rep:
            problems.append(f"repetition {i} crashed: {rep['crashed']}")
            attempted, failed = attempted + 1, failed + 1
            continue
        problems += rep["problems"]
        attempted += rep["attempted"]
        # A repetition whose output fails its check loses all its operations.
        failed += rep["attempted"] if rep["problems"] else rep["failed"]
    good = [rep for rep in reps if "crashed" not in rep]
    if len({rep["digest"] for rep in good}) > 1:
        problems.append("repetitions with one seed produced different outputs")
    quality = {name: good[0]["quality"].get(name, math.nan) if good else math.nan
               for name in QUALITY}
    fail_frac = failed / attempted
    walls = [rep["wall_s"] for rep in plain if "crashed" not in rep] or [math.nan]
    diag = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "n": n,
        "environment": env_doc,
        "wall_samples": walls,
        "wall_tail": _tail(walls),
        "setup_samples": setups,
        "peak_rss_samples": [rep["peak_rss_mb"] for rep in good],
        "quality": {name: v if math.isfinite(v) else None for name, v in quality.items()},
        "fail_frac": fail_frac,
        "problems": problems,
    }
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(diag["peak_rss_samples"] or [math.nan]),
    }
    if trace:
        with_layers = [rep for rep in traced if "layers" in rep]
        values = {name: statistics.median(rep["layers"][name] for rep in with_layers)
                  if with_layers else math.nan for name in PER_LAYER
                  if not name.startswith(("trace.", "quality."))}
        values["quality.fail_frac"] = fail_frac
        for name in QUALITY:  # verify_max_dev exists only on the CLI chain
            present = good and name in good[0]["quality"]
            values[f"quality.{name}"] = quality[name] if present else 0.0
        traced_wall = (statistics.median(rep["wall_s"] for rep in with_layers)
                       if with_layers else math.nan)
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        diag["traced_wall_samples"] = [rep["wall_s"] for rep in with_layers]
        diag["targets"] = layers.TARGETS
        if with_layers:
            diag["split"] = layers.blocking_split(workload, values, traced_wall)
        units = PER_LAYER
    else:
        units = END_TO_END
    unmeasured = [name for name in units if not math.isfinite(values[name])]
    if unmeasured:
        problems.append(f"no value for {', '.join(unmeasured)}")
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else 0.0,
                           "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"diagnostics": diag, "result": line}, fh, indent=1)
    return line, diag


def _summary_table(results: dict) -> list[str]:
    lines = []
    for workload, (line, diag) in results.items():
        metrics = line["metrics"]
        lines.append(f"{workload}: correct={line['correct']} "
                     f"attempted={line['attempted']} failed={line['failed']}")
        tail = diag["wall_tail"]
        lines.append(f"  wall_s          {metrics['wall_s']['value']:.4f} s (median of "
                     f"{len(diag['wall_samples'])}; tail: "
                     + (f"p{tail['percentile']:.0f} {tail['value']:.4f} s)" if tail
                        else "needs more than 10 samples)"))
        for name in ("setup_s", "peak_rss_mb"):
            lines.append(f"  {name:<15} {metrics[name]['value']:.4f} {metrics[name]['unit']}")
        lines.append(f"  {'fail_frac':<15} {diag['fail_frac']:.4f} ratio")
        for name in QUALITY:
            value = diag["quality"][name]
            unit = PER_LAYER[f"quality.{name}"]
            lines.append(f"  {name:<15} " + (f"{value:.10g} {unit}" if value is not None
                                              else "n/a"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="rows per instance, overriding each "
                        "workload's default (the self-test uses a tiny n)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regcoreset", "__init__.py")):
        print(f"error: no regcoreset source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.n)
    except (BenchmarkBroken, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print("\n".join(_summary_table(results)))
        print(json.dumps({name: line for name, (line, _) in results.items()}))
        return 0
    line, diag = results[args.workload]
    print(json.dumps(diag))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
