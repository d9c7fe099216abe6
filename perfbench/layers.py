"""Per-layer metrics of a traced repetition, computed from its spans.

Layers are the package modules.  ``lowerbound`` has none: it is a small
demonstrator that no workload drives and that carries no performance traffic.
Each metric names the end-to-end metric it should move and the workload where
it moves (TARGETS); a layer absent from a workload reports 0 there.
"""

from __future__ import annotations

import sys
from collections import defaultdict

# name -> (end-to-end metric it should move, workload it moves on).  Names,
# units and directions are those of BENCHMARK.json's per_layer list.
# rlad-small is the listed stand-in for rlad-sizes: RLAD tables at n=400
# (workload.py), where conditioning and ADMM dominate as on rlad-sizes.
TARGETS = {
    "linalg.instance_s": ("wall_s", "l2-tables; near zero elsewhere"),
    "linalg.augment_calls": ("wall_s", "l2-tables"),
    "linalg.augment_mb": ("wall_s", "l2-tables (calls x n x (d+1) x 8 B)"),
    "conditioning.basis_s": ("wall_s", "rlad-small, rlad-sizes; absent on the others"),
    "conditioning.basis_calls": ("wall_s", "rlad-small, rlad-sizes"),
    "conditioning.rss_rise_mb": ("peak_rss_mb", "rlad-sizes (3.1 GB); rlad-small"),
    "conditioning.beta": ("err_sampled", "rlad-small, rlad-sizes"),
    "sensitivity.scores_s": ("wall_s", "l2-tables"),
    "sensitivity.scores_calls": ("wall_s", "l2-tables"),
    "sensitivity.score_total": ("err_sampled", "rlad-small, rlad-sizes"),
    "coreset.sample_s": ("wall_s", "l2-tables"),
    "coreset.sample_calls": ("wall_s", "l2-tables"),
    "coreset.unique_frac": ("wall_s", "l2-tables"),
    "coreset.verify_s": ("wall_s", "cli-chain"),
    "coreset.verify_queries": ("wall_s", "cli-chain"),
    "solvers.full_s": ("wall_s", "rlad-small, rlad-sizes; small on l2-tables"),
    "solvers.full_iters": ("wall_s", "rlad-small, rlad-sizes; trades against full_obj"),
    "solvers.core_s": ("wall_s", "rlad-small, rlad-sizes; small on l2-tables"),
    "solvers.core_iters": ("wall_s", "rlad-small, rlad-sizes; trades against full_obj"),
    "solvers.core_calls": ("wall_s", "rlad-small, rlad-sizes"),
    "solvers.eval_s": ("wall_s", "rlad-small, rlad-sizes"),
    "solvers.unconverged": ("fail_frac", "every workload"),
    "experiments.self_s": ("wall_s", "experiment workloads; near zero"),
    "experiments.report_s": ("wall_s", "experiment workloads; near zero"),
    "cli.self_s": ("wall_s", "cli-chain"),
    "cli.startup_s": ("setup_s and wall_s", "cli-chain"),
    "cli.bytes_written": ("wall_s", "cli-chain"),
    "cli.bytes_read": ("wall_s", "cli-chain"),
    "trace.overhead_s": ("traced minus untraced wall_s", "every workload"),
    "quality.fail_frac": ("failed / attempted operations", "every workload"),
    "quality.err_sampled": ("mean importance-sampling cell; coreset solution's relative "
                            "error on cli-chain", "every workload"),
    "quality.full_obj": ("sum of full-data optima; guards against looser solves",
                         "every workload"),
    "quality.verify_max_dev": ("max_relative_deviation of verify", "cli-chain; 0 elsewhere"),
}

# Spans each workload must record when traced; none may come back empty.
_COMMON = {"linalg.instance", "linalg.augment", "sensitivity.scores", "coreset.sample",
           "solvers.solve", "solvers.eval"}
EXPECTED = {
    "rlad-sizes": _COMMON | {"conditioning.basis", "experiments.run", "experiments.report"},
    "rlad-small": _COMMON | {"conditioning.basis", "experiments.run", "experiments.report"},
    "l2-tables": _COMMON | {"experiments.run", "experiments.report"},
    "cli-chain": _COMMON | {"coreset.verify", "cli.step"},
}

# The layers that should account for most of wall_s on each workload.
BLOCKING = {
    "rlad-sizes": ("solvers.full_s", "solvers.core_s", "conditioning.basis_s"),
    "rlad-small": ("solvers.full_s", "solvers.core_s", "conditioning.basis_s"),
    "l2-tables": ("sensitivity.scores_s", "coreset.sample_s", "solvers.full_s",
                  "solvers.core_s"),
    "cli-chain": ("cli.self_s", "cli.startup_s"),
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(workload: str, spans: list[dict], cli_io: dict | None = None) -> dict:
    """The per-layer metrics of one repetition (all but trace.* and quality.*)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    empty = sorted(name for name in EXPECTED[workload] if not by_name[name])
    if empty:
        print(f"{workload}: traced layers recorded no call: {', '.join(empty)}; "
              "a wrapper was bypassed", file=sys.stderr)
        sys.exit(3)
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)

    def total(name):
        return sum(_duration(s) for s in by_name[name])

    def self_time(name):
        return sum(_duration(s) - child_time[i] for i, s in enumerate(spans) if s["name"] == name)

    solves = by_name["solvers.solve"]
    full = [s for s in solves if s.get("full")]
    core = [s for s in solves if s.get("full") is False]
    samples = by_name["coreset.sample"]
    io = cli_io or {"startup_s": 0.0, "bytes_read": 0, "bytes_written": 0}
    return {
        "linalg.instance_s": total("linalg.instance"),
        "linalg.augment_calls": len(by_name["linalg.augment"]),
        "linalg.augment_mb": sum(s["mb"] for s in by_name["linalg.augment"]),
        "conditioning.basis_s": total("conditioning.basis"),
        "conditioning.basis_calls": len(by_name["conditioning.basis"]),
        "conditioning.rss_rise_mb": sum(s["rss1"] - s["rss0"]
                                        for s in by_name["conditioning.basis"]),
        "conditioning.beta": max((s["beta"] for s in by_name["conditioning.basis"]), default=0.0),
        "sensitivity.scores_s": total("sensitivity.scores"),
        "sensitivity.scores_calls": len(by_name["sensitivity.scores"]),
        "sensitivity.score_total": sum(s["total"] for s in by_name["sensitivity.scores"]
                                       if s["scheme"] != "uniform"),
        "coreset.sample_s": total("coreset.sample"),
        "coreset.sample_calls": len(samples),
        "coreset.unique_frac": sum(s["unique"] for s in samples) / sum(s["r"] for s in samples),
        "coreset.verify_s": total("coreset.verify"),
        "coreset.verify_queries": sum(s["queries"] for s in by_name["coreset.verify"]),
        "solvers.full_s": sum(_duration(s) for s in full),
        "solvers.full_iters": sum(s.get("iterations", 0) for s in full),
        "solvers.core_s": sum(_duration(s) for s in core),
        "solvers.core_iters": sum(s.get("iterations", 0) for s in core),
        "solvers.core_calls": len(core),
        "solvers.eval_s": total("solvers.eval"),
        "solvers.unconverged": sum(1 for s in solves if s.get("raised") or not s.get("converged")),
        "experiments.self_s": self_time("experiments.run"),
        "experiments.report_s": total("experiments.report"),
        "cli.self_s": self_time("cli.step"),
        "cli.startup_s": io["startup_s"],
        "cli.bytes_written": io["bytes_written"],
        "cli.bytes_read": io["bytes_read"],
    }


def blocking_split(workload: str, metrics: dict, wall: float) -> dict:
    """Share of wall_s spent in the layers expected to dominate the workload."""
    share = sum(metrics[name] for name in BLOCKING[workload]) / wall
    return {"layers": list(BLOCKING[workload]), "share_of_wall": share,
            "holds": share > 0.5}
