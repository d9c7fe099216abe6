"""In-memory spans around the public regcoreset functions a workload calls.

Each wrapper replaces a module attribute at the name the calling code looks
it up through (``regcoreset.experiments.solve_rlad``,
``regcoreset.cli.build_coreset``, ...), so the program itself is unchanged and
a call that no longer goes through that name records nothing.  Spans keep
name, start, end, parent and a few facts about the call (iterations,
convergence, sizes); they are written out only when the workload ends.

A recorder is single-threaded: the workloads use the serial harness path.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from contextlib import contextmanager

# The score and solver functions each calling module imports by name.
_HARNESS_SCORES = ("ridge_leverage_scores", "rlad_sensitivity_bounds", "uniform_scores")
_HARNESS_SOLVERS = ("solve_ridge", "solve_lasso", "solve_modified_lasso", "solve_rlad")
_CLI_SCORES = (*_HARNESS_SCORES, "lp_lp_sensitivity_bounds")
_CLI_SOLVERS = (*_HARNESS_SOLVERS, "solve_lp_lp")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _instance_facts(args, result, recorder):
    recorder.full_instance = result[0]
    return {}


def _augment_facts(args, result, recorder):
    n, m = result.shape
    return {"mb": n * m * 8 / 1e6}


def _basis_facts(args, result, recorder):
    return {"beta": float(result.beta)}


def _score_facts(args, result, recorder):
    return {"scheme": result.scheme, "total": float(result.total)}


def _sample_facts(args, result, recorder):
    return {"r": int(result.r), "unique": int(len(set(result.source_indices.tolist())))}


def _verify_facts(args, result, recorder):
    return {"queries": int(result.queries_checked + result.degenerate_queries)}


def _solve_facts(args, result, recorder):
    return {
        "full": args[0] is recorder.full_instance,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "objective": float(result.objective_value),
    }


# (module, attribute, span name, facts) for every name a workload resolves.
# The untraced run keeps only the instance and solver hooks: it needs the
# solver results for fail_frac and full_obj but takes no clock readings.
_EXPERIMENT_HOOKS = [
    ("regcoreset.experiments", "build_experiment_instance", "linalg.instance", _instance_facts),
    ("regcoreset.experiments", "augment", "linalg.augment", _augment_facts),
    ("regcoreset.coreset", "augment", "linalg.augment", _augment_facts),
    ("regcoreset.experiments", "p_conditioned_basis", "conditioning.basis", _basis_facts),
    *[("regcoreset.experiments", f, "sensitivity.scores", _score_facts) for f in _HARNESS_SCORES],
    ("regcoreset.experiments", "build_coreset", "coreset.sample", _sample_facts),
    *[("regcoreset.experiments", f, "solvers.solve", _solve_facts) for f in _HARNESS_SOLVERS],
    ("regcoreset.experiments", "evaluate_objective", "solvers.eval", None),
]

_CLI_HOOKS = [
    ("regcoreset.cli", "generate_ng_matrix", "linalg.instance", None),
    ("regcoreset.cli", "generate_response", "linalg.instance", None),
    ("regcoreset.cli", "augment", "linalg.augment", _augment_facts),
    ("regcoreset.coreset", "augment", "linalg.augment", _augment_facts),
    ("regcoreset.cli", "p_conditioned_basis", "conditioning.basis", _basis_facts),
    *[("regcoreset.cli", f, "sensitivity.scores", _score_facts) for f in _CLI_SCORES],
    ("regcoreset.cli", "build_coreset", "coreset.sample", _sample_facts),
    ("regcoreset.cli", "verify_coreset", "coreset.verify", _verify_facts),
    ("regcoreset.coreset", "evaluate_objective", "solvers.eval", None),
    *[("regcoreset.cli", f, "solvers.solve", _solve_facts) for f in _CLI_SOLVERS],
    ("regcoreset.cli", "dispatch", "cli.step", None),
]

HOOKS = {"experiments": _EXPERIMENT_HOOKS, "cli": _CLI_HOOKS}


class Recorder:
    """Collects spans; with timed=False it keeps facts but reads no clock."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[dict] = []
        self.full_instance = None  # solves on this object are full-data solves
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        if self.timed:
            rec["rss0"] = _rss_mb()
            rec["start"] = time.perf_counter()
        try:
            yield rec
        except BaseException:
            rec["raised"] = True
            raise
        finally:
            if self.timed:
                rec["end"] = time.perf_counter()
                rec["rss1"] = _rss_mb()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, facts=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if facts is not None:
                rec.update(facts(args, result, self))
            return result

        setattr(module, attr, wrapper)

    def install(self, which: str) -> None:
        """Wrap every hook of one calling namespace ('experiments' or 'cli')."""
        for module_name, attr, name, facts in HOOKS[which]:
            if not self.timed and name not in ("linalg.instance", "solvers.solve"):
                continue
            self.wrap(importlib.import_module(module_name), attr, name, facts)
