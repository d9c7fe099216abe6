"""Importance-sampled coresets and their verification.

A coreset is r rows drawn i.i.d. with replacement with probability s_i / S
(S the score total), each kept row carrying weight S / (r * s_i).  The r
draws search the CDF the scores build once (SensitivityScores.cdf) for r
uniform numbers, as Generator.choice(p=s / S) does, so they pick the rows
choice would for the same seed in O(r log n).  A coreset stores the drawn
rows of [A  b] as they are, next to their weights, so one draw serves every
loss exponent: as_instance(p) scales row k by w_k^(1/p), which makes the
p-norm loss of the plain instance it returns sum_k w_k |a'_k x'|^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScoresError, ShapeError, TransferCheckError
from .linalg import (
    RegressionInstance,
    _as_array,
    as_matrix,
    as_vector,
    augment,
    check_count,
    check_exponent,
    check_fraction,
    check_integer,
    check_keys,
    check_positive,
    check_string,
)
from .objective import ObjectiveSpec
from .sensitivity import SensitivityScores
from .solvers import evaluate_objective

SCHEME_IDENTITY = "identity"
# The constant of the sample-size bound: part of the recipe, not a setting.
_SAMPLE_CONSTANT = 0.5


def sample_size(total_sensitivity: float, epsilon: float, delta: float, d: int) -> int:
    """ceil(0.5 * S / eps^2 * (d*ln(1/eps) + ln(1/delta))), at least 1.

    S is the total sensitivity; 0.5 is _SAMPLE_CONSTANT, fixed.  The count
    is the number of i.i.d. draws, so repeated rows are counted with
    multiplicity.  An epsilon so small that the count is not a finite float
    raises ValueError.
    """
    check_positive(total_sensitivity, "total sensitivity")
    check_fraction(epsilon, "epsilon")
    check_fraction(delta, "delta")
    check_count(d, "d")
    try:
        raw = (
            _SAMPLE_CONSTANT
            * total_sensitivity
            / epsilon**2
            * (d * math.log(1.0 / epsilon) + math.log(1.0 / delta))
        )
    except ZeroDivisionError:  # epsilon**2 underflowed to 0
        raw = math.inf
    if not raw < math.inf:
        raise ValueError(f"epsilon={epsilon} admits no finite sample size")
    return max(int(math.ceil(raw)), 1)


@dataclass(frozen=True)
class Coreset:
    """Sampled rows of [A  b], their weights and their provenance.

    The rows are stored unweighted; as_instance(p) applies the weights for
    one loss exponent.  to_dict gives the document the CLI writes, with the
    rows under "sampled_rows"; from_dict reads it back.
    """

    rows: np.ndarray
    weights: np.ndarray
    source_indices: np.ndarray
    seed: int
    scheme: str
    n_source: int

    def __post_init__(self):
        rows = as_matrix(self.rows, "rows")
        weights = as_vector(self.weights, "weights")
        indices = _as_array(self.source_indices, "source_indices", 1, indices=True)
        n = check_count(self.n_source, "n")  # the document's key
        if rows.shape[0] != weights.shape[0] or rows.shape[0] != indices.shape[0]:
            raise ShapeError("rows, weights and source_indices must align")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if not (indices.min() >= 0 and indices.max() < n):
            raise ValueError(f"source_indices must lie in [0, {n})")
        check_integer(self.seed, "seed")
        check_string(self.scheme, "scheme")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "source_indices", indices)

    @property
    def r(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1] - 1

    def as_instance(self, p: float) -> RegressionInstance:
        """The rows times weight^(1/p), as a plain (possibly short) instance.

        Its p-norm loss is the weighted loss sum_k w_k |a'_k x'|^p.
        """
        check_exponent(p, "p")
        return RegressionInstance._owning(self.rows * self.weights[:, None] ** (1.0 / p))

    def to_dict(self) -> dict:
        """The document form: plain lists, rows flattened row-major."""
        return {
            "n": self.n_source,
            "d": self.d,
            "r": self.r,
            "seed": self.seed,
            "scheme": self.scheme,
            "source_indices": self.source_indices.tolist(),
            "weights": self.weights.tolist(),
            "sampled_rows": self.rows.ravel().tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Coreset":
        """Inverse of to_dict, also after a JSON round trip; the constructor checks the fields."""
        required = ("n", "d", "r", "seed", "scheme", "source_indices", "weights", "sampled_rows")
        check_keys(doc, required, "coreset document")
        d, r = (check_count(doc[key], key) for key in ("d", "r"))
        rows = as_vector(doc["sampled_rows"], "sampled_rows")
        if rows.size != r * (d + 1):
            raise ShapeError(f"sampled_rows has {rows.size} entries, expected {r * (d + 1)}")
        return cls(
            rows=rows.reshape(r, d + 1),
            weights=doc["weights"],
            source_indices=doc["source_indices"],
            seed=doc["seed"],
            scheme=doc["scheme"],
            n_source=doc["n"],
        )


def build_coreset(
    instance: RegressionInstance,
    scores: SensitivityScores,
    r: int,
    seed: int,
) -> Coreset:
    """Draw r rows with probability s_i / S, each with weight S / (r * s_i)."""
    check_count(r, "r")
    if scores.n != instance.n:
        raise InvalidScoresError(
            f"scores cover {scores.n} rows but instance has {instance.n}"
        )
    idx = scores.cdf.searchsorted(np.random.default_rng(seed).random(r), side="right")
    weights = scores.total / (r * scores.values[idx])
    return Coreset(
        rows=augment(instance)[idx],
        weights=weights,
        source_indices=idx,
        seed=seed,
        scheme=scores.scheme,
        n_source=instance.n,
    )


def identity_coreset(instance: RegressionInstance) -> Coreset:
    """All rows with unit weight; objectives match the full data exactly."""
    n = instance.n
    return Coreset(
        rows=augment(instance),
        weights=np.ones(n),
        source_indices=np.arange(n),
        seed=0,
        scheme=SCHEME_IDENTITY,
        n_source=n,
    )


@dataclass(frozen=True)
class CoresetVerificationReport:
    max_relative_deviation: float
    worst_query_index: int
    queries_checked: int
    degenerate_queries: int
    epsilon: float
    passed: bool


def _check_drawn_from(coreset: Coreset, instance: RegressionInstance) -> None:
    """Raise ShapeError unless the coreset was drawn from an instance of this width and n."""
    if coreset.d != instance.d:
        raise ShapeError(f"coreset is {coreset.d}-dimensional but instance has d={instance.d}")
    if coreset.n_source != instance.n:
        raise ShapeError(f"coreset was drawn from {coreset.n_source} rows but instance has "
                         f"n={instance.n}")


def _checked_queries(
    instance: RegressionInstance, coreset: Coreset, queries, epsilon: float
) -> list:
    check_fraction(epsilon, "epsilon")
    queries = list(queries)
    if not queries:
        raise ValueError("need at least one query")
    _check_drawn_from(coreset, instance)
    return queries


def _deviations(
    instance: RegressionInstance,
    coreset: Coreset,
    spec: ObjectiveSpec,
    queries: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Relative deviation per query, with a mask of degenerate (F = 0) ones."""
    surrogate = coreset.as_instance(spec.p)
    devs = np.zeros(len(queries))
    degenerate = np.zeros(len(queries), dtype=bool)
    for i, x in enumerate(queries):
        full = evaluate_objective(instance, x, spec)
        if full == 0.0:
            degenerate[i] = True
            continue
        approx = evaluate_objective(surrogate, x, spec)
        devs[i] = abs(approx - full) / full
    return devs, degenerate


def _report(
    devs: np.ndarray, degenerate: np.ndarray, epsilon: float
) -> CoresetVerificationReport:
    live = ~degenerate
    checked = int(live.sum())
    if checked == 0:
        return CoresetVerificationReport(0.0, -1, 0, int(degenerate.sum()), epsilon, True)
    live_devs = np.where(live, devs, -1.0)
    worst = int(np.argmax(live_devs))
    return CoresetVerificationReport(
        max_relative_deviation=float(live_devs[worst]),
        worst_query_index=worst,
        queries_checked=checked,
        degenerate_queries=int(degenerate.sum()),
        epsilon=epsilon,
        passed=bool(live_devs[worst] <= epsilon),
    )


def verify_coreset(
    instance: RegressionInstance,
    coreset: Coreset,
    spec: ObjectiveSpec,
    queries,
    epsilon: float,
) -> CoresetVerificationReport:
    """Compare full and coreset objectives on explicit queries.

    Queries where the full objective is exactly zero admit no relative
    comparison; they are skipped and counted separately.
    """
    queries = _checked_queries(instance, coreset, queries, epsilon)
    return _report(*_deviations(instance, coreset, spec, queries), epsilon)


def transfer_check(
    instance: RegressionInstance,
    coreset: Coreset,
    p: float,
    q: float,
    lam: float,
    queries,
    epsilon: float,
) -> tuple[CoresetVerificationReport, CoresetVerificationReport]:
    """Check that an l_p^p-penalty coreset transfers to an l_q^p penalty, q <= p.

    For every query, a relative deviation within epsilon under the
    (p-loss, p-norm^p penalty) objective must imply the same under the
    (p-loss, q-norm^p penalty) objective; any exception raises.
    """
    if check_exponent(q, "q") > p:
        raise ValueError(f"need q <= p, got q={q} > p={p}")
    spec_p = ObjectiveSpec(p=p, q=p, r=p, s=p, lam=lam)
    spec_q = ObjectiveSpec(p=p, q=q, r=p, s=p, lam=lam)
    queries = _checked_queries(instance, coreset, queries, epsilon)
    devs_p, degen_p = _deviations(instance, coreset, spec_p, queries)
    devs_q, degen_q = _deviations(instance, coreset, spec_q, queries)
    live = ~(degen_p | degen_q)
    bad = live & (devs_p <= epsilon) & (devs_q > epsilon)
    if np.any(bad):
        raise TransferCheckError(
            f"{int(bad.sum())} of {len(queries)} queries passed the p-penalty "
            f"check at eps={epsilon} but failed the q-penalty check"
        )
    return _report(devs_p, degen_p, epsilon), _report(devs_q, degen_q, epsilon)
