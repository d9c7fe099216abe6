"""Oracles shared by several test modules."""

import itertools

import numpy as np
import pytest

from regcoreset import experiments


@pytest.fixture(autouse=True)
def _empty_instance_slot(monkeypatch):
    """Every test starts with no memoized experiment instance.

    Counts of instance builds and n-row factorizations then do not depend on
    which test built the same instance before.
    """
    monkeypatch.setattr(experiments, "_INSTANCE_SLOT", {})


def _l1_vertex_minimum(instance, lam: float) -> float:
    """Exact min of ||Ax - b||_1 + lam*||x||_1 by enumerating vertices.

    The objective is convex and piecewise linear, with kinks on the n + d
    hyperplanes a_i x = b_i and x_j = 0.  For lam > 0 it is coercive, so a
    minimiser lies where d of those hyperplanes meet: solve every nonsingular
    d x d system and keep the least objective.  Costs C(n + d, d) solves, so
    only for small instances.
    """
    A, b = instance.design, instance.response
    n, d = A.shape
    planes = np.vstack([A, np.eye(d)])
    offsets = np.concatenate([b, np.zeros(d)])
    subsets = np.array(list(itertools.combinations(range(n + d), d)))
    systems, rhs = planes[subsets], offsets[subsets]
    regular = np.abs(np.linalg.det(systems)) > 1e-12
    vertices = np.linalg.solve(systems[regular], rhs[regular][..., None])[..., 0]
    values = np.abs(vertices @ A.T - b).sum(axis=1) + lam * np.abs(vertices).sum(axis=1)
    return float(values.min())


@pytest.fixture
def l1_vertex_minimum():
    return _l1_vertex_minimum


def _l1_penalized_least_squares_minimum(instance, lam: float, s: int) -> float:
    """Exact min of ||Ax - b||_2^2 + lam*||x||_1^s (s = 1 or 2) by enumeration.

    On the orthant face with support S and signs sigma the objective is the
    quadratic ||A_S x_S - b||^2 + lam*(sigma^T x_S)^s, whose stationary point
    solves A_S^T A_S x_S = A_S^T b - lam*sigma/2 (s = 1) or
    (A_S^T A_S + lam*sigma sigma^T) x_S = A_S^T b (s = 2).  A stationary
    point with signs sigma meets the KKT conditions on S, so the minimiser is
    the best of those points over every (S, sigma), x = 0 included.  Costs
    3^d small solves, so only for d <= 4.
    """
    A, b = instance.design, instance.response
    d = A.shape[1]
    if d > 4:
        raise ValueError(f"enumeration is for d <= 4, got d={d}")
    G, g = A.T @ A, A.T @ b
    best = float(b @ b)
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            S = list(support)
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                sigma = np.array(signs)
                if s == 2:
                    system, rhs = G[np.ix_(S, S)] + lam * np.outer(sigma, sigma), g[S]
                else:
                    system, rhs = G[np.ix_(S, S)], g[S] - lam * sigma / 2.0
                x_S = np.linalg.lstsq(system, rhs, rcond=None)[0]
                if np.all(np.sign(x_S) == sigma):
                    x = np.zeros(d)
                    x[S] = x_S
                    value = np.sum((A @ x - b) ** 2) + lam * np.sum(np.abs(x)) ** s
                    best = min(best, float(value))
    return best


@pytest.fixture
def l1_penalized_least_squares_minimum():
    return _l1_penalized_least_squares_minimum
