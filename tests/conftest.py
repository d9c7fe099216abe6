"""Oracles shared by several test modules."""

import itertools

import numpy as np
import pytest


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
