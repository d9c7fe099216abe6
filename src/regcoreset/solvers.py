"""Solvers for ||Ax - b||_p^r + lam * ||x||_q^s and friends.

Closed form for ridge, Lawson-Hanson active-set steps for the lasso and the
squared-l1 "modified lasso", and damped IRLS for l_p losses with an l_p^p
penalty, which at p = 1 also serves least absolute deviations with an l1
penalty (RLAD).

The squared-loss solvers (ridge, lasso, modified lasso) work on the
triangular factor of [A b], which has at most d + 1 rows and keeps
||Ax - b||_2 exactly, and evaluate_objective takes every squared loss
(p = r = 2) from it too, so the objective they return costs no pass over
the n rows.  The instance computes that factor on first use and caches it
(RegressionInstance.squared_loss_factor), so every squared-loss solve and
evaluation on one instance shares a single QR of the n rows.

A result's gap bounds (objective - optimum) / objective through a dual
point, or is inf.  The active set measures it against max(objective, floor)
instead, where floor * tol is the rounding allowance of its dual objective,
4 (d + 1) eps ||c||^2 (||c||^2 = ||b||^2 is the objective at x = 0): an
optimum too small to certify to tol relative is certified to rounding.
The lasso and the modified lasso count active-set steps; for lam > 0
"converged" means gap <= tol, and at lam = 0 (least squares: no finite dual
bound) that the KKT conditions hold to tol.  IRLS counts sweeps; at p = 1
with lam > 0 it stops once its certified gap is <= tol, and otherwise, as
at every other p, "converged" means the stall test passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiencyError, ShapeError
from .linalg import (
    RegressionInstance,
    as_matrix,
    as_vector,
    check_full_column_rank,
)
from .objective import ObjectiveSpec

_OBJ_FLOOR = 1e-30
_EPS = np.finfo(float).eps
_KKT_TOL = 1e-12  # relative active-set gradients below this are rounding
_SINE_TOL = 1e-5  # least sine of a column to the earlier ones in a Gram solve
# IRLS at p = 1: residuals within _SET_TOL * (1 + ||r||_inf) of zero and
# coordinates beyond _SET_TOL * (1 + ||x||_inf) fix an LP vertex, which is
# tried only once a sweep changes the objective and the iterate by at most
# _POLISH_PROGRESS (relative).  The loose _SET_TOL lets the sets settle
# early; it also takes in small nonzero residuals, so the dual point frees
# only the residuals the vertex fits to _DUAL_ZERO.
_SET_TOL = 1e-3
_POLISH_PROGRESS = 1e-2
_DUAL_ZERO = 1e-9


@dataclass(frozen=True)
class SolverResult:
    """What a solve returned and how far it got.

    gap is the best certified upper bound on the relative optimality gap
    (objective - optimum) / objective that the solve found, or inf when it
    found none; the lasso families divide by max(objective, floor), with
    floor * tol the rounding allowance of the dual objective, whose terms
    are of size ||c||^2.  converged, gap and iterations mean what the module
    docstring says for each family; objective_history holds the objective
    before the first iteration and after each, and is empty for ridge.
    """

    solution: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    optimality_residual: float
    objective_history: list = field(default_factory=list, repr=False)
    gap: float = np.inf

    def to_dict(self) -> dict:
        """The result as JSON values, less objective_history.

        The solution becomes (nested) lists, and gap None when none was
        certified, since JSON has no inf.
        """
        return {
            "solution": self.solution.tolist(),
            "objective_value": float(self.objective_value),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "optimality_residual": float(self.optimality_residual),
            "gap": float(self.gap) if np.isfinite(self.gap) else None,
        }


def evaluate_objective(
    instance: RegressionInstance, x, spec: ObjectiveSpec
) -> float:
    """||Ax - b||_p^r + lam * ||x||_q^s for a single-response instance.

    The squared loss (p = r = 2) is ||Rx - c||_2^2 on the instance's cached
    factor, (d + 1)-row work after its first use; other losses take all n
    rows.
    """
    x = as_vector(x, "x")
    if x.shape[0] != instance.d:
        raise ShapeError(f"x has length {x.shape[0]}, expected {instance.d}")
    if spec.p == 2 and spec.r == 2:
        R, c = instance.squared_loss_factor
        return _objective(R @ x - c, x, spec)
    return _objective(instance.design @ x - instance.response, x, spec)


def _objective(r: np.ndarray, x: np.ndarray, spec: ObjectiveSpec) -> float:
    """||r||_p^r + lam * ||x||_q^s for a residual r = Ax - b already in hand."""
    loss = float(np.linalg.norm(r, ord=spec.p) ** spec.r)
    penalty = float(spec.lam * np.linalg.norm(x, ord=spec.q) ** spec.s)
    return loss + penalty


def multiresponse_rlad_objective(A, B, X, lam: float) -> float:
    """Entrywise ||AX - B||_1 + lam * ||X||_1; separable across columns."""
    A, B, X = as_matrix(A, "A"), as_matrix(B, "B"), as_matrix(X, "X")
    return float(np.sum(np.abs(A @ X - B)) + lam * np.sum(np.abs(X)))


def sparsity_count(x, threshold: float = 1e-6) -> int:
    """Number of coordinates with |x_j| strictly below the threshold."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return int(np.sum(np.abs(as_vector(x, "x")) < threshold))


def solve_ridge(instance: RegressionInstance, lam: float) -> SolverResult:
    """x = V diag(sigma / (sigma^2 + lam)) U^T c via the SVD of R.

    (R, c) is the instance's cached squared-loss factor of [A b]; R has the
    singular values of A.  lam = 0 requires full column rank and reduces to
    least squares.
    """
    spec = ObjectiveSpec.ridge(lam)
    R, c = instance.squared_loss_factor
    U, sigma, Vt = np.linalg.svd(R, full_matrices=False)
    if lam == 0:
        if instance.n < instance.d:
            raise RankDeficiencyError("lam = 0 needs a full-column-rank design")
        check_full_column_rank(sigma, "design")
    coef = sigma / (sigma**2 + lam)
    x = Vt.T @ (coef * (U.T @ c))
    rtc = R.T @ c
    residual = float(
        np.linalg.norm((R.T @ (R @ x)) + lam * x - rtc)
        / (1.0 + np.linalg.norm(rtc))
    )
    return SolverResult(
        solution=x,
        objective_value=evaluate_objective(instance, x, spec),
        iterations=1,
        converged=True,
        optimality_residual=residual,
    )


def _active_set(instance, spec, tol, max_iter) -> SolverResult:
    """Lawson-Hanson active-set steps for ||Ax - b||_2^2 + lam*||x||_1^s.

    With x = z+ - z-, z >= 0 and (R, c) the instance's squared-loss factor,
    the modified lasso (s = 2) is nonnegative least squares in Bz ~ e with
    B = [R -R; sqrt(lam) 1^T], e = [c; 0] (z+_j z-_j = 0 at the optimum);
    the lasso (s = 1) is min ||Bz - c||^2 + lam 1^T z with B = [R -R].
    Each step heads for the minimum over the passive (free) variables and
    stops where one reaches zero, which leaves the set; at a minimum, the
    variable with the largest negative gradient w = q - Qz enters.  The
    steps end when none exceeds _KKT_TOL (||q||_inf + linear term), before a
    step that would raise the objective, or at a minimum no lower than the
    last one: only rounding causes those two.
    By weak duality the dual point u = 2(Rx - c), scaled for the lasso so
    that ||R^T u||_inf <= lam, bounds the minimum below: it certifies gap.
    When that gap is above tol, the x of one more solve on the passive face
    builds a second dual point, and gap is the better of the two.
    """
    R, c = instance.squared_loss_factor
    d, lam, modified = instance.d, spec.lam, spec.s == 2
    B, e, linear = np.hstack([R, -R]), c, lam / 2.0
    if modified:
        B = np.vstack([B, np.full(2 * d, np.sqrt(lam))])
        e, linear = np.append(c, 0.0), 0.0
    Q, q = B.T @ B, B.T @ e - linear
    scale = max(float(np.abs(q).max()) + linear, _OBJ_FLOOR)

    def objective(z):
        x = z[:d] - z[d:]
        return _objective(R @ x - c, x, spec)

    z, passive = np.zeros(2 * d), np.zeros(2 * d, dtype=bool)
    history = [objective(z)]
    at_minimum, iterations, last_minimum = True, 0, history[0]
    while iterations < max_iter:
        if at_minimum:
            w = np.where(passive, -np.inf, q - Q @ z)
            if not w.max() > _KKT_TOL * scale:
                break
            passive[np.argmax(w)] = True
        P = np.flatnonzero(passive)
        zP = z[P]
        QPP = Q[np.ix_(P, P)]
        norms = np.sqrt(QPP.diagonal())
        try:  # a Cholesky pivot over its column's norm is that column's sine
            if not np.all(np.diag(np.linalg.cholesky(QPP)) > _SINE_TOL * norms):
                raise np.linalg.LinAlgError("too ill-conditioned to square")
            direction, reach = np.linalg.solve(QPP, q[P]) - zP, 1.0
        except np.linalg.LinAlgError:
            # B_P = U S V^T D, D its column norms, less rounding-level singular
            # values; l = linear D^-1 1.  Head for the minimiser on P or, if l
            # has a part n outside the row space of V^T, along the ray -D^-1 n.
            U, sigma, Vt = np.linalg.svd(B[:, P] / norms, full_matrices=False)
            keep = sigma > sigma[0] * P.size * np.finfo(float).eps
            U, sigma, Vt, lin = U[:, keep], sigma[keep], Vt[keep], linear / norms
            null = lin - Vt.T @ (Vt @ lin)
            if np.linalg.norm(null) > _KKT_TOL * np.linalg.norm(lin):
                direction, reach = -null / norms, np.inf
            else:
                s = Vt.T @ ((U.T @ e - (Vt @ lin) / sigma) / sigma) / norms
                direction, reach = s - zP, 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(direction < 0, zP / -direction, np.inf)
        step = min(reach, ratios.min())
        cand = z.copy()
        cand[P] = np.where(ratios == step, 0.0, np.maximum(zP + step * direction, 0.0))
        cand_obj = objective(cand)
        if not cand_obj <= history[-1]:
            break
        z, at_minimum = cand, step == reach
        passive[P] = z[P] > 0
        history.append(cand_obj)
        iterations += 1
        if at_minimum:  # no lower than the last minimum: the gradient was rounding
            if cand_obj >= last_minimum:
                break
            last_minimum = cand_obj

    x = z[:d] - z[d:]
    w = q - Q @ z
    residual = float(np.max(np.where(z > 0, np.abs(w), w), initial=0.0)) / scale
    gap = np.inf
    if lam > 0:
        gap = _gap(R, c, lam, modified, x, history[-1], tol)
        P = np.flatnonzero(passive)
        if gap > tol and P.size:
            # Rounding can leave z a hair off its face's minimum.  Any dual
            # point bounds the minimum, so x and its objective stay as they are.
            fine = z.copy()
            try:
                fine[P] += np.linalg.solve(Q[np.ix_(P, P)], w[P])
            except np.linalg.LinAlgError:
                pass
            fine_x = fine[:d] - fine[d:]
            gap = min(gap, _gap(R, c, lam, modified, fine_x, history[-1], tol))
    return SolverResult(
        solution=x,
        objective_value=evaluate_objective(instance, x, spec),
        iterations=iterations,
        converged=bool(gap <= tol if lam > 0 else residual <= tol),
        optimality_residual=residual,
        objective_history=history,
        gap=gap,
    )


def _gap(R, c, lam, modified, x, objective, tol) -> float:
    """The relative gap of objective against the dual point u = 2(Rx - c).

    For the lasso u is scaled so that ||R^T u||_inf <= lam; by weak duality
    every such u bounds the minimum below, whatever x built it.  The entries
    of u are (d + 1)-term sums rounded to about (d + 1) eps ||c||, and the
    dual objective adds terms of size up to ||c||^2, the objective at x = 0,
    so no u built in floating point bounds the minimum closer than about
    delta = 4 (d + 1) eps ||c||^2.  The gap is measured against
    max(objective, floor) with floor = delta / tol: gap <= tol means
    objective - dual <= max(tol * objective, delta).
    """
    u = 2.0 * (R @ x - c)
    slope = float(np.abs(R.T @ u).max())
    if not modified:
        u *= lam / max(slope, lam)
    dual = -(u @ u) / 4.0 - u @ c - (slope**2 / (4.0 * lam) if modified else 0.0)
    floor = 4.0 * (R.shape[1] + 1) * _EPS * float(c @ c) / tol if tol > 0 else 0.0
    return max(objective - float(dual), 0.0) / max(objective, floor, _OBJ_FLOOR)


def solve_lasso(
    instance: RegressionInstance,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SolverResult:
    """||Ax - b||_2^2 + lam*||x||_1, exactly, by active-set steps."""
    return _active_set(instance, ObjectiveSpec.lasso(lam), tol, max_iter)


def solve_modified_lasso(
    instance: RegressionInstance,
    lam: float,
    tol: float = 1e-8,
    max_iter: int = 20000,
) -> SolverResult:
    """||Ax - b||_2^2 + lam*||x||_1^2, exactly, by active-set steps."""
    return _active_set(instance, ObjectiveSpec.modified_lasso(lam), tol, max_iter)


def solve_rlad(
    instance: RegressionInstance,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 20000,
) -> SolverResult:
    """||Ax - b||_1 + lam*||x||_1, which is the p = 1 case of solve_lp_lp."""
    return solve_lp_lp(instance, 1.0, lam, tol=tol, max_iter=max_iter)


def solve_lp_lp(
    instance: RegressionInstance,
    p: float,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> SolverResult:
    """Damped IRLS for ||Ax - b||_p^p + lam*||x||_p^p, p in [1, 4].

    The first iterate is the unit-weight sweep, the ridge solution of
    (A^T A + lam * I) x = A^T b (zero if that system is singular).  Each
    sweep solves the weighted ridge system
    (A^T W A + lam * diag(v)) x = A^T W b with W = max(|r|, 1e-8)^(p-2) and
    v = max(|x|, 1e-8)^(p-2), by least squares when singular; steps that
    fail to descend are geometrically damped toward the previous iterate, so
    the recorded objective values never increase.  p = 2 has constant
    weights and is solved in closed form by solve_ridge.

    At p = 1 with lam > 0 the problem is a linear program, and once a sweep
    leaves the near-zero residuals Z and the clearly nonzero coordinates S
    where the previous sweep left them, IRLS tries the LP vertex they fix
    (_l1_vertex_certificate), once per pair (Z, S) and only if
    |S| <= |Z| < n: a Z holding every row means the threshold found no
    contrast.  The dual point built with the vertex bounds the minimum from
    below.  When that bound puts the relative gap of the vertex, or of the
    iterate, at or below tol, the better of the two is returned as
    converged and SolverResult.gap records the bound.  Otherwise, and at
    every other p, "converged" means the stall test: two sweeps in a row
    whose relative objective drop and step both fall below tol.
    """
    if not 1 <= p <= 4:
        raise ValueError(f"p must lie in [1, 4], got {p}")
    spec = ObjectiveSpec.lp_lp(p, lam)
    if p == 2:
        return solve_ridge(instance, lam)
    A, b = instance.design, instance.response
    smooth = 1e-8
    diag = np.diag_indices(instance.d)
    H = A.T @ A
    H[diag] += lam
    try:
        x = np.linalg.solve(H, A.T @ b)
    except np.linalg.LinAlgError:
        x = np.zeros(instance.d)
    r = A @ x - b
    abs_r = np.abs(r)
    obj = _objective(r, x, spec)
    history = [obj]
    polish = p == 1 and lam > 0
    last_key, tried = None, set()
    converged = False
    res = np.inf
    lower = -np.inf  # best certified lower bound on the minimum
    gap = np.inf
    flat_sweeps = 0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = np.maximum(abs_r, smooth) ** (p - 2.0)
        v = np.maximum(np.abs(x), smooth) ** (p - 2.0)
        H = A.T @ (w[:, None] * A)
        H[diag] += lam * v
        try:
            target = np.linalg.solve(H, A.T @ (w * b))
        except np.linalg.LinAlgError:
            target = np.linalg.lstsq(H, A.T @ (w * b), rcond=None)[0]
        step = 1.0
        x_new, obj_new, r_new = x, obj, r
        while step > 1e-8:
            cand = x + step * (target - x)
            cand_r = A @ cand - b
            cand_obj = _objective(cand_r, cand, spec)
            if cand_obj <= obj:
                x_new, obj_new, r_new = cand, cand_obj, cand_r
                break
            step /= 2.0
        rel_drop = (obj - obj_new) / max(abs(obj), _OBJ_FLOOR)
        rel_step = np.linalg.norm(x_new - x) / (1.0 + np.linalg.norm(x_new))
        x, obj, r = x_new, obj_new, r_new
        abs_r = np.abs(r)
        res = max(rel_drop, rel_step)
        # While a sweep still moves the objective or the iterate by more
        # than _POLISH_PROGRESS, the sets are not settled and testing them
        # is wasted work.
        if polish and res <= _POLISH_PROGRESS:
            zero, support = _l1_active_sets(abs_r, x)
            key = (zero.tobytes(), support.tobytes())
            settled = key == last_key and key not in tried
            if settled and support.sum() <= zero.sum() < zero.size:
                tried.add(key)
                vertex = _l1_vertex_certificate(A, b, spec, zero, support, obj)
                if vertex is not None:
                    x_v, r_v, obj_v, dual = vertex
                    lower = max(lower, dual)
                    # Only a certified vertex is taken: the exact zeros of a
                    # wrong one would hold IRLS there until the stall test.
                    if obj_v - lower <= tol * max(obj_v, _OBJ_FLOOR):
                        x, r, obj = x_v, r_v, obj_v
            last_key = key
        else:
            last_key = None
        history.append(obj)
        gap = (obj - lower) / max(obj, _OBJ_FLOOR)
        if gap <= tol:
            res, converged = gap, True
            break
        flat_sweeps = flat_sweeps + 1 if res < tol else 0
        if flat_sweeps >= 2:
            converged = True
            break
    return SolverResult(
        solution=x,
        objective_value=obj,
        iterations=iterations,
        converged=converged,
        optimality_residual=float(res),
        objective_history=history,
        gap=float(gap),
    )


def _l1_active_sets(abs_r: np.ndarray, x: np.ndarray):
    """Masks of the near-zero residuals Z and the clearly nonzero coordinates S."""
    abs_x = np.abs(x)
    zero = abs_r <= _SET_TOL * (1.0 + abs_r.max())
    support = abs_x > _SET_TOL * (1.0 + abs_x.max())
    return zero, support


def _l1_vertex_certificate(A, b, spec, zero, support, obj):
    """The LP vertex fixed by (Z, S) and a lower bound on the minimum.

    The vertex fits the rows Z on the columns S, x_S = lstsq(A[Z, S], b[Z]),
    and is zero off S.  With r = Ax - b, the dual point y is sign(r) off the
    rows the vertex fits exactly (|r_i| <= _DUAL_ZERO * (1 + ||r||_inf), a
    subset of Z) and, on them, the least-squares solution of
    (A^T y)_S = -lam * sign(x_S) clipped to [-1, 1]; y is then scaled so that
    ||A^T y||_inf <= lam.  Every such y bounds the minimum from below (weak
    duality): |r_i| >= y_i r_i and lam*|x_j| >= -(A^T y)_j x_j add up to
    P(x) >= -b^T y for every x.  Returns (x, r, objective, -b^T y), or None
    when A[Z, S] has rank below |S|, when the vertex's objective exceeds
    obj, the iterate's, or when it fits fewer than |S| rows exactly: then
    (Z, S) is not the optimum's, and its dual point is not worth building.
    """
    fit = A[np.ix_(zero, support)]
    coef, _, rank, _ = np.linalg.lstsq(fit, b[zero], rcond=None)
    if rank < fit.shape[1]:
        return None
    x = np.zeros(A.shape[1])
    x[support] = coef
    r = A @ x - b
    vertex_obj = _objective(r, x, spec)
    abs_r = np.abs(r)
    zero = zero & (abs_r <= _DUAL_ZERO * (1.0 + abs_r.max()))
    if vertex_obj > obj or zero.sum() < fit.shape[1]:
        return None
    fit = A[np.ix_(zero, support)]
    y = np.sign(r)
    y[zero] = 0.0
    rhs = -spec.lam * np.sign(coef) - A[:, support].T @ y
    y[zero] = np.clip(np.linalg.lstsq(fit.T, rhs, rcond=None)[0], -1.0, 1.0)
    y /= max(1.0, float(np.max(np.abs(A.T @ y))) / spec.lam)
    return x, r, vertex_obj, -float(b @ y)


def solve_multiresponse_rlad(
    A, B, lam: float, tol: float = 1e-6, max_iter: int = 20000
) -> SolverResult:
    """Column-by-column RLAD; the objective is separable across responses.

    The relative gap of the sum is at most the largest column gap.
    """
    A, B = as_matrix(A, "A"), as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ShapeError(
            f"A has {A.shape[0]} rows but B has {B.shape[0]}"
        )
    columns = []
    total = 0.0
    iterations = 0
    converged = True
    res = gap = 0.0
    for j in range(B.shape[1]):
        sub = solve_rlad(
            RegressionInstance(A, B[:, j]), lam, tol=tol, max_iter=max_iter
        )
        columns.append(sub.solution)
        total += sub.objective_value
        iterations = max(iterations, sub.iterations)
        converged = converged and sub.converged
        res = max(res, sub.optimality_residual)
        gap = max(gap, sub.gap)
    return SolverResult(
        solution=np.column_stack(columns),
        objective_value=total,
        iterations=iterations,
        converged=converged,
        optimality_residual=res,
        gap=gap,
    )
