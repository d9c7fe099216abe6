"""Solvers for ||Ax - b||_p^r + lam * ||x||_q^s and friends.

Closed form for ridge, Lawson-Hanson active-set steps for the lasso and the
squared-l1 "modified lasso", and damped IRLS for l_p losses with an l_p^p
penalty.  At p = 1 with lam > 0 (least absolute deviations with an l1
penalty, RLAD) the problem is a linear program: IRLS only finds a start,
sweeping until one moves the objective and the iterate by at most 10%, and
an exact vertex descent on the rows of [A; lam I] finishes it.

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
bound) that the KKT conditions hold to tol.  IRLS counts sweeps, and at
p = 1 with lam > 0 the descent's pivots too; there the optimal vertex's
dual point certifies the gap and "converged" means gap <= tol.  Otherwise,
and at every other p, "converged" means the stall test passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiencyError, ShapeError
from .linalg import (
    RegressionInstance,
    as_matrix,
    as_vector,
    check_basis_exponent,
    check_fraction,
    check_full_column_rank,
)
from .objective import ObjectiveSpec

_OBJ_FLOOR = 1e-30
_EPS = np.finfo(float).eps
# Relative active-set gradients, and the excess |y_k| - 1 of an LP vertex's
# dual, below this are rounding.
_KKT_TOL = 1e-12
_SINE_TOL = 1e-5  # least sine of a column to the earlier ones in a Gram solve
# IRLS at p = 1 hands its iterate to the LP vertex descent after the first
# sweep that changes the objective and the iterate by at most _VERTEX_GATE
# (relative).  Sweeps plus pivots, summed over the RLAD tables at d = 30 and
# lam = 0.5 (rlad-small: 16 tables at n = 400, one trial per cell; rlad-sizes:
# n = 20 000, five trials per cell; seed 2):
#   gate   rlad-small full / coreset   rlad-sizes full / coreset
#   1e-2         96 / 755                   119 / 1456
#   1e-1         32 / 310                   137 / 1621
#   1e9          17 / 210                   207 / 1536
# At 1e-1 the start basis is as good as at 1e-2 but for a few pivots, and
# the full solve at n = 20 000 still gets the sweeps that make its first
# basis cheap to finish; with no gate (1e9, descent after the first sweep)
# that solve is about 25% slower.  The descent starts from rows whose sine
# to the rows taken before them exceeds _BASIS_SINE, since a start basis
# nearer singular puts the vertex far from the iterate, and gives up after
# _PIVOTS_PER_COLUMN * d pivots.
_VERTEX_GATE = 1e-1
_BASIS_SINE = 1e-3
_PIVOTS_PER_COLUMN = 10
# Caps on active-set steps and on IRLS sweeps (the descent's pivots are not
# counted), read at call time rather than bound as default arguments.
_ACTIVE_SET_STEPS = 20000
_IRLS_SWEEPS = 500


@dataclass(frozen=True)
class SolverResult:
    """What a solve returned and how far it got.

    gap is the best certified upper bound on the relative optimality gap
    (objective - optimum) / objective that the solve found, or inf when it
    found none; the lasso families divide by max(objective, floor), with
    floor * tol the rounding allowance of the dual objective, whose terms
    are of size ||c||^2.  converged, gap and iterations mean what the module
    docstring says for each family; objective_history holds the objective
    before the first iteration and after each active-set step or IRLS
    sweep, then once after an RLAD vertex descent, and is empty for ridge.
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


def sparsity_count(x) -> int:
    """Number of coordinates with |x_j| strictly below 1e-6."""
    return int(np.sum(np.abs(as_vector(x, "x")) < 1e-6))


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


def _active_set(instance, spec, tol) -> SolverResult:
    """Lawson-Hanson active-set steps for ||Ax - b||_2^2 + lam*||x||_1^s.

    With x = z+ - z-, z >= 0 and (R, c) the instance's squared-loss factor,
    the modified lasso (s = 2) is nonnegative least squares in Bz ~ e with
    B = [R -R; sqrt(lam) 1^T], e = [c; 0] (z+_j z-_j = 0 at the optimum);
    the lasso (s = 1) is min ||Bz - c||^2 + lam 1^T z with B = [R -R].
    Each step heads for the minimum over the passive (free) variables and
    stops where one reaches zero, which leaves the set; at a minimum, the
    variable with the largest negative gradient w = q - Qz enters.  The
    steps end when none exceeds _KKT_TOL (||q||_inf + linear term), before a
    step that would raise the objective, at a minimum no lower than the
    last one (only rounding causes those two), or after _ACTIVE_SET_STEPS
    steps.  tol bounds the certified gap at lam > 0 and the relative KKT
    residual at lam = 0, where there is no dual bound; it lies in (0, 1).
    By weak duality the dual point u = 2(Rx - c), scaled for the lasso so
    that ||R^T u||_inf <= lam, bounds the minimum below: it certifies gap.
    When that gap is above tol, the x of one more solve on the passive face
    builds a second dual point, and gap is the better of the two.
    """
    check_fraction(tol, "tol")
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
    while iterations < _ACTIVE_SET_STEPS:
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
        objective_value=history[-1],  # the objective of this x, as evaluate_objective gives it
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
    floor = 4.0 * (R.shape[1] + 1) * _EPS * float(c @ c) / tol
    return max(objective - float(dual), 0.0) / max(objective, floor, _OBJ_FLOOR)


def solve_lasso(
    instance: RegressionInstance, lam: float, tol: float = 1e-8
) -> SolverResult:
    """||Ax - b||_2^2 + lam*||x||_1, exactly, by active-set steps."""
    return _active_set(instance, ObjectiveSpec.lasso(lam), tol)


def solve_modified_lasso(
    instance: RegressionInstance, lam: float, tol: float = 1e-8
) -> SolverResult:
    """||Ax - b||_2^2 + lam*||x||_1^2, exactly, by active-set steps."""
    return _active_set(instance, ObjectiveSpec.modified_lasso(lam), tol)


def solve_rlad(
    instance: RegressionInstance, lam: float, tol: float = 1e-6
) -> SolverResult:
    """||Ax - b||_1 + lam*||x||_1, which is the p = 1 case of solve_lp_lp."""
    return solve_lp_lp(instance, 1.0, lam, tol=tol)


def solve_lp_lp(
    instance: RegressionInstance, p: float, lam: float, tol: float = 1e-10
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

    At p = 1 with lam > 0 the problem is a linear program.  After the first
    sweep that moves the objective and the iterate by at most _VERTEX_GATE
    (10%, relative), an exact descent over the LP's vertices starts from the rows
    nearest that iterate and ends at an optimal vertex in finitely many
    pivots (_l1_vertex_descent).  Its dual, clipped to [-1, 1] on the rows
    of A and scaled so that ||A^T y||_inf <= lam, bounds the minimum below
    by -b^T y (weak duality); the vertex is taken unless its objective is
    above the iterate's, and the optimum's objective is recorded once in
    objective_history, while iterations counts sweeps and pivots.  When the
    bound puts the relative gap at or below tol, the solve stops converged
    and SolverResult.gap records it.  If the descent fails (a singular basis
    or its pivot cap), IRLS goes on as at every other p, where "converged"
    means the stall test: two sweeps in a row whose relative objective drop
    and step both fall below tol.  IRLS stops unconverged after
    _IRLS_SWEEPS sweeps; the descent's pivots do not count against it.  tol
    lies in (0, 1).
    """
    check_basis_exponent(p)
    check_fraction(tol, "tol")
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
    obj = _objective(r, x, spec)
    history = [obj]
    descend = p == 1 and lam > 0
    converged = False
    res = np.inf
    lower = -np.inf  # certified lower bound on the minimum
    gap = np.inf
    flat_sweeps = pivots = sweeps = 0
    while sweeps < _IRLS_SWEEPS:
        sweeps += 1
        w = np.maximum(np.abs(r), smooth) ** (p - 2.0)
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
        res = max(rel_drop, rel_step)
        history.append(obj)
        # Until a sweep moves the objective and the iterate by at most
        # _VERTEX_GATE, the smallest residuals mark the optimal vertex too
        # loosely for the descent to pay for its start.
        if descend and res <= _VERTEX_GATE:
            descend = False
            x_v, pivots, y = _l1_vertex_descent(A, b, lam, x)
            if x_v is not None:
                y /= max(1.0, float(np.max(np.abs(A.T @ y))) / lam)
                lower = -float(b @ y)
                r_v = A @ x_v - b
                obj_v = _objective(r_v, x_v, spec)
                if obj_v <= obj:
                    x, r, obj = x_v, r_v, obj_v
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
        iterations=sweeps + pivots,
        converged=converged,
        optimality_residual=float(res),
        objective_history=history,
        gap=float(gap),
    )


@np.errstate(divide="ignore", invalid="ignore")
def _l1_vertex_descent(A, b, lam, x):
    """An optimal vertex of ||Ax - b||_1 + lam*||x||_1, reached from near x.

    The objective is ||Mx - c||_1 with M = [A; lam I] and c = [b; 0], once
    identical rows of [A b] are merged into one row times their count (at
    p = 1 that keeps every objective, and repeats would make degenerate
    vertices, where the descent can cycle).  A vertex solves M_B x = c_B for
    a basis B of d rows; the first basis is the d rows with the least
    |m_i x - c_i| / ||m_i|| that are independent (_vertex_basis).  With
    s = sign(Mx - c) off B, the dual y_B solves M_B^T y_B = -M_N^T s_N, and
    leaving row k's hyperplane on the side sign(y_k) changes the objective
    at the rate 1 - |y_k|.  So the vertex is optimal once every |y_k| <= 1
    (to _KKT_TOL); until then the row with the largest |y_k| leaves, and
    the next vertex on that edge is the weighted median of the hyperplanes
    it crosses: the rate rises by 2|m_i delta| at each, and the row where it
    turns nonnegative enters.  Each pivot updates the inverse of M_B, the
    residuals and M_N^T s_N in place; an optimum found that way is checked
    once more from scratch.

    Returns (x, pivots, y) with y the dual on the rows of A (y_B, clipped to
    [-1, 1], where the row is basic and s where not), or (None, pivots,
    None) when a basis is singular or _PIVOTS_PER_COLUMN * d pivots pass
    first.
    """
    n, d = A.shape
    # Sorted by a key that equal rows share, identical rows are neighbours.
    key = A.sum(axis=1) + b
    order = np.argsort(key)
    tie = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    lo, hi = order[tie], order[tie + 1]
    tie = tie[np.all(A[lo] == A[hi], axis=1) & (b[lo] == b[hi])]
    first = np.ones(n, dtype=bool)
    first[tie + 1] = False
    rows = np.empty(n, dtype=int)
    rows[order] = np.cumsum(first) - 1
    keep, counts = order[first], np.bincount(rows)
    M = np.zeros((keep.size + d, d))
    np.multiply(A[keep], counts[:, None], out=M[:keep.size])
    M[keep.size:] = lam * np.eye(d)
    c = np.zeros(keep.size + d)
    c[:keep.size] = b[keep] * counts

    basis = _vertex_basis(M, np.abs(M @ x - c))
    if basis is None:
        return None, 0, None
    pivots = 0
    while True:
        # Refresh the inverse, the residuals e, their signs s off the basis
        # and h = M^T s, which the pivots below update in place.
        try:
            inv = np.linalg.inv(M[basis])
        except np.linalg.LinAlgError:
            return None, pivots, None
        x = inv @ c[basis]
        e = M @ x - c
        e[basis] = 0.0
        s = np.sign(e)
        h = s @ M
        fresh = True
        while True:
            z = h @ inv  # -y_B
            k = int(np.argmax(np.abs(z)))
            need = abs(float(z[k])) - 1.0
            if need <= _KKT_TOL:
                break
            if pivots == _PIVOTS_PER_COLUMN * d:
                return None, pivots, None
            pivots, fresh = pivots + 1, False
            sigma = -1.0 if z[k] > 0 else 1.0  # sign(y_k)
            g = M @ (sigma * inv[:, k])
            g[basis] = 0.0
            # The edge crosses hyperplane i at t = -e_i / g_i >= 0 (the
            # basis, with e_i = g_i = 0, gives nan and drops out).  In order
            # of t the rate 1 - |y_k| rises by 2|g_i| at each, by |g_i| at
            # an exact zero residual (s_i = 0), until it turns nonnegative.
            t = e / g
            cross = np.flatnonzero(t <= 0)
            t = -t[cross]
            size = 2 * d
            while True:
                if size < t.size:
                    ahead = np.argpartition(t, size)[:size]
                    ahead = ahead[np.argsort(t[ahead])]
                else:
                    ahead = np.argsort(t)
                i = cross[ahead]
                rise = np.abs(g[i])
                rise[s[i] != 0] *= 2.0
                stop = int(np.searchsorted(np.cumsum(rise), need))
                if stop < i.size or size >= t.size:
                    break
                size *= 4
            if stop == i.size:  # unbounded: not at lam > 0
                return None, pivots, None
            j, step, passed, left = i[stop], t[ahead[stop]], i[:stop], basis[k]
            # Move to the new vertex: the rows passed change sign, row k
            # leaves the basis on side sigma and row j enters it.
            g *= step
            e += g
            e[left], e[j] = sigma * step, 0.0
            if stop:
                new = np.sign(e[passed])
                h += (new - s[passed]) @ M[passed]
                s[passed] = new
            h += sigma * M[left] - s[j] * M[j]
            s[left], s[j], basis[k] = sigma, 0.0, j
            # Row k of M_B is now m_j: a rank-one change of the inverse.
            w = M[j] @ inv
            w[k] -= 1.0
            inv -= inv[:, k, None] * (w / (w[k] + 1.0))
        if fresh:
            s[basis] = np.clip(-z, -1.0, 1.0)
            return x, pivots, s[rows]


@np.errstate(divide="ignore", invalid="ignore")
def _vertex_basis(M, distance):
    """The start basis: d independent rows of M near the iterate, or None.

    Rows are taken in order of distance / ||row||, each one whose sine to
    the rows taken before it exceeds _BASIS_SINE, until there are d (None
    when M has lower rank).  A block at a time: the QR factor of the next
    rows, less their part in the span Q of the rows taken, has |R_jj| equal
    to row j's distance from that span and the rows before it, as long as
    those rows are independent; the rows up to the first dependent one are
    taken.
    """
    m, d = M.shape
    norms = np.sqrt(np.einsum("ij,ij->i", M, M))
    pending = np.argsort(distance / norms)  # zero rows give inf or nan: last
    pending = pending[norms[pending] > 0]
    Q, basis, size = np.zeros((d, 0)), [], 2 * d
    while len(basis) < d:
        head = pending[:size]
        C = M[head]
        if basis:
            C -= (C @ Q) @ Q.T
            apart = np.sqrt(np.einsum("ij,ij->i", C, C)) > _BASIS_SINE * norms[head]
            head, C = head[apart], C[apart]
        if head.size:
            q, R = np.linalg.qr(C.T)
            k = min(R.shape[0], d - len(basis))
            ok = np.abs(np.diag(R)[:k]) > _BASIS_SINE * norms[head[:k]]
            take = k if ok.all() else int(np.argmin(ok))
            basis += head[:take].tolist()
            Q = np.hstack([Q, q[:, :take]])
            head = head[take:]
        elif size >= pending.size:
            return None
        pending = np.concatenate([head, pending[size:]])
        size *= 2
    return np.array(basis)


def solve_multiresponse_rlad(A, B, lam: float, tol: float = 1e-6) -> SolverResult:
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
        sub = solve_rlad(RegressionInstance(A, B[:, j]), lam, tol=tol)
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
