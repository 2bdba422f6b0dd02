"""Independent ground-truth solvers for linear-model convergence targets.

These share nothing with the stochastic optimizers: feasible targets
are solved through the dual KKT system, regularized targets through a
closed form (squared-l2) or a damped Newton descent on the exact batch
objective. They exist so training runs can be checked against solutions
computed by a different route.
"""

import dataclasses

import numpy as np

from .errors import MaxIterationsError, NewtonDivergenceError, SingularMatrixError
from .potentials import NegativeEntropy, SquaredL2
from .numerics import solve_linear_system


@dataclasses.dataclass
class InterpolationProblem:
    """Underdetermined linear system X w = y with X of shape (n, p), p >= n."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        n, p = self.X.shape
        if self.y.shape != (n,):
            raise ValueError(f"y has shape {self.y.shape}, expected ({n},)")
        if p < n:
            raise ValueError(f"need p >= n for interpolation, got n={n}, p={p}")


@dataclasses.dataclass
class RegularizedProblem:
    problem: InterpolationProblem
    lam: float
    potential: object
    anchor: np.ndarray = None


def min_norm_l2(problem):
    """Minimum-l2-norm interpolant w = X^T (X X^T)^{-1} y."""
    x = problem.X
    nu = solve_linear_system(x @ x.T, problem.y)
    return x.T @ nu


def _dual_newton(x, y, potential, base, nu, tol, max_iter):
    """Damped Newton on the dual feasibility map F(nu) = X psi*'(base + X^T nu) - y.

    Steps are halved until the residual norm decreases; when even tiny
    steps fail, a growing Levenberg shift regularizes the Jacobian
    before giving up.
    """

    def residual(nu_vec):
        w = potential.grad_inverse(base + x.T @ nu_vec)
        return w, x @ w - y

    w, res = residual(nu)
    res_norm = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if float(np.max(np.abs(res))) < tol:
            return w, nu
        diag = potential.grad_inverse_deriv(base + x.T @ nu)
        jac = (x * diag) @ x.T
        shift = 0.0
        while True:
            step = solve_linear_system(jac + shift * np.eye(len(nu)), -res)
            t = 1.0
            while t > 1e-16:
                w_try, res_try = residual(nu + t * step)
                if float(np.linalg.norm(res_try)) < res_norm:
                    break
                t *= 0.5
            else:
                shift = max(10.0 * shift, 1e-8 * (1.0 + float(np.max(np.abs(jac)))))
                if shift > 1e12 * (1.0 + float(np.max(np.abs(jac)))):
                    raise NewtonDivergenceError(
                        f"dual Newton stalled at residual {res_norm:.3e}")
                continue
            break
        nu = nu + t * step
        w, res = w_try, res_try
        res_norm = float(np.linalg.norm(res))
    if float(np.max(np.abs(res))) < tol:
        return w, nu
    raise NewtonDivergenceError(
        f"dual Newton did not reach {tol:.1e} in {max_iter} iterations "
        f"(residual {float(np.max(np.abs(res))):.3e})")


def _shifted_solve(hess, rhs):
    """Solve (H + shift I) x = rhs at the first shift of 0, 1e-10, 1e-9, ...
    that elimination accepts as nonsingular."""
    shift = 0.0
    while True:
        try:
            return solve_linear_system(hess + shift * np.eye(len(rhs)), rhs)
        except SingularMatrixError:
            shift = max(10.0 * shift, 1e-10)


def _nullspace_newton(x, y, potential, anchor, w_start, stat_tol=1e-9, max_iter=500):
    """Feasible primal Newton over the null space of X.

    Writes w = w_feas + N u with N an orthonormal null-space basis, so
    X w = y holds to machine precision throughout, and minimizes the
    (anchored) potential in u. Complements the dual solver: the primal
    Hessian stays bounded exactly where the dual one blows up (large-q
    norms with near-zero coordinates).
    """
    n, p = x.shape
    u_svd, s, vt = np.linalg.svd(x, full_matrices=True)
    if s[-1] < 1e-12 * s[0]:
        raise NewtonDivergenceError("design matrix is rank deficient")
    w_feas = vt[:n].T @ ((u_svd.T @ y) / s)
    nmat = vt[n:].T
    anchor_grad = np.zeros(p) if anchor is None else potential.grad(anchor)

    def objective(w):
        try:
            return potential.value(w) - float(anchor_grad @ w)
        except Exception:
            return float("inf")

    u = nmat.T @ (w_start - w_feas)
    w = w_feas + nmat @ u
    f = objective(w)
    for _ in range(max_iter):
        grad_w = potential.grad(w) - anchor_grad
        grad_u = nmat.T @ grad_w
        if float(np.max(np.abs(grad_u))) < stat_tol:
            return w
        hess_u = nmat.T @ (nmat * potential.curvature(w)[:, None])
        step = _shifted_solve(hess_u, -grad_u)
        t = 1.0
        decrease = float(grad_u @ step)
        while t > 1e-16 and objective(w_feas + nmat @ (u + t * step)) > f + 1e-4 * t * decrease:
            t *= 0.5
        u = u + t * step
        w = w_feas + nmat @ u
        f = objective(w)
    grad_norm = float(np.max(np.abs(nmat.T @ (potential.grad(w) - anchor_grad))))
    if grad_norm < 1e-6:
        return w  # flat directions converged as far as double precision allows
    raise NewtonDivergenceError(
        f"null-space Newton stalled at stationarity {grad_norm:.3e}")


def min_potential_dual(problem, potential, anchor=None, tol=1e-10, max_iter=500):
    """Interpolant minimizing psi(w) (or the divergence from ``anchor``).

    Solves the KKT conditions grad psi(w) = grad psi(a) + X^T nu,
    X w = y by damped Newton on the dual variable nu, warm started from
    the l2 dual (at nu = 0 the q-norm Jacobian can be singular or
    unbounded). Strongly curved q-norms are handled by continuation:
    the exponent is walked from 2 toward its target, re-projecting the
    dual at each stage.
    """
    from .potentials import QNorm

    x, y = problem.X, problem.y
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)
    xxt = x @ x.T

    def base_for(pot):
        return np.zeros(x.shape[1]) if anchor is None else pot.grad(anchor)

    def project_dual(pot, w_guess):
        # least-squares nu with base + X^T nu ~ grad psi(w_guess)
        return solve_linear_system(xxt, x @ (pot.grad(w_guess) - base_for(pot)))

    w = None
    try:
        if isinstance(potential, QNorm) and not 1.5 <= potential.q <= 3.0:
            # geometric walk of q-1 from 1 to the target, at most x1.6 per stage
            import math
            target = potential.q - 1.0
            stages = max(1, math.ceil(abs(math.log(target)) / math.log(1.6)))
            w_guess = potential.grad_inverse(base_for(potential))  # stage-0 seed
            nu = solve_linear_system(xxt, y - x @ w_guess)
            for k in range(1, stages + 1):
                pot = QNorm(1.0 + target ** (k / stages))
                if w is not None:
                    nu = project_dual(pot, w)
                stage_tol = tol if k == stages else 1e-8
                w, nu = _dual_newton(x, y, pot, base_for(pot), nu, stage_tol, max_iter)
            return w
        base = base_for(potential)
        nu = solve_linear_system(xxt, y - x @ potential.grad_inverse(base))
        w, _ = _dual_newton(x, y, potential, base, nu, tol, max_iter)
        return w
    except NewtonDivergenceError:
        # large-q instances can make the dual map too stiff; retry in the
        # primal where feasibility is exact by construction
        if w is None:
            w = x.T @ solve_linear_system(xxt, y)
        return _nullspace_newton(x, y, potential, anchor, w, max_iter=max_iter)


def ridge_closed_form(rp):
    """Minimizer of lam/2 ||y - X w||^2 + 1/2 ||w - a||^2.

    Squared-l2 potential only; the normal matrix lam X^T X + I is
    positive definite for every lam > 0.
    """
    if not isinstance(rp.potential, SquaredL2):
        raise ValueError("closed form requires the squared-l2 potential")
    x, y = rp.problem.X, rp.problem.y
    p = x.shape[1]
    a = np.zeros(p) if rp.anchor is None else np.asarray(rp.anchor, dtype=float)
    return solve_linear_system(rp.lam * (x.T @ x) + np.eye(p), rp.lam * (x.T @ y) + a)


def regularized_objective(rp, w):
    """lam * sum_i L_i(w) + psi(w), or the anchored divergence variant."""
    x, y = rp.problem.X, rp.problem.y
    r = y - x @ w
    data_term = 0.5 * rp.lam * float(r @ r)
    if rp.anchor is None:
        return data_term + rp.potential.value(w)
    return data_term + rp.potential.bregman(w, rp.anchor)


# A predicted decrease this small relative to |f| is lost in the
# rounding of f itself (a few ulps of each of its terms).
_FLAT_DECREASE = 64 * np.finfo(float).eps

# Fraction to the boundary: a negative-entropy step keeps every
# coordinate at no less than this share of its current value, so Newton
# never leaves w > 0 even when the minimizer lies orders of magnitude
# below the start.
_BOUNDARY_SHARE = 0.01


def _max_step(potential, w, step):
    """Largest t <= 1 keeping w + t * step inside the potential's domain.

    Only the negative entropy has a boundary; every other potential gets 1.
    """
    if not isinstance(potential, NegativeEntropy):
        return 1.0
    shrink = step < 0.0
    if not np.any(shrink):
        return 1.0
    return min(1.0, float(np.min((1.0 - _BOUNDARY_SHARE) * w[shrink] / -step[shrink])))


def regularized_reference(rp, grad_tol=1e-9, max_iter=5000):
    """High-precision minimizer of the regularized batch objective.

    Damped Newton with an adaptive Tikhonov shift and Armijo
    backtracking on the exact objective; the potential contributes only
    its separable curvature, so the Hessian is lam X^T X plus a
    diagonal. Independent of every stochastic code path. For the
    negative entropy the Newton system is Jacobi-scaled and every step is
    capped at a fraction to the boundary (``_max_step``).
    """
    x, y = rp.problem.X, rp.problem.y
    p = x.shape[1]
    anchor_grad = (np.zeros(p) if rp.anchor is None
                   else rp.potential.grad(np.asarray(rp.anchor, dtype=float)))
    xtx = x.T @ x

    if isinstance(rp.potential, NegativeEntropy):
        w = np.full(p, 0.1) if rp.anchor is None else np.array(rp.anchor, dtype=float)
    else:
        w = np.zeros(p) if rp.anchor is None else np.array(rp.anchor, dtype=float)

    def objective(v):
        try:
            return regularized_objective(rp, v)
        except Exception:
            return float("inf")

    def gradient(v):
        return rp.lam * (xtx @ v - x.T @ y) + rp.potential.grad(v) - anchor_grad

    f = objective(w)
    for _ in range(max_iter):
        grad = gradient(w)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < grad_tol:
            return w
        hess = rp.lam * xtx + np.diag(rp.potential.curvature(w))
        # Entropy curvature 1/w can span dozens of orders of magnitude,
        # which the elimination's pivot test reads as singular; solve the
        # Jacobi-scaled system D H D u = -D g, step = D u, for it instead
        # (D = 1 leaves every other potential's step unchanged to the bit).
        d = (1.0 / np.sqrt(np.diag(hess)) if isinstance(rp.potential, NegativeEntropy)
             else np.ones(p))
        hess = d[:, None] * hess * d
        step = d * _shifted_solve(hess, -d * grad)
        decrease = float(grad @ step)
        if 0.0 < -decrease <= _FLAT_DECREASE * abs(f):
            # The predicted decrease is below f's rounding error, so the
            # Armijo test can no longer tell a good step from a bad one.
            # Next to the minimizer, judge the full Newton step by the
            # gradient it leaves instead.
            # A step that leaves the potential's domain has f = inf and
            # no gradient; it goes to the backtracking below.
            w_try = w + _max_step(rp.potential, w, step) * step
            f_try = objective(w_try)
            if f_try < float("inf") and float(np.max(np.abs(gradient(w_try)))) < grad_norm:
                w, f = w_try, f_try
                continue
        t = _max_step(rp.potential, w, step)
        while t > 1e-16:
            f_try = objective(w + t * step)
            if f_try <= f + 1e-4 * t * decrease:
                break
            t *= 0.5
        else:
            # Newton direction rejected; fall back to a plain gradient step.
            step = -grad
            t = _max_step(rp.potential, w, step)
            decrease = -float(grad @ grad)
            while t > 1e-16 and objective(w + t * step) > f + 1e-4 * t * decrease:
                t *= 0.5
            f_try = objective(w + t * step)
        w = w + t * step
        f = f_try
    raise MaxIterationsError(
        f"reference solver stopped at gradient norm {grad_norm:.3e}")
