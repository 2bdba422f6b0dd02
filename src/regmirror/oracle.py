"""Independent ground-truth solvers for linear-model convergence targets.

These share nothing with the stochastic optimizers. Newton on the KKT
system grad psi(w) = grad psi(a) + X^T nu (``_kkt_newton``), with X w =
y for the interpolant and nu = lam (y - X w) for the regularized
reference, takes n x n steps in nu: for l2 and q >= 2 it moves w by the
linearized update, for the entropy and q < 2 (unbounded curvature) it
keeps w = psi*'(grad psi(a) + X^T nu) exactly. It alone solves both the
interpolant (a q-norm one at unit scale) and the regularized reference;
ridge is also solved in closed form. They exist so training runs can be
checked against solutions computed by a different route. Each public
solver holds OpenBLAS to one thread, so its answer is the same at any thread count.
"""

import dataclasses

import numpy as np

from .errors import NewtonDivergenceError, SingularMatrixError
from .potentials import NegativeEntropy, QNorm, SquaredL2
from .numerics import lapack_solve, single_blas_thread, solve_linear_system


@dataclasses.dataclass
class InterpolationProblem:
    """Underdetermined linear system X w = y with X of shape (n, p), p >= n, all finite."""

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
        if not np.isfinite(self.X).all():
            raise SingularMatrixError("matrix has a non-finite entry")
        if not np.isfinite(self.y).all():
            raise ValueError("y has a non-finite entry")


@dataclasses.dataclass
class RegularizedProblem:
    problem: InterpolationProblem
    lam: float
    potential: object
    anchor: np.ndarray = None


@single_blas_thread()
def min_norm_l2(problem):
    """Minimum-l2-norm interpolant w = X^T (X X^T)^{-1} y."""
    x = problem.X
    nu = solve_linear_system(x @ x.T, problem.y)
    return x.T @ nu


_DUAL_TOL = 1e-10  # max |X w - y| of an interpolant
_MAX_ITER = 500    # iterations of the KKT Newton


def _stationary(grad_norm, scale):
    """Stop of the regularized ``_kkt_newton``: max |grad| at most 1e-9
    min(1, s), s = max |grad psi(w) - grad psi(a)|, so it is relative where
    the potential's gradient is small (q = 10 near its minimizer)."""
    return grad_norm <= 1e-9 * min(1.0, scale)


def _within_rounding(grad_norm, terms):
    """Stop of ``_kkt_newton`` where it stalls: max |grad| at most 1e-6 of the
    largest entry of the terms it sums (lam X^T X w, lam X^T y, grad psi(w)
    and grad psi(a) for the reference; grad psi(w), grad psi(a) and X^T nu
    for r_d of the interpolant), whose rounding bounds how far it can fall."""
    return grad_norm <= 1e-6 * max(float(np.max(np.abs(term))) for term in terms)


# a point far out (a trial step, or a dual map of huge power at q near 1)
# overflows to an infinite or NaN residual, which no line-search or stop test accepts
@np.errstate(over="ignore", invalid="ignore")
def _kkt_newton(x, y, potential, base, nu, lam=None, tol=_DUAL_TOL):
    """Infeasible-start Newton on the KKT system grad psi(w) = base + X^T nu, X w = y.

    Iterates on the pair (w, nu) with the residuals r_d = grad psi(w) -
    base - X^T nu and r_p = y - X w. Each step solves the n x n system
    X D X^T dnu = r_p + X D r_d, D = psi*'' at grad psi(w) > 0, and w
    then moves by the linearized KKT update dw = D (X^T dnu - r_d). That
    linearizes grad psi, which is Lipschitz for l2 and q >= 2, where psi*'
    is infinitely steep at 0.
    Where psi'' is unbounded instead (1/w for the entropy, |w|^(q-2) for
    q < 2), w stays the exact map psi*'(base + X^T nu), r_d = 0, and the
    step is damped Newton on the dual feasibility map X psi*'(.) = y.
    Each system goes to ``lapack_solve`` whatever its condition number (a
    D spread over many decades, as where a large-q w nears 0, pushes it
    past 1e12): the step is only a trial, which the line search keeps
    only if it lowers the residual.

    With ``lam`` it minimizes lam/2 ||X w - y||^2 + psi(w) - <base, w>,
    where nu = lam (y - X w): r_p is y - X w - nu / lam and the system X D
    X^T + I / lam, whose eigenvalues are at least 1 / lam, so it stays
    regular where D vanishes (q < 2 at nu = 0).

    Steps are halved until ||(r_d, r_p)|| decreases. Returns psi*'(base +
    X^T nu), stationary by construction, once it interpolates to ``tol``
    or, with ``lam``, passes ``_stationary``. When no step that moves nu
    beyond its rounding (nor one of 1e-16) decreases the residual, or the
    iterations run out, it returns the iterate w if that passes
    ``_within_rounding`` (and, without ``lam``, interpolates to ``tol``),
    as at large q, whose answer is too steep in nu, or large lam, and
    raises otherwise.
    """
    exact_map = (isinstance(potential, NegativeEntropy)
                 or (isinstance(potential, QNorm) and potential.q < 2.0))

    def point(w, nu):
        """(w, nu, base + X^T nu, grad psi(w), r_d, r_p, ||(r_d, r_p)||) at the
        pair (w, nu); w None stands for the exact map psi*'(base + X^T nu)."""
        dual = base + x.T @ nu
        if w is None:
            w = potential.grad_inverse(dual)
        v = dual if exact_map else potential.grad(w)
        r_d = None if exact_map else v - dual
        r_p = y - x @ w
        if lam is not None:
            r_p -= nu / lam
        norm = np.sqrt(r_p @ r_p)
        if r_d is not None:
            norm = np.hypot(np.sqrt(r_d @ r_d), norm)
        return w, nu, dual, v, r_d, r_p, float(norm)

    w, nu, dual, v, r_d, r_p, norm = point(None, nu)
    for _ in range(_MAX_ITER):
        answer = w if exact_map else potential.grad_inverse(dual)
        if lam is None:
            gap = r_p if exact_map else y - x @ answer
            done = float(np.abs(gap).max()) < tol
        else:
            psi_grad = potential.grad(answer) - base
            grad = lam * (x.T @ (x @ answer - y)) + psi_grad
            done = _stationary(float(np.abs(grad).max()), float(np.abs(psi_grad).max()))
        if done:
            return answer
        # psi*'' = psi*' = exp(v - 1) for the entropy, which is w
        diag = w if isinstance(potential, NegativeEntropy) else potential.grad_inverse_deriv(v)
        rhs = r_p if exact_map else r_p + x @ (diag * r_d)
        system = (x * diag) @ x.T
        if lam is not None:
            system[np.diag_indices_from(system)] += 1.0 / lam
        step = lapack_solve(system, rhs)
        w_step = None if exact_map else diag * (x.T @ step - r_d)
        t = 1.0
        # a step that moves nu by less than its rounding cannot help
        nu_floor, step_size = np.finfo(float).eps * np.abs(nu).max(), np.abs(step).max()
        while t > 1e-16 and t * step_size > nu_floor:
            trial = point(None if exact_map else w + t * w_step, nu + t * step)
            if trial[-1] < norm:
                break
            t *= 0.5
        else:
            break  # stalled: no step that moves nu lowers the residual
        w, nu, dual, v, r_d, r_p, norm = trial
    if lam is None:
        # r_d = grad psi(w) - base - X^T nu, which the exact map makes 0
        terms, grad = (v, base, x.T @ nu), (0.0 if exact_map else r_d)
        fits = float(np.abs(r_p).max()) < tol
    else:
        terms = (lam * (x.T @ (x @ w)), lam * (x.T @ y), potential.grad(w), base)
        grad, fits = terms[0] - terms[1] + terms[2] - terms[3], True
    if fits and _within_rounding(float(np.abs(grad).max()), terms):
        return w
    raise NewtonDivergenceError(f"KKT Newton stalled at residual {norm:.3e}")


@single_blas_thread()
def min_potential_dual(problem, potential, anchor=None):
    """Interpolant minimizing psi(w) (or the divergence from ``anchor``).

    Solves the KKT conditions grad psi(w) = grad psi(a) + X^T nu,
    X w = y by ``_kkt_newton`` alone, warm started from the l2 dual nu of
    the interpolant nearest psi*'(grad psi(a)) (at nu = 0 the q-norm
    Jacobian can be singular or unbounded). For l2 and q >= 2 it iterates
    on (w, nu) with the linearized w-update; for the entropy and q < 2 w
    is the exact map psi*'(grad psi(a) + X^T nu). The answer interpolates
    to 1e-10. A q-norm is solved at unit scale: psi(c w) = c^q psi(w), so
    c w is the answer for c y and c^(q-1) grad psi(a), where c is the
    power of two nearest 1 / max |w| of that l2 interpolant. Otherwise a
    large-q answer of entries far below 1 has a gradient near 1e-17, lost
    next to the rounding of X w - y in the residual norm. A square X has
    one interpolant, which the l2 solve already gives. An answer outside
    the potential's domain (an entropy w that is not positive) raises
    ``DomainError``.
    """
    x, y = problem.X, problem.y
    n, p = x.shape
    base = np.zeros(p) if anchor is None else potential.grad(np.asarray(anchor, dtype=float))
    start = potential.grad_inverse(base)
    nu = solve_linear_system(x @ x.T, y - x @ start)
    w_l2 = start + x.T @ nu
    if n == p:
        w = w_l2  # X is invertible: its only interpolant
    elif isinstance(potential, QNorm):
        # c, a power of two, is exact to apply and undo; the gap c y - X c w
        # is c times y - X w, so the tolerance shrinks with a c below 1
        size = float(np.abs(w_l2).max())
        c = 2.0 ** -round(np.log2(size)) if 0.0 < size < float("inf") else 1.0
        w = _kkt_newton(x, c * y, potential, c ** (potential.q - 1.0) * base, c * nu,
                        tol=min(c, 1.0) * _DUAL_TOL) / c
    else:
        w = _kkt_newton(x, y, potential, base, nu)
    potential.check_domain(w)
    return w


@single_blas_thread()
def ridge_closed_form(rp):
    """Minimizer of lam/2 ||y - X w||^2 + 1/2 ||w - a||^2.

    Squared-l2 potential only. The minimizer solves the p x p normal
    system (lam X^T X + I) w = lam X^T y + a; by the push-through
    identity it is w = a + X^T nu with the n x n system
    (I + lam X X^T) nu = lam (y - X a), which is smaller since p >= n.
    Its eigenvalues are 1 + lam s_i^2 over the singular values s_i of X,
    so it is positive definite for every lam > 0 and never worse
    conditioned than the normal matrix, which adds p - n eigenvalues 1.
    """
    if not isinstance(rp.potential, SquaredL2):
        raise ValueError("closed form requires the squared-l2 potential")
    x, y = rp.problem.X, rp.problem.y
    n, p = x.shape
    a = np.zeros(p) if rp.anchor is None else np.asarray(rp.anchor, dtype=float)
    lam = float(rp.lam)
    nu = solve_linear_system(np.eye(n) + lam * (x @ x.T), lam * (y - x @ a))
    return a + x.T @ nu


def regularized_objective(rp, w):
    """lam * sum_i L_i(w) + psi(w), or the anchored divergence variant."""
    x, y = rp.problem.X, rp.problem.y
    r = y - x @ w
    data_term = 0.5 * rp.lam * float(r @ r)
    if rp.anchor is None:
        return data_term + rp.potential.value(w)
    return data_term + rp.potential.bregman(w, rp.anchor)


@single_blas_thread()
def regularized_reference(rp):
    """High-precision minimizer of the regularized batch objective.

    ``_kkt_newton`` with the nu / lam term, from nu = 0: its answer passes
    ``_stationary`` or, where it stalls at rounding (linf, q:16, large
    lam), ``_within_rounding``. Independent of every stochastic code path.
    """
    x, y = rp.problem.X, rp.problem.y
    n, p = x.shape
    anchor = None if rp.anchor is None else np.asarray(rp.anchor, dtype=float)
    base = np.zeros(p) if anchor is None else rp.potential.grad(anchor)
    return _kkt_newton(x, y, rp.potential, base, np.zeros(n), lam=float(rp.lam))
