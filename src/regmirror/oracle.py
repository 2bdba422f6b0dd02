"""Independent ground-truth solvers for linear-model convergence targets.

These share nothing with the stochastic optimizers. Feasible targets
are solved through the dual KKT system, the squared-l2 regularized
target through its closed form. One damped primal Newton (``_newton``)
on the exact objective serves the rest: over the null space of X where
the dual Newton fails, and over all of R^p for the regularized
reference in every geometry. They exist so training runs can be checked
against solutions computed by a different route.
"""

import dataclasses

import numpy as np

from .errors import DomainError, NewtonDivergenceError, SingularMatrixError
from .potentials import NegativeEntropy, QNorm, SquaredL2
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


_DUAL_TOL = 1e-10  # max |X w - y| that ends the dual attempt
_MAX_ITER = 500    # Newton iterations of either interpolation solver


def _dual_newton(x, y, potential, base, nu):
    """Damped Newton on the dual feasibility map F(nu) = X psi*'(base + X^T nu) - y.

    Steps are halved until the residual norm decreases; when even a step
    of 1e-16 does not, the dual map is too stiff and it raises instead.
    """

    def residual(nu_vec):
        w = potential.grad_inverse(base + x.T @ nu_vec)
        return w, x @ w - y

    w, res = residual(nu)
    for _ in range(_MAX_ITER):
        if float(np.max(np.abs(res))) < _DUAL_TOL:
            return w
        res_norm = float(np.linalg.norm(res))
        diag = potential.grad_inverse_deriv(base + x.T @ nu)
        step = solve_linear_system((x * diag) @ x.T, -res)
        t = 1.0
        # a trial point far out overflows to an infinite or NaN residual,
        # which the test rejects like any other increase
        with np.errstate(over="ignore", invalid="ignore"):
            while t > 1e-16:
                w_try, res_try = residual(nu + t * step)
                if float(np.linalg.norm(res_try)) < res_norm:
                    break
                t *= 0.5
            else:
                raise NewtonDivergenceError(f"dual Newton stalled at residual {res_norm:.3e}")
        nu = nu + t * step
        w, res = w_try, res_try
    raise NewtonDivergenceError(f"dual Newton stopped after {_MAX_ITER} iterations "
                                f"at residual {float(np.max(np.abs(res))):.3e}")


def _shifted_solve(hess, rhs):
    """Solve (H + shift I) x = rhs at the first shift of 0, 1e-10, 1e-9, ...
    whose condition number ``solve_linear_system`` accepts."""
    shift = 0.0
    while True:
        try:
            return solve_linear_system(hess + shift * np.eye(len(rhs)), rhs)
        except SingularMatrixError:
            shift = max(10.0 * shift, 1e-10)
            if shift == float("inf"):
                raise  # no finite shift mends a Hessian with a non-finite entry


def _newton(objective, w, x, y, lam, potential, anchor_grad, nmat=None, max_iter=_MAX_ITER):
    """Minimize lam/2 ||X w - y||^2 + psi(w) - <anchor_grad, w> over w + range(N).

    ``nmat`` is an orthonormal basis N of the search space (None: all of
    R^p). ``objective`` is the function, equal to this one up to a
    constant, whose value the line search compares; a ``DomainError``
    from it reads as +inf. The potential contributes only its separable
    curvature, so the Hessian is lam X^T X plus a diagonal, restricted
    to range(N).

    Stops when the gradient is at most 1e-9 min(1, s), s = max |grad
    psi(w) - anchor_grad|: absolute where the potential's gradient is of
    order one or more, relative where it is small (q = 10 near its
    minimizer). Each step is Armijo backtracking along the Newton step,
    then along -grad, capped at the potential's domain. When neither
    descends, a step leaves w unchanged or ``max_iter`` runs out, w is
    accepted if the gradient is within 1e-6 of the size of its terms.
    """
    xtx, xty = x.T @ x, x.T @ y

    def extend(u):
        return u if nmat is None else nmat @ u

    def value(v):
        try:
            return objective(v)
        except DomainError:
            return float("inf")

    def gradient(v):
        """Gradient over range(N) at v, its max norm, and s at v."""
        psi_grad = potential.grad(v)
        grad = lam * (xtx @ v - xty) + psi_grad - anchor_grad
        grad = grad if nmat is None else nmat.T @ grad
        return grad, float(np.max(np.abs(grad))), float(np.max(np.abs(psi_grad - anchor_grad)))

    f = value(w)
    for _ in range(max_iter):
        grad, grad_norm, scale = gradient(w)
        if grad_norm <= 1e-9 * min(1.0, scale):
            return w
        hess = lam * xtx + np.diag(potential.curvature(w))
        if nmat is not None:
            hess = nmat.T @ hess @ nmat
        # Curvature that grows without bound near w = 0 (1/w for the
        # entropy, |w|^(q-2) for q < 2) can span dozens of orders of
        # magnitude, which the condition-number test reads as singular;
        # solve the Jacobi-scaled system D H D u = -D g, step = D u, for it
        # instead (D = 1 leaves every other potential's step unchanged to
        # the bit).
        unbounded = (isinstance(potential, NegativeEntropy)
                     or (isinstance(potential, QNorm) and potential.q < 2.0))
        d = 1.0 / np.sqrt(np.diag(hess)) if unbounded else np.ones(len(grad))
        newton = d * _shifted_solve(d[:, None] * hess * d, -d * grad)
        decrease = float(grad @ newton)
        if 0.0 < -decrease <= _FLAT_DECREASE * abs(f):
            # The predicted decrease is below f's rounding error, so the
            # Armijo test can no longer tell a good step from a bad one.
            # Next to the minimizer, judge the full Newton step by the
            # gradient it leaves instead.
            # A step that leaves the potential's domain has f = inf and
            # no gradient; it goes to the backtracking below.
            step = extend(newton)
            w_try = w + _max_step(potential, w, step) * step
            f_try = value(w_try)
            if f_try < float("inf") and gradient(w_try)[1] < grad_norm:
                w, f = w_try, f_try
                continue
        # Armijo backtracking along the Newton step, then along -grad;
        # "not <=" also rejects a NaN objective (inf - inf)
        for direction in (newton, -grad):
            step = extend(direction)
            decrease = float(grad @ direction)
            t = _max_step(potential, w, step)
            while t > 1e-16 and not (f_try := value(w + t * step)) <= f + 1e-4 * t * decrease:
                t *= 0.5
            if t > 1e-16:
                break
        else:
            break  # neither direction descends in double precision
        w_next = w + t * step
        if np.array_equal(w_next, w):
            break
        w, f = w_next, f_try
    _, grad_norm, _ = gradient(w)
    terms = max(float(np.max(np.abs(term)))
                for term in (lam * (xtx @ w), lam * xty, potential.grad(w), anchor_grad))
    if grad_norm <= 1e-6 * terms:
        return w  # flat directions converged as far as double precision allows
    raise NewtonDivergenceError(f"Newton stalled at gradient {grad_norm:.3e}")


def _nullspace_newton(x, y, potential, anchor, w_start):
    """Feasible primal Newton over the null space of X.

    Projects ``w_start`` onto X w = y and minimizes the (anchored)
    potential over w_feas + range(N), N an orthonormal null-space basis,
    with ``_newton``, so X w = y holds to machine precision throughout.
    The primal Hessian stays bounded where the dual one blows up (large
    q, near-zero coordinates), and the stationarity test is relative to
    the gradient's size, so the answer does not depend on ``w_start``.
    """
    n, p = x.shape
    u_svd, s, vt = np.linalg.svd(x, full_matrices=True)
    if s[-1] < 1e-12 * s[0]:
        raise NewtonDivergenceError("design matrix is rank deficient")
    w_feas = vt[:n].T @ ((u_svd.T @ y) / s)
    if n == p:
        return w_feas  # X is invertible: the only interpolant
    nmat = vt[n:].T
    anchor_grad = np.zeros(p) if anchor is None else potential.grad(anchor)

    def objective(w):
        return potential.value(w) - float(anchor_grad @ w)

    w = w_feas + nmat @ (nmat.T @ (w_start - w_feas))
    return _newton(objective, w, x, y, 0.0, potential, anchor_grad, nmat)


def min_potential_dual(problem, potential, anchor=None):
    """Interpolant minimizing psi(w) (or the divergence from ``anchor``).

    Solves the KKT conditions grad psi(w) = grad psi(a) + X^T nu,
    X w = y by damped Newton on the dual variable nu, warm started from
    the l2 dual (at nu = 0 the q-norm Jacobian can be singular or
    unbounded). Where that fails (a dual map too stiff, as at large q, or
    a singular Jacobian), ``_nullspace_newton`` solves the primal from
    the min-norm interpolant. The negative entropy needs a positive start,
    so when that interpolant is not positive it raises instead.
    """
    x, y = problem.X, problem.y
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)
    base = np.zeros(x.shape[1]) if anchor is None else potential.grad(anchor)
    nu = solve_linear_system(x @ x.T, y - x @ potential.grad_inverse(base))
    try:
        return _dual_newton(x, y, potential, base, nu)
    except (NewtonDivergenceError, SingularMatrixError) as exc:
        w_start = min_norm_l2(problem)
        if isinstance(potential, NegativeEntropy) and not np.all(w_start > 0.0):
            raise NewtonDivergenceError(f"no positive interpolant found ({exc})") from exc
    return _nullspace_newton(x, y, potential, anchor, w_start)


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
    nu = solve_linear_system(np.eye(n) + rp.lam * (x @ x.T), rp.lam * (y - x @ a))
    return a + x.T @ nu


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


def regularized_reference(rp, max_iter=5000):
    """High-precision minimizer of the regularized batch objective.

    ``_newton`` over all of R^p, judged by ``regularized_objective`` and
    started at the anchor, at 0 or, for the negative entropy, at 0.1.
    Independent of every stochastic code path.
    """
    x, y = rp.problem.X, rp.problem.y
    p = x.shape[1]
    if rp.anchor is None:
        w = np.full(p, 0.1) if isinstance(rp.potential, NegativeEntropy) else np.zeros(p)
        anchor_grad = np.zeros(p)
    else:
        w = np.array(rp.anchor, dtype=float)
        anchor_grad = rp.potential.grad(w)
    return _newton(lambda v: regularized_objective(rp, v), w, x, y, rp.lam, rp.potential,
                   anchor_grad, max_iter=max_iter)
