"""Independent ground-truth solvers for linear-model convergence targets.

These share nothing with the stochastic optimizers. Newton on the KKT
system grad psi(w) = grad psi(a) + X^T nu (``_kkt_newton``), with X w =
y for the interpolant and nu = lam (y - X w) for the regularized
reference, takes n x n steps in nu: for l2 and q >= 2 it moves w by the
linearized update, for the entropy and q < 2 (unbounded curvature) it
keeps w = psi*'(grad psi(a) + X^T nu) exactly. It alone solves the
regularized reference; ridge is also solved in closed form. Where it
fails to interpolate (large q, whose answer is too steep in nu), a
damped primal Newton over the null space of X (``_nullspace_newton``)
takes over. They exist so training runs can be checked against
solutions computed by a different route.
"""

import dataclasses

import numpy as np

from .errors import DomainError, NewtonDivergenceError, SingularMatrixError
from .potentials import NegativeEntropy, QNorm, SquaredL2
from .numerics import (MAX_CONDITION, condition_number, eigenvalue_condition,
                       solve_linear_system, symmetric_eigenvalues)


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
# A predicted decrease this small relative to |f| is lost in the
# rounding of f itself (a few ulps of each of its terms).
_FLAT_DECREASE = 64 * np.finfo(float).eps


def _stationary(grad_norm, scale):
    """Stop of ``_nullspace_newton`` and the regularized ``_kkt_newton``: max
    |grad| at most 1e-9 min(1, s), s = max |grad psi(w) - grad psi(a)|, so it
    is relative where the potential's gradient is small (q = 10 near its
    minimizer)."""
    return grad_norm <= 1e-9 * min(1.0, scale)


def _within_rounding(grad_norm, terms):
    """Stop of the same two where they stall: max |grad| at most 1e-6 of the
    largest entry of the terms it sums (lam X^T X w, lam X^T y, grad psi(w),
    grad psi(a)), whose rounding bounds how far it can fall."""
    return grad_norm <= 1e-6 * max(float(np.max(np.abs(term))) for term in terms)


def _kkt_newton(x, y, potential, base, nu, gram_condition=None, lam=None):
    """Infeasible-start Newton on the KKT system grad psi(w) = base + X^T nu, X w = y.

    Iterates on the pair (w, nu) with the residuals r_d = grad psi(w) -
    base - X^T nu and r_p = y - X w. Each step solves the n x n system
    X D X^T dnu = r_p + X D r_d, D = psi*'' at grad psi(w) > 0, with the
    bound ``gram_condition`` max D / min D on its condition number, where
    ``gram_condition`` is that of X X^T; w then moves by the linearized
    KKT update dw = D (X^T dnu - r_d). That linearizes grad psi, which is
    Lipschitz for l2 and q >= 2, where psi*' is infinitely steep at 0.
    Where psi'' is unbounded instead (1/w for the entropy, |w|^(q-2) for
    q < 2), w stays the exact map psi*'(base + X^T nu), r_d = 0, and the
    step is damped Newton on the dual feasibility map X psi*'(.) = y.

    With ``lam`` it minimizes lam/2 ||X w - y||^2 + psi(w) - <base, w>,
    where nu = lam (y - X w): r_p is y - X w - nu / lam and the system X D
    X^T + I / lam, whose eigenvalues lie in [1 / lam, 1 / lam + max D
    ||X||_F^2]. It stays regular where D vanishes (q < 2 at nu = 0), and
    1 + lam max D ||X||_F^2 bounds its condition number.

    Steps are halved until ||(r_d, r_p)|| decreases. Returns psi*'(base +
    X^T nu), stationary by construction, once it interpolates to
    ``_DUAL_TOL`` or, with ``lam``, passes ``_stationary``. When no step
    that moves nu beyond its rounding (nor one of 1e-16) decreases the
    residual, or the iterations run out, it raises; with ``lam`` it
    first returns the iterate w if that passes ``_within_rounding``, as
    at large q, whose answer is too steep in nu, or large lam.
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
            done = float(np.abs(gap).max()) < _DUAL_TOL
        else:
            psi_grad = potential.grad(answer) - base
            grad = lam * (x.T @ (x @ answer - y)) + psi_grad
            done = _stationary(float(np.abs(grad).max()), float(np.abs(psi_grad).max()))
        if done:
            return answer
        # psi*'' = psi*' = exp(v - 1) for the entropy, which is w
        diag = w if isinstance(potential, NegativeEntropy) else potential.grad_inverse_deriv(v)
        # Python floats: an overflow gives inf, not a numpy warning; a D
        # that underflows to 0 gives no bound
        low, high = float(diag.min()), float(diag.max())
        rhs = r_p if exact_map else r_p + x @ (diag * r_d)
        system = (x * diag) @ x.T
        if lam is None:
            bound = gram_condition * high / low if low > 0.0 else float("inf")
        else:
            system[np.diag_indices_from(system)] += 1.0 / lam
            bound = 1.0 + lam * high * float(np.vdot(x, x))  # vdot: ||X||_F^2
        step = solve_linear_system(system, rhs, condition_bound=bound)
        w_step = None if exact_map else diag * (x.T @ step - r_d)
        t = 1.0
        # a step that moves nu by less than its rounding cannot help
        nu_floor, step_size = np.finfo(float).eps * np.abs(nu).max(), np.abs(step).max()
        # a trial point far out overflows to an infinite or NaN residual,
        # which the test rejects like any other increase
        with np.errstate(over="ignore", invalid="ignore"):
            while t > 1e-16 and t * step_size > nu_floor:
                trial = point(None if exact_map else w + t * w_step, nu + t * step)
                if trial[-1] < norm:
                    break
                t *= 0.5
            else:
                break  # stalled: no step that moves nu lowers the residual
        w, nu, dual, v, r_d, r_p, norm = trial
    if lam is not None:
        terms = (lam * (x.T @ (x @ w)), lam * (x.T @ y), potential.grad(w), base)
        grad = terms[0] - terms[1] + terms[2] - terms[3]
        if _within_rounding(float(np.abs(grad).max()), terms):
            return w
    raise NewtonDivergenceError(f"KKT Newton stalled at residual {norm:.3e}")


def _shifted_solve(hess, rhs):
    """Solve (H + shift I) x = rhs at the first shift of 0, 1e-10, 1e-9, ...
    that ``solve_linear_system`` accepts.

    H + shift I has H's eigenvalues plus shift, so one eigenvalue solve
    gives every shift's condition number; each shift at most
    MAX_CONDITION goes to the solve with that number as its bound.
    """
    eig = symmetric_eigenvalues(hess)  # raises at once for a non-finite H
    shift = 0.0
    while shift < float("inf"):
        condition = eigenvalue_condition(eig + shift)
        if condition <= MAX_CONDITION:
            try:
                return solve_linear_system(hess + shift * np.eye(len(rhs)), rhs,
                                           condition_bound=condition)
            except SingularMatrixError:
                pass  # refused after all: the exact test in the bound's margin, or LAPACK
        shift = max(10.0 * shift, 1e-10)
    raise SingularMatrixError("no finite shift makes the Hessian solvable")


def _nullspace_newton(x, y, potential, anchor, w_start):
    """Minimize psi(w) - <grad psi(a), w> over X w = y by damped primal Newton.

    Projects ``w_start`` onto X w = y and searches w_feas + range(N), N an
    orthonormal null-space basis from the SVD of X, so X w = y holds to
    machine precision throughout. The Hessian N^T diag(psi'') N stays
    bounded where the dual one blows up (large q, near-zero coordinates).
    A ``DomainError`` from the potential reads as objective +inf.

    Stops at ``_stationary`` on the null-space gradient, which is relative
    to its size, so the answer does not depend on ``w_start``. Each step
    is Armijo backtracking along the Newton step, then along -grad. When
    neither descends, a step leaves w unchanged or the iterations run
    out, w is accepted if it passes ``_within_rounding``.
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

    def value(v):
        try:
            return potential.value(v) - float(anchor_grad @ v)
        except DomainError:
            return float("inf")

    def gradient(v):
        """Null-space gradient at v, its max norm, and s at v."""
        psi_grad = potential.grad(v) - anchor_grad
        grad = nmat.T @ psi_grad
        return grad, float(np.max(np.abs(grad))), float(np.max(np.abs(psi_grad)))

    w = w_feas + nmat @ (nmat.T @ (w_start - w_feas))
    f = value(w)
    for _ in range(_MAX_ITER):
        grad, grad_norm, scale = gradient(w)
        if _stationary(grad_norm, scale):
            return w
        newton = _shifted_solve((nmat.T * potential.curvature(w)) @ nmat, -grad)
        decrease = float(grad @ newton)
        if 0.0 < -decrease <= _FLAT_DECREASE * abs(f):
            # The predicted decrease is below f's rounding error, so the
            # Armijo test can no longer tell a good step from a bad one.
            # Next to the minimizer, judge the full Newton step by the
            # gradient it leaves instead.
            # A step that leaves the potential's domain has f = inf and
            # no gradient; it goes to the backtracking below.
            w_try = w + nmat @ newton
            f_try = value(w_try)
            if f_try < float("inf") and gradient(w_try)[1] < grad_norm:
                w, f = w_try, f_try
                continue
        # Armijo backtracking along the Newton step, then along -grad;
        # "not <=" also rejects a NaN objective (inf - inf)
        for direction in (newton, -grad):
            step = nmat @ direction
            decrease = float(grad @ direction)
            t = 1.0
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
    if _within_rounding(grad_norm, (potential.grad(w), anchor_grad)):
        return w  # flat directions converged as far as double precision allows
    raise NewtonDivergenceError(f"Newton stalled at gradient {grad_norm:.3e}")


def min_potential_dual(problem, potential, anchor=None):
    """Interpolant minimizing psi(w) (or the divergence from ``anchor``).

    Solves the KKT conditions grad psi(w) = grad psi(a) + X^T nu,
    X w = y by ``_kkt_newton``, warm started from the l2 dual (at nu = 0
    the q-norm Jacobian can be singular or unbounded). For l2 and q >= 2
    it iterates on (w, nu) with the linearized w-update; for the entropy
    and q < 2 w is the exact map psi*'(grad psi(a) + X^T nu). Either way
    the answer is psi*'(grad psi(a) + X^T nu), interpolating to 1e-10.
    Where that fails (an answer too steep in nu to interpolate, as at
    large q, or a singular Jacobian), ``_nullspace_newton`` solves the
    primal from the min-norm interpolant. The negative entropy needs a
    positive start, so when that interpolant is not positive it raises
    instead.
    """
    x, y = problem.X, problem.y
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)
    base = np.zeros(x.shape[1]) if anchor is None else potential.grad(anchor)
    gram = x @ x.T
    gram_condition = condition_number(gram)
    nu = solve_linear_system(gram, y - x @ potential.grad_inverse(base),
                             condition_bound=gram_condition)
    try:
        return _kkt_newton(x, y, potential, base, nu, gram_condition)
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
    For lam >= 0 they lie in [1, 1 + lam ||X||_F^2], ||X||_F^2 being
    sum s_i^2 = trace(X X^T), which bounds the condition number for
    ``solve_linear_system``.
    """
    if not isinstance(rp.potential, SquaredL2):
        raise ValueError("closed form requires the squared-l2 potential")
    x, y = rp.problem.X, rp.problem.y
    n, p = x.shape
    a = np.zeros(p) if rp.anchor is None else np.asarray(rp.anchor, dtype=float)
    gram = x @ x.T
    lam = float(rp.lam)
    bound = 1.0 + lam * float(np.trace(gram)) if lam >= 0.0 else float("inf")
    nu = solve_linear_system(np.eye(n) + lam * gram, lam * (y - x @ a), condition_bound=bound)
    return a + x.T @ nu


def regularized_objective(rp, w):
    """lam * sum_i L_i(w) + psi(w), or the anchored divergence variant."""
    x, y = rp.problem.X, rp.problem.y
    r = y - x @ w
    data_term = 0.5 * rp.lam * float(r @ r)
    if rp.anchor is None:
        return data_term + rp.potential.value(w)
    return data_term + rp.potential.bregman(w, rp.anchor)


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
