import numpy as np
import pytest

import regmirror.oracle as oracle
from regmirror.errors import SingularMatrixError
from regmirror.numerics import MAX_CONDITION, rng_stream, solve_linear_system
from regmirror.oracle import (InterpolationProblem, RegularizedProblem, _nullspace_newton,
                              _shifted_solve, min_norm_l2, min_potential_dual,
                              regularized_objective, regularized_reference,
                              ridge_closed_form)
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2, parse_potential


def random_problem(n, p, seed):
    rng = rng_stream(seed)
    return InterpolationProblem(rng.standard_normal((n, p)), rng.standard_normal(n))


def _seeded_instance(seed, n, p):
    """Standard-normal X (n x p), then y, as ``regmirror oracle`` draws them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    return x, rng.standard_normal(n)


class TestMinNormL2:
    def test_symmetric_row(self):
        w = min_norm_l2(InterpolationProblem(np.array([[1.0, 1.0]]), np.array([2.0])))
        assert np.allclose(w, [1.0, 1.0], atol=1e-12)

    def test_pseudo_inverse_row(self):
        w = min_norm_l2(InterpolationProblem(np.array([[1.0, 2.0]]), np.array([5.0])))
        assert np.allclose(w, [1.0, 2.0], atol=1e-12)
        assert w @ np.array([1.0, 2.0]) == pytest.approx(5.0, abs=1e-12)

    def test_square_system(self):
        w = min_norm_l2(InterpolationProblem(np.eye(2), np.array([4.0, -3.0])))
        assert np.allclose(w, [4.0, -3.0], atol=1e-13)

    def test_feasible_and_in_rowspace(self):
        problem = random_problem(6, 20, seed=1)
        w = min_norm_l2(problem)
        assert np.max(np.abs(problem.X @ w - problem.y)) < 1e-9
        proj = problem.X.T @ np.linalg.solve(problem.X @ problem.X.T, problem.X @ w)
        assert np.max(np.abs(w - proj)) < 1e-9


class TestMinPotentialDual:
    def test_l2_matches_min_norm(self):
        problem = random_problem(5, 16, seed=2)
        w = min_potential_dual(problem, SquaredL2())
        assert np.linalg.norm(w - min_norm_l2(problem)) <= 1e-9 * np.linalg.norm(w)

    def test_qnorm_hand_solved_instance(self):
        # nu^(1/2) * (1 + 2*sqrt(2)) = 5 gives w ~ [1.3060, 1.8470]
        problem = InterpolationProblem(np.array([[1.0, 2.0]]), np.array([5.0]))
        w = min_potential_dual(problem, QNorm(3.0))
        root = 5.0 / (1.0 + 2.0 * np.sqrt(2.0))
        assert np.allclose(w, [root, np.sqrt(2.0) * root], rtol=1e-8)
        assert np.allclose(w, [1.3060, 1.8470], atol=5e-5)

    def test_qnorm_symmetry_forces_equal_coordinates(self):
        problem = InterpolationProblem(np.array([[1.0, 1.0]]), np.array([2.0]))
        w = min_potential_dual(problem, QNorm(3.0))
        assert np.allclose(w, [1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("potential", [QNorm(3.0), QNorm(1.5), QNorm(10.0)],
                             ids=lambda p: p.name)
    def test_feasibility_and_dual_representation(self, potential):
        for seed in range(5):
            problem = random_problem(4, 12, seed=100 + seed)
            w = min_potential_dual(problem, potential)
            assert np.max(np.abs(problem.X @ w - problem.y)) < 1e-9
            # grad psi(w) must lie in the rowspace of X
            g = potential.grad(w)
            proj = problem.X.T @ np.linalg.solve(problem.X @ problem.X.T, problem.X @ g)
            assert np.max(np.abs(g - proj)) < 1e-7

    def test_anchored_l2_reduces_to_shifted_min_norm(self):
        problem = random_problem(4, 10, seed=3)
        anchor = rng_stream(33).standard_normal(10)
        w = min_potential_dual(problem, SquaredL2(), anchor=anchor)
        # closed form: anchor + X^T (X X^T)^-1 (y - X anchor)
        expected = anchor + problem.X.T @ np.linalg.solve(
            problem.X @ problem.X.T, problem.y - problem.X @ anchor)
        assert np.allclose(w, expected, atol=1e-9)

    def test_entropy_positive_solution(self):
        problem = InterpolationProblem(np.array([[1.0, 1.0, 1.0]]), np.array([3.0]))
        w = min_potential_dual(problem, NegativeEntropy())
        assert np.allclose(w, [1.0, 1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("potential", [QNorm(1.1), QNorm(10.0), QNorm(16.0)],
                             ids=lambda p: p.name)
    def test_square_system_returns_the_only_interpolant(self, potential):
        # the dual Newton fails on this instance, and the null space the
        # fallback searches is empty
        problem = random_problem(10, 10, seed=0)
        w = min_potential_dual(problem, potential)
        assert np.allclose(w, np.linalg.solve(problem.X, problem.y), rtol=1e-12, atol=1e-12)

    def test_nullspace_answer_does_not_depend_on_start(self):
        # q = 10 gradients are ~1e-9 near the minimizer, so an absolute
        # stationarity test stopped wherever the start left it.
        potential = QNorm(10.0)
        for seed in range(12):
            rng = rng_stream(seed)
            x = rng.standard_normal((10, 30))
            y = rng.standard_normal(10)
            w_min_norm = min_norm_l2(InterpolationProblem(x, y))
            shift = 0.05 * rng.standard_normal(30)
            shift -= x.T @ np.linalg.solve(x @ x.T, x @ shift)  # stay in the null space
            w_a = _nullspace_newton(x, y, potential, None, w_min_norm)
            w_b = _nullspace_newton(x, y, potential, None, w_min_norm + shift)
            assert np.max(np.abs(w_a - w_b)) <= 1e-6 * np.max(np.abs(w_a))
            assert potential.value(w_b) == pytest.approx(potential.value(w_a), rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_is_a_singular_system(self, bad):
        # X X^T is refused before its eigenvalue solve, which would raise
        # numpy's LinAlgError on it
        x, y = _seeded_instance(0, 4, 12)
        x[1, 5] = bad
        with pytest.raises(SingularMatrixError, match="non-finite"):
            min_potential_dual(InterpolationProblem(x, y), QNorm(3.0))

    def test_anchored_q16_needs_steepest_descent(self):
        # The dual attempt fails and the null-space Newton's line search
        # fails on the way; without a steepest-descent step the solver
        # stalls at a null-space gradient of 0.37.
        rng = np.random.default_rng([3, 20, 60, True])
        x = rng.standard_normal((20, 60))
        y = rng.standard_normal(20)
        anchor = 0.3 * rng.standard_normal(60)
        potential = QNorm(16.0)
        w = min_potential_dual(InterpolationProblem(x, y), potential, anchor=anchor)
        assert np.max(np.abs(x @ w - y)) < 1e-9
        g = potential.grad(w) - potential.grad(anchor)
        proj = x.T @ np.linalg.solve(x @ x.T, x @ g)
        assert np.max(np.abs(g - proj)) <= 1e-7 * np.max(np.abs(g))


def _count_systems(monkeypatch):
    """List that gets one entry per ``solve_linear_system`` call of the oracle."""
    calls = []
    solve = oracle.solve_linear_system

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve_linear_system", counted)
    return calls


def test_q3_interpolant_takes_few_newton_systems(monkeypatch):
    # Newton on the dual map psi*' = sign(v) |v|^(1/2), steep at v = 0,
    # overshot and halved its way here in 51 systems
    x, y = _seeded_instance([0, 0, 60, 200, 15], 60, 200)
    calls = _count_systems(monkeypatch)
    w = min_potential_dual(InterpolationProblem(x, y), QNorm(3.0))
    assert np.max(np.abs(x @ w - y)) < 1e-10
    assert len(calls) <= 10


@pytest.mark.parametrize("anchored", [False, True], ids=["free", "anchored"])
@pytest.mark.parametrize("q", [3.0, 4.0])
def test_qnorm_interpolant_matches_nullspace_newton(monkeypatch, q, anchored):
    # the KKT Newton and the primal null-space Newton reach one minimizer;
    # the dual-map Newton needed 148 to 243 systems for these 10 solves
    potential = QNorm(q)
    calls = _count_systems(monkeypatch)
    answers = []
    for n, p in ((10, 30), (20, 100)):
        for seed in range(5):
            rng = np.random.default_rng([seed, n, p, anchored])
            x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
            anchor = 0.3 * rng.standard_normal(p) if anchored else None
            problem = InterpolationProblem(x, y)
            answers.append((min_potential_dual(problem, potential, anchor=anchor),
                            x, y, anchor, min_norm_l2(problem)))
    assert len(calls) <= 125
    for w, x, y, anchor, w_start in answers:
        w_ref = _nullspace_newton(x, y, potential, anchor, w_start)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)


# The KKT Newton stalls at rounding short of _stationary on these: linf's
# answer psi*'(base + X^T nu) is too steep in nu, and at large lam the
# rounding of lam X^T (X w - y) outgrows the test. A primal Newton over
# R^p needed 160 to 5,012 systems to finish them.
@pytest.mark.parametrize("name, lam, seed, n, p", [
    pytest.param("linf", 1.0, 2, 20, 100, id="linf"),
    pytest.param("q:3", 1e5, 4, 10, 30, id="q3-lam1e5"),
    pytest.param("l1eps", 1e6, 0, 10, 30, id="l1eps-lam1e6"),
    pytest.param("entropy", 1e6, 3, 10, 30, id="entropy-lam1e6"),
])
def test_reference_stops_at_rounding_in_few_systems(monkeypatch, name, lam, seed, n, p):
    rng = np.random.default_rng([seed, n, p])
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    if name == "entropy":
        y = x @ rng.uniform(0.1, 1.0, p)  # fit by a positive w
    potential = parse_potential(name)
    calls = _count_systems(monkeypatch)
    w = regularized_reference(RegularizedProblem(InterpolationProblem(x, y), lam, potential))
    assert len(calls) <= 60
    # the gradient is within 1e-6 of the largest of the terms it sums
    grad = lam * x.T @ (x @ w - y) + potential.grad(w)
    terms = (lam * x.T @ (x @ w), lam * x.T @ y, potential.grad(w))
    assert np.max(np.abs(grad)) <= 1e-6 * max(np.max(np.abs(term)) for term in terms)


class _BrokenValue(SquaredL2):
    """Squared-l2 whose value() has a bug, and whose dual map is constant so
    that the dual attempt stalls and the null-space Newton runs."""

    def value(self, w):
        raise TypeError("bug in value()")

    def grad_inverse(self, v):
        return np.zeros_like(v)


@pytest.mark.parametrize("solve", [
    lambda problem: min_potential_dual(problem, _BrokenValue()),
], ids=["min_potential_dual"])
def test_bug_in_potential_is_not_read_as_leaving_its_domain(solve):
    # only a DomainError means "outside the domain, objective = inf"
    with pytest.raises(TypeError, match="bug in value"):
        solve(random_problem(3, 8, seed=9))


def test_condition_bounds_leave_answers_unchanged(monkeypatch):
    # a bound only skips the eigenvalue solve of a system the exact test
    # accepts, so dropping every bound changes no answer
    problems, ridges = [], []
    for n, p in ((10, 30), (20, 100)):
        x, y = _seeded_instance(n, n, p)
        y_pos = x @ rng_stream(p).uniform(0.5, 1.5, p)
        for name in ("l2", "q:3", "q:1.5", "linf", "l1eps", "entropy"):
            problems.append((InterpolationProblem(x, y_pos if name == "entropy" else y),
                             parse_potential(name)))
        # lambda 1e13 lands past the margin, so ridge keeps the exact test there
        ridges += [RegularizedProblem(InterpolationProblem(x, y), lam, SquaredL2())
                   for lam in (1.0, 1e13)]

    def solve_all():
        return ([min_potential_dual(problem, potential) for problem, potential in problems]
                + [ridge_closed_form(rp) for rp in ridges])

    bounded = solve_all()
    bounds = []

    def without_bound(a, b, condition_bound=None):
        bounds.append(condition_bound)
        return solve_linear_system(a, b)

    monkeypatch.setattr(oracle, "solve_linear_system", without_bound)
    for w, w_exact in zip(bounded, solve_all(), strict=True):
        assert np.array_equal(w, w_exact)
    # most solves had a certified bound, so the two runs took different paths
    certified = [b for b in bounds if b is not None and b <= MAX_CONDITION / 2]
    assert len(certified) > len(bounds) / 2


@pytest.mark.filterwarnings("error")
def test_shift_search_gives_up_on_non_finite_hessian():
    # no shift makes a NaN Hessian solvable; the search must end, not spin
    with pytest.raises(SingularMatrixError):
        _shifted_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_shift_search_reads_eigenvalues_once(monkeypatch):
    # H + shift I has H's eigenvalues plus shift: the refused shift 0 and
    # the accepted 1e-10 both come from one eigenvalue solve
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(1)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    u = _shifted_solve(np.diag([1.0, 0.0]), np.ones(2))
    np.testing.assert_allclose(u, [1.0 / (1.0 + 1e-10), 1e10], rtol=1e-12)
    assert len(calls) == 1


class TestRidgeClosedForm:
    def test_hand_instance(self):
        rp = RegularizedProblem(
            InterpolationProblem(np.array([[1.0, 0.0]]), np.array([1.0])),
            lam=1.0, potential=SquaredL2())
        w = ridge_closed_form(rp)
        assert np.allclose(w, [0.5, 0.0], atol=1e-12)
        # stationarity of lam/2 ||y - Xw||^2 + 1/2 ||w||^2
        grad = rp.lam * rp.problem.X.T @ (rp.problem.X @ w - rp.problem.y) + w
        assert np.max(np.abs(grad)) < 1e-12

    def test_small_lambda_returns_anchor(self):
        problem = random_problem(3, 8, seed=4)
        anchor = rng_stream(44).standard_normal(8)
        w = ridge_closed_form(RegularizedProblem(problem, 1e-12, SquaredL2(), anchor))
        assert np.allclose(w, anchor, atol=1e-9)

    def test_huge_lambda_returns_min_norm_interpolant(self):
        # the p x p normal matrix has condition number 2.2e14 here, past
        # MAX_CONDITION; the n x n dual system stays well conditioned
        problem = random_problem(4, 12, seed=6)
        w = ridge_closed_form(RegularizedProblem(problem, 1e13, SquaredL2()))
        np.testing.assert_allclose(w, min_norm_l2(problem), rtol=0, atol=1e-9)

    def test_objective_no_worse_than_anchor(self):
        problem = random_problem(4, 9, seed=5)
        anchor = min_norm_l2(problem)
        rp = RegularizedProblem(problem, 2.0, SquaredL2(), anchor)
        w = ridge_closed_form(rp)
        assert regularized_objective(rp, w) <= regularized_objective(rp, anchor) + 1e-12


class TestRegularizedReference:
    def test_matches_ridge_on_random_instances(self):
        rng = rng_stream(50)
        for trial in range(50):
            n = int(rng.integers(2, 11))
            p = int(rng.integers(n, 31))
            problem = random_problem(n, p, seed=1000 + trial)
            lam = float(rng.uniform(0.2, 5.0))
            rp = RegularizedProblem(problem, lam, SquaredL2())
            w_ref = regularized_reference(rp)
            w_cf = ridge_closed_form(rp)
            assert np.linalg.norm(w_ref - w_cf) <= 1e-6 * (1 + np.linalg.norm(w_cf))

    def test_huge_lambda_approaches_feasible_minimizer(self):
        problem = random_problem(4, 12, seed=6)
        for potential in (SquaredL2(), QNorm(3.0)):
            rp = RegularizedProblem(problem, 1e6, potential)
            w = regularized_reference(rp)
            w_feas = min_potential_dual(problem, potential)
            assert np.linalg.norm(w - w_feas) <= 1e-3 * (1 + np.linalg.norm(w_feas))

    def test_near_l1_potential_prefers_sparse_fit(self):
        # one informative coordinate; the q=1.1 solution should park the other near 0
        problem = InterpolationProblem(np.array([[1.0, 0.05]]), np.array([1.0]))
        w = regularized_reference(RegularizedProblem(problem, 50.0, QNorm(1.1)))
        assert abs(w[1]) < 0.01
        assert abs(w[0]) > 0.5

    def test_anchored_objective_gradient_vanishes(self):
        problem = random_problem(3, 7, seed=7)
        anchor = 0.5 * np.abs(rng_stream(55).standard_normal(7)) + 0.2
        rp = RegularizedProblem(problem, 1.5, QNorm(3.0), anchor)
        w = regularized_reference(rp)
        g = rp.lam * problem.X.T @ (problem.X @ w - problem.y) \
            + rp.potential.grad(w) - rp.potential.grad(anchor)
        assert np.max(np.abs(g)) < 1e-9

    def test_converges_where_objective_is_flat_to_rounding(self):
        # Armijo backtracking on f stalled here at a gradient of 1.4e-9
        # (||X^T y||_inf = 13.5): the last Newton decreases fall below
        # f's rounding error.
        rng = np.random.default_rng([15, 5, 10, 30, 2])
        x = rng.standard_normal((10, 30))
        y = rng.standard_normal(10)
        rp = RegularizedProblem(InterpolationProblem(x, y), 1.0, QNorm(3.0))
        w = regularized_reference(rp)
        g = x.T @ (x @ w - y) + rp.potential.grad(w)
        assert np.max(np.abs(g)) < 1e-12

    def test_flat_newton_step_outside_entropy_domain_backtracks(self):
        # The minimizer is w* = 7.1e-23. On the way down the objective is
        # flat to rounding while log(w / w*) > 1, so the full Newton step
        # -log(w / w*) w lands below zero, outside the entropy domain.
        x, y = np.array([[1.0]]), np.array([-1.0])
        rp = RegularizedProblem(InterpolationProblem(x, y), 50.0, NegativeEntropy())
        w = regularized_reference(rp)
        g = 50.0 * x.T @ (x @ w - y) + rp.potential.grad(w)
        assert w[0] > 0.0
        assert np.max(np.abs(g)) < 1e-9

    @pytest.mark.parametrize("lam,make", [
        # ran out of iterations at gradient 11: the 1/w curvature (1e27
        # near w[0] = 3.3e-27) made the pivot test read the Hessian as
        # singular, and the growing shift stalled every step
        pytest.param(50.0, lambda: (np.array([[1.0, 0.5], [0.0, 1.0]]),
                                    np.array([-1.0, 1.0])), id="2x2"),
        # raised DomainError: a damped step reached w <= 0
        pytest.param(100.0, lambda: _seeded_instance([9, 10, 30], 10, 30), id="10x30"),
    ])
    def test_entropy_minimizer_far_below_start(self, lam, make):
        x, y = make()
        rp = RegularizedProblem(InterpolationProblem(x, y), lam, NegativeEntropy())
        w = regularized_reference(rp)
        g = lam * x.T @ (x @ w - y) + rp.potential.grad(w)
        assert np.all(w > 0.0)
        assert np.min(w) < 1e-20  # the minimizer is orders of magnitude below the start
        assert np.max(np.abs(g)) < 1e-9

    def test_linf_reference_is_stationary(self):
        # q = 10 gradients are far below 1 near the minimizer, where an
        # absolute stop at gradient 1e-9 left max |grad F| / max |grad psi|
        # between 2.1e-6 and 8.5e-2 on these instances.
        potential = QNorm(10.0)
        for seed in range(12):
            problem = random_problem(10, 30, seed)
            w = regularized_reference(RegularizedProblem(problem, 1.0, potential))
            g = problem.X.T @ (problem.X @ w - problem.y) + potential.grad(w)
            assert np.max(np.abs(g)) <= 1e-6 * np.max(np.abs(potential.grad(w)))

    @pytest.mark.parametrize("seed, n, p, anchored", [
        # stalled while the curvature near a zero coordinate was clipped
        # at 1e12, with or without the Jacobi scaling (unscaled, the
        # condition-number test read the Hessian as singular)
        pytest.param(3, 10, 30, True, id="10x30-anchored"),
        # stalled with the clipped curvature, and also unclipped without
        # the Jacobi scaling
        pytest.param(2, 4, 12, False, id="4x12"),
        # the primal Newton stalled at gradients of 1.5e-2 to 3.6e-2
        *[pytest.param(seed, 10, 30, False, id=f"10x30-seed{seed}") for seed in (0, 2, 3, 4)],
        *[pytest.param(seed, 20, 100, False, id=f"20x100-seed{seed}") for seed in (0, 2)],
    ])
    def test_l1eps_reference_is_stationary(self, seed, n, p, anchored):
        rng = np.random.default_rng([seed, n, p, anchored])
        x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
        anchor = 0.3 * rng.standard_normal(p) if anchored else None
        potential = QNorm(1.1)
        w = regularized_reference(
            RegularizedProblem(InterpolationProblem(x, y), 1.0, potential, anchor))
        psi_grad = potential.grad(w) - (0.0 if anchor is None else potential.grad(anchor))
        g = x.T @ (x @ w - y) + psi_grad
        assert np.max(np.abs(g)) <= 1e-6 * np.max(np.abs(psi_grad))

    def test_objective_beats_training_run_value(self):
        # the reference must be at least as good as any other candidate
        problem = random_problem(4, 10, seed=8)
        rp = RegularizedProblem(problem, 1.0, QNorm(3.0))
        w = regularized_reference(rp)
        rng = rng_stream(66)
        for _ in range(20):
            other = rng.standard_normal(10)
            assert regularized_objective(rp, w) <= regularized_objective(rp, other) + 1e-6
