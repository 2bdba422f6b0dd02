import numpy as np
import pytest

from regmirror.models import LinearModel
from regmirror.numerics import gaussian_matrix, rng_stream
from regmirror.oracle import (InterpolationProblem, RegularizedProblem,
                              min_norm_l2, min_potential_dual,
                              regularized_objective, regularized_reference,
                              ridge_closed_form)
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2


def random_problem(n, p, seed):
    rng = rng_stream(seed)
    return InterpolationProblem(gaussian_matrix(n, p, rng), rng.standard_normal(n))


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
        w = regularized_reference(rp, max_iter=100)
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
        # raised MaxIterationsError at gradient 11: the 1/w curvature
        # (1e27 near w[0] = 3.3e-27) made the pivot test read the Hessian
        # as singular, and the growing shift stalled every step
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

    def test_objective_beats_training_run_value(self):
        # the reference must be at least as good as any other candidate
        problem = random_problem(4, 10, seed=8)
        rp = RegularizedProblem(problem, 1.0, QNorm(3.0))
        w = regularized_reference(rp)
        rng = rng_stream(66)
        for _ in range(20):
            other = rng.standard_normal(10)
            assert regularized_objective(rp, w) <= regularized_objective(rp, other) + 1e-6
