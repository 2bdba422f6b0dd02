import numpy as np
import pytest

import regmirror.oracle as oracle
from regmirror.errors import SingularMatrixError
from regmirror.numerics import MAX_CONDITION, rng_stream
from regmirror.oracle import (InterpolationProblem, RegularizedProblem, min_norm_l2,
                              min_potential_dual, regularized_objective,
                              regularized_reference, ridge_closed_form)
from regmirror.potentials import NegativeEntropy, QNorm, SquaredL2, parse_potential


def random_problem(n, p, seed):
    rng = rng_stream(seed)
    return InterpolationProblem(rng.standard_normal((n, p)), rng.standard_normal(n))


def _seeded_instance(seed, n, p):
    """Standard-normal X (n x p), then y, as ``regmirror oracle`` draws them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    return x, rng.standard_normal(n)


def _assert_interpolant(x, y, w, potential, anchor=None):
    """First-order conditions of the interpolant: X w = y to 1e-10, and the
    part of grad psi(w) - grad psi(a) outside the row space of X at most
    1e-9 of the larger of max |grad psi(w)| and max |grad psi(a)|, which
    the difference can cancel (an anchor next to the answer)."""
    assert np.max(np.abs(x @ w - y)) < 1e-10
    g = potential.grad(w)
    scale = np.max(np.abs(g))
    if anchor is not None:
        scale = max(scale, np.max(np.abs(potential.grad(anchor))))
        g = g - potential.grad(anchor)
    off_rows = g - x.T @ np.linalg.solve(x @ x.T, x @ g)
    assert np.max(np.abs(off_rows)) <= 1e-9 * scale


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
        # X is invertible: the l2 solve already gives the only interpolant
        problem = random_problem(10, 10, seed=0)
        w = min_potential_dual(problem, potential)
        assert np.allclose(w, np.linalg.solve(problem.X, problem.y), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_is_a_singular_system(self, bad):
        # X X^T is refused before its eigenvalue solve, which would raise
        # numpy's LinAlgError on it
        x, y = _seeded_instance(0, 4, 12)
        x[1, 5] = bad
        with pytest.raises(SingularMatrixError, match="non-finite"):
            min_potential_dual(InterpolationProblem(x, y), QNorm(3.0))

    def test_anchored_q16_needs_steepest_descent(self):
        # A primal Newton over the null space of X needed a steepest-descent
        # step here, and without it stalled at a null-space gradient of 0.37.
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
    """List that gets one entry per linear system the oracle solves: its
    ``solve_linear_system`` and ``lapack_solve`` calls."""
    calls = []

    def counting(solve):
        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        return counted

    for name in ("solve_linear_system", "lapack_solve"):
        monkeypatch.setattr(oracle, name, counting(getattr(oracle, name)))
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
@pytest.mark.parametrize("q", [3.0, 4.0, 10.0, 16.0])
def test_qnorm_interpolant_matches_nullspace_newton(monkeypatch, q, anchored):
    # the answer meets the first-order conditions in the null space of X;
    # for these 10 solves the dual-map Newton needed 148 to 243 systems at
    # q = 3 and 4, and the KKT Newton with a null-space fallback 508 at
    # anchored q = 10 and 1,112 at anchored q = 16 (4 free q = 16 failed)
    potential = QNorm(q)
    calls = _count_systems(monkeypatch)
    answers = []
    for n, p in ((10, 30), (20, 100)):
        for seed in range(5):
            rng = np.random.default_rng([seed, n, p, anchored])
            x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
            anchor = 0.3 * rng.standard_normal(p) if anchored else None
            answers.append((min_potential_dual(InterpolationProblem(x, y), potential,
                                               anchor=anchor), x, y, anchor))
    assert len(calls) <= {3.0: 125, 4.0: 125, 10.0: 300, 16.0: 400}[q]
    for w, x, y, anchor in answers:
        _assert_interpolant(x, y, w, potential, anchor)


# Large-q interpolants that a primal Newton over the null space of X failed
# on ("Newton stalled at gradient 1.4e-15", after 512 to 519 systems) or had
# to finish (23 and 41 systems in all) after the KKT Newton stalled or, at
# 20 x 24, met a step system past MAX_CONDITION: near an answer entry close
# to 0, D = psi*'' spans too many decades. That system shifted until it was
# within MAX_CONDITION gave steps that stalled at residuals of 1e-2 to 5.
@pytest.mark.parametrize("name, seed, n, p, anchored, max_systems", [
    *[pytest.param("q:16", seed, 20, 100, False, 30, id=f"q16-20x100-seed{seed}")
      for seed in (0, 2, 3)],
    pytest.param("q:16", 1, 60, 200, False, 30, id="q16-60x200-seed1"),
    pytest.param("q:16", 4, 10, 30, False, 20, id="q16-10x30-seed4"),
    pytest.param("linf", 5, 10, 30, True, 20, id="linf-10x30-seed5-anchored"),
    pytest.param("linf", 0, 20, 24, False, 20, id="linf-20x24-seed0"),
    pytest.param("q:16", 1, 20, 24, False, 20, id="q16-20x24-seed1"),
])
def test_large_q_interpolant_in_few_systems(monkeypatch, name, seed, n, p, anchored,
                                            max_systems):
    rng = np.random.default_rng([seed, n, p])
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    anchor = 0.3 * rng.standard_normal(p) if anchored else None
    potential = parse_potential(name)
    calls = _count_systems(monkeypatch)
    w = min_potential_dual(InterpolationProblem(x, y), potential, anchor=anchor)
    assert len(calls) <= max_systems
    _assert_interpolant(x, y, w, potential, anchor)


def test_interpolant_scaled_down_keeps_its_tolerance():
    # the l2 interpolant of y = 10 N(0, 1) has entries above 1, so linf is
    # solved for c y with c < 1; a stop at |c y - X c w| < 1e-10 left
    # |y - X w| = 1.9e-10 here
    x, y = _seeded_instance([4, 10, 30], 10, 30)
    w = min_potential_dual(InterpolationProblem(x, 10.0 * y), QNorm(10.0))
    _assert_interpolant(x, 10.0 * y, w, QNorm(10.0))


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


def test_one_eigenvalue_solve_per_guarded_solve(monkeypatch):
    # solve_linear_system's condition test is one eigvalsh call, and the
    # KKT Newton's step systems make none
    problem = InterpolationProblem(*_seeded_instance(0, 10, 30))
    # X X^T = diag(1, 1.25e-12): condition number 8e11, accepted, but
    # within a factor 2 of MAX_CONDITION
    x_ill = np.zeros((2, 4))
    x_ill[0, 0], x_ill[1, 1] = 1.0, np.sqrt(1.25e-12)
    assert MAX_CONDITION / 2 < np.linalg.cond(x_ill @ x_ill.T) <= MAX_CONDITION
    ill = InterpolationProblem(x_ill, np.ones(2))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    for solve in (lambda: min_norm_l2(problem),
                  lambda: min_potential_dual(ill, SquaredL2()),
                  lambda: ridge_closed_form(RegularizedProblem(problem, 1.0, SquaredL2())),
                  lambda: ridge_closed_form(RegularizedProblem(problem, 1e13, SquaredL2()))):
        calls.clear()
        solve()
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
