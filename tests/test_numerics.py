import numpy as np
import pytest

from regmirror.errors import SingularMatrixError
from regmirror.numerics import (MAX_CONDITION, lapack_solve, rng_stream, solve_linear_system,
                                spawn_stream)


def _with_spectrum(eigenvalues):
    """Dense symmetric Q diag(eigenvalues) Q^T with Q a seeded random orthogonal matrix."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng_stream(3).standard_normal((n, n)))
    return (q * eigenvalues) @ q.T


class TestSolveLinearSystem:
    def test_identity(self):
        x = solve_linear_system(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = solve_linear_system(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_hand_elimination(self):
        # From [[1,1],[1,2]] x = [3,5]: subtracting rows gives x2 = 2, x1 = 1.
        a = np.array([[1.0, 1.0], [1.0, 2.0]])
        b = np.array([3.0, 5.0])
        x = solve_linear_system(a, b)
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)
        assert np.allclose(a @ x, b, atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.zeros((2, 2)), np.zeros(2))
        # non-finite entries; LAPACK's eigenvalue solver reads the NaN one as well conditioned
        # also when a certified bound skips the eigenvalue solve
        for bad in (np.nan, np.inf):
            for bound in (None, 1.0):
                with pytest.raises(SingularMatrixError, match="non-finite"):
                    solve_linear_system(np.array([[bad, 1.0], [1.0, 1.0]]), np.ones(2),
                                        condition_bound=bound)

    def test_singularity_threshold(self):
        # condition number 1e13 is past MAX_CONDITION = 1e12, 1e11 is not
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.diag([1.0, 1e-13]), np.ones(2))
        x = solve_linear_system(np.diag([1.0, 1e-11]), np.array([2.0, 3e-11]))
        np.testing.assert_allclose(x, [2.0, 3.0], rtol=4 * np.finfo(float).eps, atol=0)
        # the same two bounds on dense symmetric matrices of known spectrum
        with pytest.raises(SingularMatrixError):
            solve_linear_system(_with_spectrum(np.geomspace(1.0, 1e-13, 8)), np.ones(8))
        a = _with_spectrum(np.geomspace(1.0, 1e-11, 8))
        b = a @ np.arange(1.0, 9.0)
        x = solve_linear_system(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-12 * np.max(np.abs(b))
        # indefinite but well conditioned: the test reads |eigenvalue|
        a = _with_spectrum(np.concatenate([np.arange(1.0, 11.0), -np.arange(1.0, 11.0)]))
        x = solve_linear_system(a, np.ones(20))
        np.testing.assert_allclose(a @ x, np.ones(20), rtol=0, atol=1e-13)

    def test_certified_bound_skips_eigenvalue_solve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        a = _with_spectrum(np.arange(1.0, 9.0))
        b = a @ np.arange(1.0, 9.0)
        exact = solve_linear_system(a, b)
        assert len(calls) == 1
        assert np.array_equal(solve_linear_system(a, b, condition_bound=8.0), exact)
        assert np.array_equal(solve_linear_system(a, b, condition_bound=MAX_CONDITION / 2), exact)
        assert len(calls) == 1
        # past the margin the exact test runs
        assert np.array_equal(solve_linear_system(a, b, condition_bound=MAX_CONDITION), exact)
        assert len(calls) == 2

    @pytest.mark.parametrize("bound", [6e11, 1e13, np.inf, np.nan])
    def test_uncertified_bound_keeps_exact_test(self, bound):
        # condition number 1e13; no bound at most MAX_CONDITION / 2 was given
        with pytest.raises(SingularMatrixError, match="condition number"):
            solve_linear_system(np.diag([1.0, 1e13]), np.ones(2), condition_bound=bound)

    def test_badly_scaled_matrix_raises(self):
        # the entropy Hessian's 1/w curvature can be this badly scaled,
        # which is why the oracle's KKT Newton solves with psi*'' = w instead
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.array([[1e27, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve_linear_system(np.ones((2, 3)), np.ones(2))

    def test_residual_contract(self):
        rng = rng_stream(11)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2 + n * np.eye(n)
            b = rng.standard_normal(n)
            x = solve_linear_system(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-10 * (1 + np.max(np.abs(b)))

    @pytest.mark.parametrize("n", [50, 120, 200])
    def test_roundtrip_well_conditioned(self, n):
        rng = rng_stream(n)
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2 + n * np.eye(n)
        b = rng.standard_normal(n)
        x = solve_linear_system(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_lapack_solve_has_no_condition_limit():
    # condition number 1e13, which solve_linear_system refuses
    x = lapack_solve(np.diag([1.0, 1e-13]), np.array([2.0, 3e-13]))
    np.testing.assert_allclose(x, [2.0, 3.0], rtol=4 * np.finfo(float).eps, atol=0)
    for a in (np.array([[np.nan, 1.0], [1.0, 1.0]]), np.zeros((2, 2))):
        with pytest.raises(SingularMatrixError):
            lapack_solve(a, np.ones(2))


class TestRandomness:
    def test_spawn_stream_independent_of_order(self):
        a = spawn_stream(5, 1, 2).standard_normal(4)
        _ = spawn_stream(5, 1, 3).standard_normal(4)
        b = spawn_stream(5, 1, 2).standard_normal(4)
        assert np.array_equal(a, b)
