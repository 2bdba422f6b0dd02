"""Dense linear solves, BLAS threading and seeded randomness.

Vectors and matrices are plain float64 numpy arrays throughout the
package. All randomness flows through generators created by
:func:`rng_stream`, so a fixed seed reproduces every draw sequence.
"""

import contextlib
import ctypes

import numpy as np

from .errors import SingularMatrixError

# Largest condition number of a system that solve_linear_system accepts.
MAX_CONDITION = 1e12


# (get, set) symbol pairs of numpy's bundled scipy-openblas and of a system OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_thread_api():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None.

    The library is found among this process's mapped files, so the
    lookup works only where /proc/self/maps exists (Linux).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping of a since-deleted file
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Limit OpenBLAS to one thread for the body, then restore its count.

    Grid cells are too small for BLAS threads to pay off, and threads
    from several cell processes oversubscribe the cores. Without a
    reachable OpenBLAS the body runs with the threading it has.
    """
    api = openblas_thread_api()
    if api is None:
        yield
        return
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def rng_stream(seed):
    """Return a deterministic PCG64 generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_stream(seed, *path):
    """Derive an independent child stream from a seed and integer path.

    Used to give each experiment grid cell its own stream so cells can
    be reordered (or parallelized) without changing any draw.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


def symmetric_eigenvalues(a):
    """Eigenvalues of the symmetric matrix A from ``numpy.linalg.eigvalsh``.

    It reads only A's lower triangle and does about half the work of the
    SVD a general matrix needs. Raises SingularMatrixError when A has a
    non-finite entry or LAPACK's eigenvalue solver fails.
    """
    # LAPACK's eigenvalue solver can return finite values for a matrix
    # holding a NaN, so such a matrix is refused before it
    if not np.isfinite(a).all():
        raise SingularMatrixError("matrix has a non-finite entry")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def eigenvalue_condition(eig):
    """2-norm condition number max |eig| / min |eig| of a symmetric matrix
    with eigenvalues ``eig``; a Python float, inf when one of them is 0."""
    eig = np.abs(eig)
    smallest = eig.min()
    return float(eig.max() / smallest) if smallest > 0.0 else float("inf")


def condition_number(a):
    """2-norm condition number of the symmetric matrix A, from its eigenvalues
    (``symmetric_eigenvalues``, whose SingularMatrixError it passes on)."""
    return eigenvalue_condition(symmetric_eigenvalues(a))


def solve_linear_system(a, b, condition_bound=None):
    """Solve the symmetric system A x = b with LAPACK (``numpy.linalg.solve``).

    A must be symmetric up to rounding, as are the systems the oracles
    pass here (X X^T and the ridge dual I + lam X X^T; the KKT Newton's
    step systems go to ``lapack_solve``). Raises SingularMatrixError when
    A's condition number (``condition_number``) exceeds MAX_CONDITION, when
    A has a non-finite entry, or when LAPACK finds A exactly singular.
    Intended for the small (<= a few hundred dimensional) systems the
    oracles produce.

    ``condition_bound`` is an upper bound on A's condition number that the
    caller has proved, such as 1 + lam ||X||_F^2 for I + lam X X^T, whose
    eigenvalues are 1 + lam s_i^2 over the singular values s_i of X. When
    the bound is at most MAX_CONDITION / 2 the eigenvalue solve is skipped;
    the margin of 2 covers the rounding in forming A and in the bound.
    Without a bound, or with an infinite, NaN or larger one, the exact
    test runs. Either way A is accepted or refused alike, and the answer
    comes from the same LAPACK solve.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"expected square system, got A{a.shape}, b{b.shape}")
    if condition_bound is None or not condition_bound <= MAX_CONDITION / 2:
        condition = condition_number(a)
        # "not <=" also refuses a NaN condition number
        if not condition <= MAX_CONDITION:
            raise SingularMatrixError(f"condition number {condition:.3e} above {MAX_CONDITION:.0e}")
    return lapack_solve(a, b)


def lapack_solve(a, b):
    """Solve the square system A x = b with ``numpy.linalg.solve``, whatever
    A's condition number. Raises SingularMatrixError when A has a
    non-finite entry or LAPACK finds A exactly singular."""
    if not np.isfinite(a).all():
        raise SingularMatrixError("matrix has a non-finite entry")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
