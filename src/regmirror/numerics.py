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


def solve_linear_system(a, b):
    """Solve the symmetric system A x = b with LAPACK (``numpy.linalg.solve``).

    A must be symmetric up to rounding, as every system the oracles build
    is (X X^T, X D X^T, the ridge dual I + lam X X^T and the Newton
    Hessians); its lower triangle alone sets the condition test. For a
    symmetric A the 2-norm condition number is max |eig| / min |eig|, so
    it comes from ``numpy.linalg.eigvalsh``, about half the work of the
    SVD a general matrix needs. Raises SingularMatrixError when that
    number exceeds MAX_CONDITION, when A has a non-finite entry, or when
    LAPACK finds A exactly singular. Intended for the small (<= a few
    hundred dimensional) systems the oracles produce.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"expected square system, got A{a.shape}, b{b.shape}")
    # LAPACK's eigenvalue solver can return finite values for a matrix
    # holding a NaN, so such a matrix is refused before it
    if not np.isfinite(a).all():
        raise SingularMatrixError("matrix has a non-finite entry")
    try:
        eig = np.abs(np.linalg.eigvalsh(a))
        smallest = eig.min()
        condition = eig.max() / smallest if smallest > 0.0 else np.inf
        # "not <=" also refuses a NaN condition number
        if not condition <= MAX_CONDITION:
            raise SingularMatrixError(f"condition number {condition:.3e} above {MAX_CONDITION:.0e}")
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
