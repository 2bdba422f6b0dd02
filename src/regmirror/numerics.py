"""Dense linear algebra helpers, BLAS threading and seeded randomness.

Vectors and matrices are plain float64 numpy arrays throughout the
package. All randomness flows through generators created by
:func:`rng_stream`, so a fixed seed reproduces every draw sequence.
"""

import contextlib
import ctypes

import numpy as np

from .errors import SingularMatrixError

# Relative pivot threshold below which elimination refuses to proceed.
PIVOT_TOL = 1e-12


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
    """Solve A x = b by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the largest available pivot falls
    below PIVOT_TOL * max|A|. Intended for the small (<= a few hundred
    dimensional) systems the oracles produce.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"expected square system, got A{a.shape}, b{b.shape}")

    scale = np.max(np.abs(a)) if n else 0.0
    if scale == 0.0:
        raise SingularMatrixError("coefficient matrix is zero")

    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        pivot = a[pivot_row, k]
        if abs(pivot) < PIVOT_TOL * scale:
            raise SingularMatrixError(f"pivot {pivot:.3e} below tolerance at column {k}")
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        factors = a[k + 1:, k] / pivot
        a[k + 1:, k + 1:] -= np.outer(factors, a[k, k + 1:])
        a[k + 1:, k] = 0.0
        b[k + 1:] -= factors * b[k]

    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x
