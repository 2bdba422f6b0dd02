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


def rng_stream(seed, *path):
    """Return a deterministic PCG64 generator for a seed and integer path.

    Each path names an independent child stream, so experiment grid cells
    can be reordered (or parallelized) without changing any draw. Without
    a path it draws as ``Generator(PCG64(seed))``, whose seeding is
    ``SeedSequence([seed])``.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *map(int, path)])))


def solve_linear_system(a, b):
    """Solve the symmetric system A x = b with LAPACK (``lapack_solve``).

    The oracles pass three systems here, all symmetric up to rounding:
    X X^T for ``min_norm_l2`` and for the warm start of
    ``min_potential_dual``, and I + lam X X^T for ``ridge_closed_form``
    (the KKT Newton's step systems go to ``lapack_solve`` directly).
    Raises SingularMatrixError when A has a non-finite entry, when its
    condition number max |eig| / min |eig| from one ``eigvalsh`` call (inf
    for a zero eigenvalue) exceeds MAX_CONDITION, or when LAPACK fails.
    Intended for the small (<= a few hundred dimensional) systems the
    oracles produce.
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
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    smallest = eig.min()
    condition = float(eig.max() / smallest) if smallest > 0.0 else float("inf")
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
