"""kswave's one binding to LAPACK: tridiagonal systems factored once and
solved many times, banded systems solved once, and the largest eigenvalue
of a symmetric tridiagonal matrix.

LAPACK ``dgttrf`` computes the LU factorization of a tridiagonal matrix with
partial pivoting, and ``dgttrs`` then solves against it in O(n) per
right-hand side.  This is the same elimination ``?gtsv`` performs (and so
``scipy.linalg.solve_banded`` with one band on each side), so a solve against
the stored factors returns the bits a from-scratch solve would, without
re-validating and re-eliminating a constant matrix on every call.

``dgttrs`` substitutes the right-hand sides one column after another, while
``dgtsv`` eliminates all of them row by row in one pass over the matrix, with
the same operations, so the two give the same bits.  A block of right-hand
sides is therefore solved by ``dgtsv`` on the stored matrix, and one
right-hand side by ``dgttrs`` on the stored factors.  For 799 unknowns on a
2-core Xeon (Python 3.11, scipy 1.17) ``dgtsv`` took 17, 24 and 35 us for 1,
2 and 3 columns against 11, 22 and 34 us for ``dgttrs``, and 42 and 97 us
for 4 and 11 columns against 45 and 127 us: slower up to two columns,
faster from four.  A sweep's block has one row per point.

:func:`solve_tridiagonal` is the one ``dgtsv`` call.  It solves the blocks
of :class:`TridiagonalLU` and its systems of two unknowns, which the
``dgttrf`` wrapper rejects (one unknown is one division, as in scipy's
``solve_banded``), and the bordered Newton step of ``kswave.ignition``,
which eliminates its border row itself.

:func:`solve_banded` is one ``dgbsv`` call (banded LU with partial
pivoting, then the substitution): the Newton step of ``kswave.stationary``,
whose Jacobian changes every step and so is factored once per solve.

:func:`largest_eigenvalue` is the ``dstebz`` call (Sturm-sequence bisection
to an absolute tolerance) that ``scipy.linalg.eigvalsh_tridiagonal`` makes for
the top eigenvalue with ``lapack_driver="stebz"``, with the same refusals.

The routines come from scipy's compiled f2py module ``scipy.linalg._flapack``,
loaded from its file without running ``scipy/linalg/__init__.py`` or
``scipy/__init__.py``: scipy's folder is found from its import spec.  The
``scipy.linalg`` package import pulls in scipy's array-API layer and,
through it, ``numpy.f2py`` and ``numpy.testing``: over 300 modules, about
0.23 s of processor time and 18 MB of memory on a 2-core Xeon with Python
3.11, numpy 2.4 and scipy 1.17, which was half the start-up cost of every
kswave process.  The module is registered under its own name, so an
``import scipy.linalg`` before or after this one shares the one instance.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

__all__ = ["TridiagonalLU", "largest_eigenvalue", "solve_banded",
           "solve_tridiagonal"]

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's ``_flapack`` extension module: the registered one if scipy.linalg
    (or this function) has already loaded it, else loaded from its file."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    folder = Path(spec.submodule_search_locations[0]) / "linalg"
    paths = [folder / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"LAPACK extension {_FLAPACK} not found: none of "
                          + ", ".join(str(p) for p in paths), name=_FLAPACK)
    loader = ExtensionFileLoader(_FLAPACK, str(path))
    module = module_from_spec(spec_from_file_location(_FLAPACK, path,
                                                      loader=loader))
    loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


_flapack = _load_flapack()
dgbsv, dgtsv, dgttrf, dgttrs, dstebz = (
    _flapack.dgbsv, _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs,
    _flapack.dstebz)


class TridiagonalLU:
    """LU factors of the n x n tridiagonal matrix with subdiagonal ``dl``,
    diagonal ``d`` and superdiagonal ``du``, and the matrix itself.  A zero
    pivot raises RuntimeError, here or in :meth:`solve`."""

    def __init__(self, dl, d, du):
        d = np.asarray(d, dtype=float)
        self._n = d.size
        self._matrix = (np.asarray(dl, dtype=float), d,
                        np.asarray(du, dtype=float))
        if self._n < 3:
            if self._n == 1 and d[0] == 0.0:
                raise RuntimeError("singular tridiagonal matrix")
            return
        *factors, info = dgttrf(*self._matrix)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._factors = factors

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution x of A x = b for ``b`` of shape (n,), or of shape (n, k)
        for k right-hand sides at once (one ``dgtsv`` call; each column gets
        the bits a solve of that column alone would).  A contiguous float
        ``b`` (Fortran order when 2-D) is overwritten by x and returned; use
        the return value in any case."""
        if self._n < 2:
            return np.divide(b, self._matrix[1][0], out=b)
        if self._n == 2 or b.ndim == 2:
            return solve_tridiagonal(*self._matrix, b)
        x, info = dgttrs(*self._factors, b, overwrite_b=True)
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return x


def solve_tridiagonal(dl, d, du, b: np.ndarray) -> np.ndarray:
    """Solution x of A x = b for the n x n tridiagonal matrix A with
    subdiagonal ``dl``, diagonal ``d`` and superdiagonal ``du``, n >= 2, and
    ``b`` of shape (n,) or (n, k): one ``dgtsv`` call (LU with partial
    pivoting), which leaves A's arrays as they are.  A contiguous float
    ``b`` (Fortran order when 2-D) is overwritten by x.  A zero pivot
    raises RuntimeError."""
    *_, x, info = dgtsv(dl, d, du, b, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (info={info})")
    return x


def solve_banded(kl: int, ku: int, ab: np.ndarray, b: np.ndarray):
    """Solution x of A x = b for the n x n matrix A with ``kl`` sub- and
    ``ku`` superdiagonals, by LU with partial pivoting in one ``dgbsv``
    call.  ``ab`` holds A in LAPACK band storage, shape (2 kl + ku + 1, n):
    A[i, j] is ab[kl + ku + i - j, j], and the first kl rows are left for
    the fill-in of the pivoting.  A Fortran-order float ``ab`` is
    overwritten by the factors, and ``b``, of shape (n,) or (n, k), by x.
    A zero pivot raises RuntimeError."""
    *_, x, info = dgbsv(kl, ku, ab, b, overwrite_ab=True, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"banded solve failed (info={info})")
    return x


def largest_eigenvalue(d, e, tol: float) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``d`` (length n >= 1) and off-diagonal ``e`` (length n - 1), by
    Sturm-sequence bisection to the absolute tolerance ``tol`` (LAPACK reads
    ``tol <= 0`` as its own default).  Non-finite entries raise ValueError
    and a LAPACK failure raises RuntimeError."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal matrix has non-finite entries")
    n = d.size
    if n == 1:      # the wrapper refuses an empty e; scipy returns d[0] too
        return float(d[0])
    # range 2 selects eigenvalues il..iu (1-based); order "E": ascending
    _, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, n, n, float(tol), "E")
    if info != 0:
        raise RuntimeError(f"dstebz failed (info={info})")
    return float(w[0])
