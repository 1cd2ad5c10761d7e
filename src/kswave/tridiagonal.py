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

:func:`solve_bordered` solves a tridiagonal matrix bordered by one column and
one row, the Jacobian of a banded system with one scalar unknown added (a
speed, or a continuation parameter) and one equation to fix it.  It is one
``dgtsv`` call with two right-hand sides, the system's own and the border
column, and then one scalar elimination for the border row.

:func:`solve_banded` is one ``dgbsv`` call (banded LU with partial
pivoting, then the substitution): the Newton step of ``kswave.stationary``,
whose Jacobian changes every step and so is factored once per solve.

The ``dgttrf`` wrapper rejects systems of fewer than three unknowns, so those
are solved from scratch on each call, as scipy's ``solve_banded`` solves
them: by ``dgtsv`` for two unknowns and by one division for one.

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
           "solve_bordered"]

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
        if self._n >= 3 and b.ndim == 1:
            x, info = dgttrs(*self._factors, b, overwrite_b=True)
        elif self._n >= 2:
            # dgtsv overwrites copies of the stored matrix, not the matrix
            *_, x, info = dgtsv(*self._matrix, b, overwrite_b=True)
        else:
            x = np.divide(b, self._matrix[1][0], out=b)
            info = 0
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
        return x


def solve_bordered(dl, d, du, col, row, corner: float, rhs, rhs_end: float):
    """Solution (x, s) of the (n + 1) x (n + 1) system

        [ A      col    ] [x]   [rhs    ]
        [ row^T  corner ] [s] = [rhs_end]

    with A the n x n tridiagonal matrix (``dl``, ``d``, ``du``), n >= 2, and
    ``col``, ``row`` and ``rhs`` of length n: A [y z] = [rhs col] in one
    ``dgtsv`` call, then s = (rhs_end - row.y) / (corner - row.z) and
    x = y - s z.  Block elimination needs A itself nonsingular.  A zero pivot
    of A or a zero Schur complement raises RuntimeError."""
    b = np.empty((np.size(rhs), 2), order="F")
    b[:, 0] = rhs
    b[:, 1] = col
    *_, yz, info = dgtsv(dl, d, du, b, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (info={info})")
    # einsum, not a BLAS dot: OpenBLAS threads a long dot, and its threads
    # then spin on the processor after the call returns
    ry, rz = np.einsum("i,ij->j", row, yz)
    if corner == rz:
        raise RuntimeError("bordered system is singular")
    s = float((rhs_end - ry) / (corner - rz))
    return yz[:, 0] - s * yz[:, 1], s


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
