"""kswave's one binding to LAPACK: tridiagonal systems factored once and
solved many times, and the largest eigenvalue of a symmetric tridiagonal
matrix.

LAPACK ``dgttrf`` computes the LU factorization of a tridiagonal matrix with
partial pivoting, and ``dgttrs`` then solves against it in O(n) per
right-hand side.  This is the same elimination ``?gtsv`` performs (and so
``scipy.linalg.solve_banded`` with one band on each side), so a solve against
the stored factors returns the bits a from-scratch solve would, without
re-validating and re-eliminating a constant matrix on every call.

The ``dgttrf`` wrapper rejects systems of fewer than three unknowns, so those
are solved from scratch on each call, as ``solve_banded`` solves them: by
``dgtsv`` for two unknowns and by one division for one.

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

__all__ = ["TridiagonalLU", "largest_eigenvalue"]

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
dgtsv, dgttrf, dgttrs, dstebz = (_flapack.dgtsv, _flapack.dgttrf,
                                 _flapack.dgttrs, _flapack.dstebz)


class TridiagonalLU:
    """LU factors of the n x n tridiagonal matrix with subdiagonal ``dl``,
    diagonal ``d`` and superdiagonal ``du``.  A zero pivot raises
    RuntimeError, here or in :meth:`solve`."""

    def __init__(self, dl, d, du):
        d = np.asarray(d, dtype=float)
        self._n = d.size
        if self._n < 3:
            if self._n == 1 and d[0] == 0.0:
                raise RuntimeError("singular tridiagonal matrix")
            self._matrix = (np.asarray(dl, dtype=float), d,
                            np.asarray(du, dtype=float))
            return
        *factors, info = dgttrf(dl, d, du)
        if info != 0:
            raise RuntimeError(f"tridiagonal factorization failed (info={info})")
        self._factors = factors

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution x of A x = b for ``b`` of shape (n,), or of shape (n, k)
        for k right-hand sides at once (one LAPACK call; each column gets
        the bits a solve of that column alone would).  A contiguous float
        ``b`` (Fortran order when 2-D) is overwritten by x and returned;
        use the return value in any case."""
        if self._n >= 3:
            x, info = dgttrs(*self._factors, b, overwrite_b=True)
        elif self._n == 2:
            *_, x, info = dgtsv(*self._matrix, b, overwrite_b=True)
        else:
            x = np.divide(b, self._matrix[1][0], out=b)
            info = 0
        if info != 0:
            raise RuntimeError(f"tridiagonal solve failed (info={info})")
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
