"""Tridiagonal systems factored once and solved many times.

LAPACK ``dgttrf`` computes the LU factorization of a tridiagonal matrix with
partial pivoting, and ``dgttrs`` then solves against it in O(n) per
right-hand side.  This is the same elimination ``?gtsv`` performs (and so
``scipy.linalg.solve_banded`` with one band on each side), so a solve against
the stored factors returns the bits a from-scratch solve would, without
re-validating and re-eliminating a constant matrix on every call.

The ``dgttrf`` wrapper rejects systems of fewer than three unknowns, so those
are solved from scratch on each call, as ``solve_banded`` solves them: by
``dgtsv`` for two unknowns and by one division for one.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

__all__ = ["TridiagonalLU"]


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
