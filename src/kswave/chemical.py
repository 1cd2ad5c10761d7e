"""Chemical concentration solves.

Two independent routes to v from u:

* ``ChemicalSolver``: the discrete boundary-value problem used inside the
  time stepper, (v_{i-1} - 2 v_i + v_{i+1})/h^2 - nu v_i + mu u_i = 0 on
  the interior, closed with v(-L) = 0 and either the first-order one-sided
  Neumann closure v_{M+1} = v_M (CASE1) or v(L) = 0 (CASE2).  The matrix
  does not depend on u, so the solver factors it once with LAPACK
  ``dgttrf`` and each solve is one ``dgttrs`` call on the scaled right-hand
  side (a block is one ``dgtsv`` call on the stored matrix, with the same
  bits); cost is linear in M.

* ``greens_psi`` / ``greens_psi_x``: the whole-line representation
  Psi(x; u) = mu/(2 sqrt(nu)) * integral exp(-sqrt(nu) |x-y|) u(y) dy and its
  derivative, evaluated by trapezoidal quadrature over the grid with u
  treated as zero outside.  The kernel splits at the diagonal into the
  one-sided sums I_L(x_i) (nodes y <= x_i) and I_R(x_i) (nodes y >= x_i),
  so Psi = mu/(2 sqrt(nu)) (I_L + I_R) and Psi_x = mu/2 (I_R - I_L).  Each
  sum is one O(M) pass acc = acc*q + h u_j with q = exp(-sqrt(nu) h) <= 1,
  so every exponent is nonpositive and nothing overflows however large the
  domain.  This is the oracle the analytic envelope bounds are stated
  against, and it never shares code with the tridiagonal route.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BoundaryCase, Grid
from .tridiagonal import TridiagonalLU

__all__ = ["ChemicalSolver", "greens_psi", "greens_psi_x"]


class ChemicalSolver:
    """Factored tridiagonal system for one (grid, nu, mu, bc).

    The matrix does not depend on u, so a run builds this once and calls
    :meth:`solve` every step.  The solver keeps a block's right-hand side
    and the views of the last ``out`` it wrote, so one solver serves one
    thread.
    """

    def __init__(self, grid: Grid, nu: float, mu: float, bc: BoundaryCase):
        if not (0.0 < nu < math.inf and 0.0 < mu < math.inf):  # refuses nan
            raise ValueError("nu and mu must be finite and positive")
        self.bc = bc

        h2 = grid.h * grid.h
        # unknowns v_1..v_{M-1}
        n = grid.M - 1
        dl = np.ones(n - 1)
        d = np.full(n, -(2.0 + nu * h2))
        du = np.ones(n - 1)
        if bc is BoundaryCase.CASE1:
            # fold v_M = v_{M-1} into the last interior equation
            d[-1] = -(1.0 + nu * h2)
        self._lu = TridiagonalLU(dl, d, du)
        self._n = n
        # a 0-d array: numpy dispatches it faster than a Python float
        self._rhs_scale = np.array(-float(mu) * h2)
        self._block_rhs = np.empty((0, n))
        self._out = None

    def solve(self, u: np.ndarray, out: np.ndarray | None = None):
        """The field v of u, for u of shape (M+1,) or a block (B, M+1) of
        B profiles, one per row; v has the shape of u.  v is written into
        ``out`` when it is given (a float array of u's shape, which a march
        passes every step so that no array is allocated) and returned.  A
        block is one LAPACK call on a (B, M-1) right-hand side the solver
        keeps, and each of its rows is bitwise the solve of that row alone.

        A non-finite u raises ValueError, found from v_1 and u's two end
        nodes after the substitution rather than by scanning u: u_1..u_{M-1}
        are the right-hand side, and as the sub- and superdiagonal are
        nonzero, a non-finite entry anywhere in it is carried forward to
        the last unknown by the elimination and back to v_1 by the
        substitution.  The probe is stricter than a scan only when a finite
        u makes v overflow, which it refuses too.  ``out`` then holds no
        field."""
        u = np.asarray(u, dtype=float)
        shape = u.shape
        if len(shape) not in (1, 2) or shape[-1] != self._n + 2:
            raise ValueError(f"u must have length {self._n + 2} "
                             "(or be a block of such rows)")
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64:
            raise ValueError("out must be a float array of u's shape")
        n = self._n
        if out is not self._out:
            # a march passes one out every step: its views are bound once
            self._out = out
            self._out_views = out[..., 1:1 + n], self.bc.closer(out)
        interior, close = self._out_views
        if len(shape) == 1:
            # the right-hand side is built in place of the unknowns, and
            # the solve overwrites it there (a strided out gets a copy)
            np.multiply(self._rhs_scale, u[1:1 + n], interior)
            x = self._lu.solve(interior)
            if x is not interior:
                interior[...] = x
            finite = (math.isfinite(out[1]) and math.isfinite(u[0])
                      and math.isfinite(u[-1]))
        else:
            # the C-order (B, n) right-hand sides are the Fortran-order
            # (n, B) columns LAPACK solves in place
            rhs = self._block_rhs
            if rhs.shape[0] != shape[0]:
                rhs = self._block_rhs = np.empty((shape[0], n))
            np.multiply(self._rhs_scale, u[:, 1:1 + n], rhs)
            interior[...] = self._lu.solve(rhs.T).T
            finite = (np.isfinite(out[:, 1]).all()
                      and np.isfinite(u[:, ::n + 1]).all())
        if not finite:
            raise ValueError("u contains non-finite values")
        close()
        return out


def _one_sided_sums(u, grid: Grid, nu: float):
    """Trapezoid sums (I_L, I_R) of exp(-sqrt(nu)|x_i - y|) u(y) over the
    nodes y <= x_i and y >= x_i; the end nodes and the diagonal node each
    carry weight h/2, so I_L[0] = I_R[-1] = 0."""
    hu = grid.h * np.asarray(u, dtype=float)
    if hu.shape != (grid.M + 1,):
        raise ValueError(f"u must have length {grid.M + 1}")
    q = math.exp(-math.sqrt(nu) * grid.h)
    w = hu.tolist()
    acc = 0.5 * w[0]
    left = [acc]
    for wj in w[1:]:
        acc = acc * q + wj
        left.append(acc)
    acc = 0.5 * w[-1]
    right = [acc]
    for wj in w[-2::-1]:
        acc = acc * q + wj
        right.append(acc)
    half = 0.5 * hu
    return np.array(left) - half, np.array(right[::-1]) - half


def greens_psi(u: np.ndarray, grid: Grid, nu: float, mu: float) -> np.ndarray:
    """Whole-line kernel quadrature Psi(x_i; u), with u zero off the grid."""
    left, right = _one_sided_sums(u, grid, nu)
    return (mu / (2.0 * math.sqrt(nu))) * (left + right)


def greens_psi_x(u: np.ndarray, grid: Grid, nu: float, mu: float) -> np.ndarray:
    """Derivative of the kernel representation,

        Psi_x(x) = -mu/2 * I_left(x) + mu/2 * I_right(x),

    where I_left integrates exp(-sqrt(nu)(x-y)) u(y) over y <= x and I_right
    the mirrored factor over y >= x."""
    left, right = _one_sided_sums(u, grid, nu)
    return (0.5 * mu) * (right - left)
