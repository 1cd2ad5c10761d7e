"""Chemical concentration solves.

Two independent routes to v from u:

* ``ChemicalSolver``: the discrete boundary-value problem used inside the
  time stepper, (v_{i-1} - 2 v_i + v_{i+1})/h^2 - nu v_i + mu u_i = 0 on
  the interior, closed with v(-L) = 0 and either the first-order one-sided
  Neumann closure v_{M+1} = v_M (CASE1) or v(L) = 0 (CASE2).  The matrix
  does not depend on u, so the solver factors it once with LAPACK
  ``dgttrf`` and each solve is one ``dgttrs`` call on the scaled right-hand
  side; cost is linear in M.  The gradient vx of the returned field is
  computed on first access only, since the stepper never reads it.

* ``greens_psi`` / ``greens_psi_x``: the whole-line representation
  Psi(x; u) = mu/(2 sqrt(nu)) * integral exp(-sqrt(nu) |x-y|) u(y) dy and its
  derivative, evaluated by trapezoidal quadrature over the grid with u
  treated as zero outside.  This is the oracle the analytic envelope bounds
  are stated against, and it never shares code with the tridiagonal route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import BoundaryCase, Grid
from .tridiagonal import TridiagonalLU

__all__ = [
    "ChemicalField",
    "ChemicalSolver",
    "greens_psi",
    "greens_psi_x",
]


@dataclass(frozen=True)
class ChemicalField:
    """Concentration v on the grid nodes (spacing h, closure bc).  Its first
    derivative vx (central differences inside, one-sided at the ends) is
    computed on first access."""

    v: np.ndarray
    h: float
    bc: BoundaryCase

    @cached_property
    def vx(self) -> np.ndarray:
        v, h = self.v, self.h
        vx = np.empty_like(v)
        vx[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        # second-order one-sided at the Dirichlet end(s)
        vx[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        if self.bc is BoundaryCase.CASE1:
            # the backward difference used by the scheme; zero by closure
            vx[-1] = (v[-1] - v[-2]) / h
        else:
            vx[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        return vx


class ChemicalSolver:
    """Factored tridiagonal system for one (grid, nu, mu, bc).

    The matrix does not depend on u, so a run builds this once and calls
    :meth:`solve` every step.  ``neumann_order=2`` switches the CASE1 right
    closure to a ghost-node second-order variant for convergence studies;
    the default reproduces the first-order closure exactly.
    """

    def __init__(self, grid: Grid, nu: float, mu: float, bc: BoundaryCase,
                 neumann_order: int = 1):
        if nu <= 0.0 or mu <= 0.0:
            raise ValueError("nu and mu must be positive")
        if neumann_order not in (1, 2):
            raise ValueError("neumann_order must be 1 or 2")
        if neumann_order == 2 and bc is not BoundaryCase.CASE1:
            raise ValueError("ghost-node closure only applies to CASE1")
        self.grid = grid
        self.nu = float(nu)
        self.mu = float(mu)
        self.bc = bc
        self.neumann_order = neumann_order

        h2 = grid.h * grid.h
        if bc is BoundaryCase.CASE1 and neumann_order == 2:
            # unknowns v_1..v_M (0-based), ghost v_{M+1} = v_{M-1}
            n = grid.M
        else:
            # unknowns v_1..v_{M-1}
            n = grid.M - 1
        dl = np.ones(n - 1)
        d = np.full(n, -(2.0 + nu * h2))
        du = np.ones(n - 1)
        if bc is BoundaryCase.CASE1:
            if neumann_order == 1:
                # fold v_M = v_{M-1} into the last interior equation
                d[-1] = -(1.0 + nu * h2)
            else:
                # fold ghost v_{M+1} = v_{M-1} into the equation at node M
                dl[-1] = 2.0
        self._lu = TridiagonalLU(dl, d, du)
        self._n = n
        self._rhs_scale = -self.mu * h2

    def solve(self, u: np.ndarray) -> ChemicalField:
        grid = self.grid
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.M + 1,):
            raise ValueError(f"u must have length {grid.M + 1}")
        if not np.all(np.isfinite(u)):
            raise ValueError("u contains non-finite values")

        v = np.empty(grid.M + 1)
        v[0] = 0.0
        # the right-hand side is built in place of the unknowns, and the
        # solve overwrites it there
        interior = v[1:1 + self._n]
        np.multiply(self._rhs_scale, u[1:1 + self._n], out=interior)
        interior[...] = self._lu.solve(interior)
        if self.bc is BoundaryCase.CASE1:
            if self.neumann_order == 1:
                v[-1] = v[-2]
        else:
            v[-1] = 0.0
        return ChemicalField(v=v, h=grid.h, bc=self.bc)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def greens_psi(u: np.ndarray, grid: Grid, nu: float, mu: float) -> np.ndarray:
    """Whole-line kernel quadrature Psi(x_i; u), with u zero off the grid."""
    u = np.asarray(u, dtype=float)
    x = grid.nodes
    s = np.sqrt(nu)
    kernel = np.exp(-s * np.abs(np.subtract.outer(x, x)))
    w = _trapezoid_weights(x.size, grid.h)
    return (mu / (2.0 * s)) * kernel.dot(w * u)


def greens_psi_x(u: np.ndarray, grid: Grid, nu: float, mu: float) -> np.ndarray:
    """Derivative of the kernel representation,

        Psi_x(x) = -mu/2 * I_left(x) + mu/2 * I_right(x),

    where I_left integrates exp(-sqrt(nu)(x-y)) u(y) over y <= x and I_right
    the mirrored factor over y >= x.  Both one-sided integrals are evaluated
    in the shifted form with nonpositive exponents only, so there is no
    overflow however large the domain."""
    u = np.asarray(u, dtype=float)
    x = grid.nodes
    n = x.size
    s = np.sqrt(nu)
    kernel = np.exp(-s * np.abs(np.subtract.outer(x, x)))

    # trapezoid weights of the one-sided integrals: row i of w_left covers
    # nodes 0..i (h/2 at both ends), row i of w_right covers nodes i..n-1
    w_left = np.tril(np.full((n, n), grid.h))
    w_left[:, 0] *= 0.5
    idx = np.arange(n)
    w_left[idx, idx] *= 0.5
    w_left[0, 0] = 0.0

    w_right = np.triu(np.full((n, n), grid.h))
    w_right[:, -1] *= 0.5
    w_right[idx, idx] *= 0.5
    w_right[-1, -1] = 0.0

    left = (kernel * w_left).dot(u)
    right = (kernel * w_right).dot(u)
    return 0.5 * mu * (right - left)
