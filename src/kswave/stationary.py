"""The discrete steady-state map F(u, v) of the coupled scheme, and its
Newton solve.

On the grid's interior nodes i = 1..M-1, with the boundary closure of
``BoundaryCase`` at the end nodes (u_0 = v_0 = 0; u_M = u_{M-1} and
v_M = v_{M-1} in CASE1, u_M = v_M = 0 in CASE2), F has two rows per node:

    F_u,i = A_u(u)_i = u''_i + (c - chi v'_i) u'_i
                       + (r_i - chi nu v_i - (b - chi mu) u_i) u_i,
    F_v,i = v''_i - nu v_i + mu u_i,

with the central differences u'_i = (u_{i+1} - u_{i-1})/(2h) and
u''_i = (u_{i+1} - 2 u_i + u_{i-1})/h^2 (likewise for v).  The u rows are
the explicit update of ``kswave.stepper`` less u, divided by tau, and the v
rows are the chemical solve's equations, so the zeros of F with u >= 0 are
the stepper's fixed points for every tau.

The unknowns are interleaved, x = (u_1, v_1, u_2, v_2, ..., u_{M-1},
v_{M-1}).  Row F_u,i then reaches from u_{i-1} (two columns left) to
v_{i+1} (three right) and row F_v,i lies inside that reach, so the Jacobian
is banded with two subdiagonals and three superdiagonals, and one Newton
step is one LAPACK ``dgbsv`` call (``tridiagonal.solve_banded``): O(M) work
and memory, with no dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chemical import ChemicalSolver
from .model import BoundaryCase, Grid, GrowthProfile, SimParams
from .tridiagonal import solve_banded

__all__ = ["StationaryState", "newton", "stationary_residual"]

KL, KU = 2, 3       # the Jacobian's sub- and superdiagonals
MAX_NEWTON = 50     # Newton iterations before giving up
NEWTON_TOL = 1e-10  # the step, relative to sup|u|, that ends the iteration


@dataclass(frozen=True)
class StationaryState:
    """A Newton solve's last iterate: the closed profiles u and v, the
    iterations taken, sup|F| there, and whether the last step fell below
    NEWTON_TOL sup|u| within MAX_NEWTON iterations."""

    u: np.ndarray
    v: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _residual(U, Ux, Uxx, w, w_x, r, params):
    """A_u(U) = U'' + (c - chi w_x) U' + (r - chi nu w - (b - chi mu) U) U,
    with w, w_x the chemical field of the frozen u and its slope."""
    drift = params.c - params.chi * w_x
    growth = r - params.chi * params.nu * w - params.damping_gap * U
    return Uxx + drift * Ux + growth * U


def _u_rows(u, v, r, params, h):
    """The rows F_u on the interior nodes of the closed profiles u, v and
    the growth rate r sampled on the nodes."""
    ux = (u[2:] - u[:-2]) / (2.0 * h)
    uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    vx = (v[2:] - v[:-2]) / (2.0 * h)
    return _residual(u[1:-1], ux, uxx, v[1:-1], vx, r[1:-1], params)


def _map(u, v, r, params, h):
    """F at the closed profiles u, v, interleaved (F_u,1, F_v,1, ...)."""
    f = np.empty(2 * (u.size - 2))
    f[0::2] = _u_rows(u, v, r, params, h)
    f[1::2] = ((v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
               - params.nu * v[1:-1] + params.mu * u[1:-1])
    return f


def _jacobian(u, v, r, params, h, bc: BoundaryCase):
    """The Jacobian of F at the closed profiles u, v in LAPACK band storage:
    an (2 KL + KU + 1, n) array whose entry [KL + KU + i - j, j] is dF_i/dx_j,
    with the first KL rows left for ``dgbsv``'s fill-in.  In CASE1 the
    closure u_M = u_{M-1}, v_M = v_{M-1} folds the last node's east
    neighbours into its own columns."""
    n = 2 * (u.size - 2)
    chi, nu = params.chi, params.nu
    d, e = 1.0 / (h * h), 1.0 / (2.0 * h)
    ux = (u[2:] - u[:-2]) * e
    a = params.c - chi * (v[2:] - v[:-2]) * e
    west, east = d - a * e, d + a * e       # dF_u,i / du_{i-1}, du_{i+1}
    slope = chi * e * ux                    # dF_u,i / dv_{i-1} = -dv_{i+1}
    ab = np.zeros((2 * KL + KU + 1, n), order="F")
    diag = KL + KU
    # column 2k is u_{k+1}, column 2k + 1 is v_{k+1}; row offset i - j
    ab[diag, 0::2] = (-2.0 * d + r[1:-1] - chi * nu * v[1:-1]
                      - 2.0 * params.damping_gap * u[1:-1])
    ab[diag, 1::2] = -2.0 * d - nu
    ab[diag - 1, 1::2] = -chi * nu * u[1:-1]    # F_u,i by v_i
    ab[diag + 1, 0::2] = params.mu              # F_v,i by u_i
    ab[diag + 1, 1:-2:2] = slope[1:]            # F_u,i+1 by v_i
    ab[diag + 2, 0:-2:2] = west[1:]             # F_u,i+1 by u_i
    ab[diag + 2, 1:-2:2] = d                    # F_v,i+1 by v_i
    ab[diag - 2, 2::2] = east[:-1]              # F_u,i-1 by u_i
    ab[diag - 2, 3::2] = d                      # F_v,i-1 by v_i
    ab[diag - 3, 3::2] = -slope[:-1]            # F_u,i-1 by v_i
    if bc is BoundaryCase.CASE1:
        ab[diag, -2] += east[-1]
        ab[diag - 1, -1] -= slope[-1]
        ab[diag, -1] += d
    return ab


def newton(params: SimParams, r: np.ndarray, grid: Grid, bc: BoundaryCase,
           u: np.ndarray) -> StationaryState:
    """Newton's method for F(u, v) = 0 from the profile u, with v its
    chemical field, for the growth rate r sampled on the grid's nodes.
    Each step solves the banded system J dx = -F with one ``dgbsv`` call;
    the iteration ends when the step's sup is at most NEWTON_TOL sup|u|,
    or unconverged after MAX_NEWTON steps or at a non-finite iterate.  A
    solve that falls to the zero state takes steps about as large as u
    itself, so it does not converge unless u reaches 0 exactly.  A
    singular Jacobian raises RuntimeError."""
    h = grid.h
    u = bc.close(np.array(u, dtype=float))
    v = ChemicalSolver(grid, params.nu, params.mu, bc).solve(u)
    converged = False
    k = 0
    while k < MAX_NEWTON and not converged:
        k += 1
        dx = solve_banded(KL, KU, _jacobian(u, v, r, params, h, bc),
                          -_map(u, v, r, params, h))
        u[1:-1] += dx[0::2]
        v[1:-1] += dx[1::2]
        bc.close(u)
        bc.close(v)
        step = float(np.max(np.abs(dx)))
        if not math.isfinite(step):
            break
        converged = step <= NEWTON_TOL * float(np.max(np.abs(u)))
    residual = float(np.max(np.abs(_map(u, v, r, params, h))))
    return StationaryState(u=u, v=v, iterations=k, residual=residual,
                           converged=converged)


def stationary_residual(u_star: np.ndarray, params: SimParams,
                        profile: GrowthProfile, grid: Grid) -> float:
    """sup|F_u| over the interior nodes at u = u_star, with v the chemical
    field of u_star itself from the same CASE1-closed solve the stepper
    uses (so the v rows vanish to round-off)."""
    v = ChemicalSolver(grid, params.nu, params.mu,
                       BoundaryCase.CASE1).solve(u_star)
    r = np.asarray(profile(grid.nodes), dtype=float)
    u = np.asarray(u_star, dtype=float)
    return float(np.max(np.abs(_u_rows(u, v, r, params, grid.h))))
