"""Frozen-chemotaxis fixed-point iteration.

For a frozen u the scalar parabolic flow

    U_t = U_xx + (c - chi v_x(.;u)) U_x
          + (r(x) - chi nu v(.;u) - (b - chi mu) U) U,
    U(0, .) = U1+,

is monotone decreasing in t because U1+ is a supersolution, so its limit
U*(.;u) exists; iterating u_{n+1} = U*(.;u_n) from u_0 = U1+ drives the
sequence toward a fixed point u*, a stationary profile of the coupled
system on the truncated domain (a forced-wave candidate).  The frozen
chemical field v(.;u) is the same boundary-closed tridiagonal solve the
coupled stepper uses: the zero-extended whole-line kernel would halve the
chemical mass seen at the zero-flux boundary and inflate the plateau from
r*/b to r*/(b - chi mu / 2), so the fixed point would not be stationary
for the coupled scheme.  The inner flow is the coupled stepper's own
march: the kernel loads the frozen v once (the v-stage), the stepper's
step loop then runs only the u-stage, with its blow-up guard and no
chemical solve, and the stepper's lag monitor decides when it has
settled.  Its config, with tau = 0.4 h^2, is built on the tau grid:
INNER_T and the unit convergence window are rounded to whole steps, and
the flow marches by the config's own step counts.  Every inner evolution
is checked for pointwise monotone decay, and every outer iterate must
stay inside the envelope sandwich U1- <= u <= U1+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chemical import ChemicalSolver
from .envelopes import (Envelope, _residual, build_lower_envelope_case1,
                        build_upper_envelope_case1)
from .ignition import ignition_wave
from .model import BoundaryCase, Grid, GrowthProfile, SimParams
from .stepper import (RunConfig, _ExplicitStep, _LagMonitor, _march,
                      make_run_config)

__all__ = ["SandwichError", "FixedPointResult", "frozen_flow_fixed_point",
           "stationary_residual"]

MAX_OUTER = 30          # outer iterations before giving up
INNER_T = 50.0          # horizon of one frozen flow
OUTER_TOL = 1e-4        # sup change between outer iterates that converges
INNER_TOL = 1e-4        # lag over the unit window that settles a flow
WAVE_EPSILON = 0.05     # cutoff of the ignition wave under the lower envelope
SNAPSHOT_DT = 0.5       # spacing of the monotone-decay comparisons


class SandwichError(RuntimeError):
    """An outer iterate escaped the envelope sandwich, which signals an
    envelope or scheme bug rather than a modelling outcome."""


@dataclass(frozen=True)
class FixedPointResult:
    u_star: np.ndarray
    n_outer: int
    converged: bool
    outer_diffs: tuple[float, ...]
    monotone_slack: float      # worst pointwise increase seen in any inner flow
    upper: Envelope
    lower: Envelope


def _evolve_frozen(cfg: RunConfig, u_init: np.ndarray, v: np.ndarray):
    """March the frozen flow, v loaded once and no chemical solve, until the
    sup change over the trailing cfg.lag_steps steps drops below
    cfg.conv_tol (or cfg.n_steps steps are taken); both counts are the
    config's own.  Returns the terminal profile and the worst pointwise
    increase between consecutive snapshots, SNAPSHOT_DT apart (monotone
    decay means it stays at round-off)."""
    advance = _ExplicitStep(cfg, [cfg.params])
    advance.load(v)
    monitor = _LagMonitor(cfg.lag_steps)
    snap_every = max(1, round(SNAPSHOT_DT / cfg.tau))
    prev_snap = None
    worst_increase = -math.inf

    def settle(j, u, v, m):
        nonlocal prev_snap, worst_increase
        if j % snap_every == 0:
            if j:
                worst_increase = max(worst_increase,
                                     float(np.max(u - prev_snap)))
            prev_snap = u.copy()
        return j % monitor.cadence == 0 and monitor.push(j, u) < cfg.conv_tol

    u, _, _ = _march(advance, u_init.copy(), cfg.n_steps, on_step=settle)
    return u, worst_increase


def frozen_flow_fixed_point(params: SimParams, profile: GrowthProfile,
                            grid: Grid) -> FixedPointResult:
    """Iterate u_{n+1} = U*(.;u_n) from u_0 = U1+ until the outer sup change
    falls below OUTER_TOL, for at most MAX_OUTER iterations.  Aborts with
    SandwichError if an iterate leaves [U1- - 1e-8, U1+ + 1e-8]."""
    upper = build_upper_envelope_case1(params, profile, grid)
    wave = ignition_wave(params, profile.r_star, WAVE_EPSILON)
    lower = build_lower_envelope_case1(params, profile, grid, wave,
                                       upper=upper)
    tau = 0.4 * grid.h * grid.h
    cfg = make_run_config(params, profile, grid, BoundaryCase.CASE1, tau,
                          round(INNER_T / tau) * tau,
                          conv_window=max(1, round(1.0 / tau)) * tau,
                          conv_tol=INNER_TOL)
    solver = ChemicalSolver(grid, params.nu, params.mu, BoundaryCase.CASE1)

    u = upper.values.copy()
    diffs = []
    worst_slack = -math.inf
    for n_outer in range(1, MAX_OUTER + 1):
        u_next, slack = _evolve_frozen(cfg, upper.values, solver.solve(u))
        worst_slack = max(worst_slack, slack)
        low_viol = float(np.max(lower.values - u_next))
        high_viol = float(np.max(u_next - upper.values))
        if low_viol > 1e-8 or high_viol > 1e-8:
            k = int(np.argmax(np.maximum(lower.values - u_next,
                                         u_next - upper.values)))
            raise SandwichError(
                f"iterate {n_outer} leaves the envelope sandwich at "
                f"x = {grid.nodes[k]:.3f} (below by {low_viol:.3e}, "
                f"above by {high_viol:.3e})")
        diff = float(np.max(np.abs(u_next - u)))
        diffs.append(diff)
        u = u_next
        if diff < OUTER_TOL:
            break
    return FixedPointResult(u_star=u, n_outer=n_outer,
                            converged=diff < OUTER_TOL,
                            outer_diffs=tuple(diffs),
                            monotone_slack=worst_slack,
                            upper=upper, lower=lower)


def stationary_residual(u_star: np.ndarray, params: SimParams,
                        profile: GrowthProfile, grid: Grid,
                        bc: BoundaryCase = BoundaryCase.CASE1) -> float:
    """Sup norm over the interior nodes of the stationary operator A_u(u)
    (``envelopes._residual``) at u = u_star, with central differences for
    u', u'' and v' and the chemical field recomputed from u_star itself
    through the same boundary-closed solve the flow used."""
    v = ChemicalSolver(grid, params.nu, params.mu, bc).solve(u_star)
    r = np.asarray(profile(grid.nodes), dtype=float)
    h = grid.h
    u = np.asarray(u_star, dtype=float)
    ux = (u[2:] - u[:-2]) / (2.0 * h)
    uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    vx = (v[2:] - v[:-2]) / (2.0 * h)
    res = _residual(u[1:-1], ux, uxx, v[1:-1], vx, r[1:-1], params)
    return float(np.max(np.abs(res)))
