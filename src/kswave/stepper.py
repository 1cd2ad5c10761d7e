"""Explicit moving-frame time stepping and outcome classification.

The scheme is forward Euler in time with central differences in space.  At
each step the concentration v is obtained from the current u by the
tridiagonal solve, then the interior update reads (1-based i = 2..M)

    u(j+1,i) = ( tau/h^2 - tau/(2h) * a_i ) u(j,i-1)
             + ( 1 - 2 tau/h^2 + tau r_i - tau chi nu v_i ) u(j,i)
             -   tau (b - chi mu) u(j,i)^2
             + ( tau/h^2 + tau/(2h) * a_i ) u(j,i+1),

    a_i = c - chi (v_{i+1} - v_{i-1}) / (2h),

followed by the boundary closure (u_1 = 0 always; u_{M+1} = u_M in CASE1,
u_{M+1} = 0 in CASE2).  Stability requires the usual tau/h^2 <= 1/2, which
``cfl_check`` enforces before a run starts.

Everything in the update that does not depend on u or v (tau/h^2, the
array 1 - 2 tau/h^2 + tau r_i, tau chi nu, tau (b - chi mu), tau/(2h) and
2h) is computed once per run, and each step writes into preallocated
buffers with the operations grouped exactly as in the formula above, so
the results are bitwise those of the plain array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chemical import ChemicalSolver
from .model import BoundaryCase, Grid, SimParams

__all__ = [
    "BlowUpError",
    "RunConfig",
    "OutcomeTag",
    "Outcome",
    "Trajectory",
    "cfl_check",
    "make_run_config",
    "initial_state",
    "run",
    "detect_outcome",
]

BLOWUP_LIMIT = 1e6


class BlowUpError(RuntimeError):
    """Raised when the solution exceeds the blow-up guard, which signals a
    violated stability condition or b <= chi*mu.  Carries the trajectory
    computed so far in ``partial_trajectory`` when raised from ``run``."""

    def __init__(self, message, partial_trajectory=None):
        super().__init__(message)
        self.partial_trajectory = partial_trajectory


def cfl_check(h: float, tau: float) -> bool:
    """True iff tau/h^2 <= 1/2 (equality allowed)."""
    if h <= 0.0 or tau <= 0.0:
        raise ValueError("h and tau must be positive")
    return tau / (h * h) <= 0.5


@dataclass(frozen=True)
class RunConfig:
    params: SimParams
    grid: Grid
    bc: BoundaryCase
    tau: float
    T: float
    r_samples: np.ndarray
    snapshot_times: tuple[float, ...] = ()
    conv_window: float = 1.0
    conv_tol: float = 1e-3
    extinct_tol: float = 1e-3
    plateau_rel_tol: float = 0.02
    allow_unstable: bool = False

    def __post_init__(self):
        if self.tau <= 0.0 or self.T < self.tau:
            raise ValueError("need tau > 0 and T >= tau")
        if min(self.conv_window, self.conv_tol, self.extinct_tol,
               self.plateau_rel_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if len(self.r_samples) != self.grid.M + 1:
            raise ValueError("r_samples must be sampled on the grid nodes")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.T + 1e-9:
                raise ValueError(f"snapshot time {t} outside [0, T]")


def make_run_config(params, profile, grid, bc, tau, T, **kwargs) -> RunConfig:
    return RunConfig(params=params, grid=grid, bc=bc, tau=tau, T=T,
                     r_samples=np.asarray(profile(grid.nodes), dtype=float),
                     **kwargs)


class OutcomeTag(Enum):
    FORCED_WAVE_CASE1 = "forced_wave_case1"
    FORCED_WAVE_CASE2 = "forced_wave_case2"
    EXTINCTION = "extinction"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Outcome:
    tag: OutcomeTag
    final_sup_diff: float
    plateau: float | None = None
    peak: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.plateau is not None) != (self.tag is OutcomeTag.FORCED_WAVE_CASE1):
            raise ValueError("plateau present iff outcome is FORCED_WAVE_CASE1")


@dataclass
class Trajectory:
    """Recorded series of a run.  ``times`` etc. are sampled on a coarse
    cadence (a tenth of the convergence window); snapshots hold full (u, v)
    profiles at the requested times; ``u_lag`` is u(T - conv_window)."""

    times: np.ndarray
    sup_diff: np.ndarray
    sup_u: np.ndarray
    u_at_right: np.ndarray
    snapshots: list
    t_final: float = 0.0
    u_final: np.ndarray | None = None
    v_final: np.ndarray | None = None
    u_lag: np.ndarray | None = None
    max_sup_u: float = 0.0


class _ExplicitStep:
    """The explicit update of one run: the coefficients that stay fixed over
    the run, computed once, and the work buffers each step writes into."""

    def __init__(self, cfg: RunConfig):
        h, tau = cfg.grid.h, cfg.tau
        params = cfg.params
        self.case1 = cfg.bc is BoundaryCase.CASE1
        self.c = params.c
        self.chi = params.chi
        self.lam = tau / (h * h)
        self.two_h = 2.0 * h
        self.tau_2h = tau / (2.0 * h)
        self.center = 1.0 - 2.0 * self.lam + tau * cfg.r_samples[1:-1]
        self.chem_rate = tau * params.chi * params.nu
        self.damping = tau * params.damping_gap
        n = cfg.grid.M - 1
        self._coef, self._west, self._mid = (np.empty(n), np.empty(n),
                                              np.empty(n))

    def __call__(self, u: np.ndarray, v: np.ndarray, out: np.ndarray) -> float:
        """Write the step from (u, v) into ``out`` and return its sup."""
        coef, west, mid = self._coef, self._west, self._mid
        ui = u[1:-1]
        # coef = tau/(2h) * (c - chi (v_{i+1} - v_{i-1}) / (2h))
        np.subtract(v[2:], v[:-2], out=coef)
        np.multiply(self.chi, coef, out=coef)
        np.divide(coef, self.two_h, out=coef)
        np.subtract(self.c, coef, out=coef)
        np.multiply(self.tau_2h, coef, out=coef)
        # west = (lam - coef) u_{i-1}
        np.subtract(self.lam, coef, out=west)
        west *= u[:-2]
        # mid = (center - tau chi nu v_i) u_i
        np.multiply(self.chem_rate, v[1:-1], out=mid)
        np.subtract(self.center, mid, out=mid)
        mid *= ui
        # ((west + mid) - tau (b - chi mu) u_i^2) + (lam + coef) u_{i+1}
        inner = out[1:-1]
        np.add(west, mid, out=inner)
        np.multiply(self.damping, ui, out=mid)
        mid *= ui
        inner -= mid
        np.add(self.lam, coef, out=coef)
        coef *= u[2:]
        inner += coef
        out[0] = 0.0
        out[-1] = out[-2] if self.case1 else 0.0
        # round-off negatives are clamped so the quadratic term and the
        # chemical solve stay in the physical regime
        np.maximum(out, 0.0, out=out)
        m = float(out.max(initial=0.0))
        if not math.isfinite(m) or m > BLOWUP_LIMIT:
            raise BlowUpError(
                f"|u| exceeded {BLOWUP_LIMIT:g}: unstable step "
                "(check CFL and b > chi*mu)")
        return m


def initial_state(cfg: RunConfig, u0: np.ndarray) -> np.ndarray:
    """The validated initial profile with the boundary closure imposed."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.grid.M + 1,):
        raise ValueError("u0 must be sampled on the grid nodes")
    if u0.min() < -1e-12:
        raise ValueError("u0 must be nonnegative")
    if abs(u0[0]) > 1e-12:
        raise ValueError("u0 must vanish at x = -L")
    if cfg.bc is BoundaryCase.CASE2 and abs(u0[-1]) > 1e-12:
        raise ValueError("u0 must vanish at x = L under CASE2")
    u = np.maximum(u0, 0.0)
    u[0] = 0.0
    if cfg.bc is BoundaryCase.CASE1:
        u[-1] = u[-2]
    else:
        u[-1] = 0.0
    return u


def run(cfg: RunConfig, u0: np.ndarray):
    """March to t = T, recording the convergence series and snapshots, then
    classify the outcome.  Returns (Trajectory, Outcome)."""
    if not (cfg.allow_unstable or cfl_check(cfg.grid.h, cfg.tau)):
        raise ValueError("CFL condition tau/h^2 <= 1/2 violated")
    solver = ChemicalSolver(cfg.grid, cfg.params.nu, cfg.params.mu, cfg.bc)
    u = initial_state(cfg, u0)
    chem = solver.solve(u)
    advance = _ExplicitStep(cfg)
    u_next = np.empty_like(u)

    n_steps = round(cfg.T / cfg.tau)
    if abs(n_steps * cfg.tau - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError("T must be an integer multiple of tau")
    lag_steps = round(cfg.conv_window / cfg.tau)
    if abs(lag_steps * cfg.tau - cfg.conv_window) > 1e-9:
        raise ValueError("conv_window must be an integer multiple of tau")
    # cadence must divide the lag so every recorded step can see its partner
    cadence = math.gcd(max(1, lag_steps // 10), lag_steps)

    snap_steps = {}
    for t in cfg.snapshot_times:
        j = round(t / cfg.tau)
        if abs(j * cfg.tau - t) > cfg.tau / 2:
            raise ValueError(f"snapshot time {t} is not aligned with tau")
        snap_steps.setdefault(min(j, n_steps), t)

    times, sup_diffs, sup_us, u_rights = [], [], [], []
    snapshots = []
    lag_buffer: dict[int, np.ndarray] = {}
    max_sup = float(u.max())

    def record(j, u, chem):
        t = j * cfg.tau
        lag_buffer[j] = u.copy()
        old = j - lag_steps
        sup_diff = math.nan
        if old in lag_buffer:
            sup_diff = float(np.max(np.abs(u - lag_buffer[old])))
        for k in [k for k in lag_buffer if k < j - lag_steps]:
            del lag_buffer[k]
        times.append(t)
        sup_diffs.append(sup_diff)
        sup_us.append(float(u.max()))
        u_rights.append(float(u[-1]))
        if j in snap_steps:
            snapshots.append((snap_steps[j], u.copy(), chem.v.copy()))

    def needed(j):
        # cadence points, the final step, its lag partner, and snapshot steps
        return (j % cadence == 0 or j == n_steps or j == n_steps - lag_steps
                or j in snap_steps)

    if needed(0):
        record(0, u, chem)
    try:
        for j in range(1, n_steps + 1):
            m = advance(u, chem.v, u_next)
            u, u_next = u_next, u
            chem = solver.solve(u)
            max_sup = max(max_sup, m)
            if needed(j):
                record(j, u, chem)
    except BlowUpError as exc:
        exc.partial_trajectory = Trajectory(
            times=np.array(times), sup_diff=np.array(sup_diffs),
            sup_u=np.array(sup_us), u_at_right=np.array(u_rights),
            snapshots=snapshots, t_final=times[-1] if times else 0.0,
            max_sup_u=max_sup)
        raise

    u_lag = lag_buffer.get(n_steps - lag_steps)
    traj = Trajectory(
        times=np.array(times), sup_diff=np.array(sup_diffs),
        sup_u=np.array(sup_us), u_at_right=np.array(u_rights),
        snapshots=snapshots, t_final=n_steps * cfg.tau,
        u_final=u.copy(), v_final=chem.v.copy(), u_lag=u_lag,
        max_sup_u=max_sup)
    return traj, detect_outcome(traj, cfg)


def detect_outcome(traj: Trajectory, cfg: RunConfig) -> Outcome:
    """Classify the terminal window: extinction when the terminal sup norm
    falls below extinct_tol; a settled run (sup change over the trailing
    window below conv_tol) is a forced wave when it matches the expected
    shape for its boundary case; anything else is undetermined."""
    u = traj.u_final
    sup_u = float(u.max())
    sup_diff = math.nan
    if traj.u_lag is not None:
        sup_diff = float(np.max(np.abs(u - traj.u_lag)))
    if sup_u < cfg.extinct_tol:
        return Outcome(tag=OutcomeTag.EXTINCTION, final_sup_diff=sup_diff)
    r_star = float(np.max(cfg.r_samples))
    if not math.isnan(sup_diff) and sup_diff < cfg.conv_tol:
        if cfg.bc is BoundaryCase.CASE1:
            plateau = float(u[-1])
            if abs(plateau * cfg.params.b / r_star - 1.0) < cfg.plateau_rel_tol:
                return Outcome(tag=OutcomeTag.FORCED_WAVE_CASE1,
                               final_sup_diff=sup_diff, plateau=plateau)
        else:
            if sup_u > 10.0 * cfg.extinct_tol:
                k = int(np.argmax(u))
                peak = (sup_u, float(cfg.grid.nodes[k]))
                return Outcome(tag=OutcomeTag.FORCED_WAVE_CASE2,
                               final_sup_diff=sup_diff, peak=peak)
    return Outcome(tag=OutcomeTag.UNDETERMINED, final_sup_diff=sup_diff)
