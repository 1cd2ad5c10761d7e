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

The update is one kernel with a v-stage (the three bracketed stencil
factors from v) and a u-stage (the rest).  ``run`` calls both every step;
the frozen-chemotaxis flow of ``kswave.fixedpoint`` loads its fixed v once
and calls only the u-stage.  Both judge convergence with one lag monitor.
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
    """The explicit update of one run in two stages.  ``load`` is the
    v-stage: it fills the west, centre and east factors of the three-point
    stencil from the chemical field v.  ``__call__`` is the u-stage: it
    applies the loaded factors to u, then the damping, the boundary
    closure, the clamp and the blow-up guard.  The coefficients that stay
    fixed over the run and the work buffers are set up once."""

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
        self._west, self._mid, self._east, self._work = np.empty(
            (4, cfg.grid.M - 1))

    def load(self, v: np.ndarray) -> None:
        """Fill the stencil factors lam - coef, center - tau chi nu v_i and
        lam + coef from v."""
        coef = self._east
        # coef = tau/(2h) * (c - chi (v_{i+1} - v_{i-1}) / (2h))
        np.subtract(v[2:], v[:-2], out=coef)
        np.multiply(self.chi, coef, out=coef)
        np.divide(coef, self.two_h, out=coef)
        np.subtract(self.c, coef, out=coef)
        np.multiply(self.tau_2h, coef, out=coef)
        np.subtract(self.lam, coef, out=self._west)
        np.add(self.lam, coef, out=self._east)
        np.multiply(self.chem_rate, v[1:-1], out=self._mid)
        np.subtract(self.center, self._mid, out=self._mid)

    def __call__(self, u: np.ndarray, out: np.ndarray) -> float:
        """Write the step from u with the loaded factors into ``out`` and
        return its sup."""
        work = self._work
        ui = u[1:-1]
        # ((west u_{i-1} + mid u_i) - tau (b - chi mu) u_i^2) + east u_{i+1}
        inner = out[1:-1]
        np.multiply(self._west, u[:-2], out=inner)
        np.multiply(self._mid, ui, out=work)
        inner += work
        np.multiply(self.damping, ui, out=work)
        work *= ui
        inner -= work
        np.multiply(self._east, u[2:], out=work)
        inner += work
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


class _LagMonitor:
    """The convergence check over a lag of ``lag`` steps: ``push`` keeps a
    copy of step j in ``kept``, drops the copies older than the lag and
    returns sup|u_j - u_{j-lag}| (nan if step j - lag was not pushed)."""

    def __init__(self, lag: int):
        self.lag = lag
        # steps are pushed every ``cadence`` steps; the cadence divides the
        # lag so every pushed step can see its partner
        self.cadence = math.gcd(max(1, lag // 10), lag)
        self.kept: dict[int, np.ndarray] = {}

    def push(self, j: int, u: np.ndarray) -> float:
        self.kept[j] = u.copy()
        old = self.kept.get(j - self.lag)
        for k in [k for k in self.kept if k < j - self.lag]:
            del self.kept[k]
        return math.nan if old is None else float(np.max(np.abs(u - old)))


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
    snap_steps = {}
    for t in cfg.snapshot_times:
        j = round(t / cfg.tau)
        if abs(j * cfg.tau - t) > cfg.tau / 2:
            raise ValueError(f"snapshot time {t} is not aligned with tau")
        snap_steps.setdefault(min(j, n_steps), t)

    times, sup_diffs, sup_us, u_rights = [], [], [], []
    snapshots = []
    monitor = _LagMonitor(lag_steps)
    max_sup = float(u.max())

    def record(j, u, chem):
        times.append(j * cfg.tau)
        sup_diffs.append(monitor.push(j, u))
        sup_us.append(float(u.max()))
        u_rights.append(float(u[-1]))
        if j in snap_steps:
            snapshots.append((snap_steps[j], u.copy(), chem.v.copy()))

    def needed(j):
        # cadence points, the final step, its lag partner, and snapshot steps
        return (j % monitor.cadence == 0 or j == n_steps
                or j == n_steps - lag_steps or j in snap_steps)

    if needed(0):
        record(0, u, chem)
    try:
        for j in range(1, n_steps + 1):
            advance.load(chem.v)
            m = advance(u, u_next)
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

    u_lag = monitor.kept.get(n_steps - lag_steps)
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
