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
u_{M+1} = 0 in CASE2).  Stability requires the usual tau/h^2 <= 1/2.

``RunConfig`` is the one gate that decides whether a run is well-formed
(its docstring lists what it refuses, each by its config key; the config
parser builds one, so those mistakes are refused at parse time), and it
carries the step counts that ``run``, ``run_block`` and the frozen flow
march by.

Everything in the update that does not depend on u or v (tau/h^2, the
array 1 - 2 tau/h^2 + tau r_i, tau chi nu, tau (b - chi mu), tau/(2h) and
2h) is computed once per run, and each step writes into preallocated
buffers with the operations grouped exactly as in the formula above, so
the results are bitwise those of the plain array expression.

The update is one kernel with a v-stage (the three bracketed stencil
factors from v) and a u-stage (the rest, returning the sup of each row),
for one run (u of shape (M+1,)) or a block of runs (u of shape (B, M+1),
one run per row).  ``_march`` is the one step loop and holds the blow-up
guard; it carries u and the field v as plain arrays.  ``run`` marches one
run with a hook that records its series.  ``run_block`` marches runs that
share their grid, tau, r, nu and mu, and so one factored chemical matrix,
as one block: the kernel steps the runs laid end to end as one line of
nodes, the chemical solve takes all rows in one LAPACK call, and every
row gets the bits its own ``run`` would.
The frozen-chemotaxis flow of ``kswave.fixedpoint`` loads its fixed v
once and marches without a solve.  ``run`` and the frozen flow judge
convergence with one lag monitor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chemical import ChemicalSolver
from .model import BoundaryCase, ConfigError, Grid, SimParams

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
    "run_block",
    "detect_outcome",
]

BLOWUP_LIMIT = 1e6


class BlowUpError(RuntimeError):
    """Raised when the solution exceeds the blow-up guard, which signals a
    violated stability condition or b <= chi*mu."""


def cfl_check(h: float, tau: float) -> bool:
    """True iff tau/h^2 <= 1/2 (equality allowed)."""
    if h <= 0.0 or tau <= 0.0:
        raise ValueError("h and tau must be positive")
    return tau / (h * h) <= 0.5


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs, and the one gate that decides whether a run is
    well-formed.  It refuses, with a ConfigError naming the config key:
    a tau, T, conv_window or tolerance that is not finite and positive;
    T < tau; a step that breaks the CFL condition tau/h^2 <= 1/2 (unless
    allow_unstable); a T or conv_window that is not an integer multiple of
    tau; and a snapshot time outside [0, T], on the step of another or off
    the tau grid.  A time is on the grid when it is within 1e-9 (relative
    past 1) of a multiple of tau.  ``n_steps`` and ``lag_steps`` are the
    steps to T and over the convergence window; like ``Grid.M`` they are
    derived and cannot be set."""

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
    n_steps: int = field(init=False)
    lag_steps: int = field(init=False)

    def __post_init__(self):
        for name in ("tau", "T", "conv_window", "conv_tol", "extinct_tol",
                     "plateau_rel_tol"):
            if not 0.0 < getattr(self, name) < math.inf:    # refuses nan
                raise ConfigError(f"{name} must be finite and positive",
                                  key=name)
        if self.T < self.tau:
            raise ConfigError("need T >= tau", key="T")
        if len(self.r_samples) != self.grid.M + 1:
            raise ConfigError("r_samples must be sampled on the grid nodes")
        if not (self.allow_unstable or cfl_check(self.grid.h, self.tau)):
            raise ConfigError(
                f"CFL violated: tau/h^2 = {self.tau / self.grid.h ** 2:g} "
                "> 0.5 (set allow_unstable = true to override)", key="tau")
        for name in ("T", "conv_window"):
            t = getattr(self, name)
            if not self._on_grid(t):
                raise ConfigError(f"{name} must be an integer multiple of "
                                  f"tau ({name} = {t!r}, tau = {self.tau!r})",
                                  key=name)
        object.__setattr__(self, "n_steps", round(self.T / self.tau))
        object.__setattr__(self, "lag_steps",
                           round(self.conv_window / self.tau))
        steps = {}
        for t in self.snapshot_times:
            j = round(t / self.tau) if 0.0 <= t < math.inf else -1  # nan, inf
            if not 0 <= j <= self.n_steps:
                raise ConfigError(f"snapshot time {t} outside [0, T]",
                                  key="snapshot_times")
            if j in steps:
                raise ConfigError(f"snapshot times {steps[j]} and {t} fall "
                                  f"on the same step {j}",
                                  key="snapshot_times")
            if not self._on_grid(t):
                raise ConfigError(f"snapshot time {t} is not a multiple of "
                                  f"tau = {self.tau!r}", key="snapshot_times")
            steps[j] = t

    def _on_grid(self, t: float) -> bool:
        return abs(round(t / self.tau) * self.tau - t) <= 1e-9 * max(1.0, t)


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
    profiles at the requested times; ``u_lag`` is u(T - conv_window), None
    when T is shorter than the window."""

    times: np.ndarray
    sup_diff: np.ndarray
    sup_u: np.ndarray
    u_at_right: np.ndarray
    snapshots: list
    u_final: np.ndarray
    v_final: np.ndarray
    u_lag: np.ndarray | None
    max_sup_u: float


def _line(a: np.ndarray) -> np.ndarray:
    """The nodes of one run, or of a C-order block's runs laid end to end,
    as one contiguous 1-D view (never a copy)."""
    return a if a.ndim == 1 else a.reshape(-1, copy=False)


class _ExplicitStep:
    """The explicit update in two stages, for one run (u of shape (M+1,))
    or for a block of runs (u of shape (B, M+1), one run per row) that
    share cfg's grid, tau, r, nu and mu and differ in (b, c, chi).  ``load``
    is the v-stage: it fills the west, centre and east factors of the
    three-point stencil from the chemical field v.  ``__call__`` is the
    u-stage: it applies the loaded factors to u, then the damping, the
    boundary closure and the clamp, and returns the sup of each row (one
    value for one run); the blow-up guard is ``_march``'s.  The
    coefficients that stay fixed over the run and the work buffers are set
    up once.

    A block is stepped as one line of B (M+1) nodes, the runs end to end,
    so every array operation runs over contiguous memory.  An interior
    node's neighbours are in its own run; the stencil values at the end
    nodes, which mix two runs, are overwritten by the boundary closure.  So
    c, chi, tau chi nu, tau (b - chi mu) and the centre factor hold one
    value per line node (0-d arrays when ``runs`` holds one run), and each
    run gets the bits it would get alone."""

    def __init__(self, cfg: RunConfig, runs: Sequence[SimParams]):
        h, tau = cfg.grid.h, cfg.tau
        nodes = cfg.grid.M + 1

        # scalars are 0-d arrays, which numpy dispatches faster than Python
        # floats, with the same float64 arithmetic
        def coefficient(values):
            if len(runs) == 1:
                return np.array(values[0])
            return np.repeat(values, nodes)[1:-1]
        self.case1 = cfg.bc is BoundaryCase.CASE1
        self.c = coefficient([p.c for p in runs])
        self.chi = coefficient([p.chi for p in runs])
        lam = tau / (h * h)
        self.lam = np.array(lam)
        self.two_h = np.array(2.0 * h)
        self.tau_2h = np.array(tau / (2.0 * h))
        self.center = np.tile(1.0 - 2.0 * lam + tau * cfg.r_samples,
                              len(runs))[1:-1]
        self.chem_rate = coefficient([tau * p.chi * p.nu for p in runs])
        self.damping = coefficient([tau * p.damping_gap for p in runs])
        self._west, self._mid, self._east, self._work = np.empty(
            (4, len(runs) * nodes - 2))

    def load(self, v: np.ndarray) -> None:
        """Fill the stencil factors lam - coef, center - tau chi nu v_i and
        lam + coef from v."""
        v = _line(v)
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

    def __call__(self, u: np.ndarray, out: np.ndarray):
        """Write the step from u with the loaded factors into ``out`` and
        return the sup of each row."""
        work = self._work
        line = _line(u)
        ui = line[1:-1]
        # ((west u_{i-1} + mid u_i) - tau (b - chi mu) u_i^2) + east u_{i+1}
        inner = _line(out)[1:-1]
        np.multiply(self._west, line[:-2], out=inner)
        np.multiply(self._mid, ui, out=work)
        inner += work
        np.multiply(self.damping, ui, out=work)
        work *= ui
        inner -= work
        np.multiply(self._east, line[2:], out=work)
        inner += work
        # the transpose puts the node axis first, so its rows 0, -2 and -1
        # are the end nodes of one run or of every run in a block
        ends = out.T
        ends[0] = 0.0
        ends[-1] = ends[-2] if self.case1 else 0.0
        # round-off negatives are clamped so the quadratic term and the
        # chemical solve stay in the physical regime
        np.maximum(out, 0.0, out=out)
        return np.maximum.reduce(out, axis=-1)


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


def _march(advance: _ExplicitStep, u: np.ndarray, n_steps: int,
           solver: ChemicalSolver | None = None, on_step=None):
    """Step u, one run (M+1,) or a block (B, M+1) that the march then owns,
    up to n_steps times with ``advance``: with a ``solver`` the v-stage is
    reloaded from u every step (the coupled flow), without one the loaded v
    stays (the frozen flow).  One run past the blow-up guard raises
    BlowUpError; a block row past it is zeroed, which the scheme keeps at
    zero, and flagged.  ``on_step(j, u, v, m)``, v the field of u (None in
    the frozen flow) and m the sup of each row, sees step 0 and every step;
    the march stops when it returns True.  Returns the last (u, v) and the
    flags of blown rows."""
    v = None if solver is None else solver.solve(u)
    blown = np.zeros(u.shape[:-1], dtype=bool)
    if on_step is not None and on_step(0, u, v,
                                       np.maximum.reduce(u, axis=-1)):
        return u, v, blown
    u_next = np.empty_like(u)
    for j in range(1, n_steps + 1):
        if solver is not None:
            advance.load(v)
        m = advance(u, u_next)
        u, u_next = u_next, u
        # both tests catch nan (nan <= limit is False); one run's sup is a
        # numpy scalar, for which ``not m <= limit`` is far cheaper
        if u.ndim > 1:
            bad = ~(m <= BLOWUP_LIMIT)
            if bad.any():
                u[bad] = 0.0
                blown |= bad
        elif not m <= BLOWUP_LIMIT:
            raise BlowUpError(f"|u| exceeded {BLOWUP_LIMIT:g}: unstable step "
                              "(check CFL and b > chi*mu)")
        if solver is not None:
            v = solver.solve(u)
        if on_step is not None and on_step(j, u, v, m):
            break
    return u, v, blown


def run(cfg: RunConfig, u0: np.ndarray):
    """March to t = T, recording the convergence series and snapshots, then
    classify the outcome.  Returns (Trajectory, Outcome)."""
    n_steps, lag_steps = cfg.n_steps, cfg.lag_steps
    solver = ChemicalSolver(cfg.grid, cfg.params.nu, cfg.params.mu, cfg.bc)
    # RunConfig has checked that each snapshot time is on its own step
    snap_steps = {round(t / cfg.tau): t for t in cfg.snapshot_times}
    times, sup_diffs, sup_us, u_rights = [], [], [], []
    snapshots = []
    monitor = _LagMonitor(lag_steps)
    max_sup = 0.0

    def record(j, u, v, m):
        nonlocal max_sup
        if m > max_sup:
            max_sup = float(m)
        # cadence points, the final step, its lag partner, and snapshot steps
        if (j % monitor.cadence == 0 or j == n_steps
                or j == n_steps - lag_steps or j in snap_steps):
            times.append(j * cfg.tau)
            sup_diffs.append(monitor.push(j, u))
            sup_us.append(float(u.max()))
            u_rights.append(float(u[-1]))
            if j in snap_steps:
                snapshots.append((snap_steps[j], u.copy(), v.copy()))

    u, v, _ = _march(_ExplicitStep(cfg, [cfg.params]),
                     initial_state(cfg, u0), n_steps, solver, record)
    traj = Trajectory(
        times=np.array(times), sup_diff=np.array(sup_diffs),
        sup_u=np.array(sup_us), u_at_right=np.array(u_rights),
        snapshots=snapshots, u_final=u.copy(), v_final=v.copy(),
        u_lag=monitor.kept.get(n_steps - lag_steps), max_sup_u=max_sup)
    return traj, detect_outcome(traj.u_final, traj.u_lag, cfg)


def _block_key(cfg: RunConfig):
    return (cfg.grid, cfg.bc, cfg.tau, cfg.T, cfg.conv_window,
            cfg.allow_unstable, cfg.params.nu, cfg.params.mu,
            cfg.r_samples.tobytes())


def run_block(cfgs: Sequence[RunConfig], u0: np.ndarray):
    """March one or more runs that differ only in (b, c, chi) from one u0
    as one (B, M+1) block, with ``run``'s kernel and chemical solve, and
    classify each row.  Row k reads (u_final, v_final, u_lag, outcome),
    bitwise the final (u, v), lag profile and outcome of
    ``run(cfgs[k], u0)`` (u_lag None when T is shorter than the convergence
    window); no series or snapshots are kept.  A row whose sup passes the
    blow-up guard is zeroed, which the scheme keeps at zero, and reads
    None."""
    cfg = cfgs[0]
    if any(_block_key(k) != _block_key(cfg) for k in cfgs[1:]):
        raise ValueError("a block shares its grid, bc, tau, T, conv_window, "
                         "r, nu and mu")
    n_steps, lag_steps = cfg.n_steps, cfg.lag_steps
    solver = ChemicalSolver(cfg.grid, cfg.params.nu, cfg.params.mu, cfg.bc)
    u_lag = None

    def keep_lag(j, u, v, m):
        nonlocal u_lag
        if j == n_steps - lag_steps:
            u_lag = u.copy()

    u, v, blown = _march(_ExplicitStep(cfg, [k.params for k in cfgs]),
                         np.tile(initial_state(cfg, u0), (len(cfgs), 1)),
                         n_steps, solver, keep_lag)
    results = []
    for k, cfg_k in enumerate(cfgs):
        if blown[k]:
            results.append(None)
            continue
        lag = None if u_lag is None else u_lag[k]
        results.append((u[k], v[k], lag, detect_outcome(u[k], lag, cfg_k)))
    return results


def detect_outcome(u: np.ndarray, u_lag: np.ndarray | None,
                   cfg: RunConfig) -> Outcome:
    """Classify the terminal window from the final profile u and the
    profile u_lag one convergence window earlier (None when the run is
    shorter than the window, which leaves final_sup_diff nan and a
    non-extinct run undetermined): extinction when the terminal sup norm
    falls below extinct_tol; a settled run (sup change over the trailing
    window below conv_tol) is a forced wave when it matches the expected
    shape for its boundary case; anything else is undetermined."""
    sup_u = float(u.max())
    sup_diff = math.nan
    if u_lag is not None:
        sup_diff = float(np.max(np.abs(u - u_lag)))
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
