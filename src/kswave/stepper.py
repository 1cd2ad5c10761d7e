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

``RunConfig``, built from the growth profile, says what a run is and is the
one gate that decides whether it is well-formed (its docstring lists what
it refuses, each by its config key; the config parser builds one, so those
mistakes are refused at parse time).  It is all a march needs besides its
runs and u: ``_march(cfg, runs, u)`` builds the coefficients, the buffers
and the one chemical solver from it and marches cfg.n_steps steps, for
``run``, ``run_block`` and the frozen flow.

Everything in the update that does not depend on u or v (tau/h^2, the
array 1 - 2 tau/h^2 + tau r_i, tau chi nu, tau (b - chi mu), tau/(2h) and
2h) is computed once per run, and each step writes into preallocated
buffers with the operations grouped exactly as in the formula above, so
the results are bitwise those of the plain array expression.

The update is one kernel with a v-stage (the three bracketed stencil
factors from v) and a u-stage (the rest, then the closure, the clamp and
one sup over all rows), for one run (u of shape (M+1,)) or a block of runs
(u of shape (B, M+1), one run per row).  ``_march`` is the one step loop
and runs both stages itself: the two u buffers and the v buffer are
allocated once, and every view of them the stages read or write is bound
before the loop, so a step slices nothing and allocates no array; the
chemical solve writes v in place.  Its blow-up guard is one path for a
run, a block and the frozen flow: each blown row gets its diagnosis and is
zeroed, and the march stops once every row has blown (``run`` and the
frozen flow raise their row's error, ``run_block`` returns each row's).
It tracks the largest sup and calls its hook only at step 0 and the steps
its caller names: ``run`` its cadence steps, the final step, that step's
lag partner and the snapshot steps, ``run_block`` the final step and its
lag partner, and the frozen flow its lag-check steps.  ``run_block``
marches one config's runs, one ``SimParams`` per row that differ from the
config's only in (b, c, chi), as one block: they share the grid, tau, r,
nu and mu, and so one chemical matrix; the kernel steps the runs laid end
to end as one line of nodes, the chemical solve takes all rows in one
LAPACK call, and every row gets the bits its own ``run`` would.  The
frozen-chemotaxis flow of ``kswave.fixedpoint`` loads its fixed v once and
marches without a solve.  ``run``, ``run_block`` and the frozen flow judge
convergence with one lag monitor, which owns the lag partner and the lag
difference of each row; its copies are the only copies of u a march keeps.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .chemical import ChemicalSolver
from .model import BoundaryCase, ConfigError, Grid, GrowthProfile, SimParams

__all__ = [
    "BlowUpError",
    "RunConfig",
    "OutcomeTag",
    "Outcome",
    "Trajectory",
    "make_run_config",
    "initial_state",
    "run",
    "run_block",
    "detect_outcome",
]

BLOWUP_LIMIT = 1e6


class BlowUpError(RuntimeError):
    """Raised when the solution exceeds the blow-up guard, which signals a
    violated stability condition (tau/h^2 > 1/2, or a cell Peclet number
    |c - chi v_x| h above 2) or b <= chi*mu; the message names all three
    for the failing step.  ``run`` and the frozen flow raise it, and a blown
    row of ``run_block`` reads it, with the text and step of its own run."""


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs, and the one gate that decides whether a run is
    well-formed.  It refuses, with a ConfigError naming the config key:
    a tau, T, conv_window or tolerance that is not finite and positive;
    T < tau; a step that breaks the CFL condition tau/h^2 <= 1/2 (unless
    allow_unstable); a T or conv_window that is not an integer multiple of
    tau, or a conv_window shorter than one step; and a snapshot time
    outside [0, T], on the step of another or off the tau grid.  A time is
    on the grid when it is within 1e-9 (relative past 1) of a multiple of
    tau.  ``r_samples`` is the profile on the grid nodes, ``n_steps`` and
    ``lag_steps`` the steps to T and over the convergence window, and
    ``snapshot_steps`` maps each snapshot's step to its time; like
    ``Grid.M`` they are derived (so r is never stale) and cannot be set."""

    params: SimParams
    profile: GrowthProfile
    grid: Grid
    bc: BoundaryCase
    tau: float
    T: float
    snapshot_times: tuple[float, ...] = ()
    conv_window: float = 1.0
    conv_tol: float = 1e-3
    extinct_tol: float = 1e-3
    plateau_rel_tol: float = 0.02
    allow_unstable: bool = False
    r_samples: np.ndarray = field(init=False, repr=False, compare=False)
    n_steps: int = field(init=False)
    lag_steps: int = field(init=False)
    snapshot_steps: dict[int, float] = field(init=False)

    def __post_init__(self):
        for name in ("tau", "T", "conv_window", "conv_tol", "extinct_tol",
                     "plateau_rel_tol"):
            if not 0.0 < getattr(self, name) < math.inf:    # refuses nan
                raise ConfigError(f"{name} must be finite and positive",
                                  key=name)
        if self.T < self.tau:
            raise ConfigError("need T >= tau", key="T")
        ratio = self.tau / (self.grid.h * self.grid.h)
        if not (self.allow_unstable or ratio <= 0.5):
            raise ConfigError(
                f"CFL violated: tau/h^2 = {ratio:g} > 0.5 "
                "(set allow_unstable = true to override)", key="tau")
        for name in ("T", "conv_window"):
            t = getattr(self, name)
            if not self._on_grid(t):
                raise ConfigError(f"{name} must be an integer multiple of "
                                  f"tau ({name} = {t!r}, tau = {self.tau!r})",
                                  key=name)
        object.__setattr__(self, "r_samples", np.asarray(
            self.profile(self.grid.nodes), dtype=float))
        object.__setattr__(self, "n_steps", round(self.T / self.tau))
        object.__setattr__(self, "lag_steps",
                           round(self.conv_window / self.tau))
        if self.lag_steps < 1:      # on the grid as 0 tau: u against itself
            raise ConfigError(f"conv_window = {self.conv_window!r} is "
                              f"shorter than one step tau = {self.tau!r}",
                              key="conv_window")
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
        object.__setattr__(self, "snapshot_steps", steps)

    def _on_grid(self, t: float) -> bool:
        return abs(round(t / self.tau) * self.tau - t) <= 1e-9 * max(1.0, t)


def make_run_config(params, profile, grid, bc, tau, T, **kwargs) -> RunConfig:
    return RunConfig(params, profile, grid, bc, tau, T, **kwargs)


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
    cadence (a tenth of the convergence window) and at the final step;
    ``sup_diff`` is the lag monitor's difference, nan within the first
    window; snapshots hold full (u, v) profiles at the requested times."""

    times: np.ndarray
    sup_diff: np.ndarray
    sup_u: np.ndarray
    u_at_right: np.ndarray
    snapshots: list
    u_final: np.ndarray
    v_final: np.ndarray
    max_sup_u: float


class _LagMonitor:
    """The convergence check of a run, a block or the frozen flow over a
    lag of ``lag`` steps: ``push`` keeps a copy of step j in ``kept``,
    drops the copies older than the lag and returns sup|u_j - u_{j-lag}|
    of each row, a scalar for a run, an array for a block (nan if step
    j - lag was not pushed)."""

    def __init__(self, lag: int):
        self.lag = lag
        # steps are pushed every ``cadence`` steps; the cadence divides the
        # lag so every pushed step can see its partner
        self.cadence = math.gcd(max(1, lag // 10), lag)
        self.kept: dict[int, np.ndarray] = {}

    def push(self, j: int, u: np.ndarray):
        self.kept[j] = u.copy()
        old = self.kept.get(j - self.lag, math.nan)
        for k in [k for k in self.kept if k < j - self.lag]:
            del self.kept[k]
        return np.max(np.abs(u - old), axis=-1)


def initial_state(cfg: RunConfig, u0: np.ndarray) -> np.ndarray:
    """The validated initial profile with the boundary closure imposed."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (cfg.grid.M + 1,):
        raise ValueError("u0 must be sampled on the grid nodes")
    if not np.isfinite(u0).all():
        raise ValueError("u0 must be finite")
    if u0.min() < -1e-12:
        raise ValueError("u0 must be nonnegative")
    if abs(u0[0]) > 1e-12:
        raise ValueError("u0 must vanish at x = -L")
    if cfg.bc is BoundaryCase.CASE2 and abs(u0[-1]) > 1e-12:
        raise ValueError("u0 must vanish at x = L under CASE2")
    return cfg.bc.close(np.maximum(u0, 0.0))


def _march(cfg: RunConfig, runs: Sequence[SimParams], u: np.ndarray,
           v: np.ndarray | None = None, on_step=None, hooks=()):
    """March u, one run (M+1,) or a block (B, M+1) of ``runs`` that the
    march then owns, cfg.n_steps steps with the explicit update of each
    run's parameters.  The runs share cfg's grid, tau, r, nu and mu and
    differ in (b, c, chi).  Without a ``v`` the march builds the chemical
    solver, which the runs share (one whose nu or mu differs from cfg's is
    refused with ValueError), and reloads the v-stage from u every step
    (the coupled flow); with one it loads the factors once from the given
    v and solves nothing (the frozen flow).  A row whose sup passes the
    blow-up guard gets its BlowUpError and is zeroed, which the scheme
    keeps at zero; the march stops once every row has blown, and raises
    nothing.  ``on_step(j, u, v)``, v the field of u (the given v in the
    frozen flow), sees step 0 and the steps j in ``hooks`` (empty without a
    hook), and no other; the march stops when it returns True.  Returns the
    last (u, v), each row's BlowUpError or None, and the largest sup over
    the march, a sup past the guard aside.

    A block is stepped as one line of B (M+1) nodes, the runs end to end,
    so every array operation runs over contiguous memory.  An interior
    node's neighbours are in its own run; the stencil values at the end
    nodes, which mix two runs, are overwritten by the boundary closure.  So
    c, chi, tau chi nu, tau (b - chi mu) and the centre factor hold one
    value per line node, or one 0-d value when every run shares it (as chi,
    tau chi nu and tau (b - chi mu) do in a c-sweep), and each run gets the
    bits it would get alone.

    The buffers, every view of them the two stages read or write, the
    coefficients and the solve are bound to local names before the loop,
    so a step allocates nothing and slices nothing: it runs the v-stage
    (the three stencil factors from v), the u-stage (the update into the
    other u buffer, the boundary closure, the clamp and the sup) and the
    solve for the next v into the one v buffer."""
    h, tau = cfg.grid.h, cfg.tau
    nodes = cfg.grid.M + 1

    # scalars are 0-d arrays, which numpy dispatches faster than Python
    # floats, with the same float64 arithmetic
    def coefficient(values):
        if len({float(x).hex() for x in values}) == 1:    # bits, not ==
            return np.array(values[0], dtype=float)
        return np.repeat(values, nodes)[1:-1]
    c = coefficient([p.c for p in runs])
    chi = coefficient([p.chi for p in runs])
    ratio = tau / (h * h)
    lam, two_h, tau_2h = (np.array(ratio), np.array(2.0 * h),
                          np.array(tau / (2.0 * h)))
    center = np.tile(1.0 - 2.0 * ratio + tau * cfg.r_samples,
                     len(runs))[1:-1]
    chem_rate = coefficient([tau * p.chi * p.nu for p in runs])
    damping = coefficient([tau * p.damping_gap for p in runs])
    west, mid, east, work = np.empty((4, len(runs) * nodes - 2))

    def blow_up(j, k, sup):
        """Row k's error, its sup ``sup`` past the guard at step j, with
        the step's stencil factors still loaded: it names tau/h^2, the
        row's b - chi mu and the largest cell Peclet number |c - chi v_x| h
        over the row's interior, which is |east - west| / (tau/h^2)."""
        row = slice(k * nodes, (k + 1) * nodes - 2)
        peclet = float(np.max(np.abs(east[row] - west[row]))) / ratio
        return BlowUpError(
            f"|u| reached {sup:g} > {BLOWUP_LIMIT:g} at step {j} "
            f"(t = {j * tau:g}): tau/h^2 = {ratio:g} (stable up to 0.5), "
            f"b - chi*mu = {runs[k].damping_gap:g} (must be positive), "
            f"largest cell Peclet number |c - chi*v_x|*h = {peclet:.3g} "
            "(central differences need it below 2)")

    coupled = v is None
    if coupled:
        if any((p.nu, p.mu) != (cfg.params.nu, cfg.params.mu) for p in runs):
            raise ValueError("a block's runs share the chemical matrix, so "
                             "its nu and mu")
        solve = ChemicalSolver(cfg.grid, cfg.params.nu, cfg.params.mu,
                               cfg.bc).solve
        v = solve(u, np.empty_like(u))
    m0 = u.max()
    errors = [None] * len(runs)
    top = 0.0       # the largest sup of steps 1.. that the guard passed
    n_steps = cfg.n_steps
    if on_step is not None and on_step(0, u, v):
        n_steps = 0

    def views(a):
        line = a.reshape(-1, copy=False)
        return a, line, line[:-2], line[1:-1], line[2:], cfg.bc.closer(a)
    here, there = views(u), views(np.empty_like(u))
    _, _, v_west, v_mid, v_east, _ = views(v)
    coef = east
    zero = np.array(0.0)
    # ufuncs bound to local names and called with a positional out, which
    # numpy dispatches faster than a global lookup and an out= keyword
    add, subtract, multiply, divide, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum)
    reduce_max = np.maximum.reduce
    load = True
    for j in range(1, n_steps + 1):
        if load:
            # v-stage: lam - coef, center - tau chi nu v_i and lam + coef,
            # coef = tau/(2h) * (c - chi (v_{i+1} - v_{i-1}) / (2h))
            subtract(v_east, v_west, coef)
            multiply(chi, coef, coef)
            divide(coef, two_h, coef)
            subtract(c, coef, coef)
            multiply(tau_2h, coef, coef)
            subtract(lam, coef, west)
            add(lam, coef, east)
            multiply(chem_rate, v_mid, mid)
            subtract(center, mid, mid)
            load = coupled
        # u-stage:
        # ((west u_{i-1} + mid u_i) - tau (b - chi mu) u_i^2) + east u_{i+1}
        _, _, u_west, u_mid, u_east, _ = here
        u, line, _, inner, _, close = there
        here, there = there, here
        multiply(west, u_west, inner)
        multiply(mid, u_mid, work)
        add(inner, work, inner)
        multiply(damping, u_mid, work)
        multiply(work, u_mid, work)
        subtract(inner, work, inner)
        multiply(east, u_east, work)
        add(inner, work, inner)
        close()
        # round-off negatives are clamped so the quadratic term and the
        # chemical solve stay in the physical regime
        maximum(u, zero, out=u)     # np.maximum deprecates a positional out
        # one sup over the line, checked only when it passes the largest so
        # far, which the guard has already passed (nan <= limit is False);
        # only a sup past the limit is taken row by row
        m = reduce_max(line)
        if not m <= top:
            if not m <= BLOWUP_LIMIT:
                rows = line.reshape(len(runs), nodes)
                sups = reduce_max(rows, -1)
                for k in np.flatnonzero(~(sups <= BLOWUP_LIMIT)):
                    errors[k] = blow_up(j, k, sups[k])
                    rows[k] = 0.0
                if None not in errors:
                    break
                m = reduce_max(line)
            top = max(top, m)
        if coupled:
            solve(u, v)
        if j in hooks and on_step(j, u, v):
            break
    return u, v, errors, np.maximum(top, m0)


def run(cfg: RunConfig, u0: np.ndarray):
    """March to t = T, pushing the cadence steps, the final step, its lag
    partner and the snapshot steps to the lag monitor, record the series at
    the cadence steps and the final step, and classify the outcome from the
    final difference.  Returns (Trajectory, Outcome)."""
    n_steps, snap_steps = cfg.n_steps, cfg.snapshot_steps
    times, sup_diffs, sup_us, u_rights = [], [], [], []
    snapshots = []
    monitor = _LagMonitor(cfg.lag_steps)
    hooks = {*range(0, n_steps + 1, monitor.cadence), n_steps,
             n_steps - cfg.lag_steps, *snap_steps}

    def record(j, u, v):
        sup_diff = monitor.push(j, u)
        if j in snap_steps:
            snapshots.append((snap_steps[j], monitor.kept[j], v.copy()))
        if j % monitor.cadence == 0 or j == n_steps:
            times.append(j * cfg.tau)
            sup_diffs.append(sup_diff)
            sup_us.append(float(u.max()))
            u_rights.append(float(u[-1]))

    u, v, [error], top = _march(cfg, [cfg.params], initial_state(cfg, u0),
                                on_step=record, hooks=hooks)
    if error:
        raise error
    traj = Trajectory(
        times=np.array(times), sup_diff=np.array(sup_diffs),
        sup_u=np.array(sup_us), u_at_right=np.array(u_rights),
        snapshots=snapshots, u_final=u, v_final=v, max_sup_u=float(top))
    return traj, detect_outcome(u, sup_diffs[-1], cfg)


def run_block(cfg: RunConfig, runs: Sequence[SimParams], u0: np.ndarray):
    """March ``cfg`` for each of ``runs``, parameters that differ from
    ``cfg.params`` only in (b, c, chi), from one u0 as one (B, M+1) block,
    with ``run``'s kernel, chemical solve and lag monitor, and classify
    each row from its final difference.  Row k reads (u_final, v_final,
    outcome), bitwise the final (u, v) and outcome of
    ``run(replace(cfg, params=runs[k]), u0)``; no series or snapshots are
    kept.  A row whose nu or mu differs from cfg's is refused with
    ValueError, as the rows share one chemical matrix.  A row past the
    blow-up guard reads the BlowUpError its own ``run`` raises."""
    monitor = _LagMonitor(cfg.lag_steps)
    sup_diffs = []
    u, v, errors, _ = _march(
        cfg, runs, np.tile(initial_state(cfg, u0), (len(runs), 1)),
        on_step=lambda j, u, v: sup_diffs.append(monitor.push(j, u)),
        hooks={cfg.n_steps - cfg.lag_steps, cfg.n_steps})
    return [error or (u[k], v[k], detect_outcome(
                u[k], sup_diffs[-1][k], replace(cfg, params=params)))
            for k, (params, error) in enumerate(zip(runs, errors))]


def detect_outcome(u: np.ndarray, sup_diff: float,
                   cfg: RunConfig) -> Outcome:
    """Classify the terminal window from the final profile u and the lag
    monitor's final difference sup_diff, the sup change over the trailing
    convergence window (nan when the run is shorter than the window, which
    leaves a non-extinct run undetermined): extinction when the terminal
    sup norm falls below extinct_tol; a settled run (sup_diff below
    conv_tol) is a forced wave when it matches the expected shape for its
    boundary case (a CASE1 plateau at r*/b, which needs r* > 0); anything
    else is undetermined."""
    sup_u = float(u.max())
    sup_diff = float(sup_diff)
    if sup_u < cfg.extinct_tol:
        return Outcome(tag=OutcomeTag.EXTINCTION, final_sup_diff=sup_diff)
    r_star = float(np.max(cfg.r_samples))
    if sup_diff < cfg.conv_tol:        # nan < conv_tol is False
        if cfg.bc is BoundaryCase.CASE1:
            plateau = float(u[-1])
            if r_star > 0.0 and (abs(plateau * cfg.params.b / r_star - 1.0)
                                 < cfg.plateau_rel_tol):
                return Outcome(tag=OutcomeTag.FORCED_WAVE_CASE1,
                               final_sup_diff=sup_diff, plateau=plateau)
        else:
            if sup_u > 10.0 * cfg.extinct_tol:
                k = int(np.argmax(u))
                peak = (sup_u, float(cfg.grid.nodes[k]))
                return Outcome(tag=OutcomeTag.FORCED_WAVE_CASE2,
                               final_sup_diff=sup_diff, peak=peak)
    return Outcome(tag=OutcomeTag.UNDETERMINED, final_sup_diff=sup_diff)
