"""Analytic super/sub-solution envelopes and their numerical certification.

Both upper envelopes follow one rule.  Let K = r*/(b - chi mu) and let rbar
be half the larger negative tail of r: r(-inf)/2 in CASE1 (separated
habitat), max(r(-inf), r(+inf))/2 in CASE2 (bounded patch).  The envelope is
the pointwise minimum of its branch rows (name, theta, x0, side), each

    U(x) = K exp(theta * clip(x - x0)),

with clip = min(., 0) on the left side (side -1) and max(., 0) on the right
(side +1), so U' = theta U and U'' = theta^2 U off the kink.  The rows:

    flat       theta = 0                                (everywhere)
    left_exp   theta = theta_bar,    x0 = x_bar,    side -1
    right_exp  theta = -theta_tilde, x0 = x_tilde,  side +1   (CASE2 only)

theta_bar and theta_tilde are the positive roots of theta^2 + c theta + rbar
= 0 and theta^2 - c theta + rbar = 0; x_bar is where r first rises above
rbar and x_tilde where it last falls below it, exact on the piecewise-linear
ramps.  In CASE1, rbar is the paper's r1, x_bar its x1 and theta_bar its
theta1.  Every branch is checked against the one stationary operator of
``kswave.stationary``

    A_u(U) = U'' + (c - chi w_x) U' + (r - chi nu w - (b - chi mu) U) U,

with w the chemical field of a frozen u: the whole-line kernel fields
during certification (``certify_supersolution`` draws random u below the
envelope and checks the claimed sign of A_u on each branch region), the
boundary-closed solve in ``stationary.stationary_residual`` and the u rows
of the Newton solve.

The CASE1 lower envelope is the ignition traveling wave translated so that
its zero sits at the first point x0 beyond which r stays above r* - eps.
The CASE2 lower envelope is obtained numerically: the steady state of the
CASE2-closed scheme with the damping enlarged to 4b, solved for directly by
``stationary.newton``.  It is refused unless Newton converges, the state is
positive inside and it lies strictly below the CASE2 upper envelope; past
the scheme's speed threshold the only steady state left is zero, so a shift
too fast for a wave is refused rather than answered with a decaying profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chemical import greens_psi, greens_psi_x
from .ignition import IgnitionWave
from .model import (BoundaryCase, Grid, GrowthProfile, HabitatClass,
                    SimParams, classify_profile, is_count, theta_root)
from .stationary import NEWTON_TOL, _residual, newton

__all__ = [
    "EnvelopeError",
    "Envelope",
    "CertificationReport",
    "build_upper_envelope_case1",
    "build_upper_envelope_case2",
    "build_lower_envelope_case1",
    "build_lower_envelope_case2",
    "certify_supersolution",
]

LOWER_DAMPING_SCALE = 4.0   # the CASE2 lower state's damping, in units of b
CERTIFY_TOL = 1e-8          # the largest A_u(branch) a certificate passes


class EnvelopeError(RuntimeError):
    """A built lower envelope failed its checks: the CASE2 Newton solve did
    not converge or its state is not positive inside, or a lower envelope is
    not strictly below the upper one.  This is a numerical outcome of the
    parameters (for example a shift too fast for a wave), not a bad
    input."""


@dataclass(frozen=True)
class Envelope:
    """An envelope's values on its grid.  An upper envelope also holds its
    branch rows (name, theta, x0, side) in the order flat, left_exp and, in
    CASE2, right_exp, with the constants {"rbar", "level"} they are built
    from; a lower envelope has no rows."""

    values: np.ndarray
    constants: dict
    grid: Grid
    branches: tuple = ()


@dataclass(frozen=True)
class BranchWorst:
    branch: str
    worst_residual: float
    worst_sample: int
    worst_x: float
    n_nodes: int


@dataclass(frozen=True)
class CertificationReport:
    hypothesis_satisfied: bool
    n_samples: int
    tol: float
    branches: tuple[BranchWorst, ...]

    @property
    def ok(self) -> bool:
        return all(b.worst_residual <= self.tol for b in self.branches)

    @property
    def worst(self) -> BranchWorst:
        return max(self.branches, key=lambda b: b.worst_residual)


def _crossing(profile: GrowthProfile, level: float, k: int) -> float:
    """Where the ramp from breakpoint k to k + 1 meets the level, exact on
    the piecewise-linear ramp; the level lies between the two values."""
    (xa, ra), (xb, rb) = profile.breakpoints[k:k + 2]
    return xa + (level - ra) * (xb - xa) / (rb - ra)


def _first_up_crossing(profile: GrowthProfile, level: float) -> float | None:
    """Smallest x with r(x) > level.  None when r never exceeds level;
    requires r(-inf) <= level."""
    if profile.left_limit > level:
        return None
    for k, (_, rk) in enumerate(profile.breakpoints):
        if rk > level:      # k > 0, as breakpoint 0 is the left limit
            return _crossing(profile, level, k - 1)
    return None


def _last_crossing(profile: GrowthProfile, level: float) -> float | None:
    """Where r last changes side of the level, counting r = level as above:
    the largest x with r(x) >= level when r(+inf) < level, else the
    smallest x0 with r >= level on (x0, inf).  None when r never changes
    side."""
    pts = profile.breakpoints
    above = profile.right_limit >= level
    for k in range(len(pts) - 2, -1, -1):
        if (pts[k][1] >= level) != above:
            return _crossing(profile, level, k)
    return None


def _branch(K: float, theta: float, x0: float, side: int, x: np.ndarray,
            h: float):
    """One branch on the nodes x: (U, U', U'', region), with the analytic
    derivatives of the smooth formula and the region on which its sign is
    claimed, kink nodes excluded by half a cell (all of x when flat)."""
    clip = np.minimum if side < 0 else np.maximum
    U = K * np.exp(theta * clip(x - x0, 0.0))
    if side < 0:
        region = x < x0 - 0.5 * h
    elif side > 0:
        region = x > x0 + 0.5 * h
    else:
        region = np.ones_like(x, bool)
    return U, theta * U, theta * theta * U, region


def _upper_envelope(habitat: HabitatClass, params: SimParams,
                    profile: GrowthProfile, grid: Grid) -> Envelope:
    """The upper envelope of a CASE1 or CASE2 profile, the pointwise
    minimum of its branch rows; see the module docstring."""
    if classify_profile(profile) is not habitat:
        raise ValueError(f"upper {habitat.name} envelope requires a "
                         f"{habitat.name} profile")
    if not params.well_posed:
        raise ValueError("requires b > chi*mu")
    case2 = habitat is HabitatClass.CASE2
    # each negative tail lies below rbar < 0 < r*, so r crosses rbar there
    tails = ((profile.left_limit, profile.right_limit) if case2
             else (profile.left_limit,))
    rbar = 0.5 * max(tails)
    branches = [("flat", 0.0, 0.0, 0),
                ("left_exp", theta_root(params.c, rbar),
                 _first_up_crossing(profile, rbar), -1)]
    if case2:
        branches.append(("right_exp", -theta_root(-params.c, rbar),
                         _last_crossing(profile, rbar), 1))
    level = profile.r_star / params.damping_gap
    values = np.minimum.reduce(
        [_branch(level, theta, x0, side, grid.nodes, grid.h)[0]
         for _, theta, x0, side in branches])
    return Envelope(values=values, grid=grid, branches=tuple(branches),
                    constants={"rbar": rbar, "level": level})


def build_upper_envelope_case1(params: SimParams, profile: GrowthProfile,
                               grid: Grid) -> Envelope:
    return _upper_envelope(HabitatClass.CASE1, params, profile, grid)


def build_upper_envelope_case2(params: SimParams, profile: GrowthProfile,
                               grid: Grid) -> Envelope:
    return _upper_envelope(HabitatClass.CASE2, params, profile, grid)


def build_lower_envelope_case1(profile: GrowthProfile, grid: Grid,
                               wave: IgnitionWave,
                               upper: Envelope) -> Envelope:
    """Translate the ignition wave so its zero sits at the smallest x0 with
    r >= r* - eps on (x0, inf), then clip at zero; checked beyond the CASE1
    ``upper`` envelope's x1 and strictly below it."""
    eps = wave.epsilon
    level = profile.r_star - eps
    x0 = _last_crossing(profile, level)
    if x0 is None or profile.right_limit < level:
        raise ValueError(
            f"no admissible translation: r(+inf) < r* - eps = {level!r}")
    _, _, x1, _ = upper.branches[1]     # the left_exp row
    if not x0 > x1:
        raise ValueError(f"translation x0 = {x0!r} does not exceed x1 = {x1!r}")
    values = np.maximum(wave.evaluate(grid.nodes - x0), 0.0)
    if not np.all(values < upper.values):
        raise EnvelopeError("lower envelope is not strictly below the upper one")
    return Envelope(values=values, grid=grid, constants={"x0": x0, "x1": x1})


def build_lower_envelope_case2(params: SimParams, profile: GrowthProfile,
                               grid: Grid, upper: Envelope) -> Envelope:
    """Numeric CASE2 lower envelope: the CASE2-closed steady state with the
    damping enlarged to LOWER_DAMPING_SCALE * b, by Newton from
    clip(r, 0)/(LOWER_DAMPING_SCALE * b).  EnvelopeError when Newton does
    not converge within ``stationary.MAX_NEWTON`` iterations (named a fall
    to the zero state when sup u ends below NEWTON_TOL times its start),
    when the state is not positive on |x| <= L - 2, or when it is not
    strictly below the CASE2 ``upper`` envelope."""
    heavy = SimParams(chi=params.chi, mu=params.mu, nu=params.nu,
                      b=LOWER_DAMPING_SCALE * params.b, c=params.c)
    r = np.asarray(profile(grid.nodes), dtype=float)
    start = np.maximum(r, 0.0) / heavy.b
    state = newton(heavy, r, grid, BoundaryCase.CASE2, start)
    values = state.u
    if not state.converged:
        sup_u = float(np.max(values))
        fell = sup_u < NEWTON_TOL * float(np.max(start))
        why = (f"fell to the zero state (the {LOWER_DAMPING_SCALE:g}b-damped "
               "problem has no positive steady state)" if fell
               else "did not converge")
        raise EnvelopeError(
            f"numeric lower envelope: Newton {why} in {state.iterations} "
            f"iterations (sup|F| = {state.residual:.3e}, sup u = {sup_u:.3e})")
    inner = np.abs(grid.nodes) <= grid.L - 2.0
    if not np.all(values[inner] > 0.0):
        raise EnvelopeError("numeric lower envelope is not positive inside")
    if not np.all(values < upper.values):
        raise EnvelopeError("numeric lower envelope exceeds the upper envelope")
    return Envelope(values=values, grid=grid, constants={})


def _sample_in_eplus(rng, envelope: Envelope, i: int) -> np.ndarray:
    """Random member of E+ = {0 <= u <= U+}: scaled envelopes, clipped
    Gaussian bumps, and capped constants, plus the two edge members."""
    x = envelope.grid.nodes
    U = envelope.values
    if i == 0:
        return np.zeros_like(U)
    if i == 1:
        return U.copy()
    kind = i % 3
    if kind == 0:
        return rng.uniform(0.05, 1.0) * U
    if kind == 1:
        x0 = rng.uniform(x[0], x[-1])
        w = rng.uniform(0.5, 0.25 * (x[-1] - x[0]))
        amp = rng.uniform(0.1, 1.5) * float(U.max())
        return np.minimum(amp * np.exp(-((x - x0) / w) ** 2), U)
    return np.minimum(rng.uniform(0.05, 1.0) * float(U.max()), U)


def certify_supersolution(envelope: Envelope, params: SimParams,
                          profile: GrowthProfile, n_samples: int,
                          seed: int = 20230917) -> CertificationReport:
    """Check A_u(branch) <= CERTIFY_TOL on each claimed region for n_samples
    random u in E+ (verify mode passes verify_samples).  Never raises on a
    sign failure: the report records the worst residual with its sample and
    node, and hypothesis_satisfied is params.damping_hypothesis.

    Each branch's value and analytic derivatives do not depend on u, so
    they are evaluated on the grid once, before the sample loop; only the
    kernel fields are recomputed per sample.  Raises ValueError, before any
    kernel call, for an envelope with no branch rows (a lower one) and
    unless n_samples is a count (``model.is_count``): a certificate
    over no samples would pass vacuously."""
    if not is_count(n_samples):
        raise ValueError(f"n_samples must be a whole number >= 1, got "
                         f"{n_samples!r}")
    if not envelope.branches:
        raise ValueError("a lower envelope has no branch rows to certify")
    grid = envelope.grid
    x = grid.nodes
    r = np.asarray(profile(x), dtype=float)
    level = envelope.constants["level"]
    branches = [(name, *_branch(level, theta, x0, side, x, grid.h))
                for name, theta, x0, side in envelope.branches]
    rng = np.random.default_rng(seed)
    worst = {name: (-math.inf, -1, math.nan) for name, *_ in branches}
    n_nodes = {name: int(mask.sum()) for name, *_, mask in branches}

    for i in range(n_samples):
        u = _sample_in_eplus(rng, envelope, i)
        psi = greens_psi(u, grid, params.nu, params.mu)
        psi_x = greens_psi_x(u, grid, params.nu, params.mu)
        for name, U, Ux, Uxx, mask in branches:
            if not mask.any():
                continue
            vals = _residual(U, Ux, Uxx, psi, psi_x, r, params)
            k = int(np.argmax(np.where(mask, vals, -math.inf)))
            if vals[k] > worst[name][0]:
                worst[name] = (float(vals[k]), i, float(x[k]))

    return CertificationReport(
        hypothesis_satisfied=params.damping_hypothesis,
        n_samples=int(n_samples), tol=CERTIFY_TOL,
        branches=tuple(
            BranchWorst(branch=name, worst_residual=worst[name][0],
                        worst_sample=worst[name][1], worst_x=worst[name][2],
                        n_nodes=n_nodes[name])
            for name, *_ in branches))
