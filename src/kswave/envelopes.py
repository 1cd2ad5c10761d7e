"""Analytic super/sub-solution envelopes and their numerical certification.

Upper envelopes for the two habitat classes:

    CASE1:  U+(x) = min( K, K exp(theta1 (x - x1)) ),      K = r*/(b - chi mu),
    CASE2:  K exp(theta_bar (x - x_bar)) | K | K exp(-theta_tilde (x - x_tilde)),

with theta* the positive roots of theta^2 +- c theta + r_neg = 0 and the
junction abscissae computed exactly from the piecewise-linear ramps.  The
stationary residual operator

    A_u(U) = U'' + (c - chi Psi_x(.;u)) U' + (r - chi nu Psi(.;u) - (b - chi mu) U) U

is evaluated against the whole-line kernel fields of a frozen u.  The
certification draws random u below the envelope and checks the claimed sign
of A_u on each branch region; see ``certify_supersolution``.

The CASE1 lower envelope is the ignition traveling wave translated so that
its zero sits at the first point x0 beyond which r stays above r* - eps.
The CASE2 lower envelope is obtained numerically: the terminal profile of a
long cut-off run with the damping enlarged to 4b, kept strictly inside the
CASE2 upper envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chemical import greens_psi, greens_psi_x
from .ignition import IgnitionWave
from .model import (BoundaryCase, Grid, GrowthProfile, HabitatClass, SimParams,
                    classify_profile, theta_root)

__all__ = [
    "EnvelopeKind",
    "Envelope",
    "ResidualField",
    "CertificationReport",
    "build_upper_envelope_case1",
    "build_upper_envelope_case2",
    "build_lower_envelope_case1",
    "build_lower_envelope_case2",
    "residual_A",
    "envelope_branch_residual",
    "certify_supersolution",
]


class EnvelopeKind(Enum):
    UPPER_CASE1 = "upper_case1"
    UPPER_CASE2 = "upper_case2"
    LOWER_CASE1 = "lower_case1"
    LOWER_CASE2_NUMERIC = "lower_case2_numeric"


@dataclass(frozen=True)
class Envelope:
    kind: EnvelopeKind
    values: np.ndarray
    constants: dict
    grid: Grid


@dataclass(frozen=True)
class ResidualField:
    """A_u(U) sampled on the grid together with the node mask on which the
    envelope construction claims its sign (kink nodes excluded)."""

    values: np.ndarray
    region_mask: np.ndarray


@dataclass(frozen=True)
class BranchWorst:
    branch: str
    worst_residual: float
    worst_sample: int
    worst_x: float
    n_nodes: int


@dataclass(frozen=True)
class CertificationReport:
    envelope_kind: EnvelopeKind
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


def _first_up_crossing(profile: GrowthProfile, level: float) -> float | None:
    """Smallest x with r(x) > level, exact on the piecewise-linear ramps.
    None when r never exceeds level; requires r(-inf) <= level."""
    if profile.left_limit > level:
        return None
    pts = profile.breakpoints
    for k, (xk, rk) in enumerate(pts):
        if rk > level:
            if k == 0:
                return None  # unreachable given the left-limit guard
            x_prev, r_prev = pts[k - 1]
            return x_prev + (level - r_prev) * (xk - x_prev) / (rk - r_prev)
    return None


def _last_down_crossing(profile: GrowthProfile, level: float) -> float | None:
    """Largest x with r(x) >= level; requires r(+inf) < level to be finite."""
    if profile.right_limit >= level:
        return None
    pts = profile.breakpoints
    for k in range(len(pts) - 1, -1, -1):
        xk, rk = pts[k]
        if rk >= level:
            x_next, r_next = pts[k + 1]
            return xk + (rk - level) * (x_next - xk) / (rk - r_next)
    return None


def _last_below_crossing(profile: GrowthProfile, level: float) -> float | None:
    """Smallest x0 such that r >= level on (x0, inf): the last up-crossing
    of the level.  None when the right tail sits below the level."""
    if profile.right_limit < level:
        return None
    pts = profile.breakpoints
    last = None
    for k in range(len(pts) - 1, -1, -1):
        xk, rk = pts[k]
        if rk < level:
            x_next, r_next = pts[k + 1]
            last = xk + (level - rk) * (x_next - xk) / (r_next - rk)
            break
    if last is None:
        # r >= level everywhere on the breakpoints; left tail decides
        return pts[0][0] if profile.left_limit < level else None
    return last


def build_upper_envelope_case1(params: SimParams, profile: GrowthProfile,
                               grid: Grid, r1: float | None = None) -> Envelope:
    if classify_profile(profile) is not HabitatClass.CASE1:
        raise ValueError("upper CASE1 envelope requires a CASE1 profile")
    if params.damping_gap <= 0.0:
        raise ValueError("requires b > chi*mu")
    if r1 is None:
        r1 = 0.5 * profile.left_limit
    if not profile.left_limit < r1 < 0.0:
        raise ValueError("need r(-inf) < r1 < 0")
    x1 = _first_up_crossing(profile, r1)
    if x1 is None:
        raise ValueError("profile never exceeds r1")
    theta1 = theta_root(params.c, r1, "forward")
    level = profile.r_star / params.damping_gap
    x = grid.nodes
    values = level * np.exp(theta1 * np.minimum(x - x1, 0.0))
    return Envelope(kind=EnvelopeKind.UPPER_CASE1, values=values, grid=grid,
                    constants={"r1": r1, "x1": x1, "theta1": theta1,
                               "level": level})


def build_upper_envelope_case2(params: SimParams, profile: GrowthProfile,
                               grid: Grid, rbar: float | None = None) -> Envelope:
    if classify_profile(profile) is not HabitatClass.CASE2:
        raise ValueError("upper CASE2 envelope requires a CASE2 profile")
    if params.damping_gap <= 0.0:
        raise ValueError("requires b > chi*mu")
    worst_limit = max(profile.left_limit, profile.right_limit)
    if rbar is None:
        rbar = 0.5 * worst_limit
    if not worst_limit < rbar < 0.0:
        raise ValueError("need max limit < rbar < 0")
    xbar = _first_up_crossing(profile, rbar)
    xtilde = _last_down_crossing(profile, rbar)
    if xbar is None or xtilde is None:
        raise ValueError("profile never crosses rbar")
    theta_bar = theta_root(params.c, rbar, "forward")
    theta_tilde = theta_root(params.c, rbar, "backward")
    level = profile.r_star / params.damping_gap
    x = grid.nodes
    values = np.where(
        x < xbar, level * np.exp(theta_bar * np.minimum(x - xbar, 0.0)),
        np.where(x > xtilde,
                 level * np.exp(-theta_tilde * np.maximum(x - xtilde, 0.0)),
                 level))
    return Envelope(kind=EnvelopeKind.UPPER_CASE2, values=values, grid=grid,
                    constants={"rbar": rbar, "xbar": xbar, "xtilde": xtilde,
                               "theta_bar": theta_bar,
                               "theta_tilde": theta_tilde, "level": level})


def build_lower_envelope_case1(params: SimParams, profile: GrowthProfile,
                               grid: Grid, wave: IgnitionWave,
                               upper: Envelope | None = None) -> Envelope:
    """Translate the ignition wave so its zero sits at the smallest x0 with
    r >= r* - eps on (x0, inf), then clip at zero."""
    if upper is None:
        upper = build_upper_envelope_case1(params, profile, grid)
    eps = wave.epsilon
    level = profile.r_star - eps
    x0 = _last_below_crossing(profile, level)
    if x0 is None:
        raise ValueError(
            f"no admissible translation: r(+inf) < r* - eps = {level!r}")
    x1 = upper.constants["x1"]
    if not x0 > x1:
        raise ValueError(f"translation x0 = {x0!r} does not exceed x1 = {x1!r}")
    values = np.maximum(wave.evaluate(grid.nodes - x0), 0.0)
    if not np.all(values < upper.values):
        raise RuntimeError("lower envelope is not strictly below the upper one")
    return Envelope(kind=EnvelopeKind.LOWER_CASE1, values=values, grid=grid,
                    constants={"epsilon": eps, "x0": x0, "x1": x1,
                               "speed": wave.speed})


def build_lower_envelope_case2(params: SimParams, profile: GrowthProfile,
                               grid: Grid, damping_scale: float = 4.0,
                               T: float = 30.0, tau: float | None = None,
                               upper: Envelope | None = None) -> Envelope:
    """Numeric CASE2 lower envelope: terminal profile of a cut-off run with
    the damping enlarged to damping_scale * b, checked positive inside and
    strictly below the CASE2 upper envelope."""
    from .model import InitialCondition
    from .stepper import make_run_config, run

    if upper is None:
        upper = build_upper_envelope_case2(params, profile, grid)
    heavy = SimParams(chi=params.chi, mu=params.mu, nu=params.nu,
                      b=damping_scale * params.b, c=params.c)
    if tau is None:
        tau = 0.4 * grid.h * grid.h
    n = max(1, round(T / tau))
    tau = T / n
    cfg = make_run_config(heavy, profile, grid, BoundaryCase.CASE2, tau, T)
    u0 = InitialCondition(bump=(-1.0, 1.0))(grid.nodes)
    traj, _ = run(cfg, u0)
    values = traj.u_final.copy()
    values[0] = 0.0
    values[-1] = 0.0
    inner = np.abs(grid.nodes) <= grid.L - 2.0
    if not np.all(values[inner] > 0.0):
        raise RuntimeError("numeric lower envelope is not positive inside")
    if not np.all(values < upper.values):
        raise RuntimeError("numeric lower envelope exceeds the upper envelope")
    return Envelope(kind=EnvelopeKind.LOWER_CASE2_NUMERIC, values=values,
                    grid=grid, constants={"damping_scale": damping_scale,
                                          "T": T})


def _frozen_fields(u_freeze, grid, params):
    psi = greens_psi(u_freeze, grid, params.nu, params.mu)
    psi_x = greens_psi_x(u_freeze, grid, params.nu, params.mu)
    return psi, psi_x


def _residual(U, Ux, Uxx, psi, psi_x, r, params):
    drift = params.c - params.chi * psi_x
    growth = r - params.chi * params.nu * psi - params.damping_gap * U
    return Uxx + drift * Ux + growth * U


def residual_A(u_freeze: np.ndarray, U: np.ndarray, grid: Grid,
               params: SimParams, profile: GrowthProfile) -> ResidualField:
    """A_u(U) with central-difference derivatives of a raw profile U;
    the mask covers the interior nodes."""
    U = np.asarray(U, dtype=float)
    psi, psi_x = _frozen_fields(u_freeze, grid, params)
    h = grid.h
    Ux = np.zeros_like(U)
    Uxx = np.zeros_like(U)
    Ux[1:-1] = (U[2:] - U[:-2]) / (2.0 * h)
    Uxx[1:-1] = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / (h * h)
    r = np.asarray(profile(grid.nodes), dtype=float)
    values = _residual(U, Ux, Uxx, psi, psi_x, r, params)
    mask = np.zeros(U.size, dtype=bool)
    mask[1:-1] = True
    return ResidualField(values=values, region_mask=mask)


def _branches(envelope: Envelope):
    """(name, value_fn, Ux_fn, Uxx_fn, region predicate) per sign claim.
    Each branch is the globally smooth formula; the region restricts where
    the claim applies.  Kink nodes are excluded by half a cell."""
    con = envelope.constants
    K = con["level"]
    if envelope.kind is EnvelopeKind.UPPER_CASE1:
        th, x1 = con["theta1"], con["x1"]

        def exp_left(x):
            return K * np.exp(th * np.minimum(x - x1, 0.0))

        return [
            ("flat", lambda x: np.full_like(x, K), lambda x: np.zeros_like(x),
             lambda x: np.zeros_like(x), lambda x, h: np.ones_like(x, bool)),
            ("left_exp", exp_left, lambda x: th * exp_left(x),
             lambda x: th * th * exp_left(x),
             lambda x, h: x < x1 - 0.5 * h),
        ]
    if envelope.kind is EnvelopeKind.UPPER_CASE2:
        thb, tht = con["theta_bar"], con["theta_tilde"]
        xb, xt = con["xbar"], con["xtilde"]

        def exp_left(x):
            return K * np.exp(thb * np.minimum(x - xb, 0.0))

        def exp_right(x):
            return K * np.exp(-tht * np.maximum(x - xt, 0.0))

        return [
            ("flat", lambda x: np.full_like(x, K), lambda x: np.zeros_like(x),
             lambda x: np.zeros_like(x), lambda x, h: np.ones_like(x, bool)),
            ("left_exp", exp_left, lambda x: thb * exp_left(x),
             lambda x: thb * thb * exp_left(x),
             lambda x, h: x < xb - 0.5 * h),
            ("right_exp", exp_right, lambda x: -tht * exp_right(x),
             lambda x: tht * tht * exp_right(x),
             lambda x, h: x > xt + 0.5 * h),
        ]
    raise ValueError(f"no analytic branches for {envelope.kind}")


def envelope_branch_residual(envelope: Envelope, branch: str,
                             u_freeze: np.ndarray, params: SimParams,
                             profile: GrowthProfile) -> ResidualField:
    """A_u of one envelope branch with its analytic derivatives, masked to
    the region on which the branch is claimed to be a supersolution."""
    grid = envelope.grid
    x = grid.nodes
    psi, psi_x = _frozen_fields(u_freeze, grid, params)
    r = np.asarray(profile(x), dtype=float)
    for name, fU, fUx, fUxx, region in _branches(envelope):
        if name == branch:
            values = _residual(fU(x), fUx(x), fUxx(x), psi, psi_x, r, params)
            return ResidualField(values=values, region_mask=region(x, grid.h))
    raise ValueError(f"unknown branch {branch!r} for {envelope.kind}")


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
                          profile: GrowthProfile, n_samples: int = 100,
                          tol: float = 1e-8, seed: int = 20230917) -> CertificationReport:
    """Check A_u(branch) <= tol on each claimed region for n_samples random
    u in E+.  Never raises on a sign failure: the report records the worst
    residual with its sample and node, and flags whether the damping
    hypothesis b >= 1.5 chi mu held.

    Each branch's value and analytic derivatives do not depend on u, so
    they are evaluated on the grid once, before the sample loop; only the
    kernel fields are recomputed per sample."""
    grid = envelope.grid
    x = grid.nodes
    r = np.asarray(profile(x), dtype=float)
    branches = [(name, fU(x), fUx(x), fUxx(x), region(x, grid.h))
                for name, fU, fUx, fUxx, region in _branches(envelope)]
    rng = np.random.default_rng(seed)
    worst = {name: (-math.inf, -1, math.nan) for name, *_ in branches}
    n_nodes = {name: int(mask.sum()) for name, *_, mask in branches}

    for i in range(n_samples):
        u = _sample_in_eplus(rng, envelope, i)
        psi, psi_x = _frozen_fields(u, grid, params)
        for name, U, Ux, Uxx, mask in branches:
            if not mask.any():
                continue
            vals = _residual(U, Ux, Uxx, psi, psi_x, r, params)
            k = int(np.argmax(np.where(mask, vals, -math.inf)))
            if vals[k] > worst[name][0]:
                worst[name] = (float(vals[k]), i, float(x[k]))

    report = CertificationReport(
        envelope_kind=envelope.kind,
        hypothesis_satisfied=params.b >= 1.5 * params.chi * params.mu,
        n_samples=n_samples, tol=tol,
        branches=tuple(
            BranchWorst(branch=name, worst_residual=worst[name][0],
                        worst_sample=worst[name][1], worst_x=worst[name][2],
                        n_nodes=n_nodes[name])
            for name, *_ in branches))
    return report
