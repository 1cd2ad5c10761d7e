"""Parameters, habitat profiles, grids, and regime predicates.

The moving-frame system is

    u_t = u_xx + c u_x - chi (u v_x)_x + u (r(x) - b u)
    0   = v_xx - nu v + mu u

on a truncated interval [-L, L].  This module holds the plain data of the
problem: physical constants, the piecewise-linear growth rate r(x) with its
constant tails, the uniform grid, and the closed-form regime quantities
(c* = 2 sqrt(r*), the speed and damping conditions) that decide which
analytic constructions apply.

Each type refuses a bad value with a ``ConfigError`` (a ``ValueError``)
naming the config key that holds it; the config parser adds the key's line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ConfigError",
    "SimParams",
    "GrowthProfile",
    "InitialCondition",
    "Grid",
    "BoundaryCase",
    "HabitatClass",
    "RegimeReport",
    "is_count",
    "theta_root",
    "speed_limit",
    "classify_profile",
    "check_regime",
]


class ConfigError(ValueError):
    """A refused input, named by its config key and, when it came from a
    config file, the key's line.  ``reason`` is the message without them."""

    def __init__(self, message, line: int | None = None, key: str | None = None):
        loc = f"line {line}: " if line is not None else ""
        which = f"key {key!r}: " if key else ""
        super().__init__(f"{loc}{which}{message}")
        self.reason = message
        self.line = line
        self.key = key


def is_count(n) -> bool:
    """A count: an integer of at least 1, Python or numpy, not a bool."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= 1)


@dataclass(frozen=True)
class SimParams:
    """Physical constants of the chemotaxis system, each finite; a refusal
    names the constant's own key.

    chi  chemotaxis sensitivity, >= 0
    mu   chemical production rate, > 0
    nu   chemical degradation rate, > 0
    b    logistic damping, > 0; the properties below are the one home of
         the paper's hypotheses on b, each against the one product chi*mu
    c    habitat shift speed (any sign)
    """

    chi: float
    mu: float
    nu: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("mu", "nu", "b"):
            if not 0.0 < getattr(self, name) < math.inf:    # refuses nan
                raise ConfigError(f"{name} must be positive and finite", key=name)
        if not self.chi >= 0.0:     # refuses nan
            raise ConfigError("chi must be nonnegative", key="chi")
        for name in ("chi", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite", key=name)

    @property
    def well_posed(self) -> bool:           # b > chi mu: global existence
        return self.b > self.chi * self.mu

    @property
    def strongly_damped(self) -> bool:      # b > 2 chi mu: ignition wave, h1
        return self.b > 2.0 * (self.chi * self.mu)

    @property
    def damping_hypothesis(self) -> bool:   # b >= 1.5 chi mu: the envelopes
        return self.b >= 1.5 * (self.chi * self.mu)

    @property
    def damping_gap(self) -> float:
        """b - chi*mu, the effective quadratic damping of the reduced equation."""
        return self.b - self.chi * self.mu


@dataclass(frozen=True)
class GrowthProfile:
    """Continuous piecewise-linear growth rate r(x) with constant tails.

    Left of the first breakpoint the profile equals its first value
    (``left_limit``); right of the last it equals its last value
    (``right_limit``), so sup/inf are exactly computable from the breakpoint
    values alone.  Refusals name ``profile``.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ConfigError("a profile needs at least two breakpoints",
                              key="profile")
        xs = [p[0] for p in self.breakpoints]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("breakpoint abscissae must be strictly increasing",
                              key="profile")
        if not np.isfinite(self.breakpoints).all():
            raise ConfigError("breakpoints must be finite", key="profile")

    @classmethod
    def from_breakpoints(cls, points) -> "GrowthProfile":
        return cls(tuple((float(x), float(r)) for x, r in points))

    @property
    def left_limit(self) -> float:
        """r(-inf), the first breakpoint value."""
        return self.breakpoints[0][1]

    @property
    def right_limit(self) -> float:
        """r(+inf), the last breakpoint value."""
        return self.breakpoints[-1][1]

    def __call__(self, x):
        xs = np.array([p[0] for p in self.breakpoints])
        rs = np.array([p[1] for p in self.breakpoints])
        return np.interp(x, xs, rs)

    @property
    def r_star(self) -> float:
        """sup r, attained at a breakpoint (tails equal the end values)."""
        return max(p[1] for p in self.breakpoints)

    def is_monotone_case1(self) -> bool:
        """Whether r(-inf) <= r(x) <= r(+inf) pointwise (the classical
        separated-habitat shape)."""
        vals = [p[1] for p in self.breakpoints]
        return all(self.left_limit <= v <= self.right_limit for v in vals)


@dataclass(frozen=True)
class InitialCondition:
    """Initial species density: piecewise-linear breakpoints, or a quadratic
    bump (x - xl)(xr - x) clipped at zero.  Exactly one form is given.
    Refusals name ``u0``, or ``u0_bump`` for a bad bump."""

    breakpoints: tuple[tuple[float, float], ...] | None = None
    bump: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.breakpoints is None) == (self.bump is None):
            raise ConfigError("give exactly one of u0 or u0_bump", key="u0")
        if self.breakpoints is not None:
            xs = [p[0] for p in self.breakpoints]
            if (len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:]))
                    or not np.isfinite(self.breakpoints).all()):
                raise ConfigError("need >= 2 strictly increasing, finite "
                                  "breakpoints", key="u0")
        if self.bump is not None and not (-math.inf < self.bump[0]
                                          < self.bump[1] < math.inf):
            raise ConfigError("bump requires finite xl < xr", key="u0_bump")

    def __call__(self, x):
        if self.breakpoints is not None:
            xs = np.array([p[0] for p in self.breakpoints])
            vs = np.array([p[1] for p in self.breakpoints])
            return np.interp(x, xs, vs)
        xl, xr = self.bump
        x = np.asarray(x, dtype=float)
        return np.maximum((x - xl) * (xr - x), 0.0)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L] with M = 2L/h cells and M+1 nodes.

    2L/h must be an integer to relative tolerance 1e-12; anything else is
    rejected rather than silently adjusted, so node counts reproduce exactly.
    Refusals name ``L`` or ``h``, and a bad (or overflowing) 2L/h names ``h``,
    as does one whose M+1 nodes no float array can hold.
    """

    L: float
    h: float
    M: int = field(init=False)

    def __post_init__(self):
        for name in ("L", "h"):
            if not 0.0 < getattr(self, name) < math.inf:    # refuses nan
                raise ConfigError(f"{name} must be positive and finite", key=name)
        ratio = 2.0 * self.L / self.h
        m = round(ratio) if ratio < math.inf else 0     # overflow: h tiny
        if m < 2 or abs(ratio - m) > 1e-12 * max(1.0, ratio):
            raise ConfigError(f"2L/h = {ratio!r} is not an integer >= 2",
                              key="h")
        if m + 1 > np.iinfo(np.intp).max // 8:     # 8 bytes a node
            raise ConfigError(f"2L/h = {ratio!r} has more nodes than a float "
                              "array can hold", key="h")
        object.__setattr__(self, "M", int(m))

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.M + 1)


class BoundaryCase(Enum):
    """Boundary closure of the truncated problem: CASE1 is Dirichlet at -L
    with zero flux at L, CASE2 is Dirichlet at both ends."""

    CASE1 = "case1"
    CASE2 = "case2"

    def closer(self, a: np.ndarray):
        """A function of no arguments that imposes the closure in place on
        a profile (M+1,) or on each row of a block (B, M+1): 0 at -L, and at
        L the last interior value (CASE1) or 0 (CASE2).  The views of a's
        end nodes are bound once, for a loop that closes the same array
        every step."""
        left, right = a[..., 0], a[..., -1]
        source = a[..., -2] if self is BoundaryCase.CASE1 else 0.0

        def close():
            left[...] = 0.0
            right[...] = source
        return close

    def close(self, a: np.ndarray) -> np.ndarray:
        """Impose the closure in place on a profile (M+1,) or on each row of
        a block (B, M+1).  Returns ``a``."""
        self.closer(a)()
        return a


class HabitatClass(Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class RegimeReport:
    """Closed-form regime quantities for a (params, profile) pair.

    h1_threshold is chi*mu*r*/(2 sqrt(nu) (b-chi*mu)) - 2 sqrt(r*(b-2chi*mu)/(b-chi*mu)),
    defined only when params.strongly_damped; h1_holds requires that and
    c > h1_threshold.  h2_damping_holds is params.damping_hypothesis, the
    flag a certificate reports.  c_star = 2 sqrt(r*).
    """

    h1_holds: bool
    h1_threshold: float | None
    h2_damping_holds: bool
    c_star: float


def theta_root(c: float, r: float) -> float:
    """Unique positive root of theta^2 + c theta + r = 0, for r < 0;
    ``theta_root(-c, r)`` is the positive root of theta^2 - c theta + r = 0.

    Uses the cancellation-free form of the quadratic formula, so the
    residual stays at round-off scale for either sign of c.
    """
    if r >= 0.0:
        raise ValueError("theta_root requires r < 0")
    sq = math.sqrt(c * c - 4.0 * r)
    return 0.5 * (-c + sq) if c <= 0.0 else -2.0 * r / (c + sq)


def classify_profile(profile: GrowthProfile) -> HabitatClass:
    """CASE1 when r(-inf) < 0 < r(+inf); CASE2 when both tails are negative
    but sup r > 0; anything else (including tails exactly zero) is
    UNCLASSIFIED.  A CASE1 profile need not be monotone between its limits
    (``is_monotone_case1``); the config parser warns of one that is not."""
    lo, hi = profile.left_limit, profile.right_limit
    if lo < 0.0 < hi:
        return HabitatClass.CASE1
    if lo < 0.0 and hi < 0.0 and profile.r_star > 0.0:
        return HabitatClass.CASE2
    return HabitatClass.UNCLASSIFIED


def speed_limit(params: SimParams, r_star: float) -> float:
    """2 sqrt(r* (b - 2 chi mu)/(b - chi mu)), the eps -> 0 speed of the
    ignition wave; refused unless ``params.strongly_damped`` and r* >= 0."""
    if not (params.strongly_damped and r_star >= 0.0):
        raise ValueError("requires b > 2 chi mu and r* >= 0")
    chimu = params.chi * params.mu
    return 2.0 * math.sqrt(r_star * (params.b - 2.0 * chimu) / (params.b - chimu))


def check_regime(params: SimParams, profile: GrowthProfile) -> RegimeReport:
    """Evaluate the speed and damping predicates for this parameter set;
    b <= chi*mu is refused under b, sup r <= 0 under profile."""
    if not params.well_posed:
        raise ConfigError(f"b must exceed chi*mu = "
                          f"{params.chi * params.mu!r}", key="b")
    r_star = profile.r_star
    if r_star <= 0.0:
        raise ConfigError("profile has no favorable region (sup r <= 0)",
                          key="profile")
    c_star = 2.0 * math.sqrt(r_star)
    if params.strongly_damped:
        threshold = (params.chi * params.mu * r_star
                     / (2.0 * math.sqrt(params.nu) * params.damping_gap)
                     - speed_limit(params, r_star))
        h1 = params.c > threshold
    else:
        threshold = None
        h1 = False
    return RegimeReport(
        h1_holds=h1,
        h1_threshold=threshold,
        h2_damping_holds=params.damping_hypothesis,
        c_star=c_star,
    )
