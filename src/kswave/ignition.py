"""Ignition traveling wave used to anchor the CASE1 lower envelope.

For a cutoff parameter eps in (0, alpha) the reaction

    f(u) = u (alpha - beta u)   for u >= 0,      f(u) = 0 for -eps <= u < 0,
    alpha = r* - eps - chi mu r* / (b - chi mu),  beta = b - chi mu,

admits a unique increasing front psi with speed ct > 0,

    ct psi' = psi'' + f(psi),   psi(-inf) = -eps,  psi(+inf) = Q = alpha/beta,

whose speed tends to 2 sqrt(r* (b - 2 chi mu)/(b - chi mu)) as eps -> 0.

The speed is found by phase-plane shooting: with p = psi' > 0 the orbit from
the saddle (Q, 0) satisfies dp/dpsi = ct - f(psi)/p, integrated from
psi = Q - delta down to psi = 0 with fixed-step RK4.  The correct speed makes
p(0) = ct*eps, the unique slope from which the f = 0 zone carries the orbit
exactly to (-eps, 0); p(0) - ct*eps changes sign across the front speed on
(0, 2 sqrt(r* (b - 2 chi mu)/(b - chi mu))) and is rooted to tolerance by
Brent's zeroin (R. P. Brent, Algorithms for Minimization without
Derivatives, 1973): inverse quadratic or secant steps where the shots are
finite, bisection where one has collapsed (-inf); about a dozen shots where
bisection took thirty-odd.  The left tail is then the explicit exponential
psi(x) = eps (exp(ct x) - 1) for x <= 0, the middle is rebuilt by a stable
backward x-integration off the saddle (plain-float RK4, like the shots),
and the far right tail uses the saddle asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SimParams, speed_limit

__all__ = ["BracketError", "IgnitionWave", "ignition_wave",
           "richardson_speed"]

SADDLE_OFFSET = 1e-6
STEP = 1e-3                 # RK4 step of the shots and of the rebuilt front
SPEED_TOL = 1e-8            # Brent's tolerance on the speed
TRUNCATION_RADIUS = 60.0    # the front must cross zero within 2x this
RICHARDSON_EPSILONS = (0.1, 0.05, 0.025)    # the halving eps grid
_EPS = np.finfo(float).eps


class BracketError(RuntimeError):
    """No sign change in the speed bracket: eps too large or b <= 2 chi mu."""


@dataclass(frozen=True)
class IgnitionWave:
    """Front from -epsilon to right_level on a private grid; psi(0) = 0."""

    epsilon: float
    speed: float
    right_level: float
    speed_bound: float
    alpha: float
    beta: float
    lam_minus: float
    x: np.ndarray          # ascending, x[0] = 0 (the normalization point)
    psi: np.ndarray
    p: np.ndarray

    def evaluate(self, xq) -> np.ndarray:
        """psi at arbitrary abscissae: exact exponential tail for x <= 0,
        interpolation of the integrated orbit in the middle, saddle
        asymptotics beyond the stored range."""
        xq = np.asarray(xq, dtype=float)
        left = self.epsilon * (np.exp(self.speed * np.minimum(xq, 0.0)) - 1.0)
        mid = np.interp(xq, self.x, self.psi)
        x_end = self.x[-1]
        gap = self.right_level - self.psi[-1]
        right = self.right_level - gap * np.exp(
            self.lam_minus * np.maximum(xq - x_end, 0.0))
        return np.where(xq <= 0.0, left, np.where(xq >= x_end, right, mid))


def _lam_minus(ct: float, alpha: float) -> float:
    """Stable eigenvalue of the saddle (Q, 0): (ct - sqrt(ct^2+4 alpha))/2."""
    return 0.5 * (ct - math.sqrt(ct * ct + 4.0 * alpha))


def _shoot(ct: float, alpha: float, beta: float, step: float):
    """Integrate dp/dpsi = ct - f/p from psi = Q - delta down to psi = 0.
    Returns p(0), or -inf when p collapses before reaching 0 (undershoot).
    The RK4 stages are written out: a stage whose p is at or below the
    floor has slope -inf, stages 2 and 3 share f at psi + ds/2, and stage
    4's f at psi + ds is the next step's stage-1 f."""
    Q = alpha / beta
    lamm = _lam_minus(ct, alpha)
    psi = Q - SADDLE_OFFSET
    p = -lamm * SADDLE_OFFSET
    floor = 1e-12
    inf = math.inf
    isfinite = math.isfinite

    n_full = int(psi / step)
    ds = -step
    f = psi * (alpha - beta * psi) if psi >= 0.0 else 0.0
    for k in range(n_full + 1):
        if k == n_full:
            ds = -(psi - 0.0) if psi > 0.0 else 0.0
            if ds == 0.0:
                break
        half = 0.5 * ds
        k1 = -inf if p <= floor else ct - f / p
        mid = psi + half
        f_mid = mid * (alpha - beta * mid) if mid >= 0.0 else 0.0
        q = p + half * k1
        k2 = -inf if q <= floor else ct - f_mid / q
        q = p + half * k2
        k3 = -inf if q <= floor else ct - f_mid / q
        psi = psi + ds
        f = psi * (alpha - beta * psi) if psi >= 0.0 else 0.0
        q = p + ds * k3
        k4 = -inf if q <= floor else ct - f / q
        p = p + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not isfinite(p) or p < floor:
            return -inf
    return p


def _zeroin(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Brent's zeroin for a root of f in [a, b], given fa = f(a) and
    fb = f(b) of opposite signs.  Returns a point within tol (plus a few
    ulps) of the root.  Interpolation uses only finite values of f; a step
    next to an infinite one bisects."""
    c, fc, d = a, fa, b - a
    e = d
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d = a, fa, b - a
            e = d
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if (abs(e) >= tol1 and abs(fa) > abs(fb)
                and math.isfinite(fa) and math.isfinite(fc)):
            s = fb / fa
            if a == c:      # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:           # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def ignition_wave(params: SimParams, r_star: float,
                  epsilon: float) -> IgnitionWave:
    """The front and its speed for one cutoff value: RK4 steps of STEP, the
    speed rooted to SPEED_TOL in (0, speed_limit), the front built within
    2 TRUNCATION_RADIUS.  ``speed_limit`` refuses params not strongly_damped."""
    bound = speed_limit(params, r_star)
    beta = params.damping_gap
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    alpha = r_star - epsilon - params.chi * params.mu * r_star / beta
    if alpha <= 0.0:
        raise BracketError(f"epsilon = {epsilon!r} too large: no positive zero gap")

    def overshoot(ct):
        return _shoot(ct, alpha, beta, STEP) - ct * epsilon

    s_lo = overshoot(0.0)
    s_hi = overshoot(bound)
    if not (s_lo > 0.0 and s_hi < 0.0):
        raise BracketError(
            f"speed bracket (0, {bound:.6g}) has no sign change "
            f"(s(0)={s_lo:.3g}, s(bound)={s_hi:.3g}): epsilon too large "
            "or hypothesis violated")
    ct = _zeroin(overshoot, 0.0, bound, s_lo, s_hi, SPEED_TOL)

    # rebuild psi(x): backward-in-x integration from the saddle is stable,
    # so integrate d(psi,p)/ds = -(p, ct p - f) with s = -x from the offset
    # start until psi crosses 0, then shift so the crossing sits at x = 0
    Q = alpha / beta
    lamm = _lam_minus(ct, alpha)
    ds = STEP
    half, sixth = 0.5 * ds, ds / 6.0
    max_steps = int(2.0 * TRUNCATION_RADIUS / ds)
    psi_v, p_v = Q - SADDLE_OFFSET, -lamm * SADDLE_OFFSET
    psis, ps = [psi_v], [p_v]

    # RK4 with the stages of (-p, -(ct p - f(psi))) written out
    for _ in range(max_steps):
        a1 = -p_v
        b1 = -(ct * p_v - (psi_v * (alpha - beta * psi_v)
                           if psi_v >= 0.0 else 0.0))
        x, y = psi_v + half * a1, p_v + half * b1
        a2 = -y
        b2 = -(ct * y - (x * (alpha - beta * x) if x >= 0.0 else 0.0))
        x, y = psi_v + half * a2, p_v + half * b2
        a3 = -y
        b3 = -(ct * y - (x * (alpha - beta * x) if x >= 0.0 else 0.0))
        x, y = psi_v + ds * a3, p_v + ds * b3
        a4 = -y
        b4 = -(ct * y - (x * (alpha - beta * x) if x >= 0.0 else 0.0))
        psi_v = psi_v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p_v = p_v + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        psis.append(psi_v)
        ps.append(p_v)
        if psi_v <= 0.0:
            break
    else:
        raise RuntimeError("front did not reach its zero within the truncation")

    psis, ps = np.array(psis), np.array(ps)
    s = ds * np.arange(psis.size)
    # linear interpolation of the crossing abscissa
    f0, f1 = psis[-2], psis[-1]
    s_cross = s[-2] + ds * f0 / (f0 - f1)
    x_all = s_cross - s          # descending; x = 0 at the crossing
    keep = x_all > 0.0
    x_nodes = np.concatenate(([0.0], x_all[keep][::-1]))
    psi_nodes = np.concatenate(([0.0], psis[keep][::-1]))
    p_nodes = np.concatenate(([ct * epsilon], ps[keep][::-1]))

    if not np.all(np.diff(psi_nodes) > 0.0):
        raise RuntimeError("computed front is not strictly increasing")
    return IgnitionWave(
        epsilon=epsilon, speed=ct, right_level=Q,
        speed_bound=bound, alpha=alpha, beta=beta, lam_minus=lamm,
        x=x_nodes, psi=psi_nodes, p=p_nodes)


def richardson_speed(params: SimParams, r_star: float):
    """Speeds over the halving eps grid ``RICHARDSON_EPSILONS`` plus the
    order-estimating Richardson limit.  Assumes a single-power model
    c(eps) = c_inf - A eps^q; returns (speeds, extrapolated_limit,
    estimated_order)."""
    speeds = tuple(ignition_wave(params, r_star, e).speed
                   for e in RICHARDSON_EPSILONS)
    d1 = speeds[1] - speeds[0]
    d2 = speeds[2] - speeds[1]
    if d1 <= 0.0 or d2 <= 0.0:
        raise RuntimeError("speeds are not increasing as epsilon decreases")
    if d1 <= d2:
        raise RuntimeError("speed increments show no geometric decay")
    order = math.log2(d1 / d2)
    limit = speeds[2] + d2 * d2 / (d1 - d2)
    return speeds, limit, order
