"""Ignition traveling wave used to anchor the CASE1 lower envelope.

For a cutoff parameter eps in (0, alpha) the reaction

    f(u) = u (alpha - beta u)   for u >= 0,      f(u) = 0 for -eps <= u < 0,
    alpha = r* - eps - chi mu r* / (b - chi mu),  beta = b - chi mu,

admits a unique increasing front psi with speed ct > 0,

    ct psi' = psi'' + f(psi),   psi(-inf) = -eps,  psi(+inf) = Q = alpha/beta,

whose speed tends to 2 sqrt(r* (b - 2 chi mu)/(b - chi mu)) as eps -> 0,
but only logarithmically: the relative deficit approaches
pi^2 / (2 ln^2(1/eps)) (E. Brunet and B. Derrida, PRE 56, 2597 (1997)), and
is asymptotic only near eps ~ 1e-8.  So no extrapolation in a power of eps
from RICHARDSON_EPSILONS reaches the limit (acceptance criterion 10b).

The front is a boundary-value problem in x with ct as one more unknown,
solved on x in [0, LENGTH] by central differences and Newton's method
(W.-J. Beyn, "The numerical computation of connecting orbits in dynamical
systems", IMA J. Numer. Anal. 10 (1990)):

* left end: psi(0) = 0 and psi'(0) = ct eps, the value and slope of the
  exact tail psi = eps (exp(ct x) - 1) that the f = 0 zone carries for
  x <= 0; the ghost node comes from the equation at x = 0, where f = 0;
* right end: the projective condition psi' = lam_minus(ct) (psi - Q), the
  stable direction of the saddle (Q, 0);
* one Newton step solves the tridiagonal Jacobian in psi_1..psi_N bordered
  by the ct column and the left-end row: one
  :func:`kswave.tridiagonal.solve_tridiagonal` call for the residual and
  the ct column together, then one scalar elimination, since the left-end
  row holds only psi_1 and ct.

The meshes are MESH, MESH/2 and MESH/4, each Newton started from the coarser
solution.  The speed is the Richardson value of the (h/2, h/4) pair, and its
error estimate is its distance from the (h, h/2) value; a speed whose error
exceeds SPEED_TOL is refused.  The profile is the Richardson combination of
the h/2 and h/4 solutions on the h/2 nodes.  Unlike a phase-plane shot,
which is stiff near psi ~ eps where psi' ~ ct eps is tiny, the front is
smooth in x, so the solve holds its accuracy down to eps = 1e-8 and below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SimParams, speed_limit
from .tridiagonal import solve_tridiagonal

__all__ = ["BracketError", "IgnitionWave", "ignition_wave",
           "richardson_speed"]

MESH = 0.005                # the coarsest of the three meshes
LENGTH = 40.0               # the front is solved on x in [0, LENGTH]
SPEED_TOL = 1e-8            # bound on the Richardson speed error
RICHARDSON_EPSILONS = (0.1, 0.05, 0.025)    # the halving eps grid
_NEWTON_TOL = 1e-11         # last step relative to speed_limit and Q
_NEWTON_ITERS = 30


class BracketError(RuntimeError):
    """No front speed in (0, speed_limit) to within SPEED_TOL: eps too large,
    Newton's method did not converge, or the speed error is too large."""


@dataclass(frozen=True)
class IgnitionWave:
    """Front from -epsilon to right_level on a uniform grid; psi(0) = 0.
    The grid runs from 0 while the front rises, at most to LENGTH."""

    epsilon: float
    speed: float
    speed_error: float
    right_level: float
    speed_bound: float
    alpha: float
    beta: float
    lam_minus: float
    x: np.ndarray          # ascending, x[0] = 0 (the normalization point)
    psi: np.ndarray

    def evaluate(self, xq) -> np.ndarray:
        """psi at arbitrary abscissae: exact exponential tail for x <= 0,
        interpolation of the mesh profile in the middle, saddle asymptotics
        beyond the stored range."""
        xq = np.asarray(xq, dtype=float)
        left = self.epsilon * (np.exp(self.speed * np.minimum(xq, 0.0)) - 1.0)
        mid = np.interp(xq, self.x, self.psi)
        x_end = self.x[-1]
        gap = self.right_level - self.psi[-1]
        right = self.right_level - gap * np.exp(
            self.lam_minus * np.maximum(xq - x_end, 0.0))
        return np.where(xq <= 0.0, left, np.where(xq >= x_end, right, mid))


def _lam_minus(ct: float, alpha: float):
    """Stable eigenvalue of the saddle (Q, 0), (ct - sqrt(ct^2+4 alpha))/2,
    and its derivative in ct."""
    root = math.sqrt(ct * ct + 4.0 * alpha)
    return 0.5 * (ct - root), 0.5 * (1.0 - ct / root)


def _newton_step(sub, diag, sup, col, corner, res, left):
    """Solution (dpsi, dct) of [J col; e_1^T corner] [dpsi; dct] = -[res;
    left], J the tridiagonal Jacobian (``sub``, ``diag``, ``sup``): J [y z] =
    [-res col] in one solve, then dct = (-left - y_1) / (corner - z_1) and
    dpsi = y - dct z.  A zero pivot or Schur complement raises RuntimeError."""
    y, z = solve_tridiagonal(sub, diag, sup, np.array([-res, col]).T).T
    if corner == z[0]:
        raise RuntimeError("bordered system is singular")
    dct = float((-left - y[0]) / (corner - z[0]))
    return y - dct * z, dct


def _newton(psi, ct, h, epsilon, alpha, beta, bound):
    """Newton's method on the front equations at mesh h from the guess
    (psi_1..psi_N, ct).  Row k = 1..N is h^2 times the central-difference
    equation at x = k h, with psi_0 = 0 and the ghost node psi_{N+1} =
    psi_{N-1} + 2 h lam_minus (psi_N - Q) of the right-end condition; the
    border row is the left-end condition psi_1 = eps (ct h + (ct h)^2 / 2).
    Returns the converged (psi, ct), or raises BracketError."""
    q = alpha / beta
    ext = np.zeros(psi.size + 2)        # psi_0 = 0, psi_1..psi_N, ghost
    for _ in range(_NEWTON_ITERS):
        lam, dlam = _lam_minus(ct, alpha)
        gap = psi[-1] - q
        ext[1:-1] = psi
        ext[-1] = psi[-2] + 2.0 * h * lam * gap
        rise = ext[2:] - ext[:-2]           # 2 h psi'
        live = psi >= 0.0
        f = np.where(live, psi * (alpha - beta * psi), 0.0)
        res = ext[2:] - 2.0 * psi + ext[:-2] - 0.5 * ct * h * rise + h * h * f
        sub = np.full(psi.size - 1, 1.0 + 0.5 * ct * h)
        sub[-1] = 2.0
        diag = h * h * np.where(live, alpha - 2.0 * beta * psi, 0.0) - 2.0
        diag[-1] += h * lam * (2.0 - ct * h)
        sup = np.full(psi.size - 1, 1.0 - 0.5 * ct * h)
        col = -0.5 * h * rise
        col[-1] = gap * h * (2.0 * dlam - h * (lam + ct * dlam))
        left = psi[0] - epsilon * (ct * h + 0.5 * (ct * h) ** 2)
        dpsi, dct = _newton_step(sub, diag, sup, col,
                                 -epsilon * h * (1.0 + ct * h), res, left)
        psi = psi + dpsi
        ct += dct
        if not math.isfinite(ct):
            break
        if (abs(dct) <= _NEWTON_TOL * bound
                and np.max(np.abs(dpsi)) <= _NEWTON_TOL * q):
            return psi, ct
    raise BracketError(f"Newton's method did not converge at mesh h = {h:g}")


def ignition_wave(params: SimParams, r_star: float,
                  epsilon: float) -> IgnitionWave:
    """The front and its speed for one cutoff value, from the meshes MESH,
    MESH/2 and MESH/4 on [0, LENGTH].  BracketError when a mesh's speed
    leaves (0, speed_limit), Newton's method does not converge or the speed
    error exceeds SPEED_TOL; RuntimeError when the front has not come within
    sqrt(SPEED_TOL) Q of its level Q where it stops rising.  ``speed_limit``
    refuses params not strongly_damped."""
    bound = speed_limit(params, r_star)
    beta = params.damping_gap
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    alpha = r_star - epsilon - params.chi * params.mu * r_star / beta
    if alpha <= 0.0:
        raise BracketError(f"epsilon = {epsilon!r} too large: no positive zero gap")
    q = alpha / beta

    h = MESH
    psi = q * np.tanh(0.5 * h * np.arange(1, round(LENGTH / h) + 1))
    ct = 0.5 * bound
    fronts, speeds = [], []
    for level in range(3):
        if level:       # halve the mesh, linear interpolation of the guess
            finer = np.empty(2 * psi.size)
            finer[1::2] = psi
            finer[0] = 0.5 * psi[0]
            finer[2::2] = 0.5 * (psi[:-1] + psi[1:])
            psi, h = finer, 0.5 * h
        psi, ct = _newton(psi, ct, h, epsilon, alpha, beta, bound)
        if not 0.0 < ct < bound:
            raise BracketError(f"speed {ct!r} at mesh h = {h:g} is outside "
                               f"(0, {bound:.6g}): epsilon too large or "
                               "hypothesis violated")
        fronts.append(psi)
        speeds.append(ct)
    coarse, speed = ((4.0 * speeds[k + 1] - speeds[k]) / 3.0 for k in (0, 1))
    error = abs(speed - coarse)
    if not (error <= SPEED_TOL and 0.0 < speed < bound):
        raise BracketError(f"Richardson speed {speed!r} with error "
                           f"estimate {error:.3g}: not resolved to SPEED_TOL "
                           f"= {SPEED_TOL:g} inside (0, {bound:.6g})")

    # the Richardson profile on the h/2 nodes
    h *= 2.0
    psi = np.concatenate(([0.0], (4.0 * fronts[2][1::2] - fronts[1]) / 3.0))
    lam = _lam_minus(speed, alpha)[0]
    # keep the front while it rises; the right-end condition drops f's
    # quadratic term at Q, a fraction (Q - psi)/Q of its linear one, and the
    # speed error that makes is of the order of that fraction squared
    rising = np.diff(psi) > 0.0
    n = rising.size if rising.all() else int(np.argmin(rising))
    if q - psi[n] > math.sqrt(SPEED_TOL) * q:
        raise RuntimeError(
            f"front stops rising at x = {n * h:g}, {q - psi[n]:.3g} below its "
            f"level {q:.6g}: it does not settle within the truncation "
            f"x <= {LENGTH:g}")
    return IgnitionWave(
        epsilon=epsilon, speed=speed, speed_error=error, right_level=q,
        speed_bound=bound, alpha=alpha, beta=beta, lam_minus=lam,
        x=h * np.arange(n + 1), psi=psi[:n + 1])


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
