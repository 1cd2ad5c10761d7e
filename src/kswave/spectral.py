"""Principal eigenvalue of phi'' + c phi' + r(x) phi = lambda phi on (-L, L)
with Dirichlet ends, and its large-L limit.

The nonsymmetric problem is reduced by the substitution phi = exp(-c x / 2) psi
to the self-adjoint form

    psi'' + (r(x) - c^2/4) psi = lambda psi,   psi(-L) = psi(L) = 0,

whose standard 3-point discretization is a symmetric tridiagonal matrix.  Its
largest eigenvalue comes from one LAPACK ``dstebz`` call, made by
:func:`kswave.tridiagonal.largest_eigenvalue`: Sturm-sequence bisection, which
cannot miss or misorder eigenvalues, run to the absolute tolerance
``EIG_TOL``, so the returned value is within ``EIG_TOL`` of the discrete
eigenvalue.  A non-finite speed ``c`` or profile value is refused with
ValueError.

The large-L limit is approached by doubling L at fixed h.  With the node sets
nested, the interior matrix at the smaller L is a principal submatrix of the
larger one, so Cauchy interlacing makes the exact discrete sequence
nondecreasing.  Each computed value is within ``EIG_TOL`` of its exact one, so
the computed sequence is nondecreasing only to within that tolerance; a pair
that drops by more than 10 ``EIG_TOL`` signals a genuine fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, Grid, GrowthProfile
from .tridiagonal import largest_eigenvalue

__all__ = ["EigenResult", "LambdaInfinityResult", "principal_eigenvalue",
           "lambda_infinity"]

EIG_TOL = 1e-10         # absolute tolerance of each dstebz bisection
DOUBLING_TOL = 1e-4     # the doubling stops when lambda_L moves less
DOUBLING_H = 0.01       # mesh width of the doubling sweep
MAX_DOUBLINGS = 8       # doublings of L before the sweep gives up


@dataclass(frozen=True)
class EigenResult:
    lambda_L: float
    L: float
    h: float


@dataclass(frozen=True)
class LambdaInfinityResult:
    """Doubling-sweep certificate: ``table`` rows are (L, h, lambda_L), the
    sequence is nondecreasing to within the eigenvalue tolerance,
    ``estimate`` is its last entry (a lower bound of the limit), and
    ``upper_bound`` = r* - c^2/4 bounds it from above."""

    estimate: float
    table: tuple[tuple[float, float, float], ...]
    converged: bool
    upper_bound: float

    @property
    def positive(self) -> bool:
        return self.estimate > 0.0


def _first_L(profile: GrowthProfile, h: float) -> float:
    """The doubling's first L, 10 past the outermost breakpoint, with h
    checked by ``Grid``'s rule and refused under eig_h: doubling is exact in
    floats, so h then divides every later 2L."""
    L = float(math.ceil(max(abs(p[0]) for p in profile.breakpoints) + 10.0))
    try:
        Grid(L=L, h=h)
    except ConfigError as exc:
        raise ConfigError(f"{exc.reason} (L = {L!r}, h = {h!r})",
                          key="eig_h") from None
    return L


def principal_eigenvalue(profile: GrowthProfile, c: float, L: float,
                         h: float) -> EigenResult:
    """Largest eigenvalue of the Dirichlet problem on (-L, L), within the
    absolute tolerance ``EIG_TOL`` of the discrete eigenvalue."""
    m = Grid(L=L, h=h).M
    inv_h2 = 1.0 / (h * h)
    # diagonal at the interior nodes -L + i h, i = 1 .. m-1
    d = (-2.0 * inv_h2
         + np.asarray(profile(-L + h * np.arange(1, m)), dtype=float)
         - 0.25 * c * c)
    # a non-finite c or profile value is refused before the LAPACK call
    lam = largest_eigenvalue(d, np.full(d.size - 1, inv_h2), EIG_TOL)
    return EigenResult(lambda_L=lam, L=float(L), h=float(h))


def lambda_infinity(profile: GrowthProfile, c: float,
                    tol: float = DOUBLING_TOL,
                    h: float = DOUBLING_H) -> LambdaInfinityResult:
    """Estimate lim_{L -> inf} lambda_L by doubling L at fixed h until
    successive values differ by less than tol, at most MAX_DOUBLINGS times
    (tol and h default as eig_tol and eig_h do).  Each lambda_L is one LAPACK
    ``dstebz`` bisection with absolute tolerance ``EIG_TOL``, so a step may
    drop by round-off of that size; a drop beyond 10 ``EIG_TOL`` is refused.
    A tol that is not finite and positive is refused with ValueError."""
    if not 0.0 < tol < math.inf:        # refuses nan
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    L = _first_L(profile, h)
    upper = profile.r_star - 0.25 * c * c

    table = []
    prev = None
    converged = False
    for _ in range(MAX_DOUBLINGS + 1):
        lam = principal_eigenvalue(profile, c, L, h).lambda_L
        table.append((L, h, lam))
        if prev is not None:
            if lam < prev - 10.0 * EIG_TOL:
                raise RuntimeError(
                    f"lambda_L decreased from {prev!r} to {lam!r}: "
                    "discretization fault (h too coarse)")
            if abs(lam - prev) < tol:
                converged = True
                break
        prev = lam
        L *= 2.0
    return LambdaInfinityResult(estimate=table[-1][2], table=tuple(table),
                                converged=converged, upper_bound=upper)
