"""Principal eigenvalue of phi'' + c phi' + r(x) phi = lambda phi on (-L, L)
with Dirichlet ends, and its large-L limit.

The nonsymmetric problem is reduced by the substitution phi = exp(-c x / 2) psi
to the self-adjoint form

    psi'' + (r(x) - c^2/4) psi = lambda psi,   psi(-L) = psi(L) = 0,

whose standard 3-point discretization is a symmetric tridiagonal matrix.  The
largest eigenvalue is then bracketed by Sturm-sequence bisection, which cannot
miss or misorder eigenvalues, so the returned value carries a guaranteed
absolute tolerance.  The eigenfunction comes from one shifted inverse
iteration and is mapped back through exp(-c x / 2).

The large-L limit is approached by doubling L at fixed h.  With the node sets
nested, the interior matrix at the smaller L is a principal submatrix of the
larger one, so Cauchy interlacing makes the computed sequence exactly
nondecreasing; a decreasing pair therefore signals a genuine fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GrowthProfile
from .tridiagonal import TridiagonalLU

__all__ = ["EigenResult", "LambdaInfinityResult", "principal_eigenvalue",
           "lambda_infinity"]


@dataclass(frozen=True)
class EigenResult:
    lambda_L: float
    L: float
    h: float
    eigenfunction: np.ndarray | None
    converged: bool


@dataclass(frozen=True)
class LambdaInfinityResult:
    """Doubling-sweep certificate: ``table`` rows are (L, h, lambda_L), the
    sequence is nondecreasing, ``estimate`` is its last entry (a lower bound
    of the limit), and ``upper_bound`` = r* - c^2/4 bounds it from above."""

    estimate: float
    table: tuple[tuple[float, float, float], ...]
    converged: bool
    upper_bound: float

    @property
    def positive(self) -> bool:
        return self.estimate > 0.0


def _count_below(d: np.ndarray, e2: float, sigma: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (diag d, off-diag
    sqrt(e2)) strictly below sigma, by the Sturm / LDL^T sign count."""
    count = 0
    t = d[0] - sigma
    if t < 0.0:
        count += 1
    for i in range(1, d.size):
        if t == 0.0:
            t = -1e-300
        t = (d[i] - sigma) - e2 / t
        if t < 0.0:
            count += 1
    return count


def principal_eigenvalue(profile: GrowthProfile, c: float, L: float, h: float,
                         tol: float = 1e-10,
                         want_eigenfunction: bool = True) -> EigenResult:
    """Largest eigenvalue of the Dirichlet problem on (-L, L)."""
    if L <= 0.0 or h <= 0.0:
        raise ValueError("L and h must be positive")
    ratio = 2.0 * L / h
    m = round(ratio)
    if m < 2 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
        raise ValueError("h must divide 2L")
    x = -L + h * np.arange(1, m)          # interior nodes
    inv_h2 = 1.0 / (h * h)
    d = -2.0 * inv_h2 + np.asarray(profile(x), dtype=float) - 0.25 * c * c
    e2 = inv_h2 * inv_h2
    n = d.size

    lo = float(d.min()) - 2.0 * inv_h2
    hi = float(d.max()) + 2.0 * inv_h2
    hi += 1e-8 * max(1.0, abs(hi))        # strict Gershgorin margin
    # invariant: count_below(lo) < n <= count_below(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count_below(d, e2, mid) >= n:
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)

    phi = None
    if want_eigenfunction:
        shift = hi + 10.0 * tol
        off = np.full(n - 1, inv_h2)
        lu = TridiagonalLU(off, d - shift, off)
        psi = np.ones(n)
        for _ in range(4):
            psi = lu.solve(psi)
            psi /= np.max(np.abs(psi))
        if psi[int(np.argmax(np.abs(psi)))] < 0.0:
            psi = -psi
        if psi.min() <= 0.0:
            raise RuntimeError("inverse iteration lost eigenfunction positivity")
        # back-substitute phi = exp(-c x / 2) psi, anchored so the largest
        # exponent is zero (no overflow for any c L)
        expo = -0.5 * c * x
        phi = np.exp(expo - expo.max()) * psi
        phi /= phi.max()
    return EigenResult(lambda_L=lam, L=float(L), h=float(h),
                       eigenfunction=phi, converged=True)


def lambda_infinity(profile: GrowthProfile, c: float, tol: float = 1e-4,
                    h: float = 0.01, max_doublings: int = 8) -> LambdaInfinityResult:
    """Estimate lim_{L -> inf} lambda_L by doubling L at fixed h until
    successive values differ by less than tol."""
    radius = max(abs(p[0]) for p in profile.breakpoints)
    L = float(math.ceil(radius + 10.0))
    upper = profile.r_star - 0.25 * c * c

    table = []
    prev = None
    converged = False
    for _ in range(max_doublings + 1):
        lam = principal_eigenvalue(profile, c, L, h,
                                   want_eigenfunction=False).lambda_L
        table.append((L, h, lam))
        if prev is not None:
            if lam < prev - 1e-9:
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
