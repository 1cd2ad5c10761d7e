import math

import numpy as np
import pytest

from kswave import (GrowthProfile, lambda_infinity, principal_eigenvalue,
                    tridiagonal)

CONST_TEN = GrowthProfile.from_breakpoints([(-7.0, 10.0), (7.0, 10.0)])


def test_constant_profile_closed_form():
    # psi'' + (10 - 1/4) psi = lambda psi on (-7, 7):
    # lambda = 10 - 1/4 - (pi/14)^2
    exact = 10.0 - 0.25 - math.pi ** 2 / 196.0
    res = principal_eigenvalue(CONST_TEN, c=1.0, L=7.0, h=0.01)
    assert res.lambda_L == pytest.approx(exact, abs=1e-3)


def test_dirichlet_laplacian_closed_form():
    flat = GrowthProfile.from_breakpoints([(-1.0, 0.0), (1.0, 0.0)])
    res = principal_eigenvalue(flat, c=0.0, L=math.pi / 2,
                               h=math.pi / 2 / 200)
    assert res.lambda_L == pytest.approx(-1.0, abs=1e-3)


@pytest.mark.parametrize("h", [0.02, 0.01])
@pytest.mark.parametrize("c", [0.0, 1.0, 2.5])
def test_constant_profile_exact_discrete_eigenvalue(c, h):
    # the 3-point Dirichlet Laplacian with m = 2L/h cells has top eigenvalue
    # -(4/h^2) sin^2(pi/(2m)); the default tol must hold against it
    m = round(14.0 / h)
    exact = 10.0 - 0.25 * c * c - 4.0 / h ** 2 * math.sin(math.pi / (2 * m)) ** 2
    res = principal_eigenvalue(CONST_TEN, c, 7.0, h)
    assert abs(res.lambda_L - exact) <= 1e-10


def test_h_convergence_is_second_order():
    exact = 10.0 - 0.25 - math.pi ** 2 / 196.0
    e1 = abs(principal_eigenvalue(CONST_TEN, 1.0, 7.0, 0.02).lambda_L - exact)
    e2 = abs(principal_eigenvalue(CONST_TEN, 1.0, 7.0, 0.01).lambda_L - exact)
    assert 3.5 < e1 / e2 < 4.5


def test_shift_identity(case2_profile):
    # lambda_L(r + s, c) = lambda_L(r, c) + s for constant s
    s = 3.7
    shifted = GrowthProfile.from_breakpoints(
        [(x, r + s) for x, r in case2_profile.breakpoints])
    base = principal_eigenvalue(case2_profile, 1.0, 10.0, 0.02).lambda_L
    moved = principal_eigenvalue(shifted, 1.0, 10.0, 0.02).lambda_L
    assert moved == pytest.approx(base + s, abs=5e-10)


def test_advection_penalty_is_quarter_c_squared(case2_profile):
    # the symmetrized matrix with speed c is the c = 0 matrix shifted by c^2/4
    c = 2.5
    lam_c = principal_eigenvalue(case2_profile, c, 10.0, 0.02).lambda_L
    lam_0 = principal_eigenvalue(case2_profile, 0.0, 10.0, 0.02).lambda_L
    assert lam_c == pytest.approx(lam_0 - c * c / 4.0, abs=5e-10)


def test_monotone_in_L_at_fixed_h(case2_profile):
    lams = [principal_eigenvalue(case2_profile, 1.0, L, 0.02).lambda_L
            for L in (10.0, 14.0, 20.0, 28.0)]
    for a, b in zip(lams, lams[1:]):
        assert a <= b + 1e-9


def test_rejects_bad_geometry(case2_profile):
    with pytest.raises(ValueError):
        principal_eigenvalue(case2_profile, 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        principal_eigenvalue(case2_profile, 1.0, 1.0, 0.3)


@pytest.mark.parametrize("c, profile", [
    (float("nan"), None), (float("inf"), None), (-float("inf"), None),
    (1.0, lambda x: np.where(x > 0.0, np.nan, 1.0))])
def test_rejects_non_finite_matrix(case2_profile, c, profile, monkeypatch):
    # a non-finite speed or profile value is refused before LAPACK runs
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a non-finite matrix")
    monkeypatch.setattr(tridiagonal, "dstebz", no_lapack)
    with pytest.raises(ValueError, match="non-finite"):
        principal_eigenvalue(profile or case2_profile, c, 10.0, 0.02)


def test_one_interior_node_is_its_diagonal():
    # 2L/h = 2 leaves a 1 x 1 matrix: its entry, r(0) - c^2/4 - 2/h^2
    res = principal_eigenvalue(CONST_TEN, 1.0, 0.5, 0.5)
    assert res.lambda_L == 10.0 - 0.25 - 8.0


# ---------------------------------------------------------------------------
# large-L limit

def test_lambda_infinity_case2_positive(case2_profile):
    res = lambda_infinity(case2_profile, 1.0)
    lower = 10.0 - 0.25 - math.pi ** 2 / 196.0   # the L = 7 closed form
    assert res.converged
    assert res.positive
    assert res.estimate >= lower
    assert res.estimate <= res.upper_bound + 1e-9
    lams = [row[2] for row in res.table]
    assert all(a <= b + 1e-9 for a, b in zip(lams, lams[1:]))


def test_lambda_infinity_fast_shift_negative(case2_profile):
    res = lambda_infinity(case2_profile, 6.5)
    assert res.upper_bound == pytest.approx(10.0 - 6.5 ** 2 / 4.0, abs=1e-12)
    assert res.estimate <= res.upper_bound + 1e-9
    assert not res.positive


@pytest.mark.parametrize("tol", (math.inf, 0.0, -1.0, math.nan))
def test_lambda_infinity_refuses_a_tolerance_it_cannot_honour(tol,
                                                              case2_profile):
    # inf would read converged after the second row, whatever the
    # difference; no difference is below 0, -1 or nan, so those would
    # double L to 4608 and read not converged
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        lambda_infinity(case2_profile, 1.0, tol=tol)


def test_lambda_infinity_constant_negative_habitat():
    prof = GrowthProfile.from_breakpoints([(-1.0, -1.0), (1.0, -1.0)])
    res = lambda_infinity(prof, 0.0)
    assert res.estimate == pytest.approx(-1.0, abs=1e-3)
