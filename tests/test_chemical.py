import math
import sys

import numpy as np
import pytest
import scipy
from scipy.linalg import solve_banded

from kswave import (BoundaryCase, ChemicalSolver, Grid, greens_psi,
                    greens_psi_x, tridiagonal)

BOTH_CASES = (BoundaryCase.CASE1, BoundaryCase.CASE2)


# ---------------------------------------------------------------------------
# tridiagonal solve

@pytest.mark.parametrize("bc", BOTH_CASES)
def test_zero_input_gives_zero_field(bc):
    g = Grid(L=5.0, h=0.1)
    v = ChemicalSolver(g, 1.0, 1.0, bc).solve(np.zeros(g.M + 1))
    assert np.all(v == 0.0)


def test_missing_lapack_extension_is_an_import_error(tmp_path, monkeypatch):
    # no fallback to another LAPACK binding: the error names the module
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(scipy.__spec__, "submodule_search_locations",
                        [str(tmp_path)])
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        tridiagonal._load_flapack()
    monkeypatch.setattr(tridiagonal, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        tridiagonal._load_flapack()


def test_three_node_elimination_oracle():
    # M = 2, h = 1, nu = mu = 1, CASE2, u = (0,1,0):
    # (v1 - 2 v2 + v3) - v2 + 1 = 0 with v1 = v3 = 0  =>  v2 = 1/3
    g = Grid(L=1.0, h=1.0)
    v = ChemicalSolver(g, 1.0, 1.0, BoundaryCase.CASE2).solve(
        np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(v, [0.0, 1.0 / 3.0, 0.0], atol=1e-15)


def test_constant_input_interior_level():
    # u = r*/(b - chi mu) on a long domain: interior v ~ mu r*/(nu (b - chi mu))
    nu, mu = 0.05, 1.0
    cap = 10.0 / 0.9
    g = Grid(L=40.0, h=0.1)
    v = ChemicalSolver(g, nu, mu, BoundaryCase.CASE1).solve(
        np.full(g.M + 1, cap))
    center = g.M // 2
    assert v[center] == pytest.approx(mu * cap / nu, rel=1e-3)


@pytest.mark.parametrize("bc", BOTH_CASES)
def test_discrete_maximum_principle(bc, rng):
    g = Grid(L=5.0, h=0.05)
    for _ in range(20):
        u = rng.random(g.M + 1) * rng.uniform(0.1, 30.0)
        assert ChemicalSolver(g, 0.7, 1.3, bc).solve(u).min() >= 0.0


@pytest.mark.parametrize("bc", BOTH_CASES)
def test_linearity(bc, rng):
    g = Grid(L=5.0, h=0.1)
    u1, u2 = rng.random(g.M + 1), rng.random(g.M + 1)
    a, b = 1.7, -0.4
    lhs = ChemicalSolver(g, 0.7, 1.3, bc).solve(a * u1 + b * u2)
    rhs = a * ChemicalSolver(g, 0.7, 1.3, bc).solve(u1) \
        + b * ChemicalSolver(g, 0.7, 1.3, bc).solve(u2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("bc", BOTH_CASES)
def test_interior_residual_bound(bc, rng):
    g = Grid(L=5.0, h=0.1)
    nu, mu = 0.7, 1.3
    u = rng.random(g.M + 1) * 3.0
    v = ChemicalSolver(g, nu, mu, bc).solve(u)
    res = (v[:-2] - 2 * v[1:-1] + v[2:]) / g.h ** 2 - nu * v[1:-1] \
        + mu * u[1:-1]
    bound = 1e-10 * (np.abs(v).max() * (2 / g.h ** 2 + nu)
                     + mu * np.abs(u).max())
    assert np.abs(res).max() <= bound


def test_boundary_closures(rng):
    g = Grid(L=5.0, h=0.1)
    u = rng.random(g.M + 1)
    v1 = ChemicalSolver(g, 1.0, 1.0, BoundaryCase.CASE1).solve(u)
    assert v1[0] == 0.0
    assert v1[-1] == v1[-2]              # first-order zero-flux closure
    v2 = ChemicalSolver(g, 1.0, 1.0, BoundaryCase.CASE2).solve(u)
    assert v2[0] == 0.0 and v2[-1] == 0.0


def banded_oracle(u, g, nu, mu, bc):
    """v from scipy's banded solver on the same system, assembled afresh."""
    h2 = g.h * g.h
    n = g.M - 1
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0
    ab[1, :] = -(2.0 + nu * h2)
    ab[2, :-1] = 1.0
    if bc is BoundaryCase.CASE1:
        ab[1, -1] = -(1.0 + nu * h2)
    v = np.zeros(g.M + 1)
    v[1:1 + n] = solve_banded((1, 1), ab, -mu * h2 * u[1:1 + n])
    if bc is BoundaryCase.CASE1:
        v[-1] = v[-2]
    return v


@pytest.mark.parametrize("M", (2, 3, 400))
@pytest.mark.parametrize("bc", BOTH_CASES)
def test_factored_solve_matches_banded_oracle_bitwise(bc, M, rng):
    # one, two and many unknowns: the 1x1 division, dgtsv and dgttrf/dgttrs
    g = Grid(L=M / 16, h=0.125)
    solver = ChemicalSolver(g, 0.05, 1.3, bc)
    for _ in range(5):
        u = rng.random(g.M + 1) * rng.uniform(0.1, 30.0)
        v = solver.solve(u)
        assert v.tobytes() == banded_oracle(u, g, 0.05, 1.3, bc).tobytes()


@pytest.mark.parametrize("M", (2, 3, 400))
@pytest.mark.parametrize("bc", BOTH_CASES)
def test_block_solve_matches_row_solves_bitwise(bc, M, rng):
    # a (B, M+1) block is one LAPACK call; each row must get the bits of
    # its own 1-D solve, whatever the block size
    g = Grid(L=M / 16, h=0.125)
    solver = ChemicalSolver(g, 0.05, 1.3, bc)
    for B in (1, 2, 7):
        u = rng.random((B, g.M + 1)) * rng.uniform(0.1, 30.0, size=(B, 1))
        v = solver.solve(u)
        assert type(v) is np.ndarray and v.shape == (B, g.M + 1)
        for k in range(B):
            row = solver.solve(u[k])
            assert type(row) is np.ndarray and row.shape == (g.M + 1,)
            assert v[k].tobytes() == row.tobytes()


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("row", (0, 2, 4))
def test_block_solve_rejects_non_finite_row(row, bad, rng):
    g = Grid(L=5.0, h=0.1)
    solver = ChemicalSolver(g, 1.0, 1.0, BoundaryCase.CASE1)
    u = rng.random((5, g.M + 1))
    u[row, g.M // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solver.solve(u)


@pytest.mark.parametrize("shape", ((10,), (2, 10), (2, 2, 101)))
def test_solve_rejects_wrong_shape(shape):
    g = Grid(L=5.0, h=0.1)
    solver = ChemicalSolver(g, 1.0, 1.0, BoundaryCase.CASE1)
    with pytest.raises(ValueError, match="length"):
        solver.solve(np.zeros(shape))


# ---------------------------------------------------------------------------
# kernel quadrature oracle

def dense_greens(u, g, nu, mu):
    """(Psi, Psi_x) from the dense n x n kernel with the trapezoid weights:
    h/2 at the domain ends for Psi; for the one-sided integrals of Psi_x,
    h/2 at the domain end and at the diagonal node, which row 0 (left) and
    row n-1 (right) share."""
    x = g.nodes
    n = x.size
    s = np.sqrt(nu)
    kernel = np.exp(-s * np.abs(np.subtract.outer(x, x)))
    w = np.full(n, g.h)
    w[0] = w[-1] = 0.5 * g.h
    psi = (mu / (2.0 * s)) * kernel.dot(w * u)

    idx = np.arange(n)
    w_left = np.tril(np.full((n, n), g.h))
    w_left[:, 0] *= 0.5
    w_left[idx, idx] *= 0.5
    w_left[0, 0] = 0.0
    w_right = np.triu(np.full((n, n), g.h))
    w_right[:, -1] *= 0.5
    w_right[idx, idx] *= 0.5
    w_right[-1, -1] = 0.0
    psi_x = 0.5 * mu * ((kernel * w_right).dot(u) - (kernel * w_left).dot(u))
    return psi, psi_x


@pytest.mark.parametrize("L, h, nu", [(20.0, 0.1, 0.05), (40.0, 0.05, 0.5),
                                      (200.0, 0.25, 4.0)])
def test_one_sided_passes_match_dense_kernel(L, h, nu, rng):
    # the O(M) recursions sum the same terms in another order, so they agree
    # with the dense kernel to round-off, relative to the field's size
    g = Grid(L=L, h=h)
    mu = 1.3
    for u in (rng.random(g.M + 1) * 5.0,
              np.exp(-((g.nodes - 0.3 * L) / 2.0) ** 2),
              np.full(g.M + 1, 2.0)):
        psi, psi_x = dense_greens(u, g, nu, mu)
        got, got_x = greens_psi(u, g, nu, mu), greens_psi_x(u, g, nu, mu)
        assert np.max(np.abs(got - psi)) <= 1e-13 * np.max(np.abs(psi))
        assert np.max(np.abs(got_x - psi_x)) <= 1e-13 * np.max(np.abs(psi_x))


def test_greens_psi_zero():
    g = Grid(L=5.0, h=0.1)
    assert np.all(greens_psi(np.zeros(g.M + 1), g, 1.0, 1.0) == 0.0)
    assert np.all(greens_psi_x(np.zeros(g.M + 1), g, 1.0, 1.0) == 0.0)


def test_greens_rejects_u_of_wrong_length():
    # the recursions would silently run over the wrong node count
    g = Grid(L=5.0, h=0.1)
    for fn in (greens_psi, greens_psi_x):
        with pytest.raises(ValueError, match="length"):
            fn(np.ones(g.M), g, 1.0, 1.0)


def test_greens_psi_wide_constant_input():
    # kernel integrates to mu/nu over the whole line
    nu, mu, c0 = 1.0, 1.0, 3.0
    g = Grid(L=40.0, h=0.1)
    psi = greens_psi(np.full(g.M + 1, c0), g, nu, mu)
    assert psi[g.M // 2] == pytest.approx(mu * c0 / nu, rel=1e-2)


def test_greens_psi_x_vanishes_for_even_input():
    g = Grid(L=10.0, h=0.1)
    u = np.exp(-g.nodes ** 2)
    dpsi = greens_psi_x(u, g, 0.5, 1.0)
    assert abs(dpsi[g.M // 2]) <= 1e-8


def test_greens_psi_x_no_overflow_on_large_domain():
    g = Grid(L=500.0, h=1.0)
    u = np.zeros(g.M + 1)
    u[g.M // 2] = 1.0
    dpsi = greens_psi_x(u, g, 1.0, 1.0)
    assert np.all(np.isfinite(dpsi))


def test_finite_difference_consistency_second_order():
    def fd_gap(h):
        g = Grid(L=10.0, h=h)
        u = 2.0 * np.exp(-((g.nodes - 1.2) / 2.0) ** 2)
        psi = greens_psi(u, g, 0.5, 1.0)
        dpsi = greens_psi_x(u, g, 0.5, 1.0)
        fd = (psi[2:] - psi[:-2]) / (2 * g.h)
        return np.abs(fd - dpsi[1:-1]).max()

    e1, e2 = fd_gap(0.1), fd_gap(0.05)
    assert 3.0 < e1 / e2 < 5.0


def test_kernel_bounds_random_envelope_members(rng):
    # Psi <= mu r*/(nu (b - chi mu)), |Psi_x| <= mu r*/(2 sqrt(nu)(b - chi mu))
    nu, mu, cap = 0.05, 1.0, 10.0 / 0.9
    bound_psi = mu * 10.0 / (nu * 0.9)
    bound_dpsi = mu * 10.0 / (2 * math.sqrt(nu) * 0.9)
    g = Grid(L=20.0, h=0.1)
    for i in range(50):
        u = np.full(g.M + 1, cap) if i == 0 \
            else np.minimum(rng.random(g.M + 1) * cap, cap)
        assert greens_psi(u, g, nu, mu).max() <= bound_psi + 1e-8
        assert np.abs(greens_psi_x(u, g, nu, mu)).max() <= bound_dpsi + 1e-8


def test_oracle_equivalence_with_frozen_constant(rng):
    # || ChemicalSolver.solve - greens_psi || on the middle half is bounded by
    # C h^2 + exp(-sqrt(nu) dist(support, boundary)); C fit once and frozen
    C = 0.3
    nu, mu, L = 1.0, 1.0, 20.0
    for h in (0.1, 0.05):
        g = Grid(L=L, h=h)
        x = g.nodes
        worst = 0.0
        for _ in range(5):
            x0 = rng.uniform(-4, 4)
            w = rng.uniform(0.5, 2.0)
            amp = rng.uniform(0.2, 2.0)
            u = np.where(np.abs(x - x0) < w,
                         amp * (1 + np.cos(np.pi * (x - x0) / w)) / 2, 0.0)
            v = ChemicalSolver(g, nu, mu, BoundaryCase.CASE2).solve(u)
            psi = greens_psi(u, g, nu, mu)
            mid = np.abs(x) <= L / 2
            worst = max(worst, float(np.abs(v - psi)[mid].max()))
        dist = L - 6.0
        assert worst <= C * h * h + math.exp(-math.sqrt(nu) * dist)
