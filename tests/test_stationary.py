import numpy as np
import pytest

from kswave import (BoundaryCase, ChemicalSolver, Grid, GrowthProfile,
                    SimParams, stationary, stationary_residual)
from kswave import fixedpoint
from kswave.stationary import KL, KU, _jacobian, _map

from test_chemical import _band_to_dense

BOTH_CASES = (BoundaryCase.CASE1, BoundaryCase.CASE2)


def _split(x, bc):
    """The closed profiles (u, v) of the interleaved unknowns x."""
    u, v = np.zeros((2, x.size // 2 + 2))
    u[1:-1], v[1:-1] = x[0::2], x[1::2]
    return bc.close(u), bc.close(v)


@pytest.mark.parametrize("bc", BOTH_CASES)
def test_jacobian_matches_central_differences(bc, rng):
    # F is quadratic, so central differences are exact up to round-off
    grid = Grid(L=1.0, h=0.1)
    params = SimParams(chi=0.6, mu=1.3, nu=0.7, b=1.1, c=1.7)
    r = rng.uniform(-1.0, 10.0, grid.M + 1)
    x = rng.uniform(0.5, 3.0, 2 * (grid.M - 1))
    ab = _jacobian(*_split(x, bc), r, params, grid.h, bc)
    want = _band_to_dense(ab, KL, KU)
    step = 1e-5
    fd = np.empty_like(want)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        fd[:, j] = (_map(*_split(x + e, bc), r, params, grid.h)
                    - _map(*_split(x - e, bc), r, params, grid.h)) / (2 * step)
    assert np.max(np.abs(fd - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("bc", BOTH_CASES)
def test_newton_state_zeroes_the_map(bc):
    # from clip(r, 0)/b Newton lands on a positive state whose u rows and
    # chemical rows vanish to round-off, with v the chemical solve's field
    grid = Grid(L=10.0, h=0.1)
    params = SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=1.0)
    profile = GrowthProfile.from_breakpoints(
        [(-8.0, -1.0), (-7.0, 10.0), (7.0, 10.0), (8.0, -1.0)])
    r = profile(grid.nodes)
    state = stationary.newton(params, r, grid, bc, np.maximum(r, 0.0) / params.b)
    assert state.converged and state.iterations < stationary.MAX_NEWTON
    assert state.residual <= 1e-9
    assert np.all(state.u[1:-1] > 0.0)
    v = ChemicalSolver(grid, params.nu, params.mu, bc).solve(state.u)
    np.testing.assert_allclose(state.v, v, rtol=1e-12, atol=0.0)


def test_stationary_residual_is_importable_from_fixedpoint():
    assert fixedpoint.stationary_residual is stationary_residual
