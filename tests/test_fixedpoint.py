import hashlib

import numpy as np
import pytest

from kswave import (BoundaryCase, ChemicalSolver, Grid, SimParams,
                    frozen_flow_fixed_point, initial_state, make_run_config,
                    run, sample, stationary_residual)
from kswave.fixedpoint import _evolve_frozen


@pytest.fixture(scope="module")
def fp(exp1_params, case1_profile):
    grid = Grid(L=20.0, h=0.1)
    return grid, frozen_flow_fixed_point(exp1_params, case1_profile, grid)


def test_outer_iteration_converges(fp):
    _, res = fp
    assert res.converged
    assert res.n_outer <= 30
    assert res.outer_diffs[-1] < 1e-4
    # contraction: the outer differences decrease
    assert all(b < a for a, b in zip(res.outer_diffs, res.outer_diffs[1:]))


def test_fixed_point_bits_are_pinned(fp):
    # the frozen flow bit for bit: the kernel, the march, the snapshot
    # comparison and the early stop all feed these values
    _, res = fp
    assert hashlib.sha256(res.u_star.tobytes()).hexdigest() == (
        "8886f0b1fcfd83815007e5345fa2d13989e3f270118e04046ec23892090e79a6")
    assert res.n_outer == 6
    assert res.monotone_slack == 3.552713678800501e-15


def test_inner_flows_pointwise_nonincreasing(fp):
    _, res = fp
    assert res.monotone_slack <= 1e-10


def test_fixed_point_in_sandwich(fp):
    _, res = fp
    assert np.all(res.u_star <= res.upper.values + 1e-8)
    assert np.all(res.u_star >= res.lower.values - 1e-8)


def test_fixed_point_plateau(fp):
    _, res = fp
    assert abs(res.u_star[-1] / 10.0 - 1.0) < 0.02


def test_stationary_residual_small(fp, exp1_params, case1_profile):
    grid, res = fp
    resid = stationary_residual(res.u_star, exp1_params, case1_profile, grid)
    assert resid <= 1e-3 * float(res.u_star.max())


def test_decoupled_limit_chi_zero(case1_profile):
    # with chi = 0 the frozen field drops out: the second outer iterate
    # repeats the first bitwise
    params = SimParams(chi=0.0, mu=1.0, nu=0.05, b=1.0, c=1.0)
    grid = Grid(L=20.0, h=0.1)
    res = frozen_flow_fixed_point(params, case1_profile, grid)
    assert res.converged
    assert res.n_outer == 2
    assert res.outer_diffs[1] == 0.0


def test_rejects_case2_profiles(exp1_params, case2_profile):
    grid = Grid(L=20.0, h=0.1)
    with pytest.raises(ValueError):
        frozen_flow_fixed_point(exp1_params, case2_profile, grid)


def test_frozen_step_is_the_coupled_step(exp1_params, case1_profile,
                                         case1_u0):
    # the frozen flow runs the stepper's kernel: one step from u0 with v
    # frozen at v(.;u0) is bitwise the first step of the coupled run
    grid = Grid(L=20.0, h=0.1)
    tau = 0.4 * grid.h * grid.h
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, tau, tau)
    u0 = initial_state(cfg, sample(case1_u0, grid))
    v = ChemicalSolver(grid, exp1_params.nu, exp1_params.mu,
                       BoundaryCase.CASE1).solve(u0)
    frozen, _ = _evolve_frozen(cfg, u0, v)
    traj, _ = run(cfg, u0)
    assert not np.array_equal(frozen, u0)
    assert np.array_equal(frozen, traj.u_final)
