import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kswave import (BlowUpError, BoundaryCase, Grid, GrowthProfile,
                    InitialCondition, Outcome, OutcomeTag, SimParams,
                    cfl_check, detect_outcome, initial_state,
                    make_run_config, run, run_block)
from kswave.fixedpoint import _evolve_frozen


def tiny_cfg(**over):
    params = over.pop("params", SimParams(chi=0.0, mu=1.0, nu=1.0, b=1.0,
                                          c=0.0))
    profile = over.pop("profile",
                       GrowthProfile.from_breakpoints([(-1.0, 1.0),
                                                       (1.0, 1.0)]))
    grid = over.pop("grid", Grid(L=1.0, h=1.0))
    bc = over.pop("bc", BoundaryCase.CASE2)
    tau = over.pop("tau", 0.1)
    T = over.pop("T", 1.0)
    return make_run_config(params, profile, grid, bc, tau, T, **over)


# ---------------------------------------------------------------------------
# CFL

def test_cfl_examples():
    assert cfl_check(0.1, 0.002)          # ratio 0.2
    assert not cfl_check(0.1, 0.01)       # ratio 1.0
    assert cfl_check(0.05, 0.00125)       # ratio 0.5, equality allowed


@given(h=st.floats(1e-3, 10.0), tau=st.floats(1e-8, 10.0))
def test_cfl_matches_definition(h, tau):
    assert cfl_check(h, tau) == (tau / (h * h) <= 0.5)


def test_run_refuses_unstable():
    # the config refuses the step before any run can start
    with pytest.raises(ValueError, match="CFL"):
        tiny_cfg(tau=0.9)


# ---------------------------------------------------------------------------
# few-step oracles (runs of n steps, T = n tau)

def test_zero_is_fixed_point():
    cfg = tiny_cfg(T=0.3)
    traj, _ = run(cfg, np.zeros(cfg.grid.M + 1))
    assert np.all(traj.u_final == 0.0)


def test_single_interior_node_update_oracle():
    # M = 2, h = 1, tau = 0.1, c = 0, chi = 0, r = 1, b = 1, u = (0,1,0):
    # u2' = (1 - 2*0.1 + 0.1*1) * 1 - 0.1 * 1 = 0.8
    cfg = tiny_cfg(T=0.1)
    traj, _ = run(cfg, np.array([0.0, 1.0, 0.0]))
    assert traj.u_final[1] == pytest.approx(0.8, abs=1e-15)
    assert traj.u_final[0] == 0.0 and traj.u_final[2] == 0.0


def test_determinism_bitwise(case1_profile, exp1_params, case1_u0):
    grid = Grid(L=10.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 2.0,
                          snapshot_times=(1.0, 2.0))
    u0 = case1_u0(grid.nodes)
    t1, o1 = run(cfg, u0)
    t2, o2 = run(cfg, u0)
    assert np.array_equal(t1.u_final, t2.u_final)
    assert np.array_equal(t1.sup_diff[np.isfinite(t1.sup_diff)],
                          t2.sup_diff[np.isfinite(t2.sup_diff)])
    for (ta, ua, va), (tb, ub, vb) in zip(t1.snapshots, t2.snapshots):
        assert ta == tb and np.array_equal(ua, ub) and np.array_equal(va, vb)
    assert o1.final_sup_diff == o2.final_sup_diff


# ---------------------------------------------------------------------------
# validation and guards

def test_initial_state_validation():
    cfg = tiny_cfg()
    with pytest.raises(ValueError):
        initial_state(cfg, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        initial_state(cfg, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        initial_state(cfg, np.array([0.0, 1.0, 1.0]))   # CASE2 right end
    with pytest.raises(ValueError):
        initial_state(cfg, np.zeros(7))
    # round-off negatives are clamped and the closure imposed
    u = initial_state(cfg, np.array([1e-13, -1e-13, 0.0]))
    assert np.array_equal(u, [0.0, 0.0, 0.0])


def test_blowup_guard_raises():
    # the guard in every flow: one run and the frozen flow raise, a block
    # row reads None
    params = SimParams(chi=0.0, mu=1.0, nu=1.0, b=1.0, c=0.0)
    profile = GrowthProfile.from_breakpoints([(-5.0, 30.0), (5.0, 30.0)])
    grid = Grid(L=5.0, h=0.1)
    cfg = make_run_config(params, profile, grid, BoundaryCase.CASE2,
                          tau=0.02, T=10.0, allow_unstable=True)
    u0 = np.zeros(grid.M + 1)
    u0[grid.M // 2] = 1.0
    with pytest.raises(BlowUpError):
        run(cfg, u0)
    with pytest.raises(BlowUpError):
        _evolve_frozen(cfg, u0, np.zeros(grid.M + 1))
    assert run_block([cfg], u0) == [None]


def test_nonnegativity_and_apriori_bound(case1_profile, exp1_params,
                                         case1_u0):
    grid = Grid(L=10.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 3.0)
    u0 = case1_u0(grid.nodes)
    traj, _ = run(cfg, u0)
    assert traj.u_final.min() >= 0.0
    cap = max(u0.max(), 10.0 / exp1_params.damping_gap)
    assert traj.max_sup_u <= cap + 1e-6
    # the boundary closure holds exactly at the terminal state
    assert traj.u_final[0] == 0.0
    assert traj.u_final[-1] == traj.u_final[-2]


def test_constant_habitat_attractor():
    # r = r*, c = 0, b > 2 chi mu, inf u0 > 0 on a wide domain:
    # u approaches r*/b on the middle half by T = 20
    profile = GrowthProfile.from_breakpoints([(-50.0, 10.0), (50.0, 10.0)])
    params = SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=0.0)
    grid = Grid(L=50.0, h=0.1)
    cfg = make_run_config(params, profile, grid, BoundaryCase.CASE1,
                          0.002, 20.0)
    u0 = np.full(grid.M + 1, 2.0)
    u0[0] = 0.0
    traj, _ = run(cfg, u0)
    mid = np.abs(grid.nodes) <= 25.0
    assert np.abs(traj.u_final[mid] - 10.0).max() <= 1e-2


@pytest.mark.parametrize("value", (math.nan, math.inf))
@pytest.mark.parametrize("name", ("tau", "T", "conv_window", "conv_tol",
                                  "extinct_tol", "plateau_rel_tol"))
def test_config_refuses_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        tiny_cfg(**{name: value})


@pytest.mark.parametrize("times", ((1.0, 1.0), (1.0, 1.0004)))
def test_snapshot_times_on_one_step_are_refused(times):
    # at tau = 0.002 both times of each pair round to step 500
    with pytest.raises(ValueError, match=(f"snapshot times {times[0]} and "
                                          f"{times[1]} fall on the same")):
        tiny_cfg(tau=0.002, T=2.0, snapshot_times=times)


def test_run_alignment_validation():
    # refused when the config is built, before any run can start
    with pytest.raises(ValueError, match="T must be"):
        tiny_cfg(T=1.05)
    with pytest.raises(ValueError):
        tiny_cfg(snapshot_times=(2.0,))   # beyond T


def test_extinction_from_zero_initial_data():
    cfg = tiny_cfg(T=2.0)
    traj, outcome = run(cfg, np.zeros(cfg.grid.M + 1))
    assert outcome.tag is OutcomeTag.EXTINCTION


# ---------------------------------------------------------------------------
# a block of runs marched as one array

def block_cfgs(axis, values, bc=BoundaryCase.CASE1, **over):
    """Runs on one grid that differ only in ``axis``: L = 5, 1000 steps."""
    profile = GrowthProfile.from_breakpoints(
        [(-2.0, -1.0), (-1.0, 10.0)] if bc is BoundaryCase.CASE1
        else [(-2.0, -1.0), (-1.0, 10.0), (1.0, 10.0), (2.0, -1.0)])
    base = {"chi": 0.0, "mu": 1.0, "nu": 0.05, "b": 1.0, "c": 1.0}
    over = {"tau": 0.002, "T": 2.0, **over}
    return [make_run_config(SimParams(**{**base, axis: x}), profile,
                            Grid(L=5.0, h=0.1), bc, **over)
            for x in values]


def block_u0(bc):
    ic = (InitialCondition(breakpoints=((-1.0, 0.0), (1.0, 10.0)))
          if bc is BoundaryCase.CASE1 else InitialCondition(bump=(-1.0, 1.0)))
    return ic(Grid(L=5.0, h=0.1).nodes)


@pytest.mark.parametrize("bc", (BoundaryCase.CASE1, BoundaryCase.CASE2))
@pytest.mark.parametrize("axis, values", [
    ("c", (1.0,)),
    ("c", (1.0, -3.0, 0.5, 6.0)),
    # chi = 0 and b = 1e-7: u grows like exp(10 t) and passes the blow-up
    # guard near t = 1.1, in the middle of the block and of the run
    ("b", (1.0, 1e-7, 0.5)),
    ("chi", (0.0, 0.6, 0.3)),
])
def test_block_rows_equal_serial_runs_bitwise(axis, values, bc):
    cfgs = block_cfgs(axis, values, bc)
    u0 = block_u0(bc)
    rows = run_block(cfgs, u0)
    assert len(rows) == len(cfgs)
    blown = 0
    for cfg, row in zip(cfgs, rows):
        try:
            traj, outcome = run(cfg, u0)
        except BlowUpError:
            assert row is None
            blown += 1
            continue
        u_final, v_final, u_lag, block_outcome = row
        assert u_final.tobytes() == traj.u_final.tobytes()
        assert v_final.tobytes() == traj.v_final.tobytes()
        assert u_lag.tobytes() == traj.u_lag.tobytes()
        assert block_outcome == outcome
    assert blown == (axis == "b")


def test_block_keeps_the_run_checks():
    u0 = block_u0(BoundaryCase.CASE1)
    with pytest.raises(ValueError, match="CFL"):
        run_block(block_cfgs("c", (1.0, 2.0), tau=0.01), u0)
    with pytest.raises(ValueError, match="T must be"):
        run_block(block_cfgs("c", (1.0, 2.0), T=2.0001), u0)
    with pytest.raises(ValueError, match="conv_window"):
        run_block(block_cfgs("c", (1.0, 2.0), conv_window=1.0001), u0)
    # rows must share everything the kernel and the solve hold fixed
    mixed = block_cfgs("c", (1.0,)) + block_cfgs("nu", (0.5,))
    with pytest.raises(ValueError, match="shares"):
        run_block(mixed, u0)


# ---------------------------------------------------------------------------
# outcome classification on synthetic profiles


def test_detect_outcome_synthetic_cases(case1_profile, exp1_params):
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 10.0)
    settled = np.where(grid.nodes > -7.0, 10.0, 0.0)
    out = detect_outcome(settled, settled.copy(), cfg)
    assert out.tag is OutcomeTag.FORCED_WAVE_CASE1
    assert out.plateau == pytest.approx(10.0)

    zero = np.zeros(grid.M + 1)
    out = detect_outcome(zero, zero.copy(), cfg)
    assert out.tag is OutcomeTag.EXTINCTION

    moving = detect_outcome(settled, 0.5 * settled, cfg)
    assert moving.tag is OutcomeTag.UNDETERMINED

    # settled but plateau far from r*/b: not a recognized wave shape
    bad = detect_outcome(0.5 * settled, 0.5 * settled.copy(), cfg)
    assert bad.tag is OutcomeTag.UNDETERMINED


def test_detect_outcome_without_lag_is_undetermined(case1_profile,
                                                    exp1_params):
    # a run shorter than its convergence window has no lag partner: the
    # settled shape is not judged, and the sup change reads nan
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 10.0)
    settled = np.where(grid.nodes > -7.0, 10.0, 0.0)
    out = detect_outcome(settled, None, cfg)
    assert out.tag is OutcomeTag.UNDETERMINED
    assert math.isnan(out.final_sup_diff)


def test_detect_outcome_case2_peak(case2_profile, case2_exp1_params):
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(case2_exp1_params, case2_profile, grid,
                          BoundaryCase.CASE2, 0.002, 10.0)
    hump = 8.0 * np.exp(-0.5 * (grid.nodes + 6.0) ** 2)
    hump[0] = hump[-1] = 0.0
    out = detect_outcome(hump, hump.copy(), cfg)
    assert out.tag is OutcomeTag.FORCED_WAVE_CASE2
    peak_val, peak_x = out.peak
    assert peak_val == pytest.approx(8.0, rel=1e-6)
    assert peak_x == pytest.approx(-6.0, abs=0.1)


def test_outcome_invariant_plateau_iff_case1():
    with pytest.raises(ValueError):
        Outcome(tag=OutcomeTag.EXTINCTION, final_sup_diff=0.0, plateau=1.0)
    with pytest.raises(ValueError):
        Outcome(tag=OutcomeTag.FORCED_WAVE_CASE1, final_sup_diff=0.0)
