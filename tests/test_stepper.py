import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kswave import (BlowUpError, BoundaryCase, ChemicalSolver, ConfigError,
                    Grid, GrowthProfile, InitialCondition, Outcome,
                    OutcomeTag, SimParams, detect_outcome, harness,
                    initial_state, make_run_config, run, run_block)
from kswave.fixedpoint import _evolve_frozen
from kswave.stepper import BLOWUP_LIMIT, _march

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


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
    tiny_cfg(grid=Grid(L=1.0, h=0.1), tau=0.002)        # ratio 0.2
    tiny_cfg(grid=Grid(L=1.0, h=0.05), tau=0.00125)     # ratio 0.5, allowed
    with pytest.raises(ConfigError, match="CFL") as exc:
        tiny_cfg(grid=Grid(L=1.0, h=0.1), tau=0.01)     # ratio 1.0
    assert exc.value.key == "tau"


@given(m=st.integers(2, 2000), tau=st.floats(1e-8, 10.0))
def test_cfl_matches_definition(m, tau):
    # one-step runs, so only the CFL condition can refuse the step
    grid = Grid(L=1.0, h=2.0 / m)
    try:
        tiny_cfg(grid=grid, tau=tau, T=tau, conv_window=tau)
    except ConfigError as exc:
        assert exc.key == "tau"
        accepted = False
    else:
        accepted = True
    assert accepted == (tau / (grid.h * grid.h) <= 0.5)


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


@pytest.mark.parametrize("bc", (BoundaryCase.CASE1, BoundaryCase.CASE2))
@pytest.mark.parametrize("node", (0, 5, -1))
@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_initial_state_refuses_a_non_finite_u0(value, node, bc):
    # a nan is no smaller than -1e-12, and the closure would erase one at
    # an end node: u0 is named before any step is taken
    cfg = block_cfg(bc)
    u0 = np.zeros(cfg.grid.M + 1)
    u0[node] = value
    with pytest.raises(ValueError, match="u0 must be finite"):
        initial_state(cfg, u0)
    with pytest.raises(ValueError, match="u0 must be finite"):
        run(cfg, u0)


def test_blowup_guard_raises():
    # the guard in every flow: one run and the frozen flow raise, a block
    # row reads the error its run raises
    params = SimParams(chi=0.0, mu=1.0, nu=1.0, b=1.0, c=0.0)
    profile = GrowthProfile.from_breakpoints([(-5.0, 30.0), (5.0, 30.0)])
    grid = Grid(L=5.0, h=0.1)
    cfg = make_run_config(params, profile, grid, BoundaryCase.CASE2,
                          tau=0.02, T=10.0, allow_unstable=True)
    u0 = np.zeros(grid.M + 1)
    u0[grid.M // 2] = 1.0
    with pytest.raises(BlowUpError) as exc:
        run(cfg, u0)
    with pytest.raises(BlowUpError):
        _evolve_frozen(cfg, u0, np.zeros(grid.M + 1))
    [row] = run_block(cfg, [params], u0)
    assert isinstance(row, BlowUpError) and str(row) == str(exc.value)
    # each row's Peclet number is its own: c differs, so do the messages
    runs = [params, replace(params, c=3.0)]
    rows = run_block(cfg, runs, u0)
    for row, p in zip(rows, runs):
        with pytest.raises(BlowUpError) as exc:
            run(replace(cfg, params=p), u0)
        assert isinstance(row, BlowUpError) and str(row) == str(exc.value)
    assert str(rows[0]) != str(rows[1])


def test_blowup_message_names_the_peclet_number():
    # at chi = 2 on the sweep config (b < chi mu) the run blows up with a
    # cell Peclet number far above 2, which the message must name beside
    # tau/h^2 and b - chi mu
    spec = harness.parse_config((EXPERIMENTS / "sweep_case1_c.cfg")
                                .read_text())
    cfg = spec.run_config()
    cfg = replace(cfg, params=replace(cfg.params, chi=2.0), T=1.0)
    with pytest.raises(BlowUpError) as exc:
        run(cfg, spec.initial_condition()(cfg.grid.nodes))
    message = str(exc.value)
    assert "tau/h^2 = 0.2 " in message and "b - chi*mu = -1 " in message
    assert re.search(r"at step \d+ \(t = [0-9.]+\)", message)
    peclet = re.search(r"Peclet number \|c - chi\*v_x\|\*h = ([0-9.e+]+)",
                       message)
    assert peclet and float(peclet.group(1)) > 2.0


def march_cfg(chi=0.6):
    """block_cfg's CASE1 run at chi = 0.6, whose sup overshoots: it peaks
    at step 330, between two of run's cadence steps, and then falls."""
    return replace(block_cfg(), params=replace(BLOCK_PARAMS, chi=chi))


def march(cfg, n_steps, on_step, hooks):
    cfg = replace(cfg, T=n_steps * cfg.tau)
    return _march(cfg, [cfg.params], initial_state(cfg, block_u0(cfg.bc)),
                  on_step=on_step, hooks=hooks)


def test_march_calls_its_hook_only_at_the_named_steps():
    cfg = march_cfg()
    seen = []

    def hook(j, u, v):
        seen.append(j)
        assert v.tobytes() == ChemicalSolver(
            cfg.grid, cfg.params.nu, cfg.params.mu, cfg.bc).solve(u).tobytes()

    u, v, blown, top = march(cfg, 25, hook, {3, 7, 20, 25, 30, -1})
    assert seen == [0, 3, 7, 20, 25]
    # a True return stops the march at that step, with that step's state
    stop = march(cfg, 25, lambda j, u, v: j == 7, {3, 7, 20})
    seven = march(cfg, 7, None, ())
    for a, b in zip(stop, seven):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_max_sup_is_the_largest_sup_of_every_step():
    # the march tracks the largest sup itself, over the steps its hook
    # does not see as well
    cfg = march_cfg()
    sups = []
    march(cfg, cfg.n_steps, lambda j, u, v: sups.append(u.max()),
          range(cfg.n_steps + 1))
    peak = int(np.argmax(sups))
    assert peak % (cfg.lag_steps // 10) != 0 and 0 < peak < cfg.n_steps
    traj, _ = run(cfg, block_u0(cfg.bc))
    assert np.float64(traj.max_sup_u).tobytes() == max(sups).tobytes()
    assert traj.max_sup_u > traj.sup_u.max()


def test_a_u0_above_the_guard_trips_it_at_step_1():
    # the largest sup starts at 0, not at step 0's, so step 1 is checked
    cfg = replace(block_cfg(), params=replace(BLOCK_PARAMS, b=1e-7))
    u0 = np.full(cfg.grid.M + 1, 2.0 * BLOWUP_LIMIT)
    u0[0] = 0.0
    with pytest.raises(BlowUpError, match=r"at step 1 \(t = 0.002\)") as exc:
        run(cfg, u0)
    [row] = run_block(cfg, [cfg.params], u0)
    assert str(row) == str(exc.value)


@pytest.mark.parametrize("rows", (1, 11))
def test_march_allocates_nothing_per_step(rows):
    # the peak traced memory of a march of case1_exp1 does not grow with
    # its length, for one run and for a block
    spec = harness.parse_config((EXPERIMENTS / "case1_exp1.cfg")
                                .read_text())
    base = spec.run_config()
    runs = [replace(base.params, c=base.params.c + 0.1 * k)
            for k in range(rows)]
    u0 = initial_state(base, spec.initial_condition()(base.grid.nodes))
    peaks = []
    for n_steps in (200, 2000):
        cfg = replace(base, T=n_steps * base.tau, snapshot_times=())
        u = np.tile(u0, (rows, 1)) if rows > 1 else u0.copy()
        tracemalloc.start()
        try:
            _march(cfg, runs, u)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 1024, peaks


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


def test_config_refuses_a_step_count_that_overflows():
    # T/tau = inf at a subnormal tau: a refusal, where round() once raised
    # OverflowError
    with pytest.raises(ConfigError, match="T/tau finite") as exc:
        tiny_cfg(tau=5e-324)
    assert exc.value.key == "T"
    # T/tau is finite at tau = 1e-306, but the window's and a snapshot's
    # step counts overflow; each once raised OverflowError
    with pytest.raises(ConfigError, match="conv_window/tau finite") as exc:
        tiny_cfg(tau=1e-306, conv_window=1e3)
    assert exc.value.key == "conv_window"
    with pytest.raises(ConfigError, match="outside") as exc:
        tiny_cfg(tau=1e-306, snapshot_times=(1e3,))
    assert exc.value.key == "snapshot_times"


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


def test_config_derives_r_from_its_own_grid():
    # L = 40, h = 0.2 has the M = 400 of case1_exp1's L = 20, h = 0.1, so
    # only r sampled on the new nodes tells the two grids apart
    spec = harness.parse_config((EXPERIMENTS / "case1_exp1.cfg").read_text())
    cfg = spec.run_config()
    grid = Grid(L=40.0, h=0.2)
    moved = replace(cfg, grid=grid, tau=0.004, T=10.0, snapshot_times=())
    assert grid.M == cfg.grid.M
    assert np.array_equal(moved.r_samples,
                          spec.growth_profile()(grid.nodes))
    assert not np.array_equal(moved.r_samples, cfg.r_samples)


def test_extinction_from_zero_initial_data():
    cfg = tiny_cfg(T=2.0)
    traj, outcome = run(cfg, np.zeros(cfg.grid.M + 1))
    assert outcome.tag is OutcomeTag.EXTINCTION


# ---------------------------------------------------------------------------
# a block of runs marched as one array

BLOCK_PARAMS = SimParams(chi=0.0, mu=1.0, nu=0.05, b=1.0, c=1.0)


def block_runs(axis, values):
    """Parameters that differ from BLOCK_PARAMS only in ``axis``."""
    return [replace(BLOCK_PARAMS, **{axis: x}) for x in values]


def block_cfg(bc=BoundaryCase.CASE1, **over):
    """The block's config: L = 5, 1000 steps, with the base parameters."""
    profile = GrowthProfile.from_breakpoints(
        [(-2.0, -1.0), (-1.0, 10.0)] if bc is BoundaryCase.CASE1
        else [(-2.0, -1.0), (-1.0, 10.0), (1.0, 10.0), (2.0, -1.0)])
    over = {"tau": 0.002, "T": 2.0, **over}
    return make_run_config(BLOCK_PARAMS, profile, Grid(L=5.0, h=0.1), bc,
                           **over)


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
    # T = 1 equals the convergence window, so the lag partner is step 0;
    # T = 0.5 is shorter, so the difference is nan and no row settles
    runs = block_runs(axis, values)
    u0 = block_u0(bc)
    for T in (2.0, 1.0, 0.5):
        cfg = block_cfg(bc, T=T)
        rows = run_block(cfg, runs, u0)
        assert len(rows) == len(runs)
        blown = 0
        for params, row in zip(runs, rows):
            try:
                traj, outcome = run(replace(cfg, params=params), u0)
            except BlowUpError as exc:
                assert isinstance(row, BlowUpError) and str(row) == str(exc)
                blown += 1
                continue
            u_final, v_final, block_outcome = row
            assert u_final.tobytes() == traj.u_final.tobytes()
            assert v_final.tobytes() == traj.v_final.tobytes()
            # by bits, as nan != nan
            assert type(block_outcome.final_sup_diff) is float
            assert (np.float64(block_outcome.final_sup_diff).tobytes()
                    == np.float64(outcome.final_sup_diff).tobytes())
            assert (replace(block_outcome, final_sup_diff=0.0)
                    == replace(outcome, final_sup_diff=0.0))
            assert math.isnan(outcome.final_sup_diff) == (T < 1.0)
            if T < 1.0:
                assert outcome.tag is OutcomeTag.UNDETERMINED
        # the b = 1e-7 row passes the guard only past t = 1.1
        assert blown == (axis == "b" and T > 1.1)


def test_a_block_whose_every_row_blows_up_stops_at_that_step():
    # chi = 0 and b = 1e-7: each row passes the guard near t = 1.1; the
    # march stops at the step its last row blows, and each row reads the
    # error of its own run
    cfg = block_cfg()
    runs = block_runs("c", (1.0, -3.0, 0.5, 6.0))
    runs = [replace(p, b=1e-7) for p in runs]
    u0 = block_u0(cfg.bc)
    seen = []
    u, _, errors, _ = _march(
        cfg, runs, np.tile(initial_state(cfg, u0), (len(runs), 1)),
        on_step=lambda j, *_: seen.append(j),
        hooks=range(cfg.n_steps + 1))
    steps = [int(re.search(r"at step (\d+) ", str(e)).group(1))
             for e in errors]
    assert seen == list(range(max(steps))) and max(steps) < cfg.n_steps
    assert not u.any()
    for error, row, params in zip(errors, run_block(cfg, runs, u0), runs):
        with pytest.raises(BlowUpError) as exc:
            run(replace(cfg, params=params), u0)
        assert str(error) == str(row) == str(exc.value)


def test_series_has_no_nan_row_past_the_first_window():
    # a snapshot step off the cadence grid, and the lag partner of a final
    # step off it, are pushed to the monitor but write no series row
    for over in ({"snapshot_times": (0.0, 1.55, 2.0)}, {"T": 2.05}):
        cfg = block_cfg(**over)
        traj, _ = run(cfg, block_u0(cfg.bc))
        steps = np.round(traj.times / cfg.tau)
        assert not np.isnan(traj.sup_diff[steps >= cfg.lag_steps]).any()
        assert np.isnan(traj.sup_diff[steps < cfg.lag_steps]).all()
        assert steps[-1] == cfg.n_steps
        assert [t for t, _, _ in traj.snapshots] == list(cfg.snapshot_times)


def test_block_keeps_the_run_checks():
    with pytest.raises(ValueError, match="CFL"):
        block_cfg(tau=0.01)
    with pytest.raises(ValueError, match="T must be"):
        block_cfg(T=2.0001)
    with pytest.raises(ValueError, match="conv_window"):
        block_cfg(conv_window=1.0001)
    # the rows share the chemical matrix, which holds nu and mu
    mixed = block_runs("c", (1.0,)) + block_runs("nu", (0.5,))
    with pytest.raises(ValueError, match="nu and mu"):
        run_block(block_cfg(), mixed, block_u0(BoundaryCase.CASE1))


def test_an_empty_block_has_no_rows():
    # a sweep whose every point is refused or skipped marches no block
    assert run_block(block_cfg(), [], block_u0(BoundaryCase.CASE1)) == []


# ---------------------------------------------------------------------------
# outcome classification on synthetic profiles


def test_detect_outcome_synthetic_cases(case1_profile, exp1_params):
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 10.0)
    settled = np.where(grid.nodes > -7.0, 10.0, 0.0)
    out = detect_outcome(settled, 0.0, cfg)
    assert out.tag is OutcomeTag.FORCED_WAVE_CASE1
    assert out.plateau == pytest.approx(10.0)

    zero = np.zeros(grid.M + 1)
    out = detect_outcome(zero, 0.0, cfg)
    assert out.tag is OutcomeTag.EXTINCTION

    moving = detect_outcome(settled, 5.0, cfg)
    assert moving.tag is OutcomeTag.UNDETERMINED

    # settled but plateau far from r*/b: not a recognized wave shape
    bad = detect_outcome(0.5 * settled, 0.0, cfg)
    assert bad.tag is OutcomeTag.UNDETERMINED

    # sup r = 0 leaves no plateau r*/b > 0 to match
    r_max_zero = GrowthProfile.from_breakpoints([(-8.0, -1.0), (-7.0, 0.0)])
    no_growth = make_run_config(exp1_params, r_max_zero, grid,
                                BoundaryCase.CASE1, 0.002, 10.0)
    out = detect_outcome(settled, 0.0, no_growth)
    assert out.tag is OutcomeTag.UNDETERMINED


def test_detect_outcome_without_lag_is_undetermined(case1_profile,
                                                    exp1_params):
    # a run shorter than its convergence window has no lag partner, so its
    # difference is nan: the settled shape is not judged
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(exp1_params, case1_profile, grid,
                          BoundaryCase.CASE1, 0.002, 10.0)
    settled = np.where(grid.nodes > -7.0, 10.0, 0.0)
    out = detect_outcome(settled, math.nan, cfg)
    assert out.tag is OutcomeTag.UNDETERMINED
    assert math.isnan(out.final_sup_diff)


def test_detect_outcome_case2_peak(case2_profile, case2_exp1_params):
    grid = Grid(L=20.0, h=0.1)
    cfg = make_run_config(case2_exp1_params, case2_profile, grid,
                          BoundaryCase.CASE2, 0.002, 10.0)
    hump = 8.0 * np.exp(-0.5 * (grid.nodes + 6.0) ** 2)
    hump[0] = hump[-1] = 0.0
    out = detect_outcome(hump, 0.0, cfg)
    assert out.tag is OutcomeTag.FORCED_WAVE_CASE2
    peak_val, peak_x = out.peak
    assert peak_val == pytest.approx(8.0, rel=1e-6)
    assert peak_x == pytest.approx(-6.0, abs=0.1)


def test_outcome_invariant_plateau_iff_case1():
    with pytest.raises(ValueError):
        Outcome(tag=OutcomeTag.EXTINCTION, final_sup_diff=0.0, plateau=1.0)
    with pytest.raises(ValueError):
        Outcome(tag=OutcomeTag.FORCED_WAVE_CASE1, final_sup_diff=0.0)
