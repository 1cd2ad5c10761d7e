"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).

Criterion 10 is split: the speed bounds hold (10a), but the extrapolated
cutoff-to-zero limit (10b) is out of reach of any extrapolation from the
prescribed cutoff grid, because the front speed approaches its limit only
logarithmically; 10b therefore fails by design rather than by defect.  The
mechanism and the independent PDE cross-check live in
``test_ignition.test_speed_against_pde_front_tracking`` and the module
docstring of ``kswave.ignition``.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kswave import (BoundaryCase, ChemicalSolver, Grid, GrowthProfile,
                    OutcomeTag, build_upper_envelope_case1,
                    build_upper_envelope_case2, certify_supersolution,
                    frozen_flow_fixed_point, greens_psi, greens_psi_x,
                    make_run_config, principal_eigenvalue, richardson_speed,
                    run, speed_limit)
from kswave.harness import SweepSpec, parse_config, sweep

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "experiments"


def report(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")


def load(name, **overrides):
    spec = parse_config((EXPERIMENTS / name).read_text())
    if overrides:
        spec = replace(spec, **overrides)
    return spec


def simulate(spec):
    cfg = spec.run_config()
    u0 = spec.initial_condition()(cfg.grid.nodes)
    return run(cfg, u0)


@pytest.fixture(scope="module")
def exp1_run():
    t0 = time.time()
    traj, outcome = simulate(load("case1_exp1.cfg"))
    return traj, outcome, time.time() - t0


@pytest.fixture(scope="module")
def exp1_L40_run():
    return simulate(load("case1_exp1.cfg", L=40.0))


@pytest.fixture(scope="module")
def exp1_setup():
    spec = load("case1_exp1.cfg")
    return spec.params(), spec.growth_profile(), spec.grid()


def test_criterion_1_experiment1_forced_wave(exp1_run):
    traj, outcome, elapsed = exp1_run
    ok = (outcome.tag is OutcomeTag.FORCED_WAVE_CASE1
          and outcome.final_sup_diff < 1e-2
          and abs(outcome.plateau / 10.0 - 1.0) < 0.02
          and elapsed < 30.0)
    report(1, ok, f"outcome {outcome.tag.value}, "
                  f"|u(10)-u(9)| = {outcome.final_sup_diff:.2e}, "
                  f"plateau {outcome.plateau:.4f}, runtime {elapsed:.1f}s")
    assert outcome.tag is OutcomeTag.FORCED_WAVE_CASE1
    assert outcome.final_sup_diff < 1e-2
    assert abs(outcome.plateau / 10.0 - 1.0) < 0.02
    assert elapsed < 30.0


def test_criterion_2_experiment3_plateau():
    spec = load("case1_exp3.cfg", T=60.0, snapshot_times=())
    traj, _ = simulate(spec)
    plateau = float(traj.u_final[-1])
    target = 10.0 / 0.15
    ok = abs(plateau / target - 1.0) < 0.02
    report(2, ok, f"u(60, L) = {plateau:.4f} vs r*/b = {target:.4f}")
    assert ok


def test_criterion_3_experiment4_extinction():
    traj, outcome = simulate(load("case1_exp4.cfg", snapshot_times=()))
    sup = float(traj.u_final.max())
    ok = outcome.tag is OutcomeTag.EXTINCTION and sup < 1e-3
    report(3, ok, f"outcome {outcome.tag.value}, sup u(140) = {sup:.2e}")
    assert outcome.tag is OutcomeTag.EXTINCTION
    assert sup < 1e-3


def test_criterion_4_case2_wave_and_extinction():
    traj1, out1 = simulate(load("case2_exp1.cfg", snapshot_times=()))
    traj3, out3 = simulate(load("case2_exp3.cfg", snapshot_times=()))
    ok = (out1.tag is OutcomeTag.FORCED_WAVE_CASE2
          and out1.final_sup_diff < 1e-2 and out1.peak[0] > 1.0
          and out3.tag is OutcomeTag.EXTINCTION)
    report(4, ok, f"c=1: {out1.tag.value} (sup diff "
                  f"{out1.final_sup_diff:.2e}, peak {out1.peak[0]:.2f}); "
                  f"c=6.5: {out3.tag.value}")
    assert out1.tag is OutcomeTag.FORCED_WAVE_CASE2
    assert out1.final_sup_diff < 1e-2
    assert out1.peak[0] > 1.0
    assert out3.tag is OutcomeTag.EXTINCTION


def test_criterion_5_domain_robustness(exp1_run, exp1_L40_run):
    u20 = exp1_run[0].u_final
    u40 = exp1_L40_run[0].u_final
    i20 = round((-15.0 + 20.0) / 0.1)
    i40 = round((-15.0 + 40.0) / 0.1)
    n = round(30.0 / 0.1) + 1
    diff = float(np.abs(u20[i20:i20 + n] - u40[i40:i40 + n]).max())
    ok = diff < 5e-2
    report(5, ok, f"sup difference on [-15, 15] between L=20 and L=40: "
                  f"{diff:.2e}")
    assert ok


def test_criterion_6_eigenvalue_closed_form():
    prof = GrowthProfile.from_breakpoints([(-7.0, 10.0), (7.0, 10.0)])
    exact = 10.0 - 0.25 - math.pi ** 2 / 196.0
    e1 = abs(principal_eigenvalue(prof, 1.0, 7.0, 0.005,
                                  tol=1e-12).lambda_L - exact)
    e2 = abs(principal_eigenvalue(prof, 1.0, 7.0, 0.0025,
                                  tol=1e-12).lambda_L - exact)
    ratio = e1 / e2
    ok = e1 < 1e-3 and 3.5 < ratio < 4.5
    report(6, ok, f"|lambda - {exact:.4f}| = {e1:.2e} at h=0.005, "
                  f"halving ratio {ratio:.2f}")
    assert e1 < 1e-3
    assert 3.5 < ratio < 4.5


def test_criterion_7_greens_oracle_equivalence():
    nu, mu = 1.0, 1.0
    grid = Grid(L=40.0, h=0.05)
    x = grid.nodes
    rng = np.random.default_rng(777)
    worst = 0.0
    mid = np.abs(x) <= 20.0
    for _ in range(50):
        x0 = rng.uniform(-8.0, 8.0)
        w = rng.uniform(0.5, 3.0)
        amp = rng.uniform(0.2, 2.0)
        u = np.where(np.abs(x - x0) < w,
                     amp * (1 + np.cos(np.pi * (x - x0) / w)) / 2, 0.0)
        v = ChemicalSolver(grid, nu, mu, BoundaryCase.CASE2).solve(u)
        psi = greens_psi(u, grid, nu, mu)
        worst = max(worst, float(np.abs(v - psi)[mid].max()))
    ok = worst < 1e-3
    report(7, ok, f"worst mid-domain |solve - kernel| over 50 draws: "
                  f"{worst:.2e}")
    assert ok


def test_criterion_8_kernel_bound_certification(exp1_setup):
    params, profile, grid = exp1_setup
    cap = profile.r_star / params.damping_gap
    bound_psi = params.mu * profile.r_star / (params.nu * params.damping_gap)
    bound_dpsi = params.mu * profile.r_star / (2 * math.sqrt(params.nu)
                                               * params.damping_gap)
    env = build_upper_envelope_case1(params, profile, grid)
    rng = np.random.default_rng(888)
    x = grid.nodes
    worst_psi, worst_dpsi = -math.inf, -math.inf
    for i in range(200):
        if i == 0:
            u = np.full(x.size, cap)
        elif i == 1:
            u = env.values.copy()
        elif i % 3 == 0:
            u = rng.uniform(0.0, 1.0) * cap * rng.random(x.size)
        elif i % 3 == 1:
            x0, w = rng.uniform(-15, 15), rng.uniform(0.5, 8.0)
            u = np.minimum(rng.uniform(0.1, 1.5) * cap
                           * np.exp(-((x - x0) / w) ** 2), cap)
        else:
            u = np.minimum(rng.uniform(0.0, 1.0) * cap, env.values)
        worst_psi = max(worst_psi,
                        float(greens_psi(u, grid, params.nu, params.mu).max())
                        - bound_psi)
        worst_dpsi = max(worst_dpsi,
                         float(np.abs(greens_psi_x(u, grid, params.nu,
                                                   params.mu)).max())
                         - bound_dpsi)
    ok = worst_psi <= 1e-8 and worst_dpsi <= 1e-8
    report(8, ok, f"worst slack over 200 draws: Psi {worst_psi:.2e}, "
                  f"Psi_x {worst_dpsi:.2e}")
    assert worst_psi <= 1e-8
    assert worst_dpsi <= 1e-8


def test_criterion_9_supersolution_certification(exp1_setup):
    params1, profile1, grid1 = exp1_setup
    env1 = build_upper_envelope_case1(params1, profile1, grid1)
    rep1 = certify_supersolution(env1, params1, profile1, n_samples=100)

    spec2 = load("case2_exp1.cfg")
    params2, profile2, grid2 = (spec2.params(), spec2.growth_profile(),
                                spec2.grid())
    env2 = build_upper_envelope_case2(params2, profile2, grid2)
    rep2 = certify_supersolution(env2, params2, profile2, n_samples=100)

    ok = rep1.ok and rep2.ok
    report(9, ok, f"worst residuals: separated {rep1.worst.worst_residual:.2e}"
                  f" ({rep1.worst.branch}), bounded patch "
                  f"{rep2.worst.worst_residual:.2e} ({rep2.worst.branch})")
    assert rep1.ok and rep1.hypothesis_satisfied
    assert rep2.ok and rep2.hypothesis_satisfied


@pytest.fixture(scope="module")
def ignition_study(exp1_setup):
    params, profile, _ = exp1_setup
    return richardson_speed(params, profile.r_star)


def test_criterion_10a_ignition_speed_bounds(ignition_study, exp1_setup):
    params, profile, _ = exp1_setup
    speeds, _, _ = ignition_study
    bound = speed_limit(params, profile.r_star)
    ok = all(0.0 < s < bound for s in speeds) \
        and speeds[0] < speeds[1] < speeds[2]
    report("10a", ok,
           f"speeds {[round(s, 4) for s in speeds]} inside (0, {bound:.4f})")
    assert ok


def test_criterion_10b_richardson_limit(ignition_study, exp1_setup):
    params, profile, _ = exp1_setup
    speeds, limit, order = ignition_study
    bound = speed_limit(params, profile.r_star)
    rel = abs(limit - bound) / bound
    ok = rel < 0.01
    report("10b", ok, f"extrapolated limit {limit:.4f} vs {bound:.4f} "
                      f"(off by {100 * rel:.1f}%, fitted order {order:.2f})")
    assert ok, (
        f"extrapolated cutoff-to-zero speed limit {limit:.4f} is "
        f"{100 * rel:.1f}% below {bound:.4f}: the front speed approaches its "
        "limit only logarithmically in the cutoff (deficit proportional to "
        "1/ln^2 eps, fitted order 0.35 over the halving grid), so no "
        "extrapolation from eps in {0.1, 0.05, 0.025} can land within 1%. "
        "The speeds themselves are confirmed independently by PDE front "
        "tracking in test_ignition.py.")


def test_criterion_11_frozen_flow_fixed_point(exp1_setup):
    params, profile, grid = exp1_setup
    res = frozen_flow_fixed_point(params, profile, grid)
    cfg = make_run_config(params, profile, grid, BoundaryCase.CASE1, 0.002,
                          5.0, snapshot_times=(1.0, 2.0, 3.0, 4.0, 5.0))
    traj, _ = run(cfg, res.u_star)
    drift = max(float(np.abs(u - res.u_star).max())
                for _, u, _ in traj.snapshots)
    ok = (res.converged and res.n_outer <= 30
          and res.monotone_slack <= 1e-10 and drift < 1e-3)
    report(11, ok, f"{res.n_outer} outer iterations, monotone slack "
                   f"{res.monotone_slack:.1e}, coupled drift {drift:.2e}")
    assert res.converged and res.n_outer <= 30
    assert res.monotone_slack <= 1e-10
    assert drift < 1e-3


def test_criterion_12_regime_transition_sweep(tmp_path):
    spec = load("sweep_case1_c.cfg")
    rows = sweep(SweepSpec(base=spec, axes=(("c", spec.sweep_c),)),
                 tmp_path / "regime_map.csv")
    cs = [r["c"] for r in rows]
    extinct = [c for c, r in zip(cs, rows) if r["outcome"] == "extinction"]
    alive = [c for c, r in zip(cs, rows)
             if r["outcome"] not in ("extinction", "error", "skipped")]
    assert extinct and alive, "sweep must straddle the transition"
    transition = 0.5 * (max(extinct) + min(alive))
    target = -2.0 * math.sqrt(10.0)
    ok = abs(transition - target) <= 0.2
    report(12, ok, f"extinct up to c = {max(extinct):.2f}, persistent from "
                   f"c = {min(alive):.2f}; transition {transition:.3f} vs "
                   f"{target:.3f}")
    assert max(extinct) < min(alive)
    assert ok
