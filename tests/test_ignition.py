import math

import numpy as np
import pytest

from kswave import (BracketError, SimParams, ignition, ignition_wave,
                    richardson_speed, speed_limit)

PARAMS = SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=1.0)


@pytest.fixture(scope="module")
def wave():
    return ignition_wave(PARAMS, 10.0, 0.05)


def test_speed_limit_value():
    assert speed_limit(PARAMS, 10.0) == pytest.approx(
        2 * math.sqrt(10 * 0.8 / 0.9), abs=1e-12)


def test_wave_speed_inside_bound(wave):
    assert 0.0 < wave.speed < wave.speed_bound


def test_wave_levels(wave):
    # psi(-inf) = -eps: the exponential tail is exactly -eps far left
    assert wave.evaluate(np.array([-1e3]))[0] == -wave.epsilon == -0.05
    # ((r* - eps)(b - chi mu) - chi mu r*)/(b - chi mu)^2
    assert wave.right_level == pytest.approx(
        ((10.0 - 0.05) * 0.9 - 1.0) / 0.81, abs=1e-12)


def test_wave_profile_monotone_and_normalized(wave):
    assert np.all(np.diff(wave.psi) > 0.0)
    assert wave.evaluate(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    far = wave.evaluate(np.array([-60.0, 60.0]))
    assert far[0] == pytest.approx(-wave.epsilon, abs=1e-9)
    assert far[1] == pytest.approx(wave.right_level, abs=1e-9)


def test_wave_evaluate_continuous_at_stitches(wave):
    for x0 in (0.0, wave.x[-1]):
        lo, hi = wave.evaluate(np.array([x0 - 1e-9, x0 + 1e-9]))
        assert abs(hi - lo) < 1e-6


def _reaction(psi, alpha, beta):
    return np.where(psi >= 0.0, psi * (alpha - beta * psi), 0.0)


def test_boundary_value_residual(wave):
    # an independent check that the integrated orbit solves the front
    # equation: the sup residual of ct p - p' - f(psi) on the uniform part
    # of the stored grid, p' by a fourth-order central difference
    x, psi, p = wave.x[1:], wave.psi[1:], wave.p[1:]
    h = x[1] - x[0]
    np.testing.assert_allclose(np.diff(x), h, rtol=0, atol=1e-12)
    dp = (p[:-4] - 8.0 * p[1:-3] + 8.0 * p[3:-1] - p[4:]) / (12.0 * h)
    core = slice(2, -2)
    res = (wave.speed * p[core] - dp
           - _reaction(psi[core], wave.alpha, wave.beta))
    assert np.max(np.abs(res)) <= 1e-6


def test_speed_increases_as_epsilon_decreases():
    speeds = [ignition_wave(PARAMS, 10.0, eps).speed
              for eps in (0.1, 0.05, 0.025)]
    assert speeds[0] < speeds[1] < speeds[2]
    bound = speed_limit(PARAMS, 10.0)
    assert all(0.0 < s < bound for s in speeds)


def test_richardson_consistent_with_individual_speeds():
    speeds, limit, order = richardson_speed(PARAMS, 10.0)
    assert speeds[2] < limit <= speed_limit(PARAMS, 10.0)
    assert order > 0.0


def test_bracket_failure_epsilon_too_large():
    with pytest.raises(BracketError):
        ignition_wave(PARAMS, 10.0, 9.5)


def test_requires_strong_damping():
    weak = SimParams(chi=0.6, mu=1.0, nu=1.0, b=1.0, c=1.0)  # b < 2 chi mu
    with pytest.raises(ValueError):
        ignition_wave(weak, 10.0, 0.05)
    with pytest.raises(ValueError):
        ignition_wave(PARAMS, 10.0, -0.1)
    # speed_limit, which ignition_wave calls first, refuses a negative r*
    # by name rather than failing inside math.sqrt
    with pytest.raises(ValueError, match=r"r\* >= 0"):
        ignition_wave(PARAMS, -1.0, 0.05)


def test_speed_against_pde_front_tracking():
    # independent oracle: evolve u_t = u_xx + f(u) from a step and fit the
    # front position of the half level; the Bramson logarithmic shift keeps
    # the measured speed a few hundredths below the wave speed
    eps = 0.05
    wave = ignition_wave(PARAMS, 10.0, eps)
    beta = PARAMS.damping_gap
    alpha = 10.0 - eps - PARAMS.chi * PARAMS.mu * 10.0 / beta
    Q = alpha / beta
    h, tau, T = 0.05, 0.001, 25.0
    x = np.arange(-30.0, 170.0 + h / 2, h)
    u = np.where(x < 0, Q, -eps)
    lam = tau / h ** 2
    times, pos = [], []
    for j in range(1, round(T / tau) + 1):
        f = np.where(u >= 0, u * (alpha - beta * u), 0.0)
        u[1:-1] = u[1:-1] + lam * (u[2:] - 2 * u[1:-1] + u[:-2]) \
            + tau * f[1:-1]
        u[0], u[-1] = Q, -eps
        if j % 2000 == 0:
            k = np.where(u >= Q / 2)[0][-1]
            times.append(j * tau)
            pos.append(x[k] + (u[k] - Q / 2) / (u[k] - u[k + 1]) * h)
    times, pos = np.array(times), np.array(pos)
    fit = np.polyfit(times[times >= T / 2], pos[times >= T / 2], 1)
    assert fit[0] == pytest.approx(wave.speed, abs=0.06)


@pytest.mark.parametrize("name, value", [
    ("epsilon", math.nan),        # used to die converting nan to an integer
])
def test_rejects_argument_not_finite_positive(name, value, monkeypatch):
    def no_shot(*args):
        pytest.fail("a shot was taken before the arguments were checked")
    monkeypatch.setattr(ignition, "_shoot", no_shot)
    kwargs = {"epsilon": 0.05, name: value}
    with pytest.raises(ValueError, match=name):
        ignition_wave(PARAMS, 10.0, **kwargs)


@pytest.mark.parametrize("eps", (0.1, 0.05, 0.025))
def test_brent_speed_matches_bisection_in_few_shots(eps, monkeypatch):
    # reference: bisection of the same overshoot on the same (0, bound)
    # bracket down to a width of SPEED_TOL, as the speed was found before
    speed_tol, step = ignition.SPEED_TOL, ignition.STEP
    beta = PARAMS.damping_gap
    alpha = 10.0 - eps - PARAMS.chi * PARAMS.mu * 10.0 / beta
    lo, hi = 0.0, speed_limit(PARAMS, 10.0)
    while hi - lo > speed_tol:
        mid = 0.5 * (lo + hi)
        if ignition._shoot(mid, alpha, beta, step) - mid * eps > 0.0:
            lo = mid
        else:
            hi = mid
    shots = []
    shoot = ignition._shoot

    def counted(*args):
        shots.append(args[0])
        return shoot(*args)
    monkeypatch.setattr(ignition, "_shoot", counted)
    wave = ignition_wave(PARAMS, 10.0, eps)
    assert abs(wave.speed - 0.5 * (lo + hi)) <= speed_tol
    assert len(shots) <= 16


# ---------------------------------------------------------------------------
# the written-out RK4 stages against the closure form they replace

def closure_shot(ct, alpha, beta, step):
    """The shot with the slope as a nested function called four times a
    step: the reference for ``ignition._shoot``."""
    Q = alpha / beta
    delta = ignition.SADDLE_OFFSET
    lamm = ignition._lam_minus(ct, alpha)
    psi = Q - delta
    p = -lamm * delta
    floor = 1e-12

    def rhs(ps, pv):
        if pv <= floor:
            return -math.inf
        f = ps * (alpha - beta * ps) if ps >= 0.0 else 0.0
        return ct - f / pv

    n_full = int(psi / step)
    ds = -step
    for k in range(n_full + 1):
        if k == n_full:
            ds = -(psi - 0.0) if psi > 0.0 else 0.0
            if ds == 0.0:
                break
        k1 = rhs(psi, p)
        k2 = rhs(psi + 0.5 * ds, p + 0.5 * ds * k1)
        k3 = rhs(psi + 0.5 * ds, p + 0.5 * ds * k2)
        k4 = rhs(psi + ds, p + ds * k3)
        p = p + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psi = psi + ds
        if not math.isfinite(p) or p < floor:
            return -math.inf
    return p


def closure_orbit(wave, ds=1e-3):
    """The profile rebuild off the saddle with the slope as a nested
    function: (psi, p) at each step until psi <= 0."""
    ct, alpha, beta = wave.speed, wave.alpha, wave.beta
    half, sixth = 0.5 * ds, ds / 6.0
    psi_v = alpha / beta - ignition.SADDLE_OFFSET
    p_v = -wave.lam_minus * ignition.SADDLE_OFFSET
    psis, ps = [psi_v], [p_v]

    def rhs2(psi_v, p_v):
        f = psi_v * (alpha - beta * psi_v) if psi_v >= 0.0 else 0.0
        return -p_v, -(ct * p_v - f)

    while psi_v > 0.0:
        a1, b1 = rhs2(psi_v, p_v)
        a2, b2 = rhs2(psi_v + half * a1, p_v + half * b1)
        a3, b3 = rhs2(psi_v + half * a2, p_v + half * b2)
        a4, b4 = rhs2(psi_v + ds * a3, p_v + ds * b3)
        psi_v = psi_v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        p_v = p_v + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        psis.append(psi_v)
        ps.append(p_v)
    return np.array(psis), np.array(ps)


@pytest.mark.parametrize("step", (0.01, 0.05))
@pytest.mark.parametrize("r_star", (10.0, 1.0))
@pytest.mark.parametrize("chi, b", ((0.1, 1.0), (0.0, 1.0), (0.2, 0.5)))
def test_shot_matches_closure_form_bitwise(chi, b, r_star, step):
    # 61 speeds from 0 to 1.5 times the bound: about 40% of the shots
    # collapse to -inf
    params = SimParams(chi=chi, mu=1.0, nu=0.05, b=b, c=1.0)
    beta = params.damping_gap
    bound = speed_limit(params, r_star)
    collapsed = 0
    for eps in (0.2, 0.1, 0.05, 0.025):
        alpha = r_star - eps - chi * r_star / beta
        for i in range(61):
            ct = bound * i / 40
            want = closure_shot(ct, alpha, beta, step)
            assert ignition._shoot(ct, alpha, beta, step).hex() == \
                want.hex(), (eps, ct)
            collapsed += want == -math.inf
    assert 0 < collapsed < 4 * 61


def test_profile_rebuild_matches_closure_form_bitwise(wave):
    psis, ps = closure_orbit(wave)
    # the wave keeps the orbit up to the crossing of 0, reversed, after
    # the normalization point x = 0
    n = wave.psi.size - 1
    assert np.array_equal(wave.psi[1:][::-1], psis[:n])
    assert np.array_equal(wave.p[1:][::-1], ps[:n])
