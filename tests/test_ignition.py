import math

import numpy as np
import pytest

from kswave import (BracketError, SimParams, ignition, ignition_wave,
                    profile_residual, richardson_speed, speed_limit)

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
    assert wave.left_level == -0.05
    # ((r* - eps)(b - chi mu) - chi mu r*)/(b - chi mu)^2
    assert wave.right_level == pytest.approx(
        ((10.0 - 0.05) * 0.9 - 1.0) / 0.81, abs=1e-12)


def test_wave_profile_monotone_and_normalized(wave):
    assert np.all(np.diff(wave.psi) > 0.0)
    assert wave.evaluate(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    far = wave.evaluate(np.array([-60.0, 60.0]))
    assert far[0] == pytest.approx(wave.left_level, abs=1e-9)
    assert far[1] == pytest.approx(wave.right_level, abs=1e-9)


def test_wave_evaluate_continuous_at_stitches(wave):
    for x0 in (0.0, wave.x[-1]):
        lo, hi = wave.evaluate(np.array([x0 - 1e-9, x0 + 1e-9]))
        assert abs(hi - lo) < 1e-6


def test_boundary_value_residual(wave):
    assert profile_residual(wave) <= 1e-6


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
    ("speed_tol", math.nan),      # used to return bound/2 as the speed
    ("speed_tol", 0.0),           # used to bisect forever
    ("epsilon", math.nan),        # used to die converting nan to an integer
    ("step", -1e-3),              # used to shoot 32 times, then give up
    ("truncation_radius", math.inf),
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
    # bracket down to a width of speed_tol, as the speed was found before
    speed_tol, step = 1e-8, 1e-3
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
    wave = ignition_wave(PARAMS, 10.0, eps, step=step, speed_tol=speed_tol)
    assert abs(wave.speed - 0.5 * (lo + hi)) <= speed_tol
    assert len(shots) <= 16
