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
    # an independent check that the stored profile solves the front
    # equation: the sup residual of psi'' - ct psi' + f(psi) on the stored
    # grid, both derivatives by fourth-order central differences at the
    # nodes whose stencil stays clear of x = 0, where psi''' jumps
    x, psi = wave.x[1:], wave.psi[1:]
    h = x[1] - x[0]
    np.testing.assert_allclose(np.diff(x), h, rtol=0, atol=1e-12)
    m2, m1, c0, p1, p2 = (psi[k:psi.size - 4 + k] for k in range(5))
    d1 = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
    d2 = (-m2 + 16.0 * m1 - 30.0 * c0 + 16.0 * p1 - p2) / (12.0 * h * h)
    res = d2 - wave.speed * d1 + _reaction(c0, wave.alpha, wave.beta)
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
    def no_solve(*args):
        pytest.fail("a mesh was solved before the arguments were checked")
    monkeypatch.setattr(ignition, "_newton", no_solve)
    kwargs = {"epsilon": 0.05, name: value}
    with pytest.raises(ValueError, match=name):
        ignition_wave(PARAMS, 10.0, **kwargs)


def test_speed_error_estimated_and_small(wave):
    assert 0.0 < wave.speed_error <= ignition.SPEED_TOL


def test_speed_error_over_tol_is_refused(monkeypatch):
    # on meshes 0.1, 0.05 and 0.025 the Richardson speeds disagree by 5e-5
    monkeypatch.setattr(ignition, "MESH", 0.1)
    with pytest.raises(BracketError, match="SPEED_TOL"):
        ignition_wave(PARAMS, 10.0, 0.05)


@pytest.mark.parametrize("n", (2, 3, 12))
def test_bordered_newton_step_matches_dense_solve(n, rng):
    # a diagonally dominant tridiagonal Jacobian bordered by a random column
    # and the left-end row e_1, against the dense (n + 1) x (n + 1) solve
    sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
    diag = rng.choice((-1.0, 1.0), n) * rng.uniform(2.5, 4.0, n)
    col, res = rng.uniform(-1.0, 1.0, (2, n))
    corner, left = rng.uniform(-1.0, 1.0, 2) + (5.0, 0.0)
    dense = np.zeros((n + 1, n + 1))
    dense[:n, :n] = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    dense[:n, n], dense[n, 0], dense[n, n] = col, 1.0, corner
    want = np.linalg.solve(dense, -np.append(res, left))
    arrays = (sub, diag, sup, col, res)
    kept = [a.copy() for a in arrays]
    dpsi, dct = ignition._newton_step(sub, diag, sup, col, corner, res, left)
    assert type(dct) is float
    np.testing.assert_allclose(np.append(dpsi, dct), want, rtol=1e-12,
                               atol=1e-13)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))


def test_bordered_newton_step_refuses_singular_schur_complement():
    # J = I and col = e_1: the Schur complement corner - col_1 is 0
    one, e1 = np.ones(2), np.array([1.0, 0.0])
    with pytest.raises(RuntimeError, match="singular"):
        ignition._newton_step(np.zeros(1), one, np.zeros(1), e1, 1.0, one,
                              1.0)


def test_newton_without_convergence_is_refused(monkeypatch):
    monkeypatch.setattr(ignition, "_NEWTON_ITERS", 2)
    with pytest.raises(BracketError, match="did not converge"):
        ignition_wave(PARAMS, 10.0, 0.05)


def test_front_not_settled_within_truncation_is_a_fault():
    # alpha = 0.001 leaves a front wider than the truncation: Q - psi(LENGTH)
    # is 38% of Q.  Not a bracket failure but a numerical fault.
    with pytest.raises(RuntimeError, match="truncation") as info:
        ignition_wave(PARAMS, 10.0, 8.888)
    assert not isinstance(info.value, BracketError)


def test_brunet_derrida_small_cutoff():
    # out of sample: far below the Richardson grid the speed deficit
    # approaches pi^2 / (2 ln^2(1/eps)) of the pulled speed 2 sqrt(alpha)
    # (E. Brunet and B. Derrida, PRE 56, 2597 (1997))
    eps = 1e-8
    wave = ignition_wave(PARAMS, 10.0, eps)
    s = wave.speed / (2.0 * math.sqrt(wave.alpha))
    ell = math.log(1.0 / eps)
    assert abs(s + math.pi ** 2 / (2.0 * ell ** 2) - 1.0) <= 1e-3


# ---------------------------------------------------------------------------
# phase-plane shooting: the oracle for the speed

SADDLE_OFFSET = 1e-6
STEP = 1e-3                 # RK4 step of the shots


def _shoot(ct: float, alpha: float, beta: float, step: float):
    """Integrate dp/dpsi = ct - f/p with RK4 from psi = Q - SADDLE_OFFSET
    on the saddle's stable direction down to psi = 0.  Returns p(0), or
    -inf when p collapses before reaching 0 (undershoot).
    The RK4 stages are written out: a stage whose p is at or below the
    floor has slope -inf, stages 2 and 3 share f at psi + ds/2, and stage
    4's f at psi + ds is the next step's stage-1 f."""
    Q = alpha / beta
    lamm = 0.5 * (ct - math.sqrt(ct * ct + 4.0 * alpha))
    psi = Q - SADDLE_OFFSET
    p = -lamm * SADDLE_OFFSET
    floor = 1e-12
    inf = math.inf
    isfinite = math.isfinite

    n_full = int(psi / step)
    ds = -step
    f = psi * (alpha - beta * psi) if psi >= 0.0 else 0.0
    for k in range(n_full + 1):
        if k == n_full:
            ds = -(psi - 0.0) if psi > 0.0 else 0.0
            if ds == 0.0:
                break
        half = 0.5 * ds
        k1 = -inf if p <= floor else ct - f / p
        mid = psi + half
        f_mid = mid * (alpha - beta * mid) if mid >= 0.0 else 0.0
        q = p + half * k1
        k2 = -inf if q <= floor else ct - f_mid / q
        q = p + half * k2
        k3 = -inf if q <= floor else ct - f_mid / q
        psi = psi + ds
        f = psi * (alpha - beta * psi) if psi >= 0.0 else 0.0
        q = p + ds * k3
        k4 = -inf if q <= floor else ct - f / q
        p = p + ds / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not isfinite(p) or p < floor:
            return -inf
    return p


def _zeroin(f, a, b, fa, fb, tol):
    """Brent's zeroin for a root of f in [a, b], given fa = f(a) and
    fb = f(b) of opposite signs (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973).  Returns a point within tol (plus a few
    ulps) of the root.  Interpolation uses only finite values of f; a step
    next to an infinite one bisects."""
    eps = np.finfo(float).eps
    c, fc, d = a, fa, b - a
    e = d
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d = a, fa, b - a
            e = d
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if (abs(e) >= tol1 and abs(fa) > abs(fb)
                and math.isfinite(fa) and math.isfinite(fc)):
            s = fb / fa
            if a == c:      # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:           # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


@pytest.mark.parametrize("eps", ignition.RICHARDSON_EPSILONS)
def test_speed_matches_shooting_oracle(eps):
    # the right speed makes the shot from the saddle reach psi = 0 with
    # p(0) = ct eps; the overshoot changes sign on (0, speed_limit)
    beta = PARAMS.damping_gap
    alpha = 10.0 - eps - PARAMS.chi * PARAMS.mu * 10.0 / beta
    bound = speed_limit(PARAMS, 10.0)

    def overshoot(ct):
        return _shoot(ct, alpha, beta, STEP) - ct * eps
    lo, hi = overshoot(0.0), overshoot(bound)
    assert lo > 0.0 > hi
    shot = _zeroin(overshoot, 0.0, bound, lo, hi, ignition.SPEED_TOL)
    speed = ignition_wave(PARAMS, 10.0, eps).speed
    assert abs(speed - shot) <= ignition.SPEED_TOL


# ---------------------------------------------------------------------------
# the oracle's written-out RK4 stages against their closure form

def closure_shot(ct, alpha, beta, step):
    """The shot with the slope as a nested function called four times a
    step: the reference for ``_shoot``."""
    Q = alpha / beta
    delta = SADDLE_OFFSET
    lamm = 0.5 * (ct - math.sqrt(ct * ct + 4.0 * alpha))
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
            assert _shoot(ct, alpha, beta, step).hex() == \
                want.hex(), (eps, ct)
            collapsed += want == -math.inf
    assert 0 < collapsed < 4 * 61
