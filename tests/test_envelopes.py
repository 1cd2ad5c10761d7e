import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from kswave import (Grid, GrowthProfile, SimParams,
                    build_lower_envelope_case1, build_lower_envelope_case2,
                    build_upper_envelope_case1, build_upper_envelope_case2,
                    certify_supersolution, check_regime, greens_psi,
                    greens_psi_x, ignition_wave, theta_root)
from kswave import envelopes
from kswave.envelopes import _branch, _residual

GRID = Grid(L=20.0, h=0.1)


def rows(env):
    """The envelope's branch rows by name: (theta, x0, side)."""
    return {name: tuple(row) for name, *row in env.branches}


def branch_residual(env, name, u, params, profile):
    """A_u of the named branch of env on the grid, with its analytic
    derivatives and the whole-line kernel fields of u, and the region on
    which the branch claims its sign."""
    grid = env.grid
    x = grid.nodes
    U, Ux, Uxx, region = _branch(env.constants["level"], *rows(env)[name],
                                 x, grid.h)
    psi = greens_psi(u, grid, params.nu, params.mu)
    psi_x = greens_psi_x(u, grid, params.nu, params.mu)
    return _residual(U, Ux, Uxx, psi, psi_x, profile(x), params), region


# ---------------------------------------------------------------------------
# level crossings of the piecewise-linear profile


def _old_first_up(profile, level):
    # the three crossing formulas that _crossing replaced, as the reference
    if profile.left_limit > level:
        return None
    pts = profile.breakpoints
    for k, (xk, rk) in enumerate(pts):
        if rk > level:
            x_prev, r_prev = pts[k - 1]
            return x_prev + (level - r_prev) * (xk - x_prev) / (rk - r_prev)
    return None


def _old_last_down(profile, level):
    if profile.right_limit >= level:
        return None
    pts = profile.breakpoints
    for k in range(len(pts) - 1, -1, -1):
        xk, rk = pts[k]
        if rk >= level:
            x_next, r_next = pts[k + 1]
            return xk + (rk - level) * (x_next - xk) / (rk - r_next)
    return None


def _old_last_below(profile, level):
    if profile.right_limit < level:
        return None
    pts = profile.breakpoints
    for k in range(len(pts) - 1, -1, -1):
        xk, rk = pts[k]
        if rk < level:
            x_next, r_next = pts[k + 1]
            return xk + (level - rk) * (x_next - xk) / (r_next - rk)
    return None


def _same_bits(a, b):
    return a is None and b is None or (
        a is not None and b is not None and a.hex() == b.hex())


def test_crossings_match_the_three_old_formulas_bitwise():
    # random profiles with repeated values, levels on breakpoint values
    # and between them; the last crossing is the old down-crossing when
    # r(+inf) < level and the old below-crossing otherwise
    rng = np.random.default_rng(20231019)
    crossings = 0
    for _ in range(4000):
        n = int(rng.integers(2, 7))
        xs = np.sort(rng.choice(np.concatenate(
            (np.arange(-20.0, 21.0), rng.uniform(-20.0, 20.0, 20))),
            size=n, replace=False))
        rs = rng.choice(np.concatenate(
            ([-2.0, -1.0, 0.5, 3.0, 10.0], rng.uniform(-5.0, 12.0, 3))),
            size=n)
        profile = GrowthProfile.from_breakpoints(zip(xs, rs))
        for level in [*rs, *rng.uniform(-6.0, 13.0, 3)]:
            level = float(level)
            first = envelopes._first_up_crossing(profile, level)
            last = envelopes._last_crossing(profile, level)
            assert _same_bits(first, _old_first_up(profile, level))
            old_last = (_old_last_down(profile, level)
                        if profile.right_limit < level
                        else _old_last_below(profile, level))
            assert _same_bits(last, old_last)
            crossings += (first is not None) + (last is not None)
    assert crossings > 10000


def test_last_crossing_at_a_breakpoint_on_negative_zero():
    # the one place the formulas' bits differ: a down-crossing exactly at
    # a breakpoint x = -0.0 reads -0.0 where the old one read +0.0
    profile = GrowthProfile.from_breakpoints(
        [(-10.0, -2.0), (-5.0, 5.0), (-0.0, -1.0), (5.0, -2.0)])
    old = _old_last_down(profile, -1.0)
    assert old.hex() == "0x0.0p+0"
    assert envelopes._last_crossing(profile, -1.0) == old


# ---------------------------------------------------------------------------
# upper envelope, separated habitats

def test_case1_envelope_constants(exp1_params, case1_profile):
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    con = env.constants
    theta1, x1, _ = rows(env)["left_exp"]
    # r1 = r(-inf)/2 = -0.5; ramp inversion 11 x + 87 = -0.5
    assert con["rbar"] == -0.5
    assert x1 == pytest.approx(-87.5 / 11.0, abs=1e-12)
    assert theta1 == pytest.approx(theta_root(1.0, -0.5), abs=1e-15)
    assert con["level"] == pytest.approx(10.0 / 0.9, abs=1e-12)


def test_case1_envelope_shape(exp1_params, case1_profile):
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    x = GRID.nodes
    K = env.constants["level"]
    th, x1, _ = rows(env)["left_exp"]
    # min of the two branches: exponential left of x1, flat right of it
    left = x < x1
    np.testing.assert_allclose(env.values[left],
                               K * np.exp(th * (x[left] - x1)), rtol=1e-14)
    assert np.all(env.values[~left] == K)
    assert np.all(np.diff(env.values) >= 0.0)
    assert np.all(env.values <= K)


def test_case1_envelope_rejections(exp1_params, case1_profile, case2_profile):
    with pytest.raises(ValueError, match="requires a CASE1 profile"):
        build_upper_envelope_case1(exp1_params, case2_profile, GRID)
    heavy_chi = SimParams(chi=2.0, mu=1.0, nu=0.05, b=1.0, c=1.0)
    with pytest.raises(ValueError, match="b > chi"):
        build_upper_envelope_case1(heavy_chi, case1_profile, GRID)


# ---------------------------------------------------------------------------
# upper envelope, bounded patch

def test_case2_envelope_constants(case2_exp1_params, case2_profile):
    env = build_upper_envelope_case2(case2_exp1_params, case2_profile, GRID)
    con = env.constants
    theta_bar, xbar, _ = rows(env)["left_exp"]
    minus_theta_tilde, xtilde, _ = rows(env)["right_exp"]
    assert con["rbar"] == -0.5
    assert xbar == pytest.approx(-87.5 / 11.0, abs=1e-12)
    assert xtilde == pytest.approx(87.5 / 11.0, abs=1e-12)
    assert con["level"] == pytest.approx(10.0 / 0.4, abs=1e-12)
    assert theta_bar == pytest.approx(theta_root(1.0, -0.5), abs=1e-15)
    assert -minus_theta_tilde == pytest.approx(
        theta_root(-1.0, -0.5), abs=1e-15)


def test_case2_envelope_rejections(case2_exp1_params, case1_profile,
                                   case2_profile):
    with pytest.raises(ValueError, match="requires a CASE2 profile"):
        build_upper_envelope_case2(case2_exp1_params, case1_profile, GRID)
    # b = chi mu exactly: not well posed
    at_gap = SimParams(chi=1.0, mu=1.0, nu=1.0, b=1.0, c=1.0)
    with pytest.raises(ValueError, match="b > chi"):
        build_upper_envelope_case2(at_gap, case2_profile, GRID)


def test_case2_envelope_even_for_zero_speed(case2_profile):
    params = SimParams(chi=0.6, mu=1.0, nu=1.0, b=1.0, c=0.0)
    env = build_upper_envelope_case2(params, case2_profile, GRID)
    assert rows(env)["left_exp"][0] == -rows(env)["right_exp"][0]
    np.testing.assert_allclose(env.values, env.values[::-1], rtol=1e-12)


# ---------------------------------------------------------------------------
# residual operator

def test_residual_constant_level_nonpositive(exp1_params, case1_profile,
                                             rng):
    # A_u(r*/(b - chi mu)) <= 0 everywhere, for any u in E+
    K = 10.0 / 0.9
    U = np.full(GRID.M + 1, K)
    zero = np.zeros(GRID.M + 1)
    r = case1_profile(GRID.nodes)
    for _ in range(5):
        u = np.minimum(rng.random(GRID.M + 1) * K, K)
        psi = greens_psi(u, GRID, exp1_params.nu, exp1_params.mu)
        psi_x = greens_psi_x(u, GRID, exp1_params.nu, exp1_params.mu)
        values = _residual(U, zero, zero, psi, psi_x, r, exp1_params)
        assert values[1:-1].max() <= 1e-10


def test_branch_residual_exponential_region(exp1_params, case1_profile, rng):
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    for _ in range(5):
        u = rng.uniform(0.0, 1.0) * env.values
        values, region = branch_residual(env, "left_exp", u, exp1_params,
                                         case1_profile)
        assert values[region].max() <= 1e-8
        assert np.all(GRID.nodes[region] < rows(env)["left_exp"][1] - 0.049)


def test_branch_table_rows(exp1_params, case2_exp1_params, case1_profile):
    # (name, theta, x0, side): flat, then the left and right exponentials,
    # anchored where r crosses rbar, half the larger negative tail
    env1 = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    r1 = 0.5 * case1_profile.left_limit
    assert env1.constants["rbar"].hex() == r1.hex()
    assert env1.branches == (
        ("flat", 0.0, 0.0, 0),
        ("left_exp", theta_root(exp1_params.c, r1),
         envelopes._first_up_crossing(case1_profile, r1), -1))
    # unequal tails: rbar is half the larger one, r(+inf) = -1
    patch = GrowthProfile.from_breakpoints(
        [(-8.0, -3.0), (-7.0, 10.0), (7.0, 10.0), (8.0, -1.0)])
    env2 = build_upper_envelope_case2(case2_exp1_params, patch, GRID)
    rbar = -0.5
    assert env2.constants["rbar"] == rbar
    c = case2_exp1_params.c
    assert env2.branches == (
        ("flat", 0.0, 0.0, 0),
        ("left_exp", theta_root(c, rbar),
         envelopes._first_up_crossing(patch, rbar), -1),
        ("right_exp", -theta_root(-c, rbar),
         envelopes._last_crossing(patch, rbar), 1))


def test_flat_branch_is_exactly_level():
    x = GRID.nodes
    U, Ux, Uxx, region = _branch(7.5, 0.0, 0.0, 0, x, GRID.h)
    assert np.all(U == 7.5) and region.all()
    assert np.all(Ux == 0.0) and np.all(Uxx == 0.0)
    assert not np.signbit(Ux).any() and not np.signbit(Uxx).any()


# ---------------------------------------------------------------------------
# certification

def test_certify_case1(exp1_params, case1_profile):
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    report = certify_supersolution(env, exp1_params, case1_profile,
                                   n_samples=40)
    assert report.hypothesis_satisfied
    assert report.ok
    names = {b.branch for b in report.branches}
    assert names == {"flat", "left_exp"}


def test_certify_case2(case2_exp1_params, case2_profile):
    env = build_upper_envelope_case2(case2_exp1_params, case2_profile, GRID)
    report = certify_supersolution(env, case2_exp1_params, case2_profile,
                                   n_samples=40)
    assert report.hypothesis_satisfied
    assert report.ok
    assert {b.branch for b in report.branches} == {"flat", "left_exp",
                                                   "right_exp"}


def test_certify_zero_sample_flat_branch_is_growth_gap(exp1_params,
                                                       case1_profile):
    # with u = 0 the kernel vanishes: A_0(K) = K (r(x) - r*), zero at the top
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    values, _ = branch_residual(env, "flat", np.zeros(GRID.M + 1),
                                exp1_params, case1_profile)
    K = env.constants["level"]
    r = case1_profile(GRID.nodes)
    np.testing.assert_allclose(values, K * (r - 10.0), atol=1e-9)
    assert values.max() == pytest.approx(0.0, abs=1e-12)


def test_certify_violated_hypothesis_reports_without_raising(case1_profile):
    # b = 1.2 chi mu with heavy chemotaxis: the damping hypothesis fails and
    # the certificate may fail, but this is recorded, not raised
    params = SimParams(chi=2.0, mu=1.0, nu=0.05, b=2.4, c=1.0)
    env = build_upper_envelope_case1(params, case1_profile, GRID)
    report = certify_supersolution(env, params, case1_profile, n_samples=20)
    assert not report.hypothesis_satisfied
    assert math.isfinite(report.worst.worst_residual)


def test_regime_and_certificate_agree_on_the_damping_hypothesis(
        case1_profile):
    # b = 1.5 chi mu up to rounding: 1.5 * chi * mu and 1.5 * (chi * mu)
    # fall on different sides of b, and the regime report and the
    # certificate used to compute one each
    params = SimParams(chi=0.445, mu=2.19, nu=0.05, b=1.461825, c=1.0)
    env = build_upper_envelope_case1(params, case1_profile, GRID)
    report = certify_supersolution(env, params, case1_profile, n_samples=1)
    assert check_regime(params, case1_profile).h2_damping_holds == \
        report.hypothesis_satisfied


@pytest.mark.parametrize("kwargs", ({"n_samples": 0}, {"n_samples": -3},
                                    {"n_samples": 2.5},
                                    {"n_samples": True}))
def test_certify_refuses_a_vacuous_certificate(kwargs, exp1_params,
                                               case1_profile, monkeypatch):
    # no samples passes every branch at -inf, and a count that is not a
    # whole number (True included) is no count: refused before the kernel
    # is ever evaluated
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)

    def unreachable(*args, **kw):
        pytest.fail("kernel evaluated before the arguments were checked")
    monkeypatch.setattr(envelopes, "greens_psi", unreachable)
    monkeypatch.setattr(envelopes, "greens_psi_x", unreachable)
    with pytest.raises(ValueError):
        certify_supersolution(env, exp1_params, case1_profile, **kwargs)


def test_certify_refuses_a_lower_envelope(case2_exp1_params, case2_profile,
                                          monkeypatch):
    # a lower envelope has no branch rows, so its certificate would be
    # vacuous: refused before the kernel is ever evaluated
    up = build_upper_envelope_case2(case2_exp1_params, case2_profile, GRID)
    low = build_lower_envelope_case2(case2_exp1_params, case2_profile, GRID,
                                     upper=up)

    def unreachable(*args, **kw):
        pytest.fail("kernel evaluated for an envelope with no branches")
    monkeypatch.setattr(envelopes, "greens_psi", unreachable)
    monkeypatch.setattr(envelopes, "greens_psi_x", unreachable)
    with pytest.raises(ValueError, match="no branch rows"):
        certify_supersolution(low, case2_exp1_params, case2_profile,
                              n_samples=5)


# SHA-256 of the upper envelope's values and, per branch, (name, worst
# residual, worst sample, worst x, region nodes) of a 30-sample certificate,
# as the np.where envelopes and the per-branch lambdas computed them: the
# shipped bundles cover neither c <= 0 nor the right branch off their grid
GOLDEN_UPPER = {
    ("case1", -3.0): (
        "5f9b73a03e07f0267e3e1d62eb5e9719d8d20f0ccf49fdbaa555ceb8f2a977cb",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -1.6700465821422436e-16, 0, -20.0, 120))),
    ("case1", 0.0): (
        "778b763ebfbb902c9b95554b0dda224fca28819824461efadbe7eadad6574759",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -0.0011152986570899404, 0, -20.0, 120))),
    ("case1", 2.5): (
        "a238c5a716227e88e18e39b691024b506d160694c8c7733fd7d98706702e9641",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -1.8440342877647924, 0, -20.0, 120))),
    ("case2", -3.0): (
        "b891cffd3e964b8d8b7c02167aa9f33a4bbb06abbd4959ac39f25368c453538c",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -3.7576048098200544e-16, 0, -20.0, 120),
         ("right_exp", -7.372218865097418, 0, 20.0, 120))),
    ("case2", 0.0): (
        "9ee361f9655f478bc75263cf141ffb43212c0eb319119f078ef3a7d8156b43f8",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -0.0025094219784523664, 0, -20.0, 120),
         ("right_exp", -0.0025094219784523664, 0, 20.0, 120))),
    ("case2", 2.5): (
        "5de18dc2f498dc16a43bf59f8110771e148f94d41add9ba206e19a4c3d7040b1",
        (("flat", 0.0, 0, -7.0, 401),
         ("left_exp", -4.149077147470783, 0, -20.0, 120),
         ("right_exp", -1.109100815395993e-13, 0, 20.0, 120))),
}


@pytest.mark.parametrize("habitat, c", sorted(GOLDEN_UPPER))
def test_upper_envelope_and_certificate_golden(habitat, c, exp1_params,
                                               case2_exp1_params,
                                               case1_profile, case2_profile):
    if habitat == "case1":
        build, params, profile = (build_upper_envelope_case1, exp1_params,
                                  case1_profile)
    else:
        build, params, profile = (build_upper_envelope_case2,
                                  case2_exp1_params, case2_profile)
    params = replace(params, c=c)
    env = build(params, profile, GRID)
    report = certify_supersolution(env, params, profile, n_samples=30)
    digest, branches = GOLDEN_UPPER[habitat, c]
    assert hashlib.sha256(env.values.tobytes()).hexdigest() == digest
    assert tuple((b.branch, b.worst_residual, b.worst_sample, b.worst_x,
                  b.n_nodes) for b in report.branches) == branches


# ---------------------------------------------------------------------------
# lower envelopes

@pytest.fixture(scope="module")
def exp1_wave():
    params = SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=1.0)
    return ignition_wave(params, 10.0, 0.05)


def test_lower_case1_translation(exp1_params, case1_profile, exp1_wave):
    up = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    low = build_lower_envelope_case1(case1_profile, GRID, exp1_wave, up)
    # smallest x0 with r >= r* - eps beyond it: 11 x + 87 = 9.95
    assert low.constants["x0"] == pytest.approx(-77.05 / 11.0, abs=1e-12)
    assert low.constants["x0"] > low.constants["x1"]
    x = GRID.nodes
    assert np.all(low.values[x <= low.constants["x0"]] == 0.0)
    assert np.all(low.values >= 0.0)


def test_lower_case1_below_upper(exp1_params, case1_profile, exp1_wave):
    up = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    low = build_lower_envelope_case1(case1_profile, GRID, exp1_wave, up)
    assert np.all(low.values < up.values)
    # far right the wave plateaus at ((r*-eps)(b-chi mu) - chi mu r*)/(b-chi mu)^2
    plateau = ((10.0 - 0.05) * 0.9 - 1.0) / 0.81
    assert low.values[-1] == pytest.approx(plateau, abs=1e-6)
    assert plateau < up.constants["level"]


def test_lower_case1_rejects_profiles_without_translation(exp1_params,
                                                          exp1_wave):
    # r never reaches r* - eps again after its hump: no admissible x0
    bumpy = GrowthProfile.from_breakpoints(
        [(-8.0, -1.0), (-7.0, 10.0), (0.0, 10.0), (1.0, 8.0), (2.0, 8.0)])
    up = build_upper_envelope_case1(exp1_params, bumpy, GRID)
    with pytest.raises(ValueError, match="no admissible translation"):
        build_lower_envelope_case1(bumpy, GRID, exp1_wave, up)


def test_lower_case2_numeric(case2_exp1_params, case2_profile):
    up = build_upper_envelope_case2(case2_exp1_params, case2_profile, GRID)
    low = build_lower_envelope_case2(case2_exp1_params, case2_profile, GRID,
                                     upper=up)
    assert low.branches == ()
    inner = np.abs(GRID.nodes) <= GRID.L - 2.0
    assert np.all(low.values[inner] > 0.0)
    assert np.all(low.values < up.values)
    assert low.values[0] == 0.0 and low.values[-1] == 0.0


@pytest.mark.parametrize("L, h", ((20.0, 0.05), (21.0, 0.15), (20.0, 0.2)))
def test_lower_case2_numeric_on_other_grids(L, h, case2_exp1_params,
                                            case2_profile):
    # tau = 0.4 h^2 is adjusted to divide T; the run reads only u_final, so
    # no convergence window has to divide the adjusted step
    grid = Grid(L=L, h=h)
    up = build_upper_envelope_case2(case2_exp1_params, case2_profile, grid)
    low = build_lower_envelope_case2(case2_exp1_params, case2_profile, grid,
                                     upper=up)
    inner = np.abs(grid.nodes) <= grid.L - 2.0
    assert np.all(low.values[inner] > 0.0)
    assert np.all(low.values < up.values)


# ---------------------------------------------------------------------------
# kernel fields feed the residual

def test_residual_uses_kernel_fields(exp1_params, case1_profile):
    # a crude but independent check: the drift term must reflect psi_x
    env = build_upper_envelope_case1(exp1_params, case1_profile, GRID)
    u = env.values.copy()
    psi = greens_psi(u, GRID, exp1_params.nu, exp1_params.mu)
    values, _ = branch_residual(env, "flat", u, exp1_params, case1_profile)
    K = env.constants["level"]
    r = case1_profile(GRID.nodes)
    expected = K * (r - exp1_params.chi * exp1_params.nu * psi
                    - exp1_params.damping_gap * K)
    np.testing.assert_allclose(values, expected, atol=1e-9)
