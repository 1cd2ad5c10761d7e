import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kswave import (ConfigError, Grid, GrowthProfile, HabitatClass,
                    InitialCondition, SimParams, check_regime,
                    classify_profile, theta_root)


# ---------------------------------------------------------------------------
# theta_root

def test_theta_root_forward_basic():
    assert theta_root(1.0, -1.0) == pytest.approx((-1 + math.sqrt(5)) / 2,
                                                  abs=1e-14)
    assert theta_root(0.0, -4.0) == pytest.approx(2.0, abs=1e-14)


def test_theta_root_backward_quadratic_formula():
    # independent evaluation of the quadratic formula for
    # theta^2 - c theta + r, whose positive root is theta_root at -c
    c, r = 1.0, -1.0
    expected = (c + math.sqrt(c * c - 4 * r)) / 2
    assert theta_root(-c, r) == pytest.approx(expected, abs=1e-14)


def test_theta_root_rejects_nonnegative_r():
    with pytest.raises(ValueError):
        theta_root(1.0, 0.0)
    with pytest.raises(ValueError):
        theta_root(1.0, 2.5)


@given(c=st.floats(-1e3, 1e3), r=st.floats(-1e3, -1e-6),
       sign=st.sampled_from([1.0, -1.0]))
def test_theta_root_residual_and_positivity(c, r, sign):
    # theta_root(sign c, r) solves theta^2 + sign c theta + r = 0
    th = theta_root(sign * c, r)
    assert th > 0.0
    residual = th * th + sign * c * th + r
    assert abs(residual) <= 1e-12 * max(1.0, abs(c), abs(r))


# ---------------------------------------------------------------------------
# profiles and classification

def test_classify_paper_profiles(case1_profile, case2_profile):
    assert classify_profile(case1_profile) is HabitatClass.CASE1
    assert classify_profile(case2_profile) is HabitatClass.CASE2


def test_classify_constant_profile_unclassified():
    flat = GrowthProfile.from_breakpoints([(-1.0, 1.0), (1.0, 1.0)])
    assert classify_profile(flat) is HabitatClass.UNCLASSIFIED


def test_classify_zero_limit_unclassified():
    prof = GrowthProfile.from_breakpoints([(-1.0, 0.0), (1.0, 5.0)])
    assert classify_profile(prof) is HabitatClass.UNCLASSIFIED


def test_classify_invariant_under_redundant_breakpoints(case1_profile):
    # adding interior points on the existing segments changes nothing
    refined = GrowthProfile.from_breakpoints(
        [(-8.0, -1.0), (-7.5, 4.5), (-7.0, 10.0), (3.0, 10.0)])
    assert classify_profile(refined) is classify_profile(case1_profile)
    x = np.linspace(-12, 5, 301)
    np.testing.assert_allclose(refined(x), case1_profile(x), atol=1e-12)


@given(data=st.data())
def test_classify_invariant_under_midpoint_subdivision(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    xs = sorted(data.draw(st.lists(
        st.integers(min_value=-40, max_value=40).map(float),
        min_size=n, max_size=n, unique=True)))
    rs = data.draw(st.lists(
        st.floats(-8.0, 8.0).filter(lambda v: abs(v) > 1e-3),
        min_size=n, max_size=n))
    prof = GrowthProfile.from_breakpoints(list(zip(xs, rs)))
    mids = [(0.5 * (a + b), float(np.interp(0.5 * (a + b), xs, rs)))
            for a, b in zip(xs, xs[1:])]
    refined = GrowthProfile.from_breakpoints(
        sorted(list(zip(xs, rs)) + mids))
    assert classify_profile(refined) is classify_profile(prof)
    probe = np.linspace(xs[0] - 5.0, xs[-1] + 5.0, 97)
    np.testing.assert_allclose(refined(probe), prof(probe), rtol=0,
                               atol=1e-9 * max(1.0, max(abs(v) for v in rs)))


def test_profile_limits_and_extrema(case2_profile):
    assert case2_profile.r_star == 10.0
    assert case2_profile.left_limit == -1.0
    assert case2_profile.right_limit == -1.0
    assert case2_profile(-100.0) == -1.0
    assert case2_profile(100.0) == -1.0


def test_profile_validation_errors():
    with pytest.raises(ValueError):
        GrowthProfile.from_breakpoints([(0.0, 1.0)])
    with pytest.raises(ValueError):
        GrowthProfile.from_breakpoints([(1.0, 1.0), (0.0, 2.0)])


# ---------------------------------------------------------------------------
# regime report

def test_check_regime_experiment1(exp1_params, case1_profile):
    rep = check_regime(exp1_params, case1_profile)
    # chi mu r*/(2 sqrt(nu)(b - chi mu)) - 2 sqrt(r*(b - 2 chi mu)/(b - chi mu))
    expected = 0.1 * 10 / (2 * math.sqrt(0.05) * 0.9) \
        - 2 * math.sqrt(10 * 0.8 / 0.9)
    assert rep.h1_threshold == pytest.approx(expected, abs=1e-12)
    assert rep.h1_threshold == pytest.approx(-3.478, abs=5e-4)
    assert rep.h1_holds
    assert rep.h2_damping_holds
    assert rep.c_star == pytest.approx(2 * math.sqrt(10), abs=1e-12)


def test_check_regime_experiment2(case1_profile):
    params = SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=-6.0)
    rep = check_regime(params, case1_profile)
    assert not rep.h1_holds
    assert params.b > 2 * params.chi * params.mu
    assert params.c > -rep.c_star


def test_check_regime_no_chemotaxis(case1_profile):
    params = SimParams(chi=0.0, mu=1.0, nu=0.05, b=1.0, c=0.0)
    rep = check_regime(params, case1_profile)
    assert rep.h1_threshold == pytest.approx(-2 * math.sqrt(10), abs=1e-12)


def test_check_regime_threshold_undefined_below_double_damping(case1_profile):
    params = SimParams(chi=1.0, mu=1.0, nu=1.0, b=1.5, c=0.0)
    rep = check_regime(params, case1_profile)
    assert rep.h1_threshold is None
    assert not rep.h1_holds


def test_check_regime_requires_wellposedness(case1_profile):
    with pytest.raises(ValueError):
        check_regime(SimParams(chi=2.0, mu=1.0, nu=1.0, b=1.0, c=0.0),
                     case1_profile)


def test_h1_threshold_increasing_in_chi(case1_profile):
    # finite sampling of chi on (0, b/(2 mu))
    chis = np.linspace(0.01, 0.49, 25)
    vals = [check_regime(SimParams(chi=float(ch), mu=1.0, nu=0.05, b=1.0,
                                   c=0.0), case1_profile).h1_threshold
            for ch in chis]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# grid and sampling

def test_grid_nodes_and_count():
    g = Grid(L=20.0, h=0.1)
    assert g.M == 400
    assert g.nodes[0] == -20.0
    assert g.nodes[-1] == 20.0
    assert np.allclose(np.diff(g.nodes), 0.1)


def test_grid_rejects_nonintegral_ratio():
    with pytest.raises(ValueError):
        Grid(L=1.0, h=0.3)
    with pytest.raises(ValueError):
        Grid(L=-1.0, h=0.1)
    # an infinite L, and an h so small that 2L/h overflows to inf, used to
    # raise OverflowError from round(2L/h): each is refused by its key
    for L, h, key in ((math.inf, 0.1, "L"), (20.0, 1e-320, "h")):
        with pytest.raises(ConfigError) as exc:
            Grid(L=L, h=h)
        assert exc.value.key == key


def test_grid_refuses_more_nodes_than_an_array_can_hold():
    # L = 1e300 once died in Grid.nodes with numpy's "Maximum allowed size
    # exceeded", under no key; an L of 1e7 (2e8 nodes) is still accepted
    for L in (1e300, 1e18):
        with pytest.raises(ConfigError, match="more nodes than") as exc:
            Grid(L=L, h=0.1)
        assert exc.value.key == "h"
    assert Grid(L=1e7, h=0.1).M == 200_000_000


def test_sample_case1_initial_condition(case1_u0):
    # paper hump: 0 below -1, ramp to r*/b at 1; value r*/(2b) = 5 at x = 0
    g = Grid(L=20.0, h=0.1)
    u0 = case1_u0(g.nodes)
    i0 = g.M // 2
    assert u0[i0] == pytest.approx(5.0, abs=1e-12)
    assert u0[0] == 0.0
    assert u0[-1] == 10.0


def test_sample_case2_bump(case2_u0):
    g = Grid(L=20.0, h=0.1)
    u0 = case2_u0(g.nodes)
    i0 = g.M // 2
    assert u0[i0] == pytest.approx(1.0, abs=1e-12)
    assert u0[0] == 0.0 and u0[-1] == 0.0
    # quadratic inside the bump
    assert u0[i0 + 5] == pytest.approx((0.5 + 1) * (1 - 0.5), abs=1e-12)


def test_sample_exact_at_breakpoints_linear_between(case1_profile):
    g = Grid(L=8.0, h=0.25)
    vals = case1_profile(g.nodes)
    x = g.nodes
    k8 = int(np.where(np.isclose(x, -8.0))[0][0])
    k7 = int(np.where(np.isclose(x, -7.0))[0][0])
    assert vals[k8] == -1.0
    assert vals[k7] == 10.0
    assert vals[(k8 + k7) // 2] == pytest.approx((-1 + 10) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# value types

def test_params_validation():
    with pytest.raises(ValueError):
        SimParams(chi=-0.1, mu=1.0, nu=1.0, b=1.0, c=0.0)
    with pytest.raises(ValueError):
        SimParams(chi=0.1, mu=0.0, nu=1.0, b=1.0, c=0.0)
    p = SimParams(chi=0.5, mu=1.0, nu=1.0, b=1.0, c=0.0)
    assert p.well_posed
    assert not SimParams(chi=2.0, mu=1.0, nu=1.0, b=1.0, c=0.0).well_posed


NON_FINITE_PARAMS = [
    ("chi", math.nan, "chi must be nonnegative"),
    ("chi", math.inf, "chi must be finite"),
    ("c", math.nan, "c must be finite"),
    ("c", math.inf, "c must be finite"),
    ("c", -math.inf, "c must be finite"),
    ("mu", math.inf, "mu must be positive and finite"),
    ("nu", math.inf, "nu must be positive and finite"),
    ("b", math.inf, "b must be positive and finite"),
]


@pytest.mark.parametrize("key, value, why", NON_FINITE_PARAMS,
                         ids=[f"{k}={v}" for k, v, _ in NON_FINITE_PARAMS])
def test_params_refuse_non_finite_values_under_their_keys(key, value, why):
    # the config parser refuses these numbers first; built directly, a nan
    # chi used to pass the `chi < 0` test, and the others to fail the run
    # at its first step
    values = dict(chi=0.1, mu=1.0, nu=1.0, b=1.0, c=0.0)
    with pytest.raises(ConfigError, match=why) as exc:
        SimParams(**{**values, key: value})
    assert exc.value.key == key


# a non-finite abscissa or interior value once classified with no error
# (r_star = 1.0 for the nan, inf for the inf)
@pytest.mark.parametrize("points, why", [
    (((-1.0, -1.0), (0.0, math.nan), (1.0, 1.0)), "breakpoints must be finite"),
    (((-1.0, -1.0), (0.0, math.inf), (1.0, 1.0)), "breakpoints must be finite"),
    (((-1.0, -1.0), (math.nan, 0.0), (1.0, 1.0)), "breakpoints must be finite"),
    (((-2.0, -1.0), (-1.0, math.inf)), "breakpoints must be finite"),
], ids=["nan-value", "inf-value", "nan-abscissa", "inf-limit"])
def test_profile_refuses_non_finite_breakpoints(points, why):
    with pytest.raises(ConfigError, match=why) as exc:
        GrowthProfile(points)
    assert exc.value.key == "profile"


# an infinite breakpoint once sampled as all zeros, so the run went extinct
@pytest.mark.parametrize("points", [
    ((-1.0, 0.0), (math.inf, 1.0)),
    ((-1.0, 0.0), (math.nan, 1.0)),
    ((-1.0, 0.0), (1.0, math.inf)),
], ids=["inf-abscissa", "nan-abscissa", "inf-value"])
def test_initial_condition_refuses_non_finite_breakpoints(points):
    with pytest.raises(ConfigError, match="finite breakpoints") as exc:
        InitialCondition(breakpoints=points)
    assert exc.value.key == "u0"


# an infinite bump end once made an InitialCondition with infinite samples,
# refused only when a run sampled it; a nan end was refused as "xl < xr"
@pytest.mark.parametrize("bump", [(0.0, math.inf), (-math.inf, 1.0),
                                  (math.nan, 1.0)],
                         ids=["inf-right", "inf-left", "nan-left"])
def test_initial_condition_refuses_a_non_finite_bump(bump):
    with pytest.raises(ConfigError, match="bump requires finite xl < xr") \
            as exc:
        InitialCondition(bump=bump)
    assert exc.value.key == "u0_bump"


def test_types_are_immutable(exp1_params, case1_profile):
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp1_params.chi = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        case1_profile.breakpoints = ()


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        InitialCondition()
    with pytest.raises(ValueError):
        InitialCondition(breakpoints=((0.0, 1.0),), bump=(0.0, 1.0))
    with pytest.raises(ValueError):
        InitialCondition(bump=(1.0, -1.0))
