import logging
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from kswave import BoundaryCase, OutcomeTag, harness
from kswave.cli import main as cli_main
from kswave.harness import (ConfigError, RunSpec, SweepSpec, parse_config,
                            render_manifest, run_experiment, sweep)

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ROOT / "experiments"

MINI_CFG = """\
# tiny but valid run
chi = 0.1
mu = 1
nu = 0.05
b = 1
c = 1
L = 5
h = 0.1
tau = 0.002
T = 0.5
bc = case1
profile = -2:-1, -1:10
u0 = -1:0, 1:10
snapshot_times = 0, 0.5
"""


# ---------------------------------------------------------------------------
# parsing

def test_parse_shipped_experiment1():
    spec = parse_config((EXPERIMENTS / "case1_exp1.cfg").read_text())
    assert (spec.b, spec.c, spec.chi, spec.mu, spec.nu) == (1, 1, 0.1, 1, 0.05)
    assert (spec.L, spec.h, spec.tau, spec.T) == (20, 0.1, 0.002, 10)
    assert spec.bc is BoundaryCase.CASE1
    assert spec.profile == ((-8.0, -1.0), (-7.0, 10.0))
    assert spec.u0 == ((-1.0, 0.0), (1.0, 10.0))
    assert spec.mode == "simulate"


def test_parse_rejects_cfl_violation():
    text = MINI_CFG.replace("tau = 0.002", "tau = 0.01")
    with pytest.raises(ConfigError, match="CFL"):
        parse_config(text)
    parse_config(text + "allow_unstable = true\n")   # override accepted


def test_parse_rejects_short_profile():
    text = MINI_CFG.replace("profile = -2:-1, -1:10", "profile = 0:1")
    with pytest.raises(ConfigError, match="two breakpoints"):
        parse_config(text)


def test_parse_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match="line 2.*frobnicate"):
        parse_config("chi = 0.1\nfrobnicate = 3\n")


def test_parse_duplicate_and_malformed():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("chi = 0.1\nchi = 0.2\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("what even is this\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("chi = banana\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("chi = 0.1\n")


def test_parse_requires_exactly_one_initial_condition():
    with pytest.raises(ConfigError, match="u0"):
        parse_config(MINI_CFG + "u0_bump = -1, 1\n")
    text = MINI_CFG.replace("u0 = -1:0, 1:10\n", "")
    with pytest.raises(ConfigError, match="u0"):
        parse_config(text)


def test_mode_override_wins():
    spec = parse_config(MINI_CFG, mode="regime")
    assert spec.mode == "regime"


def test_parse_rejects_bad_axis_and_bump():
    with pytest.raises(ConfigError, match="count >= 1"):
        parse_config(MINI_CFG + "sweep_c = 1, 2, 0\n")
    with pytest.raises(ConfigError, match="exactly xl,xr"):
        parse_config(MINI_CFG.replace("u0 = -1:0, 1:10", "u0_bump = 1"))


def test_ill_posed_damping_warns_through_logging(caplog):
    with caplog.at_level(logging.WARNING, logger="kswave"):
        parse_config(MINI_CFG.replace("b = 1", "b = 0.05"))   # chi mu = 0.1
    [record] = [r for r in caplog.records if r.name == "kswave"]
    assert record.levelno == logging.WARNING
    assert "solutions may blow up" in record.getMessage()


def test_parse_sweep_mode_requires_an_axis():
    with pytest.raises(ConfigError, match="sweep axis"):
        parse_config(MINI_CFG, mode="sweep")


def set_key(text, key, raw):
    """The config text with key's line replaced by ``key = raw``, moved
    to the end."""
    lines = [line for line in text.splitlines()
             if not line.startswith(f"{key} = ")]
    return "\n".join(lines + [f"{key} = {raw}"]) + "\n"


# a non-finite number in a plain number, an axis, a pair or a list: left
# through, each would crash, run as a "numerical fault" or pass validation
NON_FINITE = [("L", "inf"), ("sweep_c", "1, 2, inf"), ("sweep_c", "1, 2, nan"),
              ("chi", "nan"), ("c", "nan"), ("b", "inf"), ("conv_tol", "nan"),
              ("horizon_scale", "nan"), ("eig_h", "nan"), ("T", "nan"),
              ("profile", "-2:-1, -1:inf"), ("u0_bump", "-1, nan"),
              ("snapshot_times", "0, -inf")]


@pytest.mark.parametrize("key, raw", NON_FINITE)
def test_parse_rejects_non_finite_numbers(key, raw, tmp_path, capsys):
    text = set_key(MINI_CFG, key, raw)
    if key == "u0_bump":
        text = text.replace("u0 = -1:0, 1:10\n", "")
    where = f"line {len(text.splitlines())}: key {key!r}: "
    with pytest.raises(ConfigError, match="expected a finite number") as exc:
        parse_config(text)
    assert str(exc.value).startswith(where)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli_main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}")
    assert not out.exists()


# numbers that parse but make no well-formed run, each refused at parse time
# with its key and line; the first four once passed parsing and failed the
# run with no line or key, or (1.0009 at tau = 0.002) ran and labelled the
# snapshot taken at t = 1 as 1.0009; the last three named key 'conv_tol'
REFUSED = [
    ("simulate", "T", "2.0007", "T must be an integer multiple of tau"),
    ("simulate", "conv_window", "0.3333",
     "conv_window must be an integer multiple of tau"),
    ("simulate", "snapshot_times", "0, 1, 1.0004",
     "snapshot times 1.0 and 1.0004 fall on the same step 500"),
    ("simulate", "snapshot_times", "0, 1.0009",
     "snapshot time 1.0009 is not a multiple of tau"),
    ("sweep", "horizon_scale", "0.5001",       # T * horizon_scale = 1.0002
     "the sweep horizon T * horizon_scale: T must be an integer multiple"),
    ("sweep", "horizon_scale", "-1", "must be positive"),
    ("simulate", "eig_h", "0", "must be positive"),
    ("simulate", "extinct_tol", "-1", "extinct_tol must be finite and positive"),
]


@pytest.mark.parametrize("mode, key, raw, why", REFUSED)
def test_parse_refuses_ill_formed_runs(mode, key, raw, why, tmp_path, capsys):
    base = MINI_CFG.replace("T = 0.5", "T = 2")
    if mode == "sweep":
        base += "sweep_c = 1, 1, 1\n"
    text = set_key(base, key, raw)
    where = f"line {len(text.splitlines())}: key {key!r}: "
    with pytest.raises(ConfigError) as exc:
        parse_config(text, mode=mode)
    assert str(exc.value).startswith(where + why)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli_main([mode, str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}{why}")
    assert not out.exists()


# values of shipped configs that parse but that the type owning their rule
# refuses: each must name the key that holds the bad value (u0, when u0_bump
# is given beside it) and that key's line, at parse time and in every mode
BAD_VALUES = [
    ("simulate", "case1_exp1.cfg", "chi", "-1", "chi",
     "chi must be nonnegative"),
    ("simulate", "case1_exp1.cfg", "mu", "0", "mu", "mu must be positive"),
    ("simulate", "case1_exp1.cfg", "nu", "-2", "nu", "nu must be positive"),
    ("simulate", "case1_exp1.cfg", "b", "0", "b", "b must be positive"),
    ("simulate", "case1_exp1.cfg", "L", "-3", "L", "L must be positive"),
    ("simulate", "case1_exp1.cfg", "profile", "", "profile",
     "a profile needs at least two breakpoints"),
    ("simulate", "case1_exp1.cfg", "u0", "-1:0, 1:-10", "u0",
     "u0 must be nonnegative"),
    ("simulate", "case2_exp1.cfg", "u0_bump", "-30, 30", "u0_bump",
     "u0 must vanish at x = -L"),
    ("simulate", "case1_exp1.cfg", "u0_bump", "-1, 1", "u0",
     "give exactly one of u0 or u0_bump"),
    ("sweep", "sweep_case1_c.cfg", "u0", "-1:0, 1:-10", "u0",
     "u0 must be nonnegative"),
    ("verify", "case1_exp1.cfg", "verify_epsilons", "0.1, -0.05",
     "verify_epsilons", "epsilon must be positive, got -0.05"),
    # properties of the parsed values that a mode's analysis needs
    ("regime", "case1_exp1.cfg", "b", "0.05", "b",
     "b must exceed chi*mu = 0.1"),
    ("verify", "case1_exp1.cfg", "b", "0.05", "b",
     "b must exceed chi*mu = 0.1"),
    ("regime", "case1_exp1.cfg", "profile", "-8:-1, -7:-0.5", "profile",
     "profile has no favorable region (sup r <= 0)"),
    ("verify", "case1_exp1.cfg", "profile", "-8:1, -7:10", "profile",
     "verify mode needs a CASE1 or CASE2 profile"),
    ("eig", "case1_exp1.cfg", "eig_h", "0.07", "eig_h",
     "2L/h = 514.2857142857142 is not an integer >= 2 (L = 18.0, h = 0.07)"),
    ("regime", "case1_exp1.cfg", "eig_h", "0.07", "eig_h",
     "2L/h = 514.2857142857142 is not an integer >= 2"),
]


@pytest.mark.parametrize("mode, name, key, raw, named, why", BAD_VALUES)
def test_parse_refuses_bad_values_by_their_key(mode, name, key, raw, named,
                                               why, tmp_path, capsys):
    text = set_key((EXPERIMENTS / name).read_text(), key, raw)
    line = 1 + next(i for i, row in enumerate(text.splitlines())
                    if row.startswith(f"{named} = "))
    where = f"line {line}: key {named!r}: "
    with pytest.raises(ConfigError) as exc:
        parse_config(text, mode=mode)
    assert str(exc.value).startswith(where + why)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli_main([mode, str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}{why}")
    assert not out.exists()         # in sweep mode, not even manifest.cfg


# ---------------------------------------------------------------------------
# manifest round-trip

@pytest.mark.parametrize("name", sorted(p.name for p in
                                        EXPERIMENTS.glob("*.cfg")))
def test_manifest_round_trip(name):
    spec = parse_config((EXPERIMENTS / name).read_text())
    assert parse_config(render_manifest(spec)) == spec


def test_manifest_round_trips_every_key():
    # every field off its default but u0 (u0_bump is set instead) and
    # snapshot_times, whose empty default is left out of the manifest while
    # an empty verify_epsilons, whose default is not empty, is written
    spec = RunSpec(
        mode="sweep", chi=0.2, mu=0.5, nu=0.07, b=1.5, c=-0.5, L=6.0,
        h=0.05, tau=0.001, T=0.6, bc=BoundaryCase.CASE2,
        profile=((-2.0, -1.0), (0.5, 3.0), (1.0, -1.5)), u0_bump=(-1.0, 1.0),
        conv_window=0.5, conv_tol=1e-4, extinct_tol=2e-3,
        plateau_rel_tol=0.05, allow_unstable=True, eig_h=0.02, eig_tol=1e-5,
        verify_samples=7, verify_epsilons=(), sweep_b=(1.0, 2.0, 3),
        sweep_c=(-1.0, 1.0, 5), sweep_chi=(0.0, 0.1, 2), horizon_scale=0.5)
    assert [f.name for f in fields(RunSpec)
            if getattr(spec, f.name) == f.default] == ["u0", "snapshot_times"]
    text = render_manifest(spec)
    assert parse_config(text) == spec
    assert "\nverify_epsilons = \n" in text
    assert "snapshot_times" not in text and "u0 =" not in text


# ---------------------------------------------------------------------------
# experiment execution and artifacts

def test_run_experiment_writes_artifacts(tmp_path):
    spec = parse_config(MINI_CFG)
    outcome = run_experiment(spec, tmp_path)
    for name in ("manifest.cfg", "timestamp.txt", "snapshots.csv",
                 "convergence.csv", "outcome.txt"):
        assert (tmp_path / name).exists(), name
    snap = (tmp_path / "snapshots.csv").read_text().splitlines()
    assert snap[0] == "t,x,u,v"
    assert len(snap) == 1 + 2 * (round(2 * 5 / 0.1) + 1)   # 2 snapshots
    conv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert conv[0] == "t,sup_diff,sup_u,u_at_L"
    out_text = (tmp_path / "outcome.txt").read_text()
    assert f"outcome = {outcome.tag.value}" in out_text
    # manifest reproduces the run configuration
    assert parse_config((tmp_path / "manifest.cfg").read_text()) == spec


def test_run_experiment_bitwise_reproducible(tmp_path):
    spec = parse_config(MINI_CFG)
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    # everything except the wall-clock stamp is byte-identical
    for name in ("snapshots.csv", "convergence.csv", "outcome.txt",
                 "manifest.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_snapshot_csv_numbers_round_trip(tmp_path):
    spec = parse_config(MINI_CFG)
    run_experiment(spec, tmp_path)
    rows = (tmp_path / "snapshots.csv").read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(np.isfinite(parsed))
    # x column of the first snapshot is exactly the grid
    grid = spec.grid()
    np.testing.assert_array_equal(parsed[:grid.M + 1, 1], grid.nodes)


def test_eig_and_regime_modes(tmp_path):
    spec = parse_config((EXPERIMENTS / "case2_exp1.cfg").read_text(),
                        mode="eig")
    res = run_experiment(spec, tmp_path / "eig")
    assert res.positive
    table = (tmp_path / "eig" / "eigenvalues.csv").read_text().splitlines()
    assert table[0] == "L,h,lambda"
    assert len(table) == 1 + len(res.table)

    spec_r = parse_config((EXPERIMENTS / "case1_exp1.cfg").read_text(),
                          mode="regime")
    report = run_experiment(spec_r, tmp_path / "regime")
    assert report.h1_holds
    assert report.lambda_inf is not None
    assert "h1_holds = true" in (tmp_path / "regime" / "regime.txt").read_text()


# eig-mode tables of the shipped configs as the pure-Python Sturm bisection
# computed them before the LAPACK switch: rows (L, h, lambda_L)
GOLDEN_EIG = {
    "case1_exp1": [(18.0, 0.01, 9.734960669001957),
                   (36.0, 0.01, 9.744812213845083),
                   (72.0, 0.01, 9.748443011860758),
                   (144.0, 0.01, 9.749570658822215),
                   (288.0, 0.01, 9.749887061955764),
                   (576.0, 0.01, 9.749971023654943)],
    "case2_exp1": [(18.0, 0.01, 9.707481086341652),
                   (36.0, 0.01, 9.707481086341652)],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EIG))
def test_eig_mode_matches_golden_table(name, tmp_path):
    spec = parse_config((EXPERIMENTS / f"{name}.cfg").read_text(), mode="eig")
    run_experiment(spec, tmp_path)
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()[1:]
    rows = [tuple(map(float, line.split(","))) for line in lines]
    golden = GOLDEN_EIG[name]
    assert [row[:2] for row in rows] == [row[:2] for row in golden]
    for row, ref in zip(rows, golden):
        assert abs(row[2] - ref[2]) <= 1e-10


def test_verify_mode(tmp_path):
    spec = parse_config((EXPERIMENTS / "case1_exp1.cfg").read_text(),
                        mode="verify")
    # lighter sampling for the artifact test; acceptance runs the full 100
    spec = type(spec)(**{**spec.__dict__, "verify_samples": 10,
                         "verify_epsilons": (0.1,)})
    report, waves = run_experiment(spec, tmp_path)
    assert report.ok
    assert len(waves) == 1
    cert = (tmp_path / "certification.csv").read_text().splitlines()
    assert cert[0].startswith("branch,")
    ign = (tmp_path / "ignition.csv").read_text().splitlines()
    assert ign[0] == "epsilon,speed,bound"
    assert len(ign) == 2


# ---------------------------------------------------------------------------
# sweeps

SWEEP_CFG = MINI_CFG + "sweep_c = 1, 1, 1\nmode = sweep\n"


def test_degenerate_sweep_matches_single_run(tmp_path):
    spec = parse_config(SWEEP_CFG)
    rows = sweep(SweepSpec(base=spec, axes=(("c", spec.sweep_c),)),
                 tmp_path / "map.csv")
    assert len(rows) == 1
    single = run_experiment(parse_config(MINI_CFG), tmp_path / "single")
    assert rows[0]["outcome"] == single.tag.value
    lines = (tmp_path / "map.csv").read_text().splitlines()
    assert lines[0] == "b,c,chi,outcome,plateau,final_sup_u"
    assert len(lines) == 2


def test_sweep_deterministic_bytes(tmp_path):
    spec = parse_config(SWEEP_CFG.replace("sweep_c = 1, 1, 1",
                                          "sweep_c = 0.5, 1, 2"))
    axes = (("c", spec.sweep_c),)
    sweep(SweepSpec(base=spec, axes=axes), tmp_path / "a.csv")
    sweep(SweepSpec(base=spec, axes=axes), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_skips_ill_posed_points(tmp_path):
    spec = parse_config(SWEEP_CFG.replace("sweep_c = 1, 1, 1",
                                          "sweep_b = 0.05, 1, 2"))
    rows = sweep(SweepSpec(base=spec, axes=(("b", spec.sweep_b),)),
                 tmp_path / "map.csv")
    assert rows[0]["outcome"] == "skipped"      # b = 0.05 <= chi mu = 0.1
    assert rows[1]["outcome"] != "skipped"
    text = (tmp_path / "map.csv").read_text()
    assert "skipped" in text


def test_sweep_records_per_point_errors(tmp_path, caplog):
    # a chi axis that reaches below 0 gives a point SimParams refuses; the
    # sweep must keep going and record that row as an error
    spec = parse_config(SWEEP_CFG + "sweep_chi = -0.1, 0.1, 2\n")
    with caplog.at_level(logging.WARNING, logger="kswave"):
        rows = sweep(SweepSpec.from_spec(spec), tmp_path / "map.csv",
                     workers=1)
    assert [r["outcome"] == "error" for r in rows] == [True, False]
    assert "error" in (tmp_path / "map.csv").read_text()
    # and the log says why, naming the point
    [record] = [r for r in caplog.records if r.name == "kswave"]
    assert record.levelno == logging.WARNING
    assert "b = 1.0, c = 1.0, chi = -0.1" in record.getMessage()
    assert "chi must be nonnegative" in record.getMessage()


def test_sweep_parallel_matches_serial(tmp_path):
    spec = parse_config(SWEEP_CFG.replace("sweep_c = 1, 1, 1",
                                          "sweep_c = 0.5, 1, 2"))
    axes = (("c", spec.sweep_c),)
    sweep(SweepSpec(base=spec, axes=axes), tmp_path / "serial.csv", workers=1)
    sweep(SweepSpec(base=spec, axes=axes), tmp_path / "par.csv", workers=2)
    assert (tmp_path / "serial.csv").read_bytes() == \
        (tmp_path / "par.csv").read_bytes()


class InProcessExecutor:
    """Stands in for ProcessPoolExecutor, which ``sweep`` imports from
    concurrent.futures when it starts workers: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    # a stand-in executor records max_workers and the number of blocks it
    # is given, and maps in-process, so no real process is started
    started, blocks = [], []

    class RecordingExecutor(InProcessExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, jobs):
            jobs = list(jobs)
            blocks.append(len(jobs))
            return map(fn, jobs)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingExecutor)
    spec = parse_config(SWEEP_CFG.replace("sweep_c = 1, 1, 1",
                                          "sweep_c = 0.5, 1.5, 3"))
    sw = SweepSpec(base=spec, axes=(("c", spec.sweep_c),))
    sweep(sw, tmp_path / "serial.csv", workers=1)
    sweep(sw, tmp_path / "capped.csv", workers=64)
    sweep(sw, tmp_path / "two.csv", workers=2)
    one = SweepSpec(base=spec, axes=(("c", (1.0, 1.0, 1)),))
    sweep(one, tmp_path / "one.csv", workers=8)   # one point runs serially
    assert started == [3, 2]
    assert blocks == [3, 2]        # one block of contiguous points per worker
    assert (tmp_path / "capped.csv").read_bytes() == \
        (tmp_path / "serial.csv").read_bytes()


def per_point_row(spec, b, c, chi) -> str:
    """A sweep row computed the way a point alone is run: its own
    stepper.run, or a skip or error."""
    head = f"{harness.fmt(b)},{harness.fmt(c)},{harness.fmt(chi)},"
    if b <= chi * spec.mu:
        return head + "skipped,nan,nan\n"
    point = replace(spec, mode="simulate", b=b, c=c, chi=chi,
                    snapshot_times=())
    try:
        cfg = point.run_config()
        traj, outcome = harness.run(
            cfg, harness.sample(point.initial_condition(), cfg.grid))
    except (ValueError, RuntimeError):
        return head + "error,nan,nan\n"
    plateau = math.nan if outcome.plateau is None else outcome.plateau
    return (head + f"{outcome.tag.value},{harness.fmt(plateau)},"
            f"{harness.fmt(traj.u_final.max())}\n")


@pytest.mark.parametrize("workers", [1, 2, 4, 9])
def test_sweep_blocks_match_per_point_runs(workers, tmp_path, monkeypatch,
                                           caplog):
    # one block or several: chi = -0.6 fails validation, b <= chi mu is
    # skipped, and b = 1e-7 with chi = 0 blows up near t = 1.1; every other
    # row must read what its own run gives, and each error row is logged
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        InProcessExecutor)
    spec = replace(parse_config(SWEEP_CFG), T=2.0, snapshot_times=())
    axes = (("b", (1e-7, 1.0, 3)), ("chi", (-0.6, 0.6, 3)))
    with caplog.at_level(logging.WARNING, logger="kswave"):
        rows = sweep(SweepSpec(base=spec, axes=axes), tmp_path / "map.csv",
                     workers=workers)
    logged = sorted(r.getMessage() for r in caplog.records
                    if r.name == "kswave")
    assert logged == sorted(
        f"sweep point b = {harness.fmt(r['b'])}, c = {harness.fmt(r['c'])}, "
        f"chi = {harness.fmt(r['chi'])} reads error: "
        + ("blew up" if r["chi"] == 0.0
           else "key 'chi': chi must be nonnegative")
        for r in rows if r["outcome"] == "error")
    assert [r["outcome"] for r in rows][:4] == [
        "error", "error", "skipped", "error"]
    expected = "b,c,chi,outcome,plateau,final_sup_u\n" + "".join(
        per_point_row(spec, r["b"], r["c"], r["chi"]) for r in rows)
    assert (tmp_path / "map.csv").read_text() == expected
    assert [r["outcome"] for r in rows].count("skipped") == 2


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_workers_below_one(workers, tmp_path):
    spec = parse_config(SWEEP_CFG)
    with pytest.raises(ValueError, match="workers"):
        sweep(SweepSpec.from_spec(spec), tmp_path / "map.csv",
              workers=workers)
    assert not (tmp_path / "map.csv").exists()
    # through the CLI, workers is rejected before the bundle is started
    out = tmp_path / "o"
    assert cli_main(["sweep", str(EXPERIMENTS / "sweep_case1_c.cfg"),
                     "--out", str(out), "--workers", str(workers)]) == 1
    assert not (out / "manifest.cfg").exists()
    assert not (out / "timestamp.txt").exists()


def test_sweep_spec_from_spec_carries_axes_and_horizon():
    spec = parse_config(SWEEP_CFG + "sweep_b = 1, 2, 2\nhorizon_scale = 0.4\n")
    sw = SweepSpec.from_spec(spec)
    assert sw.base is spec
    assert sw.axes == (("b", (1.0, 2.0, 2)), ("c", (1.0, 1.0, 1)))
    assert sw.horizon_scale == 0.4


def test_sweep_runs_its_own_horizon(tmp_path, monkeypatch):
    # the SweepSpec's horizon_scale, not the base spec's, sets the horizon
    spec = parse_config(SWEEP_CFG)
    assert spec.horizon_scale == 1.0 and spec.T == 0.5
    horizons = []
    real_run_block = harness.run_block

    def spy(cfgs, u0):
        horizons.extend(cfg.T for cfg in cfgs)
        return real_run_block(cfgs, u0)
    monkeypatch.setattr(harness, "run_block", spy)
    rows = sweep(SweepSpec(base=spec, axes=(("c", spec.sweep_c),),
                           horizon_scale=0.2), tmp_path / "map.csv")
    assert horizons == [pytest.approx(0.1)]
    short = run_experiment(replace(parse_config(MINI_CFG), T=0.1,
                                   snapshot_times=()), tmp_path / "short")
    assert rows[0]["outcome"] == short.tag.value


# ---------------------------------------------------------------------------
# shipped configs reproduce their outcomes

@pytest.mark.parametrize("name,expected", [
    ("case1_exp2.cfg", OutcomeTag.FORCED_WAVE_CASE1),
    ("case1_exp3.cfg", OutcomeTag.FORCED_WAVE_CASE1),
    ("case2_exp2.cfg", OutcomeTag.FORCED_WAVE_CASE2),
])
def test_shipped_configs_classify_as_expected(name, expected, tmp_path):
    # exp1, exp4 and the other case2 runs are exercised by the acceptance
    # suite; these are the remaining shipped configs
    spec = parse_config((EXPERIMENTS / name).read_text())
    outcome = run_experiment(spec, tmp_path)
    assert outcome.tag is expected


def test_case2_sweep_extinct_beyond_critical_speed(tmp_path):
    # shift speeds past 2 sqrt(r*) ~ 6.325 lose the population by T = 30
    spec = parse_config((EXPERIMENTS / "case2_exp3.cfg").read_text())
    spec = replace(spec, sweep_c=(6.0, 7.0, 5), snapshot_times=())
    rows = sweep(SweepSpec(base=spec, axes=(("c", spec.sweep_c),)),
                 tmp_path / "map.csv")
    for row in rows:
        if row["c"] > 6.325:
            assert row["outcome"] == "extinction", row


# ---------------------------------------------------------------------------
# CLI

def test_cli_simulate_and_exit_codes(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "outcome.txt").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("chi = oops\n")
    assert cli_main(["simulate", str(bad)]) == 1
    assert cli_main(["simulate", str(tmp_path / "missing.cfg")]) == 1


def test_cli_numerical_fault_exit_code(tmp_path):
    # unstable run pushed through the override: blow-up is exit code 2
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(MINI_CFG.replace("tau = 0.002", "tau = 0.02")
                   .replace("T = 0.5", "T = 1.0"))
    rc = cli_main(["simulate", str(cfg), "--allow-unstable",
                   "--out", str(tmp_path / "o2")])
    assert rc == 2


def test_cli_verify_envelope_fault_is_numerical(tmp_path, capsys):
    # c = 12 is too fast a shift for a case2 wave: the numeric lower
    # envelope dies out, which is a numerical fault (exit 2), not a
    # traceback, and the verify bundle is not written
    text = (EXPERIMENTS / "case2_exp1.cfg").read_text()
    assert "\nc = 1\n" in text
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(text.replace("\nc = 1\n", "\nc = 12\n"))
    out = tmp_path / "o"
    assert cli_main(["verify", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("numerical fault: ") and "lower envelope" in line
               for line in err)
    assert not out.exists()


def test_cli_snapshot_times_override(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    out = tmp_path / "o3"
    assert cli_main(["simulate", str(cfg), "--out", str(out),
                     "--snapshot-times", "0.1,0.2"]) == 0
    snap = (out / "snapshots.csv").read_text().splitlines()
    assert {row.split(",")[0] for row in snap[1:]} == {"0.1", "0.2"}


def test_cli_empty_snapshot_times_clears_the_key(tmp_path):
    # a given flag wins even when empty: no snapshot, as if the config had
    # no snapshot_times line
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "flag"),
                     "--snapshot-times", ""]) == 0
    cfg.write_text(MINI_CFG.replace("snapshot_times = 0, 0.5\n", ""))
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "bare")]) == 0
    assert (tmp_path / "flag" / "snapshots.csv").read_bytes() == \
        (tmp_path / "bare" / "snapshots.csv").read_bytes()


@pytest.mark.parametrize("times", ("0.1,abc", "0.1,0.7", "0.1,inf"))
def test_cli_snapshot_times_validated_before_any_write(times, tmp_path,
                                                       capsys):
    # a non-number, a time past T = 0.5 and a non-finite time are
    # validation errors: exit 1 with a message naming the key, and nothing
    # is written
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(MINI_CFG)
    out = tmp_path / "o4"
    assert cli_main(["simulate", str(cfg), "--out", str(out),
                     "--snapshot-times", times]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'snapshot_times'" in err
    assert not out.exists()


def test_cli_help_lists_every_key_with_its_default(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    rows = {line.split()[0]: line for line in
            capsys.readouterr().out.splitlines() if line.startswith("  ")}
    # a default reads as it would in a manifest
    manifest = dict(line.split(" = ", 1) for line in
                    render_manifest(parse_config(MINI_CFG)).splitlines()
                    if " = " in line)
    assert "mode" not in rows
    for f in fields(RunSpec)[1:]:
        if f.default is MISSING:
            default = "required"
        elif f.default in (None, ()):
            default = "none"
        else:
            default = manifest[f.name]
        assert rows[f.name].endswith(f"  {default}"), rows[f.name]


@pytest.mark.parametrize("mode, edit", (
    ("simulate", ("T = 10\n", "T = 10.001\n")),
    ("simulate", ("T = 10\n", "T = 10\nconv_window = 1.001\n")),
    ("eig", ("h = 0.1\n", "h = 0.1\neig_h = 0.07\n")),
))
def test_cli_failing_run_writes_no_files(mode, edit, tmp_path, capsys):
    # T and the convergence window must be multiples of tau, and eig_h
    # must divide the doubling's 2L (all refused at parse time): each leaves
    # no bundle behind
    text = (EXPERIMENTS / "case1_exp1.cfg").read_text()
    assert edit[0] in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(edit[0], edit[1]))
    out = tmp_path / "o"
    assert cli_main([mode, str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_sweep_goes_through_run_experiment(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("sweep_c = 1, 1, 1",
                                     "sweep_c = 0.5, 1, 2"))
    out = tmp_path / "o5"
    assert cli_main(["sweep", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.cfg", "regime_map.csv", "timestamp.txt"]
    spec = parse_config(cfg.read_text())
    assert (out / "manifest.cfg").read_text() == render_manifest(spec)
    sweep(SweepSpec.from_spec(spec), tmp_path / "direct.csv")
    assert (out / "regime_map.csv").read_bytes() == \
        (tmp_path / "direct.csv").read_bytes()

    # a row that errors (a chi below 0) makes the exit code 2
    text = cfg.read_text()
    cfg.write_text(text + "sweep_chi = -0.1, 0.1, 2\n")
    assert cli_main(["sweep", str(cfg), "--out", str(tmp_path / "o6")]) == 2
    assert "error" in (tmp_path / "o6" / "regime_map.csv").read_text()

    # T off the tau grid is refused at parse time, before any write
    cfg.write_text(text.replace("T = 0.5", "T = 0.5001"))
    capsys.readouterr()
    assert cli_main(["sweep", str(cfg), "--out", str(tmp_path / "o7")]) == 1
    assert capsys.readouterr().err.startswith("error: line 10: key 'T': ")
    assert not (tmp_path / "o7").exists()


def _run_python(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout.strip()


def test_import_loads_no_scipy_optimize_or_signal():
    # heavy imports that kswave does not need: they would add to the
    # start-up time and peak memory of every run.  LAPACK is bound from
    # scipy's compiled module alone, without the scipy.linalg package
    # (which loads numpy.f2py and numpy.testing) or the scipy package
    # itself, and the process pool (multiprocessing) is imported only by a
    # sweep that starts workers.
    prefixes = ("scipy", "numpy.f2py", "numpy.testing", "multiprocessing")
    code = (f"import sys, kswave; print(sorted(m for m in sys.modules "
            f"if m.startswith({prefixes!r})))")
    assert _run_python(code) == "['scipy.linalg._flapack']"


@pytest.mark.parametrize("scipy_linalg_first", [True, False],
                         ids=["scipy.linalg-first", "kswave-first"])
def test_lapack_module_shared_with_scipy_linalg(scipy_linalg_first):
    # whichever is imported first, kswave and scipy.linalg bind one instance
    # of the compiled LAPACK module
    imports = ["import kswave", "import scipy.linalg"]
    if scipy_linalg_first:
        imports.reverse()
    code = "; ".join(imports + [
        "print(kswave.tridiagonal._flapack is scipy.linalg.lapack._flapack)"])
    assert _run_python(code) == "True"
