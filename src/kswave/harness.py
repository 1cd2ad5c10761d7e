"""Configuration parsing, experiment orchestration, sweeps, and file output.

Configs are flat ``key = value`` text: ``#`` starts a comment, breakpoint
lists are comma-separated ``x:r`` pairs, plain lists are comma-separated.
One table, ``_SCHEMA``, says how each ``RunSpec`` field is parsed, written
back and shown in the CLI help.  Unknown keys and malformed or non-finite
numbers are rejected with their line number.  A value the run cannot use
is refused by the type that owns its rule, naming its key, when
``parse_config`` builds what the mode runs; the parser adds the key's line.
``render_manifest`` writes back every effective value (defaults included), so
``parse_config(render_manifest(spec)) == spec`` and a manifest alone
reproduces a run bitwise.  All CSV numbers use the shortest representation
that round-trips a double exactly.
"""

from __future__ import annotations

import datetime
import logging
import math
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .envelopes import (build_lower_envelope_case2, build_upper_envelope_case1,
                        build_upper_envelope_case2, certify_supersolution)
from .ignition import BracketError, ignition_wave
from .model import (BoundaryCase, ConfigError, Grid, GrowthProfile,
                    HabitatClass, InitialCondition, SimParams, check_regime,
                    classify_profile, sample, speed_limit)
from .spectral import _first_L, lambda_infinity
from .stepper import initial_state, make_run_config, run, run_block

__all__ = ["ConfigError", "RunSpec", "SweepSpec", "parse_config",
           "render_manifest", "config_help", "run_experiment", "sweep", "fmt"]

MODES = ("simulate", "eig", "regime", "verify", "sweep")

_log = logging.getLogger("kswave")


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one experiment (pure scalars and tuples,
    so equality and the manifest round-trip are exact)."""

    mode: str
    chi: float
    mu: float
    nu: float
    b: float
    c: float
    L: float
    h: float
    tau: float
    T: float
    bc: BoundaryCase
    profile: tuple[tuple[float, float], ...]
    u0: tuple[tuple[float, float], ...] | None = None
    u0_bump: tuple[float, float] | None = None
    snapshot_times: tuple[float, ...] = ()
    conv_window: float = 1.0
    conv_tol: float = 1e-3
    extinct_tol: float = 1e-3
    plateau_rel_tol: float = 0.02
    allow_unstable: bool = False
    eig_h: float = 0.01
    eig_tol: float = 1e-4
    verify_samples: int = 100
    verify_epsilons: tuple[float, ...] = (0.1, 0.05, 0.025)
    sweep_b: tuple[float, float, int] | None = None
    sweep_c: tuple[float, float, int] | None = None
    sweep_chi: tuple[float, float, int] | None = None
    horizon_scale: float = 1.0

    # derived builders -----------------------------------------------------
    def params(self) -> SimParams:
        return SimParams(chi=self.chi, mu=self.mu, nu=self.nu, b=self.b,
                         c=self.c)

    def growth_profile(self) -> GrowthProfile:
        return GrowthProfile.from_breakpoints(self.profile)

    def grid(self) -> Grid:
        return Grid(L=self.L, h=self.h)

    def initial_condition(self) -> InitialCondition:
        return InitialCondition(breakpoints=self.u0, bump=self.u0_bump)

    def run_config(self):
        return make_run_config(
            self.params(), self.growth_profile(), self.grid(), self.bc,
            self.tau, self.T, snapshot_times=self.snapshot_times,
            conv_window=self.conv_window, conv_tol=self.conv_tol,
            extinct_tol=self.extinct_tol,
            plateau_rel_tol=self.plateau_rel_tol,
            allow_unstable=self.allow_unstable)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of simulate runs around ``base``: each axis is a (name,
    (min, max, count)) pair with name one of b, c, chi, and every point
    marches to ``base.T * horizon_scale``."""

    base: RunSpec
    axes: tuple[tuple[str, tuple[float, float, int]], ...]
    horizon_scale: float = 1.0

    @classmethod
    def from_spec(cls, spec: RunSpec) -> SweepSpec:
        """The sweep a spec's sweep_b/sweep_c/sweep_chi axes and its
        horizon_scale describe."""
        axes = tuple((name[len("sweep_"):], getattr(spec, name))
                     for name in ("sweep_b", "sweep_c", "sweep_chi")
                     if getattr(spec, name) is not None)
        return cls(base=spec, axes=axes, horizon_scale=spec.horizon_scale)


def fmt(x) -> str:
    """Shortest round-trip representation of a double (repr of float)."""
    return repr(float(x))


# --------------------------------------------------------------------------
# configs: one schema table drives parsing, the manifest and the CLI help

def _number(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw.strip()!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return x


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(_number(v) for v in raw.split(",") if v.strip())


def _pairs(raw: str) -> tuple[tuple[float, float], ...]:
    items = [item.split(":") for item in raw.split(",") if item.strip()]
    if any(len(parts) != 2 for parts in items):
        raise ValueError("expected x:value pairs")
    return tuple((_number(x), _number(y)) for x, y in items)


def _bump(raw: str) -> tuple[float, float]:
    vals = _numbers(raw)
    if len(vals) != 2:
        raise ValueError("u0_bump needs exactly xl,xr")
    return vals


def _axis(raw: str) -> tuple[float, float, int]:
    vals = _numbers(raw)
    if len(vals) != 3 or vals[2] < 1 or vals[2] != int(vals[2]):
        raise ValueError("axis needs min,max,count with count >= 1")
    return (vals[0], vals[1], int(vals[2]))


def _join(values) -> str:
    return ", ".join(fmt(v) for v in values)


class _Kind(NamedTuple):
    parse: Callable[[str], object]      # raises ValueError on bad text
    render: Callable[[object], str]     # parse(render(v)) == v
    syntax: str                         # shown by `kswave --help`


def _choice(options: tuple[str, ...], convert=str, render=str) -> _Kind:
    def parse(raw: str):
        if raw not in options:
            raise ValueError(f"expected one of {'|'.join(options)}")
        return convert(raw)
    return _Kind(parse, render, "|".join(options))


_NUMBER = _Kind(_number, fmt, "number")
_NUMBERS = _Kind(_numbers, _join, "n1, n2, ...")
_PAIRS = _Kind(_pairs, lambda v: ", ".join(f"{fmt(x)}:{fmt(y)}" for x, y in v),
               "x:y, x:y, ...")
_AXIS = _Kind(_axis, lambda v: f"{fmt(v[0])}, {fmt(v[1])}, {v[2]}",
              "min, max, count")
_SCHEMA = {
    "mode": _choice(MODES),
    "bc": _choice(("case1", "case2"), BoundaryCase, lambda bc: bc.value),
    "profile": _PAIRS, "u0": _PAIRS, "u0_bump": _Kind(_bump, _join, "xl, xr"),
    "snapshot_times": _NUMBERS, "verify_epsilons": _NUMBERS,
    "allow_unstable": _choice(("true", "false"), lambda raw: raw == "true",
                              lambda v: str(v).lower()),
    "verify_samples": _Kind(int, str, "integer"),
    "sweep_b": _AXIS, "sweep_c": _AXIS, "sweep_chi": _AXIS,
    **dict.fromkeys(("chi", "mu", "nu", "b", "c", "L", "h", "tau", "T",
                     "conv_window", "conv_tol", "extinct_tol",
                     "plateau_rel_tol", "eig_h", "eig_tol", "horizon_scale"),
                    _NUMBER),
}


def _parse_value(key: str, raw: str, line: int | None):
    if key not in _SCHEMA:
        raise ConfigError("unknown key", line, key)
    try:
        return _SCHEMA[key].parse(raw)
    except ValueError as exc:
        raise ConfigError(str(exc), line, key) from None


def config_help() -> str:
    """A table of the config keys but mode (the CLI subcommand sets it):
    each key's value syntax and its default, or ``required``."""
    rows = [f"  {'key':<17}{'value':<17}default"]
    for f in fields(RunSpec)[1:]:       # [0] is mode
        kind = _SCHEMA[f.name]
        default = ("required" if f.default is MISSING
                   else "none" if f.default in (None, ())
                   else kind.render(f.default))
        rows.append(f"  {f.name:<17}{kind.syntax:<17}{default}")
    return "\n".join(rows)


def parse_config(text: str, mode: str | None = None,
                 overrides: dict[str, str] | None = None) -> RunSpec:
    """Parse flat key = value text into a validated RunSpec.  ``mode``
    overrides any mode key in the text (the CLI subcommand wins), and
    ``overrides`` maps keys to raw values that replace the text's, parsed
    and validated as if they were lines of it."""
    values: dict = {}
    lines: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected key = value", lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError("duplicate key", lineno, key)
        values[key] = _parse_value(key, raw.strip(), lineno)
        lines[key] = lineno
    for key, raw in (overrides or {}).items():
        values[key] = _parse_value(key, raw, None)
        lines.pop(key, None)
    if mode is not None:
        values["mode"] = mode
    values.setdefault("mode", "simulate")

    missing = [f.name for f in fields(RunSpec)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    spec = RunSpec(**values)
    _validate(spec, lines)
    if not spec.params().well_posed:
        _log.warning("b = %g <= chi*mu = %g, solutions may blow up",
                     spec.b, spec.chi * spec.mu)
    return spec


def _validate(spec: RunSpec, lines: dict):
    """Build what the spec's mode runs and check the keys that no built
    object holds; a refusal is re-raised with its key's line."""
    try:
        for key in ("eig_tol", "eig_h", "horizon_scale"):
            if not getattr(spec, key) > 0.0:
                raise ConfigError("must be positive", key=key)
        if spec.verify_samples < 1:
            raise ConfigError("verify_samples must be >= 1",
                              key="verify_samples")
        for eps in spec.verify_epsilons:
            if not eps > 0.0:
                raise ConfigError(f"epsilon must be positive, got {fmt(eps)}",
                                  key="verify_epsilons")
        # the run's config holds the params, profile, grid and step grid
        cfg = spec.run_config()
        profile = spec.growth_profile()
        if spec.mode in ("regime", "verify"):
            check_regime(cfg.params, profile)
        if spec.mode == "verify":
            _verify_habitat(profile)
        if spec.mode in ("eig", "regime"):
            _first_L(profile, spec.eig_h)
        if spec.mode in ("simulate", "sweep"):
            u0 = sample(spec.initial_condition(), cfg.grid)
            try:
                initial_state(cfg, u0)
            except ValueError as exc:
                raise ConfigError(str(exc), key="u0" if spec.u0 is not None
                                  else "u0_bump") from None
        if spec.mode == "sweep":
            if not any((spec.sweep_b, spec.sweep_c, spec.sweep_chi)):
                raise ConfigError("sweep mode needs at least one sweep axis",
                                  key="sweep_c")
            # the points differ from the run above only in T and
            # snapshot_times
            try:
                _sweep_point(spec, spec.horizon_scale).run_config()
            except ConfigError as exc:
                raise ConfigError("the sweep horizon T * horizon_scale: "
                                  + exc.reason, key="horizon_scale") from None
    except ConfigError as exc:
        raise ConfigError(exc.reason, lines.get(exc.key), exc.key) from None


def render_manifest(spec: RunSpec) -> str:
    out = ["# manifest: every effective input, parse_config-compatible"]
    for f in fields(RunSpec):
        value = getattr(spec, f.name)
        if value is None or (value == () and f.default == ()):
            continue
        out.append(f"{f.name} = {_SCHEMA[f.name].render(value)}")
    out.append("# deterministic: no seeds; reruns are bitwise identical")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# experiment execution

def _text(rows) -> str:
    return "\n".join(rows) + "\n"


def _snapshot_csv(nodes, snapshots) -> str:
    rows = ["t,x,u,v"]
    for t, u, v in snapshots:
        for xi, ui, vi in zip(nodes, u, v):
            rows.append(f"{fmt(t)},{fmt(xi)},{fmt(ui)},{fmt(vi)}")
    return _text(rows)


def _convergence_csv(traj) -> str:
    rows = ["t,sup_diff,sup_u,u_at_L"]
    for t, d, s, ur in zip(traj.times, traj.sup_diff, traj.sup_u,
                           traj.u_at_right):
        rows.append(f"{fmt(t)},{fmt(d)},{fmt(s)},{fmt(ur)}")
    return _text(rows)


def _outcome_lines(outcome):
    lines = [f"outcome = {outcome.tag.value}",
             f"final_sup_diff = {fmt(outcome.final_sup_diff)}"]
    if outcome.plateau is not None:
        lines.append(f"plateau = {fmt(outcome.plateau)}")
    if outcome.peak is not None:
        lines.append(f"peak = {fmt(outcome.peak[0])}")
        lines.append(f"peak_x = {fmt(outcome.peak[1])}")
    return lines


def _write_bundle(out: Path, files: dict):
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def run_experiment(spec: RunSpec, out_dir: str | Path, workers: int = 1):
    """Execute the spec's mode, writing the artifact bundle into out_dir.
    Returns the mode's principal result object.  Every mode but sweep
    finishes its work before it writes anything, so a run that fails
    leaves no files behind; sweep writes its manifest and timestamp first
    and then streams its rows.  ``workers`` is passed to ``sweep`` in
    sweep mode and is checked before anything is written."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if spec.mode not in MODES:
        raise ConfigError(f"unknown mode {spec.mode!r}")
    out = Path(out_dir)
    # the wall-clock start time lives in its own file so every other
    # artifact is byte-identical across reruns
    head = {"manifest.cfg": render_manifest(spec),
            "timestamp.txt": datetime.datetime.now().isoformat() + "\n"}
    if spec.mode == "sweep":
        _write_bundle(out, head)
        return sweep(SweepSpec.from_spec(spec), out / "regime_map.csv",
                     workers=workers)
    result, files = _RUNNERS[spec.mode](spec)
    _write_bundle(out, {**head, **files})
    return result


def _run_simulate(spec: RunSpec):
    cfg = spec.run_config()
    u0 = sample(spec.initial_condition(), cfg.grid)
    traj, outcome = run(cfg, u0)
    return outcome, {
        "snapshots.csv": _snapshot_csv(cfg.grid.nodes, traj.snapshots),
        "convergence.csv": _convergence_csv(traj),
        "outcome.txt": _text(_outcome_lines(outcome))}


def _run_eig(spec: RunSpec):
    profile = spec.growth_profile()
    res = lambda_infinity(profile, spec.c, tol=spec.eig_tol, h=spec.eig_h)
    rows = ["L,h,lambda"]
    for L, h, lam in res.table:
        rows.append(f"{fmt(L)},{fmt(h)},{fmt(lam)}")
    cert = [
        f"lambda_inf_estimate = {fmt(res.estimate)}",
        f"lower_bound = {fmt(res.estimate)}",
        f"upper_bound = {fmt(res.upper_bound)}",
        f"converged = {'true' if res.converged else 'false'}",
        f"positive = {'true' if res.positive else 'false'}",
    ]
    return res, {"eigenvalues.csv": _text(rows),
                 "lambda_infinity.txt": _text(cert)}


def _run_regime(spec: RunSpec):
    params = spec.params()
    profile = spec.growth_profile()
    report = check_regime(params, profile)
    res = lambda_infinity(profile, spec.c, tol=spec.eig_tol, h=spec.eig_h)
    report = replace(report, lambda_inf=res.estimate)
    thr = "undefined" if report.h1_threshold is None \
        else fmt(report.h1_threshold)
    lines = [
        f"h1_holds = {'true' if report.h1_holds else 'false'}",
        f"h1_threshold = {thr}",
        f"h2_damping_holds = {'true' if report.h2_damping_holds else 'false'}",
        f"c_star = {fmt(report.c_star)}",
        f"lambda_inf = {fmt(report.lambda_inf)}",
    ]
    return report, {"regime.txt": _text(lines)}


def _run_verify(spec: RunSpec):
    params = spec.params()
    profile = spec.growth_profile()
    grid = spec.grid()
    habitat = _verify_habitat(profile)
    build = (build_upper_envelope_case1 if habitat is HabitatClass.CASE1
             else build_upper_envelope_case2)
    envelope = build(params, profile, grid)
    report = certify_supersolution(envelope, params, profile,
                                   n_samples=spec.verify_samples)
    rows = ["branch,region_nodes,worst_residual,worst_x,worst_sample,pass"]
    for b in report.branches:
        rows.append(
            f"{b.branch},{b.n_nodes},{fmt(b.worst_residual)},{fmt(b.worst_x)},"
            f"{b.worst_sample},{'pass' if b.worst_residual <= report.tol else 'fail'}")

    ign_rows = ["epsilon,speed,bound"]
    waves = []
    if params.b > 2.0 * params.chi * params.mu:
        bound = speed_limit(params, profile.r_star)
        for eps in spec.verify_epsilons:
            try:
                w = ignition_wave(params, profile.r_star, eps)
            except BracketError as exc:
                _log.warning("ignition eps=%g: %s", eps, exc)
                continue
            waves.append(w)
            ign_rows.append(f"{fmt(eps)},{fmt(w.speed)},{fmt(bound)}")
    else:
        _log.warning("b <= 2 chi mu, ignition wave construction skipped")

    if habitat is HabitatClass.CASE2:
        build_lower_envelope_case2(params, profile, grid, upper=envelope)
    return (report, waves), {"certification.csv": _text(rows),
                             "ignition.csv": _text(ign_rows)}


def _verify_habitat(profile: GrowthProfile) -> HabitatClass:
    """The habitat of a verify run: CASE1 or CASE2, which have envelopes."""
    habitat = classify_profile(profile)
    if habitat is HabitatClass.UNCLASSIFIED:
        raise ConfigError("verify mode needs a CASE1 or CASE2 profile",
                          key="profile")
    return habitat


_RUNNERS = {"simulate": _run_simulate, "eig": _run_eig,
            "regime": _run_regime, "verify": _run_verify}


# --------------------------------------------------------------------------
# sweeps

def _axis_values(axis):
    lo, hi, count = axis
    if count == 1:
        return [lo]
    return list(np.linspace(lo, hi, count))


def _sweep_point(spec: RunSpec, horizon_scale: float, **axes) -> RunSpec:
    """The simulate run of one sweep point: the base spec marched to
    T * horizon_scale with no snapshots, with the point's axis values."""
    return replace(spec, mode="simulate", T=spec.T * horizon_scale,
                   snapshot_times=(), **axes)


def _sweep_block(args):
    """The rows of a contiguous run of sweep points.  Points with b <= chi mu
    are skipped, points whose config fails validation read ``error``, and
    the rest march as one block; each ``error`` row is logged with why."""
    spec, horizon_scale, points = args
    rows, cfgs, marched = [], [], []
    for b, c, chi in points:
        row = {"b": b, "c": c, "chi": chi, "outcome": "error",
               "plateau": math.nan, "final_sup_u": math.nan}
        rows.append(row)
        if b <= chi * spec.mu:
            row["outcome"] = "skipped"
            continue
        try:
            cfgs.append(_sweep_point(spec, horizon_scale, b=b, c=c,
                                     chi=chi).run_config())
        except ValueError as exc:
            _log_error(row, exc)
            continue
        marched.append(row)
    if not cfgs:
        return rows
    try:
        u0 = sample(spec.initial_condition(), cfgs[0].grid)
        results = run_block(cfgs, u0)
    except (ValueError, RuntimeError) as exc:
        for row in marched:
            _log_error(row, exc)
        return rows
    for row, result in zip(marched, results):
        if result is None:
            _log_error(row, "blew up")
            continue
        u_final, _, _, outcome = result
        row["outcome"] = outcome.tag.value
        if outcome.plateau is not None:
            row["plateau"] = outcome.plateau
        row["final_sup_u"] = float(u_final.max())
    return rows


def _log_error(row, why):
    _log.warning("sweep point b = %s, c = %s, chi = %s reads error: %s",
                 fmt(row["b"]), fmt(row["c"]), fmt(row["chi"]), why)


def sweep(sw: SweepSpec, out_path: str | Path, workers: int = 1):
    """Run the cartesian grid of the sweep axes, classify each point, and
    stream rows to the CSV in deterministic sorted order.  The sorted
    points are cut into ``min(workers, points)`` contiguous blocks, each
    marched as one array; with more than one block, each runs in its own
    worker process."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    base = sw.base
    axis_map = dict(sw.axes)
    bs = _axis_values(axis_map["b"]) if "b" in axis_map else [base.b]
    cs = _axis_values(axis_map["c"]) if "c" in axis_map else [base.c]
    chis = _axis_values(axis_map["chi"]) if "chi" in axis_map else [base.chi]
    points = sorted((b, c, chi) for b in bs for c in cs for chi in chis)
    n = len(points)
    n_proc = min(workers, n)
    jobs = [(base, sw.horizon_scale,
             points[k * n // n_proc:(k + 1) * n // n_proc])
            for k in range(n_proc)]

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    with ExitStack() as stack:
        fh = stack.enter_context(open(out_path, "w"))
        fh.write("b,c,chi,outcome,plateau,final_sup_u\n")
        mapper = map
        if n_proc > 1:
            # imported here: it loads multiprocessing, which nothing else needs
            from concurrent.futures import ProcessPoolExecutor
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=n_proc)).map
        for block in mapper(_sweep_block, jobs):
            for row in block:
                rows.append(row)
                fh.write(_sweep_row_text(row))
            fh.flush()
    return rows


def _sweep_row_text(row) -> str:
    return (f"{fmt(row['b'])},{fmt(row['c'])},{fmt(row['chi'])},"
            f"{row['outcome']},{fmt(row['plateau'])},"
            f"{fmt(row['final_sup_u'])}\n")
