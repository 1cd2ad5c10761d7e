"""Configuration parsing, experiment orchestration, sweeps, and file output.

Configs are flat ``key = value`` text: ``#`` starts a comment, breakpoint
lists are comma-separated ``x:r`` pairs, plain lists are comma-separated.
One table, ``_SCHEMA``, holds each ``RunSpec`` field's syntax and bound: it
parses the field, writes it back, shows both in the CLI help and checks
both on the text (unknown keys and malformed, non-finite or out-of-bound
numbers are rejected with their line number) and, first in ``_build``, on
a spec, so a spec built in code is refused as its text would be.  ``_build``
then builds what the mode runs; a value the run cannot use is refused by
the type that owns its rule, naming its key, and ``parse_config`` adds the
key's line.  ``run_experiment`` builds once, runs the mode and only then
writes its bundle, so a run that is refused, fails or is interrupted writes
nothing.  ``sweep`` runs a ``SweepSpec`` as the sweep-mode spec it
describes, through the same build and runner, logs the run warnings as
``parse_config`` does and writes its ``regime_map.csv`` the same way.
``render_manifest`` writes back every effective value (defaults included),
so ``parse_config(render_manifest(spec)) == spec`` and a manifest alone
reproduces a run bitwise.  One writer per format, ``_csv`` or ``_pairs``
(``key = value`` lines), writes every artifact and the manifest's keys, and
spells each value through ``_cell``: a float as its shortest round-trip
double, a bool as true/false, None as undefined, an integer in digits."""

from __future__ import annotations

import datetime
import logging
import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .envelopes import (build_lower_envelope_case2, build_upper_envelope_case1,
                        build_upper_envelope_case2, certify_supersolution)
from .ignition import RICHARDSON_EPSILONS, ignition_wave
from .model import (BoundaryCase, ConfigError, Grid, GrowthProfile,
                    HabitatClass, InitialCondition, SimParams, check_regime,
                    classify_profile, is_count)
from .spectral import DOUBLING_H, DOUBLING_TOL, _first_L, lambda_infinity
from .stepper import (BlowUpError, RunConfig, initial_state, make_run_config,
                      run, run_block)

__all__ = ["ConfigError", "RunSpec", "SweepSpec", "parse_config",
           "render_manifest", "config_help", "run_experiment", "sweep", "fmt"]

_log = logging.getLogger("kswave")

# each mode, in the order of the CLI's subcommands, and the artifacts that
# summarize its result, in the order the CLI prints them
SUMMARIES = {"simulate": ("outcome.txt",),
             "eig": ("eigenvalues.csv", "lambda_infinity.txt"),
             "regime": ("regime.txt",),
             "verify": ("certification.csv", "ignition.csv"),
             "sweep": ("regime_map.csv",)}
MODES = tuple(SUMMARIES)


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one experiment (pure scalars and tuples,
    so equality and the manifest round-trip are exact).  A default that the
    code using the key also holds is read from there, not written again."""

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
    snapshot_times: tuple[float, ...] = RunConfig.snapshot_times
    conv_window: float = RunConfig.conv_window
    conv_tol: float = RunConfig.conv_tol
    extinct_tol: float = RunConfig.extinct_tol
    plateau_rel_tol: float = RunConfig.plateau_rel_tol
    allow_unstable: bool = RunConfig.allow_unstable
    eig_h: float = DOUBLING_H
    eig_tol: float = DOUBLING_TOL
    verify_samples: int = 100
    verify_epsilons: tuple[float, ...] = RICHARDSON_EPSILONS
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
    (min, max, count)) pair with name one of b, c, chi, each named at most
    once, and every point marches to ``base.T * horizon_scale``.  A refused
    axis names the config key it stands for, sweep_<name>."""

    base: RunSpec
    axes: tuple[tuple[str, tuple[float, float, int]], ...]
    horizon_scale: float = 1.0

    def __post_init__(self):
        names = [name for name, _ in self.axes]
        for k, name in enumerate(names):
            if name not in ("b", "c", "chi") or name in names[:k]:
                raise ConfigError("each sweep axis is one of b, c or chi, "
                                  "given once", key=f"sweep_{name}")


def fmt(x) -> str:
    """Shortest round-trip representation of a double (repr of float)."""
    if isinstance(x, (bool, np.bool_)):     # True would read back as 1.0
        raise TypeError(f"expected a number, got {x!r}")
    return repr(float(x))


def _cell(x) -> str:
    """The one spelling of an artifact value: a float (numpy's too) as
    ``fmt`` writes it, a bool as true/false, None as undefined, an integer
    in digits and a str as it is; any other value is refused."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))       # fmt's spelling: no float is a bool
    if isinstance(x, (bool, np.bool_)):     # before int: True is an int
        return "true" if x else "false"
    if x is None:
        return "undefined"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    raise TypeError(f"no artifact spelling for {type(x).__name__} {x!r}")


def _csv(header: str, rows) -> str:
    """The header line, then one line of comma-separated cells per row."""
    return "".join([header + "\n",
                    *(",".join(map(_cell, row)) + "\n" for row in rows)])


def _pairs(*pairs) -> str:
    """One ``key = value`` line per (key, value) pair."""
    return "".join(f"{key} = {_cell(value)}\n" for key, value in pairs)


# --------------------------------------------------------------------------
# configs: one schema table drives parsing, the manifest and the CLI help

class _Kind(NamedTuple):
    parse: Callable[[str], object]      # raises ValueError on bad text
    render: Callable[[object], str]     # parse(render(v)) == v
    syntax: str                         # shown by `kswave --help`


def _number(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw.strip()!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return x


def _positive(raw: str) -> float:
    if not _number(raw) > 0.0:
        raise ValueError(f"must be positive, got {raw.strip()!r}")
    return float(raw)


def _count(raw: str) -> int:
    # digits only: "3.0" is refused, so a float count built in code is too
    if not (_number(raw) >= 1 and raw.strip().isdigit()):
        raise ValueError(f"must be a whole count >= 1, got {raw.strip()!r}")
    return int(raw)


def _list(item: _Kind, syntax: str) -> _Kind:
    """Comma-separated values of one kind, any number of them."""
    return _Kind(
        lambda raw: tuple(item.parse(v) for v in raw.split(",") if v.strip()),
        lambda values: ", ".join(item.render(v) for v in values), syntax)


def _tuple(join: str, syntax: str, *items: _Kind) -> _Kind:
    """One value of each kind in ``items``, in order, joined by ``join``."""
    def parse(raw: str):
        parts = raw.split(join.strip())
        if len(parts) != len(items):
            raise ValueError(f"expected {syntax}")
        return tuple(item.parse(part) for item, part in zip(items, parts))
    return _Kind(parse, lambda values: join.join(
        item.render(v) for item, v in zip(items, values)), syntax)


def _choice(options: tuple[str, ...], convert=str, render=str) -> _Kind:
    def parse(raw: str):
        if raw not in options:
            raise ValueError(f"expected one of {'|'.join(options)}")
        return convert(raw)
    return _Kind(parse, render, "|".join(options))


_NUMBER = _Kind(_number, fmt, "number")
_POSITIVE = _Kind(_positive, fmt, "number > 0")
_COUNT = _Kind(_count, str, "integer >= 1")
_PAIRS = _list(_tuple(":", "x:y", _NUMBER, _NUMBER), "x:y, x:y, ...")
_AXIS = _tuple(", ", "min, max, count >= 1", _NUMBER, _NUMBER, _COUNT)
_SCHEMA = {
    "mode": _choice(MODES),
    "bc": _choice(("case1", "case2"), BoundaryCase, lambda bc: bc.value),
    "profile": _PAIRS, "u0": _PAIRS,
    "u0_bump": _tuple(", ", "xl, xr", _NUMBER, _NUMBER),
    "snapshot_times": _list(_NUMBER, "n1, n2, ..."),
    "verify_epsilons": _list(_POSITIVE, "n1, n2, ... each > 0"),
    "allow_unstable": _choice(("true", "false"), lambda raw: raw == "true",
                              lambda v: str(v).lower()),
    "verify_samples": _COUNT,
    "sweep_b": _AXIS, "sweep_c": _AXIS, "sweep_chi": _AXIS,
    **dict.fromkeys(("chi", "mu", "nu", "b", "c", "L", "h", "tau", "T",
                     "conv_window", "conv_tol", "extinct_tol",
                     "plateau_rel_tol"), _NUMBER),
    **dict.fromkeys(("eig_h", "eig_tol", "horizon_scale"), _POSITIVE),
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
    each key's value syntax, bound included, and its default, or
    ``required``."""
    rows = [f"  {'key':<17}{'value':<22}default"]
    for f in fields(RunSpec)[1:]:       # [0] is mode
        kind = _SCHEMA[f.name]
        default = ("required" if f.default is MISSING
                   else "none" if f.default in (None, ())
                   else kind.render(f.default))
        rows.append(f"  {f.name:<17}{kind.syntax:<22}{default}")
    return "\n".join(rows)


def parse_config(text: str, mode: str | None = None,
                 overrides: dict[str, str] | None = None) -> RunSpec:
    """Parse flat key = value text into a RunSpec that ``_build`` accepts.
    ``mode`` overrides any mode key in the text (the CLI subcommand wins),
    and ``overrides`` maps keys to raw values that replace the text's,
    parsed and validated as if they were lines of it."""
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
        lines.pop("mode", None)
    values.setdefault("mode", "simulate")

    missing = [f.name for f in fields(RunSpec)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    spec = RunSpec(**values)
    try:
        _, cfg, _ = _build(spec)
    except ConfigError as exc:
        raise ConfigError(exc.reason, lines.get(exc.key), exc.key) from None
    _warn(spec, cfg)
    return spec


def _warn(spec: RunSpec, cfg: RunConfig):
    """Log what makes a built spec's run suspect, given the config that
    ``_build`` returned: b <= chi*mu, a CASE1 profile that is not monotone,
    and a run (or sweep point) too short to settle."""
    if not cfg.params.well_posed:
        _log.warning("b = %g <= chi*mu = %g, solutions may blow up",
                     spec.b, spec.chi * spec.mu)
    if (classify_profile(cfg.profile) is HabitatClass.CASE1
            and not cfg.profile.is_monotone_case1()):
        _log.warning("profile is CASE1 by its limits but not monotone "
                     "between them")
    # a run (or sweep point) shorter than its window has no profile one
    # window earlier
    if spec.mode in ("simulate", "sweep") and cfg.n_steps < cfg.lag_steps:
        _log.warning("horizon T = %g is shorter than conv_window = %g: "
                     "the run cannot settle, so it reads undetermined "
                     "unless extinct", cfg.T, cfg.conv_window)


def _build(spec: RunSpec):
    """Check and build everything the spec's mode runs, refusing a bad
    value with a ConfigError under its key.  Every set field must first be
    a value its schema kind writes and reads back unchanged, so a spec
    built in code meets each key's syntax and bound as a parsed one does;
    the types then apply their own rules.  Returns (spec, cfg, own): the
    spec as its manifest reads it back (an int given for a number is its
    float, so a bundle follows from its manifest), the run's config (in
    sweep mode that of its points), which holds its params, profile and
    grid, and the mode's own input: the closed initial profile for simulate
    and sweep, the ``check_regime`` report for regime, the habitat (CASE1 or
    CASE2) for verify and None for eig."""
    read_back = {}
    for f in fields(RunSpec):
        value, kind = getattr(spec, f.name), _SCHEMA[f.name]
        if value is None and f.default is None:
            continue
        try:
            text = kind.render(value)
        except Exception:       # say, a str where a BoundaryCase belongs
            text = None
        # a parse error names what the text breaks; a value that renders to
        # no text, or to text that parses to another value, its type
        if text is None or (back := _parse_value(f.name, text, None)) != value:
            raise ConfigError(f"expected {kind.syntax}, got "
                              f"{type(value).__name__} {value!r}", key=f.name)
        read_back[f.name] = back
    spec = replace(spec, **read_back)
    # the run's config holds the params, profile, grid and step grid
    cfg = spec.run_config()
    own = None
    if spec.mode == "sweep":
        if not any((spec.sweep_b, spec.sweep_c, spec.sweep_chi)):
            raise ConfigError("sweep mode needs at least one sweep axis",
                              key="sweep_c")
        # every point is the run above marched to T * horizon_scale with no
        # snapshots, so only its T can be refused anew
        try:
            cfg = replace(spec, T=spec.T * spec.horizon_scale,
                          snapshot_times=()).run_config()
        except ConfigError as exc:
            if exc.key != "T":
                raise
            raise ConfigError("the sweep horizon T * horizon_scale: "
                              + exc.reason, key="horizon_scale") from None
    if spec.mode in ("simulate", "sweep"):
        u0 = spec.initial_condition()(cfg.grid.nodes)
        try:
            own = initial_state(cfg, u0)
        except ValueError as exc:
            raise ConfigError(str(exc), key="u0" if spec.u0 is not None
                              else "u0_bump") from None
    if spec.mode in ("regime", "verify"):
        # refuses b <= chi*mu and a profile with no favorable region
        own = check_regime(cfg.params, cfg.profile)
    if spec.mode == "verify":
        own = classify_profile(cfg.profile)
        if own is HabitatClass.UNCLASSIFIED:
            raise ConfigError("verify mode needs a CASE1 or CASE2 profile",
                              key="profile")
    if spec.mode in ("eig", "regime"):
        _first_L(cfg.profile, spec.eig_h)
    return spec, cfg, own


def render_manifest(spec: RunSpec) -> str:
    # each value is spelled by its key's kind: a field's type, not the
    # value's, decides, so an int given for L writes 20.0
    return ("# manifest: every effective input, parse_config-compatible\n"
            + _pairs(*((f.name, _SCHEMA[f.name].render(value))
                       for f in fields(RunSpec)
                       if (value := getattr(spec, f.name)) is not None
                       and not (f.default == () and value == ())))
            + "# deterministic: no seeds; reruns are bitwise identical\n")


# --------------------------------------------------------------------------
# experiment execution

def run_experiment(spec: RunSpec, out_dir: str | Path, workers: int = 1):
    """Execute the spec's mode, writing the artifact bundle into out_dir.
    Returns the mode's principal result object (in sweep mode, the rows).
    Before any work, the one ``_build`` call refuses a spec its mode cannot
    run, and an out_dir that is, or lies under, an existing non-directory
    raises NotADirectoryError; ``workers`` (sweep mode's only) must be a
    count in every mode.  Every mode finishes its work before it writes
    anything, so a run that fails or is interrupted leaves no bundle."""
    _check_workers(workers)
    spec, cfg, own = _build(spec)
    out = Path(out_dir)
    # the nearest existing path decides: mkdir makes the missing ones
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(
                    f"{path} exists and is not a directory")
            break
    # the wall-clock start time lives in its own file so every other
    # artifact is byte-identical across reruns
    started = datetime.datetime.now().isoformat() + "\n"
    result, files = (_run_sweep(spec, cfg, own, workers)
                     if spec.mode == "sweep"
                     else _RUNNERS[spec.mode](spec, cfg, own))
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {"manifest.cfg": render_manifest(spec),
                       "timestamp.txt": started, **files}.items():
        (out / name).write_text(text)
    return result


def _run_simulate(spec: RunSpec, cfg: RunConfig, u0):
    traj, outcome = run(cfg, u0)
    nodes = cfg.grid.nodes
    peak, peak_x = outcome.peak or (None, None)
    return outcome, {
        "snapshots.csv": _csv("t,x,u,v", (
            (t, x, ui, vi) for t, u, v in traj.snapshots
            for x, ui, vi in zip(nodes, u, v))),
        "convergence.csv": _csv("t,sup_diff,sup_u,u_at_L", zip(
            traj.times, traj.sup_diff, traj.sup_u, traj.u_at_right)),
        # plateau and peak lines only for the outcome that has them
        "outcome.txt": _pairs(*((key, value) for key, value in (
            ("outcome", outcome.tag.value),
            ("final_sup_diff", outcome.final_sup_diff),
            ("plateau", outcome.plateau), ("peak", peak),
            ("peak_x", peak_x)) if value is not None))}


def _run_eig(spec: RunSpec, cfg: RunConfig, _):
    res = lambda_infinity(cfg.profile, spec.c, tol=spec.eig_tol, h=spec.eig_h)
    return res, {"eigenvalues.csv": _csv("L,h,lambda", res.table),
                 "lambda_infinity.txt": _pairs(
                     ("lambda_inf_estimate", res.estimate),
                     ("lower_bound", res.estimate),
                     ("upper_bound", res.upper_bound),
                     ("converged", res.converged), ("positive", res.positive))}


def _run_regime(spec: RunSpec, cfg: RunConfig, report):
    res = lambda_infinity(cfg.profile, spec.c, tol=spec.eig_tol, h=spec.eig_h)
    return report, {"regime.txt": _pairs(
        ("h1_holds", report.h1_holds), ("h1_threshold", report.h1_threshold),
        ("h2_damping_holds", report.h2_damping_holds),
        ("c_star", report.c_star), ("lambda_inf", res.estimate))}


def _run_verify(spec: RunSpec, cfg: RunConfig, habitat):
    params, profile, grid = cfg.params, cfg.profile, cfg.grid
    build = (build_upper_envelope_case1 if habitat is HabitatClass.CASE1
             else build_upper_envelope_case2)
    envelope = build(params, profile, grid)
    report = certify_supersolution(envelope, params, profile,
                                   n_samples=spec.verify_samples)
    if not report.hypothesis_satisfied:
        _log.warning("damping hypothesis b >= 1.5 chi mu violated: b = %g, "
                     "chi*mu = %g", params.b, params.chi * params.mu)
    waves = []
    if params.strongly_damped:
        waves = [ignition_wave(params, profile.r_star, eps)
                 for eps in spec.verify_epsilons]
    else:
        _log.warning("b <= 2 chi mu, ignition wave construction skipped")

    if habitat is HabitatClass.CASE2:
        build_lower_envelope_case2(params, profile, grid, upper=envelope)
    return (report, waves), {
        "certification.csv": _csv(
            "branch,region_nodes,worst_residual,worst_x,worst_sample,pass",
            ((b.branch, b.n_nodes, b.worst_residual, b.worst_x,
              b.worst_sample, "pass" if b.worst_residual <= report.tol
              else "fail") for b in report.branches)),
        "ignition.csv": _csv("epsilon,speed,bound", (
            (w.epsilon, w.speed, w.speed_bound) for w in waves))}


# runner(spec, cfg, own), the last two from _build, returns the mode's
# result and its artifacts; sweep mode's is _run_sweep below
_RUNNERS = {"simulate": _run_simulate, "eig": _run_eig,
            "regime": _run_regime, "verify": _run_verify}


# --------------------------------------------------------------------------
# sweeps

def _points(spec: RunSpec):
    """The sorted (b, c, chi) points of a sweep-mode spec: np.linspace over
    each axis it sets, its own value where it sets none."""
    return sorted(product(*(
        [value] if axis is None else np.linspace(*axis)
        for axis, value in ((spec.sweep_b, spec.b), (spec.sweep_c, spec.c),
                            (spec.sweep_chi, spec.chi)))))


def _sweep_block(args):
    """The rows of a contiguous run of sweep points, given the config and
    initial profile they share.  Points whose params are refused (a b <= 0
    too) read ``error``, points not well_posed are skipped, and the rest
    march as one block; each ``error`` row is logged with why."""
    cfg, u0, points = args
    mu, nu = cfg.params.mu, cfg.params.nu
    rows, runs, marched = [], [], []
    for b, c, chi in points:
        row = {"b": b, "c": c, "chi": chi, "outcome": "error",
               "plateau": math.nan, "final_sup_u": math.nan}
        rows.append(row)
        try:
            params = SimParams(chi=chi, mu=mu, nu=nu, b=b, c=c)
        except ValueError as exc:
            _log_error(row, exc)
            continue
        if not params.well_posed:
            row["outcome"] = "skipped"
            continue
        runs.append(params)
        marched.append(row)
    try:
        results = run_block(cfg, runs, u0)
    except (ValueError, RuntimeError) as exc:
        for row in marched:
            _log_error(row, exc)
        return rows
    for row, result in zip(marched, results):
        if isinstance(result, BlowUpError):
            _log_error(row, result)
            continue
        u_final, _, outcome = result
        row["outcome"] = outcome.tag.value
        if outcome.plateau is not None:
            row["plateau"] = outcome.plateau
        row["final_sup_u"] = float(u_final.max())
    return rows


def _check_workers(workers):
    if not is_count(workers):
        raise ValueError(f"workers must be >= 1 and an integer, got "
                         f"{workers!r}")


def _log_error(row, why):
    _log.warning("sweep point b = %s, c = %s, chi = %s reads error: %s",
                 fmt(row["b"]), fmt(row["c"]), fmt(row["chi"]), why)


def _run_sweep(spec: RunSpec, cfg: RunConfig, u0, workers: int):
    """The rows of a sweep-mode spec's points and its artifact, the
    regime_map.csv text, given the config and initial profile that
    ``_build`` made for its points.  The sorted points are cut into
    ``min(workers, points)`` contiguous blocks, each marched as one array;
    with more than one block, each runs in its own worker process."""
    points = _points(spec)
    n = len(points)
    n_proc = min(workers, n)
    jobs = [(cfg, u0, points[k * n // n_proc:(k + 1) * n // n_proc])
            for k in range(n_proc)]
    if n_proc > 1:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_proc) as pool:
            blocks = list(pool.map(_sweep_block, jobs))
    else:
        blocks = map(_sweep_block, jobs)
    rows = [row for block in blocks for row in block]
    # a row's keys are the columns, in order
    return rows, {"regime_map.csv": _csv(
        "b,c,chi,outcome,plateau,final_sup_u", (r.values() for r in rows))}


def sweep(sw: SweepSpec, out_path: str | Path, workers: int = 1):
    """Run ``sw`` as the sweep-mode spec it describes (its axes as sweep_b,
    sweep_c and sweep_chi, its horizon_scale) through the one build and
    runner that ``run_experiment`` uses, and return the rows.  The run
    warnings are logged after the build, as ``parse_config`` logs them.
    The CSV is written to out_path once every point has run: a spec the
    sweep cannot run raises its ConfigError, and a sweep that fails or is
    interrupted writes nothing."""
    _check_workers(workers)
    axes = dict(sw.axes)
    spec = replace(sw.base, mode="sweep", horizon_scale=sw.horizon_scale,
                   sweep_b=axes.get("b"), sweep_c=axes.get("c"),
                   sweep_chi=axes.get("chi"))
    spec, cfg, u0 = _build(spec)
    _warn(spec, cfg)
    rows, files = _run_sweep(spec, cfg, u0, workers)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(files["regime_map.csv"])
    return rows
