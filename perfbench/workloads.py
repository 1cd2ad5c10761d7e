"""The four benchmark workloads, their inputs and their output checks.

Each workload has a ``setup(variant)`` that parses and validates its configs
and builds the run configs (what a user pays on every invocation), and an
``ops(inputs, workdir)`` that lists its operations.  An op runs public
``kswave`` calls and returns *items*: small JSON-able observations of its
output.  ``check`` compares them with the references recorded for that op;
every reference item is one operation attempted (a simulate run, a sweep
point, a verify step, an eig call), and a missing or mismatched item is one
failed.

The package is called through its module attributes (``harness.run``,
``envelopes.certify_supersolution``, ...) at call time, so the wrappers that
``spans.py`` installs see the benchmark's own calls as well as the calls made
inside the package.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kswave import (envelopes, fixedpoint, harness, ignition,  # noqa: E402
                    spectral, stepper)

EXPERIMENTS = ROOT / "experiments"
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Seeds map onto this many input variants.  Variant 0 is the shipped input;
# the others jitter the sweep-c c-grid and the certification sample stream.
# References are recorded for every variant, so any seed is checked.
N_VARIANTS = 16

SIMULATE_CONFIGS = ("case1_exp1", "case1_exp2", "case2_exp1", "case2_exp2",
                    "case2_exp3")
SWEEP_HORIZON_SCALE = 0.03   # 2100 steps a point: ~3 timings per run
CERTIFY_SEED = 20230917   # certify_supersolution's default sample stream

# Tolerances of the value checks, by item field.  Bisection results carry the
# tolerance their routine guarantees, certification residuals the sign
# tolerance of certify_supersolution; explicit marching is bitwise
# deterministic and gets a round-off allowance.  Fields not listed must match
# exactly.
EIG_TOL = 1e-10           # principal_eigenvalue's bisection tolerance
SPEED_TOL = 1e-8          # ignition_wave's speed_tol
CERTIFY_TOL = 1e-8        # certify_supersolution's tol
MARCH_TOL = 1e-9
TOLERANCES = {
    "lambda": EIG_TOL, "estimate": EIG_TOL, "lower_bound": EIG_TOL,
    "speed": SPEED_TOL,
    "worst_residual": CERTIFY_TOL,
    "values": MARCH_TOL, "u_star": MARCH_TOL, "residual": MARCH_TOL,
    "drift": MARCH_TOL,
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _read_config(name: str, mode: str | None = None):
    return harness.parse_config((EXPERIMENTS / f"{name}.cfg").read_text(),
                                mode=mode)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Op:
    """``run`` is the timed work; ``observe`` turns its result into items
    outside the timed region (reading and hashing artifacts, cleaning up)."""

    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool           # False: the paper's fixed inputs, seed ignored
    setup: Callable[[int], object]
    ops: Callable[[object, Path], list]
    steps: Callable[[object], int] | None = None


# --------------------------------------------------------------------------
# simulate-paper: the shipped simulate configs through run_experiment

def _simulate_setup(variant):
    specs = [(name, _read_config(name)) for name in SIMULATE_CONFIGS]
    for _, spec in specs:
        spec.run_config()
    return specs


def _bundle_digests(out_dir: Path) -> dict:
    """SHA-256 of every artifact except the wall-clock stamp."""
    return {p.name: _sha256(p.read_bytes())
            for p in sorted(out_dir.iterdir()) if p.name != "timestamp.txt"}


def _simulate_ops(specs, workdir):
    def op(name, spec):
        out = workdir / name

        def observe(_):
            digests = _bundle_digests(out)
            shutil.rmtree(out)
            return {name: digests}
        return Op(name, lambda: harness.run_experiment(spec, out), observe)
    return [op(name, spec) for name, spec in specs]


def _simulate_steps(specs):
    return sum(round(spec.T / spec.tau) for _, spec in specs)


# --------------------------------------------------------------------------
# sweep-c: harness.sweep over the shipped c-grid, horizon shortened

def sweep_c_axis(variant):
    """The c-axis (min, max, count): the shipped one for variant 0, both ends
    moved by up to 0.05 otherwise (the grid still straddles -2 sqrt(r*))."""
    if variant == 0:
        return None
    lo, hi = np.random.default_rng(variant).uniform(-0.05, 0.05, size=2)
    return -7.0 + float(lo), -6.0 + float(hi), 11


def _sweep_setup(variant):
    lines = (EXPERIMENTS / "sweep_case1_c.cfg").read_text().splitlines()
    axis = sweep_c_axis(variant)
    if axis is not None:
        lines = [ln for ln in lines if not ln.startswith("sweep_c")]
        lines.append(f"sweep_c = {harness.fmt(axis[0])}, "
                     f"{harness.fmt(axis[1])}, {axis[2]}")
    lines.append(f"horizon_scale = {SWEEP_HORIZON_SCALE!r}")
    spec = harness.parse_config("\n".join(lines) + "\n")
    spec.run_config()
    return spec


def _sweep_ops(spec, workdir):
    out = workdir / "regime_map.csv"
    sw = harness.SweepSpec(base=spec, axes=(("c", spec.sweep_c),),
                           horizon_scale=spec.horizon_scale)

    def observe(_):
        header, *rows = out.read_bytes().splitlines(keepends=True)
        out.unlink()
        # one item per point; the header is folded into each digest
        return {f"point{i:02d}": _sha256(header + row)
                for i, row in enumerate(rows)}
    return [Op("sweep", lambda: harness.sweep(sw, out), observe)]


def _sweep_steps(spec):
    return spec.sweep_c[2] * round(spec.T * spec.horizon_scale / spec.tau)


# --------------------------------------------------------------------------
# verify: the scripts/run_verification.py pipeline.  The verify-mode calls
# of run_experiment are made here through the same public functions, so the
# certification sample stream can be seeded; variant 0 uses the default
# stream and so reproduces the verify-mode numbers.

@dataclass(frozen=True)
class VerifyInputs:
    case1: object          # RunSpec in verify mode
    case2: object
    built1: tuple          # (params, profile, grid)
    built2: tuple
    cert_seed: int
    drift_cfg: object      # RunConfig of the coupled drift check


def _verify_setup(variant):
    case1 = _read_config("case1_exp1", mode="verify")
    case2 = _read_config("case2_exp1", mode="verify")
    built1 = (case1.params(), case1.growth_profile(), case1.grid())
    built2 = (case2.params(), case2.growth_profile(), case2.grid())
    drift_cfg = stepper.make_run_config(
        *built1, case1.bc, case1.tau, 5.0,
        snapshot_times=(1., 2., 3., 4., 5.))
    return VerifyInputs(case1=case1, case2=case2, built1=built1,
                        built2=built2, cert_seed=CERTIFY_SEED + variant,
                        drift_cfg=drift_cfg)


def _certify_items(prefix, report):
    return {f"{prefix}.{b.branch}": {
        "pass": bool(b.worst_residual <= report.tol), "n_nodes": b.n_nodes,
        "worst_residual": float(b.worst_residual)}
        for b in report.branches}


def _verify_ops(inp: VerifyInputs, workdir):
    s1, s2 = inp.case1, inp.case2
    p1, prof1, g1 = inp.built1
    p2, prof2, g2 = inp.built2
    state = {}

    def certify(prefix, build, spec, params, profile, grid):
        def run():
            env = build(params, profile, grid)
            state[prefix] = env
            return envelopes.certify_supersolution(
                env, params, profile, n_samples=spec.verify_samples,
                seed=inp.cert_seed)
        return Op(prefix, run, lambda report: _certify_items(prefix, report))

    def wave(eps):
        name = f"case1.ignition.{eps!r}"
        return Op(name, lambda: ignition.ignition_wave(p1, prof1.r_star, eps),
                  lambda w: {name: {"speed": float(w.speed)}})

    def lower_case2():
        return envelopes.build_lower_envelope_case2(
            p2, prof2, g2, upper=state["case2.certify"])

    def lambda_items(res):
        return {"case2.lambda_infinity": {
            "L": [row[0] for row in res.table],
            "lambda": [row[2] for row in res.table],
            "converged": res.converged, "positive": res.positive}}

    def fixed_point():
        fp = fixedpoint.frozen_flow_fixed_point(p1, prof1, g1)
        state["u_star"] = fp.u_star
        return fp, fixedpoint.stationary_residual(fp.u_star, p1, prof1, g1)

    def fixed_point_items(result):
        fp, resid = result
        return {"case1.fixed_point": {
            "n_outer": fp.n_outer, "converged": fp.converged,
            "u_star": fp.u_star.tolist(), "residual": resid}}

    def drift():
        traj, _ = stepper.run(inp.drift_cfg, state["u_star"])
        return max(float(np.max(np.abs(u - state["u_star"])))
                   for _, u, _ in traj.snapshots)

    ops = [certify("case1.certify", envelopes.build_upper_envelope_case1,
                   s1, p1, prof1, g1)]
    # ignition waves exist only for b > 2 chi mu, as in verify mode
    if p1.b > 2.0 * p1.chi * p1.mu:
        ops += [wave(eps) for eps in s1.verify_epsilons]
    ops += [certify("case2.certify", envelopes.build_upper_envelope_case2,
                    s2, p2, prof2, g2),
            Op("case2.lower_envelope", lower_case2,
               lambda env: {"case2.lower_envelope":
                            {"values": env.values.tolist()}}),
            Op("case2.lambda_infinity",
               lambda: spectral.lambda_infinity(prof2, s2.c), lambda_items),
            Op("case1.fixed_point", fixed_point, fixed_point_items),
            Op("case1.drift", drift,
               lambda d: {"case1.drift": {"drift": d}})]
    return ops


# --------------------------------------------------------------------------
# eig-case1: eig mode on case1_exp1 (the lambda_inf doubling certificate)

def _eig_setup(variant):
    spec = _read_config("case1_exp1", mode="eig")
    spec.growth_profile()
    return spec


def _eig_ops(spec, workdir):
    out = workdir / "eig"

    def observe(_):
        rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
        cert = dict(line.split(" = ") for line in
                    (out / "lambda_infinity.txt").read_text().splitlines())
        shutil.rmtree(out)
        # one item per principal_eigenvalue call, plus the certificate
        items = {}
        for i, row in enumerate(rows):
            L, h, lam = map(float, row.split(","))
            items[f"row{i}"] = {"L": L, "h": h, "lambda": lam}
        items["certificate"] = {
            "estimate": float(cert["lambda_inf_estimate"]),
            "lower_bound": float(cert["lower_bound"]),
            "upper_bound": float(cert["upper_bound"]),
            "converged": cert["converged"], "positive": cert["positive"]}
        return items
    return [Op("eig", lambda: harness.run_experiment(spec, out), observe)]


# Why each workload is there: METRICS.md.
WORKLOADS = {w.name: w for w in (
    Workload("simulate-paper", False, _simulate_setup, _simulate_ops,
             _simulate_steps),
    Workload("sweep-c", True, _sweep_setup, _sweep_ops, _sweep_steps),
    Workload("verify", True, _verify_setup, _verify_ops),
    Workload("eig-case1", False, _eig_setup, _eig_ops),
)}

# The workloads BENCHMARK.json names run two of the above each, in one
# process: a run of the four apart is too short to average out the drift of
# a shared host within the benchmark's time budget.  Each of the four can
# still be run on its own.
GROUPS = {"simulate-sweep": ("simulate-paper", "sweep-c"),
          "verify-eig": ("verify", "eig-case1")}


def parts_of(name: str) -> list[Workload]:
    """The workloads a name runs: a group's two, or the one named."""
    return [WORKLOADS[n] for n in GROUPS.get(name, (name,))]


# --------------------------------------------------------------------------
# passes and checks

class Took(NamedTuple):
    """Seconds one op took: on the wall clock, and of processor time of this
    process (all its threads), which leaves out the time the operating
    system or the host gave the processor to someone else."""

    wall: float
    cpu: float


def run_op(op: Op, log=sys.stderr):
    """Run one op.  Returns (items, Took); items is None when the op
    raised, which is reported on ``log``."""
    t0, c0 = perf_counter(), process_time()

    def took():
        return Took(perf_counter() - t0, process_time() - c0)
    try:
        result = op.run()
        seconds = took()
        return op.observe(result), seconds
    except Exception:  # a failing op is a result, not a benchmark crash
        print(f"operation {op.name} raised:", file=log)
        traceback.print_exc(file=log)
        return None, took()


def run_pass(ops) -> dict:
    """Every op once: {op name: (items, seconds)}."""
    return {op.name: run_op(op) for op in ops}


def _matches(obs, ref) -> bool:
    if not isinstance(obs, dict) or not isinstance(ref, dict):
        return obs == ref
    if obs.keys() != ref.keys():
        return False
    for key, want in ref.items():
        got, tol = obs[key], TOLERANCES.get(key)
        if tol is None:
            if got != want:
                return False
        else:
            got, want = np.asarray(got, float), np.asarray(want, float)
            if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
                return False
    return True


def expected_items(references: dict, workload: str, variant: int) -> dict:
    """{op name: {item: reference}} for one input variant."""
    ref = references[workload]
    expected = dict(ref["fixed"])
    if WORKLOADS[workload].seeded:
        expected.update(ref["variants"][str(variant)])
    return expected


def check(items: dict | None, expected: dict) -> tuple[int, int]:
    """(attempted, failed) for one run of an op: one operation per expected
    item, all failed when the op raised (items is None), plus one failed
    operation per item the program produced that has no reference."""
    if items is None:
        return len(expected), len(expected)
    failed = sum(not _matches(items.get(k), v) for k, v in expected.items())
    extra = len(items.keys() - expected.keys())
    return len(expected) + extra, failed + extra


def check_pass(results: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) summed over a ``run_pass`` result."""
    counts = [check(items, expected.get(name, {}))
              for name, (items, _) in results.items()]
    return sum(a for a, _ in counts), sum(f for _, f in counts)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())
