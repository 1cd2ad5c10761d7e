"""Spans around the public ``kswave`` functions, and the per-layer metrics
derived from them.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds every name
in the loaded ``kswave`` modules that refers to it, so a call is caught
wherever its caller looks it up (``kswave.harness.run``,
``kswave.envelopes.greens_psi``, ``ChemicalSolver.solve`` on the class, ...).
Private helpers such as ``_advance``, ``_count_below`` and ``_shoot`` stay
unwrapped.  Everything runs in one thread of one process, so no layer waits
on another and no wait times are reported.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter

import kswave  # noqa: F401  (loads every module that TRACED names)


def _steps(args, result):
    cfg = args[0]
    return {"steps": round(cfg.T / cfg.tau)}


def _rows(args, result):
    return {"rows": round(2.0 * result.L / result.h) - 1}


def _tree_bytes(path: Path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _sweep_counts(args, result):
    return {"points": len(result),
            "errors": sum(row["outcome"] == "error" for row in result),
            "bytes": _tree_bytes(args[1])}


# (module, attribute, span name, counts(args, result) -> {counter: value})
TRACED = (
    ("kswave.chemical", "ChemicalSolver.solve", "chemical.solve", None),
    ("kswave.chemical", "greens_psi", "chemical.greens_psi", None),
    ("kswave.chemical", "greens_psi_x", "chemical.greens_psi_x", None),
    ("kswave.stepper", "run", "stepper.run", _steps),
    ("kswave.spectral", "principal_eigenvalue",
     "spectral.principal_eigenvalue", _rows),
    ("kswave.spectral", "lambda_infinity", "spectral.lambda_infinity",
     lambda a, r: {"doublings": len(r.table) - 1}),
    ("kswave.envelopes", "certify_supersolution", "envelopes.certify",
     lambda a, r: {"samples": r.n_samples}),
    ("kswave.envelopes", "build_lower_envelope_case2",
     "envelopes.lower_case2", None),
    ("kswave.ignition", "ignition_wave", "ignition.wave", None),
    ("kswave.fixedpoint", "frozen_flow_fixed_point", "fixedpoint.fixed_point",
     lambda a, r: {"outer_iters": r.n_outer}),
    ("kswave.harness", "parse_config", "harness.parse_config", None),
    ("kswave.harness", "run_experiment", "harness.run_experiment",
     lambda a, r: {"bytes": _tree_bytes(a[1])}),
    ("kswave.harness", "sweep", "harness.sweep", _sweep_counts),
)
# Spans whose peak traced allocation is recorded (tracemalloc is started
# around the call only, so nothing else pays for it).
MEMORY_SPANS = {"chemical.greens_psi", "chemical.greens_psi_x"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at the top
    run_id: int            # operation that caused it (1-based; 0 is set-up)
    error: str | None = None
    counts: dict | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack
        memory = name in MEMORY_SPANS

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.run_id)
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if memory:
                    span.counts = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if counts is not None:
                span.counts = counts(args, result)
            return result
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "kswave" or n.startswith("kswave.")]
        for module_name, attr, name, counts in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, counts)
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        self._undo.append((target, key, orig))
                        setattr(target, key, traced)

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run_id,error\n")
            for s in self.spans:
                fh.write(f"{s.name},{s.start!r},{s.end!r},{s.parent},"
                         f"{s.run_id},{s.error or ''}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of every recorded span.  A layer that did no
        work on the workload reads 0.  Self time is a span's duration minus
        that of its direct children (one thread, so children never
        overlap)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        errors = defaultdict(lambda: defaultdict(int))
        counts = defaultdict(lambda: defaultdict(int))
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            calls[s.name] += 1
            busy[s.name] += dur
            self_s[s.name] += dur - child[i]
            if s.error:
                errors[s.name][s.error] += 1
            for key, value in (s.counts or {}).items():
                if key == "peak_bytes":
                    counts[s.name][key] = max(counts[s.name][key], value)
                else:
                    counts[s.name][key] += value

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        solve, gp, gpx = "chemical.solve", "chemical.greens_psi", "chemical.greens_psi_x"
        run, eig = "stepper.run", "spectral.principal_eigenvalue"
        cert, fp = "envelopes.certify", "fixedpoint.fixed_point"
        steps = counts[run]["steps"]
        rows = counts[eig]["rows"]
        samples = counts[cert]["samples"]
        outer = counts[fp]["outer_iters"]
        points = counts["harness.sweep"]["points"]
        return {
            "chemical.solve.calls": calls[solve],
            "chemical.solve.us_per_call": per(busy[solve], calls[solve], 1e6),
            "chemical.solve.busy_s": busy[solve],
            "chemical.greens_psi.calls": calls[gp],
            "chemical.greens_psi.ms_per_call": per(busy[gp], calls[gp], 1e3),
            "chemical.greens_psi_x.calls": calls[gpx],
            "chemical.greens_psi_x.ms_per_call": per(busy[gpx], calls[gpx], 1e3),
            "chemical.greens.peak_bytes": max(counts[gp]["peak_bytes"],
                                              counts[gpx]["peak_bytes"]),
            "stepper.run.calls": calls[run],
            "stepper.steps": steps,
            "stepper.run.self_s": self_s[run],
            "stepper.us_per_step": per(busy[run], steps, 1e6),
            "spectral.principal_eigenvalue.calls": calls[eig],
            "spectral.matrix_rows": rows,
            "spectral.us_per_row": per(busy[eig], rows, 1e6),
            "spectral.lambda_infinity.doublings":
                counts["spectral.lambda_infinity"]["doublings"],
            "envelopes.certify.samples": samples,
            "envelopes.certify.self_s": self_s[cert],
            "envelopes.certify.ms_per_sample": per(busy[cert], samples, 1e3),
            "envelopes.lower_case2.busy_s": busy["envelopes.lower_case2"],
            "ignition.wave.calls": calls["ignition.wave"],
            "ignition.wave.s_per_call": per(busy["ignition.wave"],
                                            calls["ignition.wave"]),
            "ignition.bracket_errors": errors["ignition.wave"]["BracketError"],
            "fixedpoint.outer_iters": outer,
            "fixedpoint.self_s": self_s[fp],
            "fixedpoint.s_per_outer": per(self_s[fp], outer),
            "harness.parse_config.ms": per(busy["harness.parse_config"],
                                           calls["harness.parse_config"], 1e3),
            "harness.run_experiment.self_s": self_s["harness.run_experiment"],
            "harness.bytes_written": (counts["harness.run_experiment"]["bytes"]
                                      + counts["harness.sweep"]["bytes"]),
            "harness.sweep.points": points,
            "harness.sweep.s_per_point": per(busy["harness.sweep"], points),
            "harness.sweep.errors": counts["harness.sweep"]["errors"],
        }
