"""kswave benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

One workload runs in this process, a closed loop of one client running its
operations back to back.  The two workloads of ``BENCHMARK.json`` each run
two parts (``workloads.GROUPS``); a part can also be run on its own.
``setup_s`` is the median over fresh processes (``probe_setup.py``) because
users pay it on every invocation.  Then one untimed warm-up pass over the
operations, then the timed window: the operations run in turn, cycling,
until the next one would end after ``--seconds`` (every operation runs at
least once).  ``cpu_s``, the processor time of one pass, is the sum over
operations of each one's median processor time; the wall-clock time of a
pass, summed the same way, is printed as ``wall_s`` beside it.  Times are
processor time because on a shared host the wall clock also counts the
time the host gives this processor to other tenants.  Every run of an
operation is checked against ``references.json``.  With ``--trace 1`` the
window is one untraced pass followed by one traced pass, and the per-layer
metrics of the traced pass are printed with the tracing overhead (traced
minus untraced processor time).  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# BLAS and OpenMP pools pinned to one thread before numpy loads, here and in
# every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    if caches:
        top = max(caches, key=lambda p: int((p / "level").read_text()))
        llc = (f"L{(top / 'level').read_text().strip()} "
               f"{(top / 'size').read_text().strip()}")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "last_level_cache": llc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time in SETUP_PROBES fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed for {workload}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = [] if trace else setup_seconds(name, seed)

    import workloads
    parts = workloads.parts_of(name)
    variant = workloads.variant_of(seed)
    refs = workloads.load_references()
    expected = {}
    for wl in parts:
        expected.update(workloads.expected_items(refs, wl.name, variant))
    workdir = HERE / f"_work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0

    def timed_op(op):
        nonlocal attempted, failed
        items, took = workloads.run_op(op)
        a, f = workloads.check(items, expected.get(op.name, {}))
        attempted += a
        failed += f
        return took

    try:
        inputs = [wl.setup(variant) for wl in parts]
        part_ops = {wl.name: wl.ops(inp, workdir)
                    for wl, inp in zip(parts, inputs)}
        ops = [op for part in part_ops.values() for op in part]
        for op in ops:                                     # warm-up pass
            timed_op(op)
        samples = {op.name: [] for op in ops}
        if trace:
            for op in ops:
                samples[op.name].append(timed_op(op))
        else:
            # cycle through the ops until the next one would end past
            # --seconds, once every op has run
            start = perf_counter()
            for op in itertools.cycle(ops):
                done = samples[op.name]
                if (all(samples.values())
                        and perf_counter() - start + done[-1].wall > seconds):
                    break
                done.append(timed_op(op))
        medians = {k: workloads.Took(statistics.median(t.wall for t in v),
                                     statistics.median(t.cpu for t in v))
                   for k, v in samples.items()}
        wall = sum(m.wall for m in medians.values())
        cpu = sum(m.cpu for m in medians.values())
        steps = sum(wl.steps(inp) for wl, inp in zip(parts, inputs)
                    if wl.steps is not None)
        result = {"env": environment(), "workload": name, "seed": seed,
                  "variant": variant, "setup_probes_s": setup,
                  "op_seconds": samples, "op_median_s": medians,
                  "wall_s": wall,
                  "part_cpu_s": {part: sum(medians[op.name].cpu
                                           for op in pops)
                                 for part, pops in part_ops.items()}}
        if trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                for wl in parts:
                    wl.setup(variant)
                traced_cpu = 0.0
                for tracer.run_id, op in enumerate(ops, start=1):
                    traced_cpu += timed_op(op).cpu
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = traced_cpu - cpu
            units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
            spans = HERE / "_traces" / f"{name}-seed{seed}.csv"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "cpu_s": cpu,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
            if steps:
                result["steps_per_s"] = steps / cpu
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted,
                  metrics={k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()})
    return result


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload_names() -> list[str]:
    return [w["name"] for w in _spec()["workloads"]]


def _print_result(res: dict):
    print(f"env: {json.dumps(res['env'])}")
    print(f"workload {res['workload']} seed {res['seed']} "
          f"(input variant {res['variant']})")
    for op, runs in res["op_seconds"].items():
        med = res["op_median_s"][op]
        print(f"  op {op:37s} {med.cpu:.4g} s cpu, {med.wall:.4g} s wall, "
              f"median of {len(runs)}")
    for part, cpu in res["part_cpu_s"].items():
        print(f"  {part + ' cpu_s':40s} {cpu:.6g} s")
    print(f"  {'wall_s':40s} {res['wall_s']:.6g} s")
    for key, m in res["metrics"].items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    if "steps_per_s" in res:
        print(f"  {'steps_per_s':40s} {res['steps_per_s']:.6g} 1/s")
    print(f"  {'failed_frac':40s} {res['failed_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    if "trace.overhead_s" in res["metrics"]:
        print("  no layer waits on another: one thread, one process")
    if "spans_file" in res:
        print(f"  spans written to {res['spans_file']}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload of BENCHMARK.json in its own fresh process; prints
    their reports, then one JSON line with all their results."""
    rows = {}
    for name in _workload_names():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "workloads": rows}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(_workload_names())}, all, or "
                         "one of the parts a workload runs")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 reproduces the shipped configs")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _pin_threads()
    if not (ROOT / "src" / "kswave" / "__init__.py").is_file():
        print(f"kswave sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    _print_result(res)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
