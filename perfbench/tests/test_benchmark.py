"""The benchmark's output check is live (one altered reference digest and one
altered reference value each make failed_frac positive), and its tracer
catches calls made inside the package.

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import _pin_threads  # noqa: E402

_pin_threads()
import workloads  # noqa: E402


def _failed_frac(results, expected):
    attempted, failed = workloads.check_pass(results, expected)
    return failed / attempted


def test_altered_references_make_failed_frac_positive(tmp_path):
    refs = workloads.load_references()
    outputs = {}
    for name in ("simulate-paper", "eig-case1"):
        wl = workloads.WORKLOADS[name]
        results = workloads.run_pass(wl.ops(wl.setup(0), tmp_path))
        expected = workloads.expected_items(refs, name, 0)
        assert _failed_frac(results, expected) == 0.0
        outputs[name] = results, expected

    results, expected = outputs["simulate-paper"]
    digest = copy.deepcopy(expected)
    item = digest["case1_exp1"]["case1_exp1"]
    old = item["snapshots.csv"]
    item["snapshots.csv"] = old[:-1] + ("1" if old[-1] == "0" else "0")
    assert _failed_frac(results, digest) == 1 / 5

    results, expected = outputs["eig-case1"]
    value = copy.deepcopy(expected)
    value["eig"]["row5"]["lambda"] += 10 * workloads.EIG_TOL
    assert _failed_frac(results, value) == 1 / len(expected["eig"])


def test_tracer_catches_calls_made_inside_the_package(tmp_path):
    from dataclasses import replace

    from kswave import chemical, harness, stepper
    from spans import Tracer

    spec = harness.parse_config(
        (workloads.EXPERIMENTS / "case1_exp1.cfg").read_text())
    spec = replace(spec, T=0.1, snapshot_times=())          # 50 steps
    originals = (harness.run, stepper.run, chemical.ChemicalSolver.solve)
    tracer = Tracer()
    tracer.install()
    try:
        harness.run_experiment(spec, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert (harness.run, stepper.run,
            chemical.ChemicalSolver.solve) == originals

    metrics = tracer.layer_metrics()
    assert metrics["stepper.run.calls"] == 1
    assert metrics["stepper.steps"] == 50
    assert metrics["chemical.solve.calls"] == 51
    assert metrics["harness.bytes_written"] > 0
    names = [s.name for s in tracer.spans]
    run = names.index("stepper.run")
    assert tracer.spans[run].parent == names.index("harness.run_experiment")
    assert all(s.parent == run for s in tracer.spans
               if s.name == "chemical.solve")
    assert 0.0 <= metrics["stepper.run.self_s"]
