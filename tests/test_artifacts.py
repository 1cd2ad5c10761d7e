"""Golden artifacts: the shipped T = 10 simulate bundles and the verify
bundles under out/ are regenerated from their configs and must match byte
for byte (every file but the wall-clock timestamp.txt), by the comparison
scripts/check_artifacts.py makes.  A bundle named ``<config>_verify`` is
the verify mode of ``experiments/<config>.cfg``.  The c-sweep's
regime_map.csv must match the SHA-256 that the script records."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from kswave.harness import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent

# the comparison rule and the digest have one copy, in the script that
# checks every artifact
_script = importlib.util.spec_from_file_location(
    "check_artifacts", ROOT / "scripts" / "check_artifacts.py")
check_artifacts = importlib.util.module_from_spec(_script)
_script.loader.exec_module(check_artifacts)


@pytest.mark.parametrize("name", ("case1_exp1", "case2_exp1", "case2_exp2",
                                  "case1_exp1_verify", "case2_exp1_verify"))
def test_simulate_bundle_is_byte_identical(name, tmp_path):
    stem = name.removesuffix("_verify")
    mode = "simulate" if stem == name else "verify"
    spec = parse_config((ROOT / "experiments" / f"{stem}.cfg").read_text(),
                        mode=mode)
    run_experiment(spec, tmp_path)
    assert check_artifacts._differing(name, tmp_path,
                                      ROOT / "out" / name) == []


def test_c_sweep_regime_map_matches_its_recorded_digest(sweep_case1_c):
    _, regime_map = sweep_case1_c
    assert hashlib.sha256(regime_map.read_bytes()).hexdigest() == \
        check_artifacts.REGIME_MAP_SHA256
