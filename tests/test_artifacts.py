"""Golden artifacts: the shipped T = 10 simulate bundles and the verify
bundles under out/ are regenerated from their configs and must match byte
for byte (every file but the wall-clock timestamp.txt).  A bundle named
``<config>_verify`` is the verify mode of ``experiments/<config>.cfg``.
The c-sweep's regime_map.csv must match the SHA-256 that
scripts/check_artifacts.py records."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from kswave.harness import parse_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ("case1_exp1", "case2_exp1", "case2_exp2",
                                  "case1_exp1_verify", "case2_exp1_verify"))
def test_simulate_bundle_is_byte_identical(name, tmp_path):
    stem = name.removesuffix("_verify")
    mode = "simulate" if stem == name else "verify"
    spec = parse_config((ROOT / "experiments" / f"{stem}.cfg").read_text(),
                        mode=mode)
    run_experiment(spec, tmp_path)
    shipped = ROOT / "out" / name

    def artifacts(d):
        return sorted(p.name for p in d.iterdir() if p.name != "timestamp.txt")
    assert artifacts(tmp_path) == artifacts(shipped)
    for fname in artifacts(shipped):
        assert (tmp_path / fname).read_bytes() == \
            (shipped / fname).read_bytes(), fname


def test_c_sweep_regime_map_matches_its_recorded_digest(sweep_case1_c):
    # the digest has one copy, in the script that checks every artifact
    script = ROOT / "scripts" / "check_artifacts.py"
    spec = importlib.util.spec_from_file_location("check_artifacts", script)
    check_artifacts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_artifacts)
    _, regime_map = sweep_case1_c
    assert hashlib.sha256(regime_map.read_bytes()).hexdigest() == \
        check_artifacts.REGIME_MAP_SHA256
