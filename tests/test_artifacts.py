"""Golden artifacts: the shipped T = 10 simulate bundles and the verify
bundles under out/ are regenerated from their configs and must match byte
for byte (every file but the wall-clock timestamp.txt).  A bundle named
``<config>_verify`` is the verify mode of ``experiments/<config>.cfg``."""

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
