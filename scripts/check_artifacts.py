#!/usr/bin/env python3
"""Regenerate every tracked out/ bundle and byte-compare it with out/.

Each bundle is rebuilt from its config into a temporary directory:

* out/<name>/ for every experiments/case*_exp*.cfg in simulate mode (the
  seven paper runs, including the T = 140 and T = 160 ones);
* out/<name>_verify/ in verify mode of experiments/<name>.cfg.

Every file but the wall-clock timestamp.txt must match the shipped one byte
for byte, and the two bundles must hold the same files.  The c-sweep's
regime_map.csv is not tracked, so the T = 140 sweep of
experiments/sweep_case1_c.cfg is run through run_experiment and its SHA-256
compared with the recorded digest; it runs on two workers when two CPUs
are usable, which gives the same bytes as one.  Prints every file that
differs and exits 1 if any does, 0 otherwise.  Takes about 14 s on a 2-core
Xeon; no options.

Runs from a plain checkout: it puts the checkout's src/ first on sys.path,
so it always checks the kswave of the tree it lives in, never an installed
copy.

    python3 scripts/check_artifacts.py
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kswave.harness import parse_config, run_experiment  # noqa: E402

EXPERIMENTS = ROOT / "experiments"
OUT = ROOT / "out"
REGIME_MAP_SHA256 = \
    "3e12f5554f30ccd8d70d52570def4cfb1d2389c0e94389f45ca9e21a8a0511c4"


def _bundles():
    """(bundle name, config path, mode) for every tracked bundle."""
    for cfg in sorted(EXPERIMENTS.glob("case*_exp*.cfg")):
        yield cfg.stem, cfg, "simulate"
    for shipped in sorted(OUT.glob("*_verify")):
        name = shipped.name
        yield name, EXPERIMENTS / f"{name.removesuffix('_verify')}.cfg", \
            "verify"


def _files(d: Path) -> set:
    return {p.name for p in d.iterdir() if p.name != "timestamp.txt"} \
        if d.is_dir() else set()


def _differing(name: str, fresh: Path, shipped: Path) -> list[str]:
    """The files of bundle ``name`` that are missing from the fresh or the
    shipped directory, or differ in a byte, timestamp.txt aside."""
    differ = []
    for fname in sorted(_files(fresh) | _files(shipped)):
        a, b = fresh / fname, shipped / fname
        if not (a.is_file() and b.is_file()
                and a.read_bytes() == b.read_bytes()):
            differ.append(f"out/{name}/{fname}")
    return differ


def main():
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, mode in _bundles():
            fresh = Path(tmp) / name
            run_experiment(parse_config(cfg.read_text(), mode=mode), fresh)
            differ += _differing(name, fresh, OUT / name)
            print(f"{name:20s} checked", flush=True)

        sweep_dir = Path(tmp) / "sweep_case1_c"
        spec = parse_config((EXPERIMENTS / "sweep_case1_c.cfg").read_text())
        run_experiment(spec, sweep_dir,
                       workers=min(2, len(os.sched_getaffinity(0))))
        digest = hashlib.sha256(
            (sweep_dir / "regime_map.csv").read_bytes()).hexdigest()
        if digest != REGIME_MAP_SHA256:
            differ.append(f"sweep_case1_c/regime_map.csv (sha256 {digest})")
        print(f"{'sweep_case1_c':20s} checked", flush=True)

    for path in differ:
        print(f"DIFFERS: {path}")
    print(f"{len(differ)} file(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
