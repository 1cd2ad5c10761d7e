#!/usr/bin/env python3
"""Regenerate every tracked out/ bundle and byte-compare it with out/.

Each bundle is rebuilt from its config into a temporary directory:

* out/<name>/ for every experiments/case*_exp*.cfg in simulate mode (the
  seven paper runs, including the T = 140 and T = 160 ones);
* out/<name>_verify/ in verify mode of experiments/<name>.cfg.

Every file but the wall-clock timestamp.txt must match the shipped one byte
for byte, and the two bundles must hold the same files.  The eig and regime
bundles are not tracked, so those of case1_exp1 and case2_exp1 are run and
the SHA-256 of each summary file (eigenvalues.csv, lambda_infinity.txt,
regime.txt) compared with the digest recorded in ANALYSIS_SHA256; between
them they spell true, false, undefined and floats.  The c-sweep's
regime_map.csv is not tracked either, so the T = 140 sweep of
experiments/sweep_case1_c.cfg is run through run_experiment and its SHA-256
compared with the recorded digest; it runs on two workers when two CPUs
are usable, which gives the same bytes as one.  Prints every file that
differs and exits 1 if any does, 0 otherwise.  Takes 19-25 s on a 2-core
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
# (config stem, mode): {summary file: SHA-256} for the untracked bundles
ANALYSIS_SHA256 = {
    ("case1_exp1", "eig"): {
        "eigenvalues.csv":
        "2dc74722b06056524bc48f25dacd085c4d02425b86fa136f10cc09dea0197a46",
        "lambda_infinity.txt":
        "307adeac9181fbb48e3d8db79fc3718225ee792753afa14c9cf52afbfdad5a50"},
    ("case1_exp1", "regime"): {
        "regime.txt":
        "31e6b2f3876b0fb70091640b62bc7d6a7b3b7e2152842dc298a6aa85d56a8349"},
    ("case2_exp1", "eig"): {
        "eigenvalues.csv":
        "62958fd1dd457f97d339a60df83a87a28e0cb3aedd2e7eee66bd6e58f2795741",
        "lambda_infinity.txt":
        "2272dc3054232f177c0c757f1f971de41c30d8597667304a47102a852db8cb55"},
    ("case2_exp1", "regime"): {
        "regime.txt":
        "a4d3b82a4145f3b75e0fc638f8b254d15c0706c151ddae86495fc1b725c5417c"},
}


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.is_file() else "missing"


def _digests_differing(stem: str, mode: str, fresh: Path) -> list[str]:
    """The summary files of the ``mode`` bundle of experiments/<stem>.cfg,
    written to ``fresh``, whose SHA-256 is not the recorded one."""
    return [f"{stem}_{mode}/{fname} (sha256 {digest})"
            for fname, want in ANALYSIS_SHA256[stem, mode].items()
            if (digest := _sha256(fresh / fname)) != want]


def main():
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg, mode in _bundles():
            fresh = Path(tmp) / name
            run_experiment(parse_config(cfg.read_text(), mode=mode), fresh)
            differ += _differing(name, fresh, OUT / name)
            print(f"{name:20s} checked", flush=True)

        for stem, mode in ANALYSIS_SHA256:
            fresh = Path(tmp) / f"{stem}_{mode}"
            run_experiment(parse_config(
                (EXPERIMENTS / f"{stem}.cfg").read_text(), mode=mode), fresh)
            differ += _digests_differing(stem, mode, fresh)
            print(f"{fresh.name:20s} checked", flush=True)

        sweep_dir = Path(tmp) / "sweep_case1_c"
        spec = parse_config((EXPERIMENTS / "sweep_case1_c.cfg").read_text())
        run_experiment(spec, sweep_dir,
                       workers=min(2, len(os.sched_getaffinity(0))))
        digest = _sha256(sweep_dir / "regime_map.csv")
        if digest != REGIME_MAP_SHA256:
            differ.append(f"sweep_case1_c/regime_map.csv (sha256 {digest})")
        print(f"{'sweep_case1_c':20s} checked", flush=True)

    for path in differ:
        print(f"DIFFERS: {path}")
    print(f"{len(differ)} file(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
