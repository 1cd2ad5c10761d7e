"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Runs every workload once per input variant (once for the seed-free ones)
and writes ``references.json``: per workload, the items of each op whose
output every variant shares under ``fixed``, the other ops under
``variants``.  Run it only at a commit whose outputs are known good; a later
change that alters an artifact must say why.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import _pin_threads

_pin_threads()
import workloads  # noqa: E402  (numpy must load after the pinning)


def record(name: str, workdir: Path) -> dict:
    wl = workloads.WORKLOADS[name]
    variants = range(workloads.N_VARIANTS) if wl.seeded else [0]
    runs = {}
    for v in variants:
        results = workloads.run_pass(wl.ops(wl.setup(v), workdir))
        if any(items is None for items, _ in results.values()):
            raise SystemExit(f"{name} variant {v}: an operation raised")
        runs[v] = {op: items for op, (items, _) in results.items()}
        print(f"{name} variant {v}: {len(runs[v])} ops", file=sys.stderr)
    first = runs[variants[0]]
    fixed = {k: val for k, val in first.items()
             if all(r.get(k) == val for r in runs.values())}
    return {"fixed": fixed,
            "variants": {str(v): {k: val for k, val in r.items()
                                  if k not in fixed}
                         for v, r in runs.items()} if wl.seeded else {}}


def main():
    workdir = Path(tempfile.mkdtemp(dir=workloads.ROOT / "perfbench",
                                    prefix="_work"))
    try:
        refs = {name: record(name, workdir) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
