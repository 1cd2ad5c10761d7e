"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

The spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; a benchmark is steady when every
spread (``setup_s`` aside) stays under a third of its bound.  ``--out``
writes every run's values, the summary and the machine description as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed} exited "
                                 f"{proc.returncode}")
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            report["env"] = json.loads(lines[0].partition(": ")[2])
            runs.append({"seed": seed, "run_s": time.perf_counter() - t0,
                         "correct": res["correct"],
                         "metrics": {k: m["value"]
                                     for k, m in res["metrics"].items()}})
            print(f"{name} seed {seed}: {runs[-1]['metrics']} "
                  f"correct={res['correct']} [{runs[-1]['run_s']:.1f}s]",
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound}
            ok = metric == "setup_s" or spread < bound / 3
            steady &= ok and all(r["correct"] for r in runs)
            print(f"  {name:15s} {metric:12s} median {med:.6g} spread "
                  f"{spread:.4f} (bound {bound}) {'ok' if ok else 'WIDE'}")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
