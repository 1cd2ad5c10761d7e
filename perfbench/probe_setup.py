"""Time one workload's set-up in this fresh process: importing kswave (numpy
and scipy included), parsing and validating its configs and building its
run configs.  Prints the processor seconds this process has used since it
started, interpreter start-up included, as the last line of standard
output.

    python3 perfbench/probe_setup.py --workload NAME --seed N
"""

import argparse
from time import process_time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    import workloads
    for wl in workloads.parts_of(args.workload):
        wl.setup(workloads.variant_of(args.seed))
    print(repr(process_time()))


if __name__ == "__main__":
    main()
