"""Fresh-process set-up of one workload, timed by run.py.

Imports capgraph, parses the workload's configs and builds its grids, then
prints `ready`.  run.py writes the configs before it starts this script.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  first: pins BLAS threads before numpy loads

import argparse


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bootstrap.use_checkout_sources()
    import workloads
    workload = workloads.WORKLOADS[args.workload](
        bootstrap.work_dir(args.workload, args.seed), args.seed)
    workload.set_up()
    print("ready", flush=True)


if __name__ == "__main__":
    main()
