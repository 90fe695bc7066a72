"""Write the input documents of one benchmark run and list its operations.

Usage, from the root of a source checkout:

    python3 bench/make_inputs.py --workload hilb --seed 1 --out /tmp/hilb-1

The documents are the ones ``bench/run.py`` generates for the same
workload and seed (the same seed gives the same documents); the listed
operations are one pass, in the order every pass runs them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the documents")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import quiverstab
    import quiverstab.cli as cli

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ops = workloads.build(args.workload, workloads.Context(quiverstab, cli, args.seed, out))
    for op in ops:
        print(op.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
