"""Set-up probe: import the CLI and build a workload's inputs, running no cell.

    python perfbench/probe_setup.py ARGVS_JSON

ARGVS_JSON is a JSON list of CLI argv lists.  Free-CLT inputs are the base
graph and its free powers; random-regular inputs are the validated pairing
configurations of each order n.
"""
from __future__ import annotations

import json
import sys


def build_inputs(argv: list[str]) -> None:
    from freespec import builtin_graph, free_power
    from freespec.regular import PairingConfig, derive_seed

    # argv[0] is the subcommand; every flag the workloads use takes a value
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--graph" in opts:
        g = builtin_graph(opts["--graph"].split(":", 1)[1])
        for copies in opts["--N"].split(","):
            free_power(g, int(copies))
    if "--n-list" in opts:
        d, seed = int(opts["--d"]), int(opts["--seed"])
        for n in opts["--n-list"].split(","):
            PairingConfig(n=int(n), d=d, seed=derive_seed(seed, int(n), 0))


def main(argvs: list[list[str]]) -> int:
    import freespec.cli  # noqa: F401  (the import is part of the set-up cost)

    for argv in argvs:
        build_inputs(argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
