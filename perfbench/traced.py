"""Run one freespec CLI command in-process with a span around each layer call.

    python perfbench/traced.py SPANS.json ARGV...

The report goes to stdout exactly as ``python -m freespec.cli ARGV`` writes
it, and the exit code is the CLI's.  Spans are written to SPANS.json once
the command has ended.

Each function is wrapped in the namespace where its caller looks it up:
``regular`` and ``experiments`` import names directly, and the layered DP
reads ``freeprod.distance_k_neighbors`` as a module global.
"""
from __future__ import annotations

import functools
import json
import random
import sys

from tracing import Tracer


def install(tracer: Tracer) -> None:
    import freespec.cli as cli
    import freespec.experiments as experiments
    import freespec.freeprod as freeprod
    import freespec.regular as regular

    def wrap_run_cells(owner):
        run_cells = owner.run_cells

        @functools.wraps(run_cells)
        def traced(fn, items, threads=1):
            span = tracer.open("experiments.run_cells")
            span[5]["cells"] = len(items)

            def cell(item):
                inner = tracer.open("experiments.cell", parent=span[0])
                try:
                    return fn(item)
                finally:
                    tracer.close(inner)

            try:
                return run_cells(cell, items, threads)
            finally:
                tracer.close(span)

        owner.run_cells = traced

    wrap_run_cells(experiments)
    wrap_run_cells(regular)

    def count(key, value):
        def after(attrs, result, args):
            attrs[key] = value(result, args)
        return after

    tracer.wrap(experiments, "vacuum_moments_distance_k", "freeprod.vacuum_moments_distance_k")
    tracer.wrap(
        freeprod, "distance_k_neighbors", "freeprod.distance_k_neighbors",
        count("words", lambda result, args: len(result)),
    )
    tracer.wrap(
        regular, "trace_moments", "graphs.trace_moments",
        count("vertices", lambda result, args: args[0].vertex_count),
    )
    tracer.wrap(
        regular, "distance_k_graph", "graphs.distance_k_graph",
        count("edges", lambda result, args: result.edge_count),
    )
    tracer.wrap(regular, "count_k_cycles", "graphs.count_k_cycles")
    tracer.wrap(regular, "pairing_model", "regular.pairing_model")
    tracer.wrap(experiments, "chebyshev_reference_moments", "polymoments.reference")
    tracer.wrap(regular, "tree_distance_k_law_moments", "polymoments.reference")
    tracer.wrap(regular, "cycle_limit_reference", "polymoments.reference")
    tracer.wrap(
        cli, "render_csv", "reports.render_csv",
        count("bytes", lambda result, args: len(result.encode())),
    )

    # pairing_model shuffles its stubs directly, so the innermost open span
    # of the calling thread is the pairing span that owns the shuffle.
    shuffle = random.Random.shuffle

    @functools.wraps(shuffle)
    def counted_shuffle(self, x):
        stack = tracer.stack()
        if stack and stack[-1][2] == "regular.pairing_model":
            attrs = stack[-1][5]
            attrs["shuffles"] = attrs.get("shuffles", 0) + 1
        return shuffle(self, x)

    random.Random.shuffle = counted_shuffle


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import freespec.cli as cli

    span = tracer.open("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.close(span)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
