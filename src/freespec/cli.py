"""Command-line surface: graph ingestion, experiments, CSV/JSON reports.

Exit codes: 0 success, 1 validation error, 2 budget exhaustion (pairing
retries and a worker process that ended abruptly included), 3 internal
invariant violation (a decomposition check reporting a nonzero violation
is a bug signal, never plain data).  Errors print to stderr with a
machine-parseable "error[CODE]:" prefix.

Every report is a fresh process, so start-up counts: freespec.regular (the
graph sampler) is imported only by regular-random and cycles, and json only
by render_json.  perfbench/traced.py replaces functions by name in the
module where they are called (render_csv here, run_cells, pairing_model and
the others it lists), so each of those must stay a module attribute that is
looked up when it is called.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    FreespecError,
    RetriesExhaustedError,
    WorkerDiedError,
)
from .experiments import (
    SamplerConfig,
    free_clt_experiment,
    pushforward_histogram,
    sample_law,
    tree_check_experiment,
)
from .freeprod import decomposition_check, free_power, tree_recurrence_check
from .graphs import (
    BUILTIN_GRAPHS,
    RootedGraph,
    builtin_graph,
    closed_walk_counts,
    complete_graph,
    parse_graph_text,
    square_check,
    trace_moments,
)
from .polymoments import (
    Poly,
    chebyshev_monic,
    km_density,
    kesten_mckay_moments,
    semicircle_moments,
    tree_distance_poly,
)
from .reports import (
    Budgets,
    ExactScaled,
    Report,
    ReportRow,
    moment_rows,
    render_csv,
    render_json,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for budgets here
    def error(self, message):
        raise _UsageError(message)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated integer list")
    if not values:
        raise _UsageError(f"{flag} must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise _UsageError(f"{flag} must be strictly increasing")
    return values


def _load_graph(source: str) -> tuple[RootedGraph, str]:
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        return builtin_graph(name), name
    if source.startswith("file:"):
        path = source[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read()), os.path.basename(path)
    raise _UsageError(
        f"graph source must be builtin:{{{','.join(BUILTIN_GRAPHS)}}} or file:PATH"
    )


def _parse_transform(text: str) -> Poly:
    if text == "none":
        return Poly([0, 1])
    kind, *fields = text.split(":")
    try:
        values = [int(field) for field in fields]
    except ValueError:
        values = []
    if kind == "p" and len(values) == 1:
        return chebyshev_monic(*values)
    if kind == "q" and len(values) == 2:
        return tree_distance_poly(*values)
    raise _UsageError("--transform must be none, p:K, or q:D:K with integers D, K")


def _build_parser() -> _Parser:
    # --help shows the docstring's first two paragraphs, for users; the
    # notes on start-up after them are for readers of this module
    parser = _Parser(prog="freespec", description="\n\n".join(__doc__.split("\n\n")[:2]))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for the samples of regular-random and cycles "
        "(default 1: no pool); other subcommands run serially",
    )
    common.add_argument("--walk-budget", type=int, default=Budgets().walk_expansions)
    common.add_argument("--ball-budget", type=int, default=Budgets().ball_vertices)
    common.add_argument(
        "--timing", action="store_true",
        help="record real wall time in JSON meta (off keeps output reproducible)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree-check", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-m", type=int, default=8)

    p = sub.add_parser("free-clt", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", required=True, help="comma-separated copy counts")
    p.add_argument("--max-m", type=int, default=4)

    p = sub.add_parser("large-d", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d-list", required=True)
    p.add_argument("--max-m", type=int, default=6)

    p = sub.add_parser("regular-random", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--max-m", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cycles", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n-list", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decomp-check", parents=[common])
    p.add_argument("--mode", choices=("square", "tree", "free"), required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--radius", type=int, default=None)

    p = sub.add_parser("moments", parents=[common])
    p.add_argument("--graph", default=None)
    p.add_argument("--which", choices=("vacuum", "trace"), default="vacuum")
    p.add_argument("--law", default=None, help="semicircle or km:D")
    p.add_argument("--max-m", type=int, default=8)

    p = sub.add_parser("km-density", parents=[common])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--range", dest="xrange", required=True, help="lo,hi")

    p = sub.add_parser("hist", parents=[common])
    p.add_argument("--law", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transform", default="none")
    return parser


def _run(args) -> Report:
    budgets = Budgets(
        walk_expansions=args.walk_budget, ball_vertices=args.ball_budget
    )
    if args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    if min(args.walk_budget, args.ball_budget) < 0:
        raise _UsageError("--walk-budget and --ball-budget must be >= 0")
    if args.command == "tree-check":
        return tree_check_experiment(args.d, args.k, args.max_m, budgets)
    if args.command == "free-clt":
        g, name = _load_graph(args.graph)
        n_list = _parse_int_list(args.N, "--N")
        return free_clt_experiment(g, name, args.k, n_list, args.max_m, budgets)
    if args.command == "large-d":
        d_list = _parse_int_list(args.d_list, "--d-list")
        # the d-regular tree is K2^{*d}: its large-d limit is the free CLT of K2
        report = free_clt_experiment(
            complete_graph(2), "tree", args.k, d_list, args.max_m, budgets
        )
        for row in report.rows:
            row.experiment, row.param_name = "large-d", "d"
        return report
    if args.command == "regular-random":
        from .regular import regular_limit_experiment

        n_list = _parse_int_list(args.n_list, "--n-list")
        return regular_limit_experiment(
            args.d, args.k, n_list, args.samples, args.max_m, args.seed, budgets,
            args.threads,
        )
    if args.command == "cycles":
        from .regular import cycles_experiment

        n_list = _parse_int_list(args.n_list, "--n-list")
        return cycles_experiment(
            args.d, args.j, n_list, args.samples, args.seed, budgets, args.threads
        )
    if args.command == "decomp-check":
        return _run_decomp(args, budgets)
    if args.command == "moments":
        return _run_moments(args, budgets)
    if args.command == "km-density":
        return _run_km_density(args, budgets)
    if args.command == "hist":
        return _run_hist(args, budgets)
    raise _UsageError(f"unknown command {args.command}")


def _decomp_report(
    budgets: Budgets, graph: str, param_name: str, param_value, k: int, violation: int
) -> Report:
    """The one-row report of a decomposition check: its violation against 0."""
    row = ReportRow(
        experiment="decomp-check", graph=graph, param_name=param_name,
        param_value=param_value, k=k, m=None,
        value=ExactScaled(Fraction(violation)), reference=ExactScaled(Fraction(0)),
    )
    return Report(rows=[row], budgets=budgets)


def _run_decomp(args, budgets: Budgets) -> Report:
    if args.mode == "square":
        if not args.graph:
            raise _UsageError("--mode square needs --graph")
        g, name = _load_graph(args.graph)
        violation = square_check(g, budgets.walk_expansions)
        return _decomp_report(budgets, name, "mode", "square", 2, violation)
    if args.mode == "tree":
        if args.d is None or args.k is None or args.radius is None:
            raise _UsageError("--mode tree needs --d, --k, --radius")
        violation = tree_recurrence_check(
            args.d, args.k, args.radius, max_vertices=budgets.ball_vertices
        )
        return _decomp_report(
            budgets, f"tree-d{args.d}", "radius", args.radius, args.k, violation
        )
    if args.graph is None or args.N is None or args.k is None or args.radius is None:
        raise _UsageError("--mode free needs --graph, --N, --k, --radius")
    g, name = _load_graph(args.graph)
    spec = free_power(g, args.N)
    report = decomposition_check(spec, args.k, args.radius, budgets.ball_vertices)
    return _decomp_report(
        budgets, f"{name}^*{args.N}", "radius", args.radius, args.k, report.max_violation
    )


def _km_degree(law: str) -> int:
    try:
        return int(law[len("km:"):])
    except ValueError:
        raise ValueError("--law km:D needs an integer D") from None


def _run_moments(args, budgets: Budgets) -> Report:
    if args.law is not None:
        if args.law == "semicircle":
            name = "semicircle"
            values = semicircle_moments(args.max_m)
        elif args.law.startswith("km:"):
            d = _km_degree(args.law)
            name = f"kesten-mckay-d{d}"
            values = kesten_mckay_moments(d, args.max_m)
        else:
            raise _UsageError("--law must be semicircle or km:D")
        param_name, param_value = "law", name
    elif args.graph is None:
        raise _UsageError("moments needs --graph or --law")
    else:
        g, name = _load_graph(args.graph)
        if args.which == "vacuum":
            values = closed_walk_counts(g, g.root, args.max_m, budgets.walk_expansions)
        else:
            values = trace_moments(g, args.max_m, budgets.walk_expansions)
        param_name, param_value = "state", args.which
    cells = [(param_value, [ExactScaled(v) for v in values])]
    rows = moment_rows("moments", name, param_name, None, cells, [None] * len(values))
    return Report(rows=rows, budgets=budgets)


def _charge_held(count: int, budgets: Budgets, what: str) -> None:
    """Charge count values a command will hold to the ball budget, up front."""
    if count > budgets.ball_vertices:
        raise BudgetExceededError(count, budgets.ball_vertices, what)


def _run_km_density(args, budgets: Budgets) -> Report:
    parts = args.xrange.split(",")
    if len(parts) != 2:
        raise _UsageError("--range expects lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError("--range expects numbers lo,hi")
    if args.points < 2 or hi <= lo:
        raise _UsageError("need --points >= 2 and hi > lo")
    _charge_held(args.points, budgets, "density points")
    rows = []
    for i in range(args.points):
        x = lo + (hi - lo) * i / (args.points - 1)
        rows.append(
            ReportRow(
                experiment="km-density", graph=f"kesten-mckay-d{args.d}",
                param_name="x", param_value=x, k=None, m=None,
                value=km_density(args.d, x),
            )
        )
    return Report(rows=rows, budgets=budgets)


def _run_hist(args, budgets: Budgets) -> Report:
    # check every flag before sampling, whose cost grows with --samples
    if args.bins < 1:
        raise ValueError("bins must be positive")
    if args.law.startswith("km:"):
        _km_degree(args.law)
    poly = _parse_transform(args.transform)
    _charge_held(args.samples, budgets, "histogram samples")
    _charge_held(args.bins, budgets, "histogram bins")
    cfg = SamplerConfig(seed=args.seed, count=args.samples, law=args.law)
    samples = sample_law(cfg)
    edges, counts = pushforward_histogram(poly, samples, args.bins)
    rows = [
        ReportRow(
            experiment="hist", graph=args.law, param_name="bin_left",
            param_value=edges[i], k=None, m=None,
            value=ExactScaled(Fraction(counts[i])),
        )
        for i in range(args.bins)
    ]
    return Report(rows=rows, seed=args.seed, budgets=budgets)


def _preprocess(argv):
    # argparse mistakes "--range -2,2" for a missing argument; fold the value in
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
            continue
        out.append(argv[i])
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_preprocess(sys.argv[1:] if argv is None else list(argv)))
        started = time.monotonic()
        report = _run(args)
        if args.timing:
            report.wall_ms = int((time.monotonic() - started) * 1000)
        text = render_csv(report) if args.format == "csv" else render_json(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.command == "decomp-check":
            violations = [r for r in report.rows if r.value != ExactScaled(Fraction(0))]
            if violations:
                sys.stderr.write(
                    "error[INVARIANT]: decomposition check found a nonzero violation\n"
                )
                return 3
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"error[USAGE]: {exc}\n")
        return 1
    except (BudgetExceededError, RetriesExhaustedError, WorkerDiedError) as exc:
        sys.stderr.write(f"error[BUDGET]: {exc}\n")
        return 2
    except (FreespecError, OSError, ValueError) as exc:
        sys.stderr.write(f"error[INPUT]: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
