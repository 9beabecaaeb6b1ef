"""Command-line surface: graph ingestion, experiments, CSV/JSON reports.

Exit codes: 0 success, 1 validation error, 2 budget exhaustion (pairing
retries and a worker process that ended abruptly included), 3 internal
invariant violation (a decomposition check reporting a nonzero violation
is a bug signal, never plain data).  Errors print to stderr with a
machine-parseable "error[CODE]:" prefix.

Every report is a fresh process, so start-up counts: freespec.regular (the
graph sampler) is imported only by regular-random and cycles, json only by
render_json, and the parser adds the flags of the subcommand it runs and no
other (_Subcommand).  The samples of regular-random and cycles run on a pool
of worker processes, by default one for each CPU this process may run on
(its affinity mask), up to --samples; --threads caps the count, and
--threads 1 runs them here and imports no pool module.

perfbench/traced.py replaces functions by name in the module where they are
called (render_csv here, run_cells, pairing_model and the others it lists),
so each of those must stay a module attribute that is looked up when it is
called.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    Budgets,
    FreespecError,
    RetriesExhaustedError,
    WorkerDiedError,
)
from .experiments import (
    free_clt_experiment,
    parse_law,
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
    chebyshev_monic,
    km_density,
    kesten_mckay_moments,
    semicircle_moments,
    tree_distance_poly,
)
from .reports import (
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


def _to_int(text: str, flag: str) -> int:
    # Python's int-to-str digit limit stays: it is the interpreter's guard
    # against quadratic-time parsing of a huge integer
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(text) > limit:
        raise _UsageError(f"{flag} takes integers of at most {limit} digits (Python's limit)")
    return int(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [_to_int(part, flag) for part in text.split(",") if part != ""]
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


def _parse_transform(text: str, budgets: Budgets) -> tuple:
    if text == "none":
        return (0, 1)
    kind, *fields = text.split(":")
    try:
        values = [int(field) for field in fields]
    except ValueError:
        values = []
    if kind == "p" and len(values) == 1:
        poly = chebyshev_monic(*values, budgets)
    elif kind == "q" and len(values) == 2:
        poly = tree_distance_poly(*values, budgets)
    else:
        raise _UsageError("--transform must be none, p:K, or q:D:K with integers D, K")
    try:  # the histogram evaluates the transform in floats
        list(map(float, poly))
    except OverflowError:
        raise _UsageError(f"--transform {text} has coefficients past the float range")
    return poly


# The flags each subcommand reads, by mode for decomp-check and moments (a
# mode is named by the flag that picks it); each subparser is built from its
# entry.  "--d!" is required, "--max-m=8" defaults to 8 and any other flag to
# None, so a flag is given when it is not None.  A flag that some mode of a
# subcommand does not read is refused in that mode.
_READS = {
    "tree-check": {"": "--d! --k! --max-m=8 --walk-budget"},
    "free-clt": {"": "--graph! --k! --N! --max-m=4 --walk-budget"},
    "large-d": {"": "--k! --d-list! --max-m=6 --walk-budget"},
    "regular-random": {"": "--d! --k! --n-list! --samples=20 --max-m=6 --seed=0 --walk-budget"},
    "cycles": {"": "--d! --j! --n-list! --samples=50 --seed=0 --walk-budget"},
    "decomp-check": {
        "--mode square": "--graph! --walk-budget",
        "--mode tree": "--d! --k! --radius! --walk-budget",
        "--mode free": "--graph! --N! --k! --radius! --walk-budget",
    },
    "moments": {
        "--graph": "--graph --which --max-m=8 --walk-budget",
        "--law": "--law --max-m=8 --walk-budget",
    },
    "km-density": {"": "--d! --points=11 --range! --ball-budget"},
    "hist": {"": "--law! --samples=10000 --bins=20 --seed=0 --transform=none --ball-budget"},
}

# how a flag parses where it is not an integer
_TEXT_FLAGS = {
    "--graph": {}, "--d-list": {}, "--n-list": {}, "--transform": {},
    "--N": {"help": "copy count; comma-separated copy counts in free-clt"},
    "--which": {"choices": ("vacuum", "trace"), "help": "with --graph (default vacuum)"},
    "--law": {"help": "semicircle or km:D"},
    "--range": {"dest": "xrange", "help": "lo,hi"},
}


def _readers(modes: dict) -> dict[str, dict[str, str]]:
    """{flag: {mode: the flag's token in that mode}} over one entry of _READS."""
    out = {}
    for mode, tokens in modes.items():
        for token in tokens.split():
            out.setdefault(token.split("=")[0].rstrip("!"), {})[mode] = token
    return out


def _dest(flag: str) -> str:
    return _TEXT_FLAGS.get(flag, {}).get("dest", flag[2:].replace("-", "_"))


class _Subcommand(_Parser):
    # adds its flags (pending: an entry of _READS) when it first parses, so a
    # run adds those of the subcommand it runs only: argparse builds a help
    # formatter for every flag it adds
    pending = None

    def parse_known_args(self, args=None, namespace=None):
        if self.pending is not None:
            modes, self.pending = self.pending, None
            self._add_flags(modes)
        return super().parse_known_args(args, namespace)

    def _add_flags(self, modes: dict) -> None:
        self.add_argument("--format", choices=("csv", "json"), default="csv")
        self.add_argument("--output", default=None, help="output path (default stdout)")
        self.add_argument(
            "--threads", type=int, default=None,
            help="worker processes for the samples of regular-random and cycles "
            "(default: every CPU this process may run on; 1: no pool); other "
            "subcommands run serially",
        )
        self.add_argument(
            "--timing", action="store_true",
            help="record real wall time in JSON meta; JSON only (off keeps output "
            "reproducible)",
        )
        if next(iter(modes)).startswith("--mode "):  # decomp-check
            self.add_argument("--mode", choices=[mode.split()[1] for mode in modes], required=True)
        for flag, readers in _readers(modes).items():
            kwargs = dict(_TEXT_FLAGS.get(flag, {"type": int}))
            if len(readers) == len(modes):  # every mode reads it: argparse checks it
                token = readers.popitem()[1]
                kwargs["required"] = token.endswith("!")
                kwargs["default"] = token.partition("=")[2] or None
            self.add_argument(flag, **kwargs)


def _build_parser() -> _Parser:
    # --help shows the docstring's first two paragraphs, for users; the
    # notes on start-up after them are for readers of this module
    parser = _Parser(prog="freespec", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for command, modes in _READS.items():
        sub.add_parser(command).pending = modes
    return parser


def _check_mode(args) -> None:
    """Refuse a flag the mode of args.command does not read.

    A mode missing a flag it needs names all of them.
    """
    if args.command == "decomp-check":
        mode = f"--mode {args.mode}"
    elif args.command != "moments":
        return
    elif args.graph is not None and args.law is not None:
        raise _UsageError("moments takes --graph or --law, not both")
    elif args.graph is None and args.law is None:
        raise _UsageError("moments needs --graph or --law")
    else:
        mode = "--graph" if args.law is None else "--law"
    for flag, modes in _readers(_READS[args.command]).items():
        if mode not in modes and getattr(args, _dest(flag)) is not None:
            raise _UsageError(f"{flag} applies to {' and '.join(modes)}, not {mode}")
    needs = [token[:-1] for token in _READS[args.command][mode].split() if token[-1] == "!"]
    if any(getattr(args, _dest(flag)) is None for flag in needs):
        raise _UsageError(f"{mode} needs {', '.join(needs)}")


def _run(args) -> Report:
    _check_mode(args)
    given = (getattr(args, name, None) for name in ("walk_budget", "ball_budget"))
    budgets = Budgets(**{f: v for f, v in zip(Budgets._fields, given) if v is not None})
    if args.threads is not None and args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    if min(budgets.walk_expansions, budgets.ball_vertices) < 0:
        raise _UsageError("--walk-budget and --ball-budget must be >= 0")
    if args.timing and args.format == "csv":
        raise _UsageError("--timing is JSON-only: it needs --format json")
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
        g, name = _load_graph(args.graph)
        violation = square_check(g, budgets)
        return _decomp_report(budgets, name, "mode", "square", 2, violation)
    if args.mode == "tree":
        violation = tree_recurrence_check(args.d, args.k, args.radius, budgets)
        return _decomp_report(
            budgets, f"tree-d{args.d}", "radius", args.radius, args.k, violation
        )
    if not args.N.isdecimal():
        raise _UsageError("--N expects one integer in --mode free")
    copies = _to_int(args.N, "--N")
    g, name = _load_graph(args.graph)
    spec = free_power(g, copies)
    violation = decomposition_check(spec, args.k, args.radius, budgets)
    return _decomp_report(
        budgets, f"{name}^*{spec.copies}", "radius", args.radius, args.k, violation
    )


def _run_moments(args, budgets: Budgets) -> Report:
    if args.law is not None:
        d = parse_law(args.law)
        if d is None:
            name, values = "semicircle", semicircle_moments(args.max_m, budgets)
        else:
            name, values = f"kesten-mckay-d{d}", kesten_mckay_moments(d, args.max_m, budgets)
        param_name, param_value = "law", name
    else:
        g, name = _load_graph(args.graph)
        param_name, param_value = "state", args.which or "vacuum"
        if param_value == "vacuum":
            values = closed_walk_counts(g, g.root, args.max_m, budgets)
        else:
            values = trace_moments(g, args.max_m, budgets)
    cells = [(param_value, [ExactScaled(v) for v in values])]
    rows = moment_rows("moments", name, param_name, None, cells, [None] * len(values))
    return Report(rows=rows, budgets=budgets)


def _run_km_density(args, budgets: Budgets) -> Report:
    parts = args.xrange.split(",")
    if len(parts) != 2:
        raise _UsageError("--range expects lo,hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError("--range expects numbers lo,hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _UsageError("--range expects finite numbers lo,hi")
    if args.points < 2 or hi <= lo:
        raise _UsageError("need --points >= 2 and hi > lo")
    budgets.charge("density points", args.points)
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
    poly = _parse_transform(args.transform, budgets)
    budgets.charge("histogram samples", args.samples)
    budgets.charge("histogram bins", args.bins)
    samples = sample_law(args.law, args.samples, args.seed)
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
    for arg in argv:
        if out and out[-1] == "--range":
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
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
    except MemoryError:
        sys.stderr.write("error[BUDGET]: the process ran out of memory\n")
        return 2
    except (FreespecError, OSError, ValueError) as exc:
        sys.stderr.write(f"error[INPUT]: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
