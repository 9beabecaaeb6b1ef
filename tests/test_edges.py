"""Edge-case contracts: validation errors, degenerate inputs, report internals."""
import argparse
import ast
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freespec
from freespec import cli, errors, experiments, freeprod, graphs, polymoments, regular
from freespec.errors import ParityError, UnreducedWordError
from freespec.freeprod import _word_bfs, free_power, vacuum_moments_distance_k
from freespec.graphs import RootedGraph, complete_graph, cycle_graph
from freespec.polymoments import (
    JacobiParams,
    kesten_mckay_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
from freespec.regular import PairingConfig
from freespec.reports import (
    Budgets,
    ExactScaled,
    Report,
    ReportRow,
    fmt12,
    fmt12_exact,
    render_csv,
    render_json,
)
from oracles import (
    fmt12_by_decimal,
    format_word,
    hankel_positive,
    make_word,
    pushforward_moments,
    report_row,
    sqrt_by_decimal,
    word_distance,
    word_letters,
)


def test_single_copy_free_power():
    # N = 1 degenerates to the base graph itself
    spec = free_power(complete_graph(2), 1)
    assert vacuum_moments_distance_k(spec, 1, 4) == [1, 0, 1, 0, 1]
    assert len(_word_bfs(spec, (), 3)) == 2


def test_word_distance_validates_reduction():
    spec = free_power(complete_graph(3), 2)
    bad = (1, 2)  # packed letters in the same copy (copy 0 vertices 1, 2)
    with pytest.raises(UnreducedWordError):
        word_distance(spec, bad, ())


def test_word_round_trip_and_format():
    spec = free_power(cycle_graph(4), 3)
    letters = ((2, 3), (0, 1))
    w = make_word(spec, letters)
    assert word_letters(spec, w) == letters
    assert format_word(spec, w) == "(2:3)(0:1)"
    assert format_word(spec, ()) == "e"


def test_ball_radius_zero():
    spec = free_power(complete_graph(3), 2)
    assert _word_bfs(spec, (), 0) == {(): 0}


def test_hankel_positcheck_across_produced_sequences():
    for d in (2, 3, 4, 5):
        assert hankel_positive(kesten_mckay_moments(d, 12))
        for k in (1, 2, 3):
            assert hankel_positive(tree_distance_k_law_moments(d, k, 8))
    pf = pushforward_moments(tree_distance_poly(3, 2), kesten_mckay_moments(3, 12), 6)
    assert hankel_positive(pf)


def test_exact_scaled_sub_rational_guard():
    surd = ExactScaled(Fraction(1), 2)
    with pytest.raises(ValueError):
        surd.sub_rational(Fraction(1))
    assert surd.sub_rational(Fraction(0)) == surd


_LARGE_PRIME = 10**30 + 57


@given(
    st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 50),
    st.one_of(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400).map(lambda c: c * _LARGE_PRIME),
    ),
    st.integers(min_value=1, max_value=20),
)
@example(Fraction(-3, 8), 2 * _LARGE_PRIME, 7)
def test_exact_scaled_eq_implies_same_hash(frac, sqrt_den, square):
    # frac / sqrt(sqrt_den) written a second way: scale both by square.  One
    # canonical form, found with no factoring, also past a large prime
    a = ExactScaled(frac, sqrt_den)
    b = ExactScaled(frac * square, sqrt_den * square * square)
    assert a == b and (a.rational, a.square) == (b.rational, b.square)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a.exact_str() == b.exact_str() and fmt12_exact(a) == fmt12_exact(b)
    root = math.isqrt(sqrt_den)
    if frac == 0 or root * root == sqrt_den:
        q = frac / root
        assert a.square is None and a == q and hash(a) == hash(q)
    else:
        assert a.rational is None


def test_fmt12_exact_has_the_shape_of_fmt12():
    # inside the float range, far from a rounding tie, both routes agree
    for frac, sqrt_den in [
        (Fraction(10**12), 1),
        (Fraction(-(10**15) - 7, 3), 1),
        (Fraction(987654321987654321), 2),
        (Fraction(-(3**400), 5**100), 7),
    ]:
        v = ExactScaled(frac, sqrt_den)
        assert fmt12_exact(v) == fmt12(v.to_float())
    # the exact value rounds half to even
    assert fmt12_exact(ExactScaled(Fraction(1234567890125 * 10**300))) == "1.23456789012e+312"
    assert fmt12_exact(ExactScaled(Fraction(1234567890135 * 10**300))) == "1.23456789014e+312"
    assert fmt12_exact(ExactScaled(Fraction(999999999999500 * 10**300))) == "1e+315"
    assert fmt12_exact(ExactScaled(Fraction(-(10**400)), 3)) == "-5.7735026919e+399"
    # inside the float range '.12g' switches to fixed notation at exponents -4..11
    for x in (1e-5, 1.5e-4, 0.000123456789012345, 0.5, 1.0, 2.5, 123456.789, 99999999999.9,
              123456789012.0, 999999999999.4, 999999999999.6, -3.25e-3, 7e14):
        assert fmt12_exact(ExactScaled(Fraction(x))) == fmt12(x), x
    assert fmt12_exact(ExactScaled(Fraction(1), 2)) == "0.707106781187"
    assert fmt12_exact(ExactScaled(Fraction(1, 1000), 2)) == "0.000707106781187"
    assert fmt12_exact(ExactScaled(Fraction(1, 10**4), 2)) == "7.07106781187e-05"
    assert fmt12_exact(ExactScaled(Fraction(10**12), 2)) == "707106781187"
    assert fmt12_exact(ExactScaled(Fraction(-(10**23)), 2)) == "-7.07106781187e+22"
    # zero, with or without a surd, is "0"; a negative surd keeps its sign
    assert fmt12_exact(ExactScaled(Fraction(0))) == fmt12(0.0) == "0"
    assert fmt12_exact(ExactScaled(Fraction(0), 7)) == "0"
    assert fmt12_exact(ExactScaled(Fraction(-1), 2)) == "-0.707106781187"
    assert fmt12_exact(ExactScaled(Fraction(-1, 10**6), 3)) == "-5.7735026919e-07"


def test_a_13_digit_tie_rounds_half_to_even_in_csv():
    # 7.495225879535 exactly: through float it rounded down to ...953
    value = ExactScaled(Fraction(1499045175907, 200000000000))
    row = ReportRow("free-clt", "g", "N", 2, 1, 3, value)
    assert render_csv(Report(rows=[row])).splitlines()[1].split(",")[6] == "7.49522587954"


_TIES = st.builds(
    lambda k, shift, sign: sign * Fraction(10 * k + 5) * Fraction(10) ** shift,
    st.integers(10**11, 10**12 - 1),
    st.integers(-400, 400),
    st.sampled_from((1, -1)),
)
_IN_RANGE = st.builds(
    lambda q, sign: sign * q,
    st.fractions(min_value=Fraction(1, 10**5), max_value=10**15, max_denominator=10**18),
    st.sampled_from((1, -1)),
)
_PAST_FLOAT = st.builds(
    lambda p, q, shift: Fraction(p, q) * Fraction(10) ** shift,
    st.integers(-(10**30), 10**30).filter(bool),
    st.integers(1, 10**30),
    st.sampled_from((-1, 1)).flatmap(lambda s: st.integers(310, 2000).map(lambda e: s * e)),
)


@given(st.one_of(_TIES, _IN_RANGE, _PAST_FLOAT), st.sampled_from((1, 2, 3, 6, 10, 4099)))
@example(Fraction(1499045175907, 200000000000), 1)
@example(Fraction(-(10**12) - 5, 10**420), 1)
def test_fmt12_exact_matches_decimal_rounding(frac, sqrt_den):
    # rationals against one correctly rounded decimal division, surds
    # against a 40-digit decimal square root
    v = ExactScaled(frac, sqrt_den)
    assert fmt12_exact(v) == fmt12_by_decimal(frac, sqrt_den)


def test_values_below_the_normal_float_range_render_exactly():
    # a subnormal float or 0.0 would lose digits: JSON null, CSV from the value
    for frac, cell in [
        (Fraction(1, 10**310), "1e-310"),
        (Fraction(-3, 10**400), "-3e-400"),
        (Fraction(1, 10**307), "1e-307"),
    ]:
        row = ReportRow("free-clt", "g", "N", 2, 1, 3, ExactScaled(frac), ExactScaled(Fraction(0)))
        report = Report(rows=[row])
        assert render_csv(report).splitlines()[1].split(",")[6] == cell
        shown = json.loads(render_json(report))["rows"][0]
        assert shown["value_exact"] == str(frac)
        if abs(frac) < Fraction(sys.float_info.min):
            assert (shown["value"], shown["abs_err"]) == (None, None)
        else:
            assert shown["value"] == float(frac)
    # a reference that small still gives the relative error, from the exact values
    value, reference = (ExactScaled(Fraction(c, 10**400)) for c in (3, 2))
    row = ReportRow("free-clt", "g", "N", 2, 1, 3, value, reference)
    assert row.rel_err == 0.5
    assert render_csv(Report(rows=[row])).splitlines()[1].split(",")[6:] == [
        "3e-400", "2e-400", "1e-400", "0.5",
    ]


def test_surd_cells_render_from_the_exact_value():
    # |value| = 5.0418025325649996...e+150, just below the tie of the 12th
    # digit: a route through floats can land above it
    numerator = int(
        "-911219216816213015588359292900074547504174991168495767500483397512006616262221253"
        "460822340022335701492969324077780289483419107381527598456334819360387584469817"
    )
    frac = Fraction(numerator, 73783867)
    value = ExactScaled(frac, 6)
    row = ReportRow("free-clt", "g", "N", 2, 3, 1, value, ExactScaled(Fraction(0)))
    cells = render_csv(Report(rows=[row])).splitlines()[1].split(",")
    assert cells[6:] == ["-5.04180253256e+150", "0", "5.04180253256e+150", ""]


@pytest.mark.parametrize("frac, sqrt_den", [
    (Fraction(7 * 10**200), 3),
    (Fraction(-(10**400), 3), 10**201 + 7),
    (Fraction(1, 10**200), 5),
    (Fraction(-5, 7), 2),
])
def test_surd_floats_come_from_the_square(frac, sqrt_den):
    # the square of a value near 1e200 overflows a float, near 1e-200 it
    # underflows, and frac itself may overflow: to_float still lands within
    # one ulp of the 40-digit root
    x = ExactScaled(frac, sqrt_den).to_float()
    want = float(sqrt_by_decimal(frac, sqrt_den))
    assert math.isfinite(x) and abs(x - want) <= math.ulp(want)


@pytest.mark.parametrize(
    "value, cell",
    [
        (ExactScaled(Fraction(3**5000)), "4.03899762979e+2385"),
        (ExactScaled(Fraction(3**10000)), "1.63135018534e+4771"),
        (ExactScaled(Fraction(-(3**10001)), 2), "-3.46061633564e+4771"),
    ],
)
def test_values_past_the_int_digit_limit_render(value, cell):
    # the CSV exponent comes from bit lengths; JSON lifts the digit limit
    # only while it renders
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    row = ReportRow("moments", "g", "state", "vacuum", None, 9, value)
    report = Report(rows=[row])
    assert render_csv(report).splitlines()[1].split(",")[6] == cell
    assert render_json(report) == indented_json(report)
    shown = json.loads(render_json(report))["rows"][0]
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        assert shown["value_exact"] == value.exact_str()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert (shown["value"], shown["skipped"]) == (None, False)


def indented_json(report):
    """The report as json.dumps(doc, indent=2, allow_nan=False) writes it,
    doc holding the fields render_json writes, as nested dicts."""
    from freespec import __version__
    from freespec.reports import _exact, _float, _shown

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rows = []
        for r in report.rows:
            value, reference, abs_err, rel_err = _shown(r)
            rows.append({
                "experiment": r.experiment, "graph": r.graph, "param_name": r.param_name,
                "param_value": r.param_value, "k": r.k, "m": r.m,
                "value": _float(value), "value_exact": _exact(value),
                "reference": _float(reference), "reference_exact": _exact(reference),
                "abs_err": _float(abs_err), "rel_err": rel_err, "skipped": r.skipped,
            })
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    meta = {
        "seed": report.seed, "budgets": report.budgets.as_dict(),
        "version": __version__, "wall_ms": report.wall_ms,
    }
    return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"


_FRACTIONS = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))


@st.composite
def report_rows(draw):
    """A row as the subcommands make them: skipped, a float without a
    reference, a rational, or a surd against a zero reference."""
    kind = draw(st.sampled_from(("skipped", "float", "rational", "surd")))
    reference = draw(st.none() | _FRACTIONS.map(ExactScaled))
    if kind == "skipped":
        value = None
    elif kind == "float":
        value, reference = draw(st.floats(allow_nan=False, allow_infinity=False)), None
    elif kind == "rational":
        value = ExactScaled(draw(_FRACTIONS))
    else:
        value = ExactScaled(draw(_FRACTIONS), draw(st.sampled_from((2, 3, 6, 10**9 + 7))))
        reference = draw(st.sampled_from((None, ExactScaled(Fraction(0)))))
    text = st.text(max_size=8)
    scalars = st.none() | st.integers() | text | st.floats(allow_nan=False)
    return ReportRow(
        draw(text), draw(text), draw(text), draw(scalars),
        draw(st.none() | st.integers(0, 9)), draw(st.none() | st.integers(0, 10**4)),
        value, reference,
    )


@given(
    st.lists(report_rows(), max_size=4),
    st.none() | st.integers(),
    st.builds(Budgets, st.integers(0, 10**30), st.integers(0, 10**30)),
    st.integers(0, 10**6),
)
@example([], None, Budgets(), 0)
@example(
    [
        ReportRow('say "h\u00e9llo" \\ 100%s', "\u56fe\n\t", "N", "%d", None, None, None),
        ReportRow("moments", "k3", "state", "vacuum", None, 9, ExactScaled(Fraction(3**8000, 7))),
        ReportRow("free-clt", "g", "N", 2, 3, 1, ExactScaled(Fraction(-5, 7), 2),
                  ExactScaled(Fraction(0))),
        ReportRow("km-density", "kesten-mckay-d3", "x", -0.5, None, None, 0.25),
        ReportRow("free-clt", "g", "N", 2, 1, 3, ExactScaled(Fraction(3, 10**400)),
                  ExactScaled(Fraction(2, 10**400))),
    ],
    7,
    Budgets(10**8, 10**6),
    12,
)
@settings(deadline=None)
def test_render_json_is_the_indented_dump(rows, seed, budgets, wall_ms):
    # render_json writes the layout itself; it must stay byte for byte what
    # json.dumps(..., indent=2) writes, and refuse what that refuses
    report = Report(rows=rows, seed=seed, budgets=budgets, wall_ms=wall_ms)
    try:
        expected = indented_json(report)
    except ValueError as exc:  # an infinite float: a parameter or a relative error
        with pytest.raises(ValueError, match="Out of range float"):
            render_json(report)
        assert "Out of range float" in str(exc)
        return
    assert render_json(report) == expected


def test_records_keep_value_semantics():
    # plain record classes: equal fields give equal objects and equal hashes
    equal_pairs = [
        (complete_graph(3), RootedGraph(3, 0, ((1, 2), (0, 2), (0, 1)))),
        (free_power(cycle_graph(4), 3), free_power(cycle_graph(4), 3)),
        (ExactScaled(Fraction(2), 8), ExactScaled(Fraction(1), 2)),
        (Budgets(5, 7), Budgets(walk_expansions=5, ball_vertices=7)),
        (PairingConfig(n=10, d=3, seed=4), PairingConfig(10, 3, 4, 1000)),
        (JacobiParams((1, 2)), JacobiParams([Fraction(1), Fraction(4, 2)])),
    ]
    for a, b in equal_pairs:
        assert a is not b
        assert a == b and hash(a) == hash(b), a
        assert pickle.loads(pickle.dumps(a)) == a
    assert complete_graph(3) != RootedGraph(3, 1, ((1, 2), (0, 2), (0, 1)))
    assert Budgets(5, 7) != Budgets(5, 8)
    assert PairingConfig(10, 3, 4) != PairingConfig(10, 3, 5)
    assert len({Budgets(), Budgets(), Budgets(1, 1)}) == 2
    # frozen classes refuse assignment; cached properties still fill in
    for record, name in [
        (complete_graph(3), "root"),
        (free_power(cycle_graph(4), 3), "copies"),
        (ExactScaled(Fraction(1), 2), "square"),
        (Budgets(), "walk_expansions"),
        (PairingConfig(10, 3, 4), "seed"),
        (JacobiParams((1,)), "gamma"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert complete_graph(3).connected
    assert free_power(cycle_graph(4), 3).apsp[0] == (0, 1, 2, 1)
    # a report stays mutable: large-d relabels rows, --timing sets wall_ms
    row = ReportRow("free-clt", "tree", "N", 3, 2, 0, ExactScaled(Fraction(1)))
    row.experiment, row.param_name = "large-d", "d"
    report = Report(rows=[row])
    report.wall_ms = 12
    assert (row.experiment, row.param_name, report.wall_ms) == ("large-d", "d", 12)
    same = ReportRow("large-d", "tree", "d", 3, 2, 0, ExactScaled(1))
    assert report == Report([same], wall_ms=12)
    with pytest.raises(TypeError):
        hash(report)


def test_records_validate_their_fields():
    with pytest.raises(ParityError):
        PairingConfig(n=5, d=3, seed=0)
    with pytest.raises(ValueError, match="gamma entries must be positive"):
        JacobiParams((1, 0))
    with pytest.raises(ValueError, match="nonempty"):
        JacobiParams(())
    # canonical form: an int when integral, a Fraction otherwise
    gamma = JacobiParams((Fraction(2), Fraction(1, 2), "3/3")).gamma
    assert gamma == (2, Fraction(1, 2), 1)
    assert [type(g) for g in gamma] == [int, Fraction, int]
    with pytest.raises(ValueError):
        ExactScaled(Fraction(1), 0)
    # canonical form: a surd keeps its signed square, and a value whose
    # square is a rational's square, zero among them, keeps that rational
    for frac, sqrt_den, fields, text in [
        (Fraction(3), 12, (None, Fraction(3, 4)), "sqrt(3/4)"),
        (Fraction(-3, 8), 2, (None, Fraction(-9, 128)), "-sqrt(9/128)"),
        (Fraction(-3), 36, (Fraction(-1, 2), None), "-1/2"),
        (Fraction(0), 5, (Fraction(0), None), "0"),
        (7, 1, (Fraction(7), None), "7"),
    ]:
        v = ExactScaled(frac, sqrt_den)
        assert ((v.rational, v.square), v.exact_str()) == (fields, text)
        assert type(v.rational if v.square is None else v.square) is Fraction


def test_report_row_lookup():
    row = ReportRow("x", "g", "n", 2, 1, 0, ExactScaled(Fraction(1)))
    rep = Report(rows=[row])
    assert report_row(rep, 2, 0) is row
    with pytest.raises(KeyError):
        report_row(rep, 3, 0)


def test_every_error_survives_pickling():
    # a worker process sends its error to the parent pickled
    fields = {
        errors.LoopEdgeError: {"vertex": 3},
        errors.BudgetExceededError: {"count": 12, "budget": 10, "what": "walk expansions"},
        errors.RetriesExhaustedError: {"retries": 1000, "d": 6},
    }

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = list(subclasses(errors.FreespecError))
    assert set(fields) <= set(classes)
    for cls in classes:
        exc = cls(**fields[cls]) if cls in fields else cls(f"{cls.__name__} message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args
        for name, value in fields.get(cls, {}).items():
            assert getattr(back, name) == value
    assert str(errors.LoopEdgeError(3)) == "loop edge at vertex 3"
    assert str(errors.BudgetExceededError(5, 4)) == "budget exceeded: 5 items (budget 4)"


def test_budget_defaults_are_the_library_defaults():
    # the CLI's defaults are the fields of Budgets(), and every function
    # that takes the meter defaults to that meter or is handed its caller's;
    # no limit goes by a second name
    assert Budgets() == Budgets(walk_expansions=10**8, ball_vertices=10**6)
    renamed = {"budget", "max_expansions", "max_nodes", "max_vertices", "max_pairs"}
    defaults = {}
    for module in (cli, experiments, freeprod, graphs, polymoments, regular):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                params = inspect.signature(fn).parameters
                assert not renamed & set(params), name
                if "budgets" in params:
                    defaults[name] = params["budgets"].default
    assert set(defaults.values()) == {Budgets(), inspect.Parameter.empty}
    engines = {
        "decomposition_check", "tree_recurrence_check", "vacuum_moments_distance_k",
        "closed_walk_counts", "trace_moments", "count_k_cycles", "square_check",
        "semicircle_moments", "kesten_mckay_moments", "tree_distance_k_law_moments",
        "chebyshev_reference_moments",
    }
    assert {name for name, default in defaults.items() if default == Budgets()} >= engines


def test_only_the_meter_raises_budget_errors():
    # Budgets is the one place a charge meets its limit: no module but
    # errors builds a BudgetExceededError, and the stages named in charges
    # are exactly the keys of errors.STAGES
    src = Path(freespec.__file__).parent
    named = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called == "BudgetExceededError":
                assert path.name == "errors.py", path.name
            if called in ("charge", "limit") and isinstance(node.args[0], ast.Constant):
                named.add(node.args[0].value)
    assert named == set(errors.STAGES)


def test_the_readme_budget_table_lists_every_stage():
    # README's budget table has one row per stage of errors.STAGES, whose
    # limit column names the limit that stage is charged to
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n| stage | limit |")[1].split("\n\n")[0].splitlines()[2:]
    limits = {"walk": "walk_expansions", "ball": "ball_vertices"}
    rows = [[cell.strip() for cell in line.split("|")[1:3]] for line in table]
    assert [stage.strip("`") for stage, _ in rows] == list(errors.STAGES)
    assert {stage.strip("`"): limits[limit] for stage, limit in rows} == errors.STAGES


def test_package_imports_only_the_standard_library():
    # the runtime has no dependencies: every module of the package imports
    # with no site-packages and only the package's source on the path
    script = (
        "import importlib, pkgutil, sys, freespec\n"
        "for info in pkgutil.iter_modules(freespec.__path__):\n"
        "    importlib.import_module('freespec.' + info.name)\n"
        "print(*sorted(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(freespec.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[0] for name in done.stdout.split()}
    assert "freespec" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"freespec", "__main__"}


def test_every_export_is_used_by_the_package():
    # a name freespec exports must be used by the package itself, not only
    # by the tests: some module other than __init__ refers to it outside
    # the name's own definition
    src = Path(freespec.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    exported = [
        alias.asname or alias.name
        for node in trees.pop("__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "free_power" in exported and "builtin_graph" in exported

    def refers(tree, name):
        stack = [
            node
            for node in tree.body
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)
        ]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    unused = [name for name in exported if not any(refers(t, name) for t in trees.values())]
    assert unused == []


def test_every_helper_is_called_by_the_package():
    # a function, method or property the package defines, dunders aside, is
    # referred to by the package outside its own definition, or wrapped or
    # read by perfbench/traced.py; argparse itself calls the cli parsers'
    # error and parse_known_args, which override its own
    src = Path(freespec.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    traced = ast.parse((src.parents[1] / "perfbench" / "traced.py").read_text())

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    used = Counter(name for tree in trees for name in names(tree))
    perfbench = set(names(traced))
    defined = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]
    assert len(defined) > 100
    unused = [
        node.name
        for node in defined
        if used[node.name] == Counter(names(node))[node.name]
        and node.name not in perfbench
        and not hasattr(argparse.ArgumentParser, node.name)
    ]
    assert unused == []
