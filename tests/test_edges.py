"""Edge-case contracts: validation errors, degenerate inputs, report internals."""
import ast
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import freespec
from freespec import errors
from freespec.errors import ParityError, UnreducedWordError
from freespec.freeprod import ball, free_power, vacuum_moments_distance_k
from freespec.graphs import RootedGraph, complete_graph, count_k_cycles, cycle_graph
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
    format_word,
    hankel_positive,
    make_word,
    pushforward_moments,
    report_row,
    word_distance,
    word_letters,
)


def test_single_copy_free_power():
    # N = 1 degenerates to the base graph itself
    spec = free_power(complete_graph(2), 1)
    assert vacuum_moments_distance_k(spec, 1, 4) == [1, 0, 1, 0, 1]
    assert len(ball(spec, 3)) == 2


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
    assert ball(spec, 0) == {(): 0}


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


@given(
    st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 50),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=20),
)
def test_exact_scaled_eq_implies_same_hash(frac, sqrt_den, square):
    # frac / sqrt(sqrt_den) written a second way: scale both by square
    a = ExactScaled(frac, sqrt_den)
    b = ExactScaled(frac * square, sqrt_den * square * square)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if sqrt_den == 1:
        assert a == frac and hash(a) == hash(frac)


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
    # |value| = 5.0418025325649996...e+150; float(frac) / math.sqrt(6) rounds
    # twice and lands above the tie of the 12th digit
    numerator = int(
        "-911219216816213015588359292900074547504174991168495767500483397512006616262221253"
        "460822340022335701492969324077780289483419107381527598456334819360387584469817"
    )
    frac = Fraction(numerator, 73783867)
    value = ExactScaled(frac, 6)
    assert fmt12(value.to_float()) == "-5.04180253257e+150"
    row = ReportRow("free-clt", "g", "N", 2, 3, 1, value, ExactScaled(Fraction(0)))
    cells = render_csv(Report(rows=[row])).splitlines()[1].split(",")
    assert cells[6:] == ["-5.04180253256e+150", "0", "5.04180253256e+150", ""]


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


def test_records_keep_value_semantics():
    # plain record classes: equal fields give equal objects and equal hashes
    equal_pairs = [
        (complete_graph(3), RootedGraph(3, 0, ((1, 2), (0, 2), (0, 1)))),
        (free_power(cycle_graph(4), 3), free_power(cycle_graph(4), 3)),
        (ExactScaled(Fraction(2), 8), ExactScaled(Fraction(1), 2)),
        (Budgets(5, 7), Budgets(walk_expansions=5, ball_vertices=7)),
        (PairingConfig(n=10, d=3, seed=4), PairingConfig(10, 3, 4, 1000)),
        (JacobiParams((0,), (1, 2)), JacobiParams([Fraction(0)], [Fraction(1), 2])),
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
        (ExactScaled(Fraction(1), 2), "sqrt_den"),
        (Budgets(), "walk_expansions"),
        (PairingConfig(10, 3, 4), "seed"),
        (JacobiParams((0,), (1,)), "gamma"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert complete_graph(3).connected
    assert free_power(cycle_graph(4), 3).letter_costs == (0, 1, 2, 1) * 3
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
        JacobiParams((0,), (1, 0))
    with pytest.raises(ValueError, match="nonempty"):
        JacobiParams((), (1,))
    assert JacobiParams((1,), (2,)).gamma == (Fraction(2),)
    with pytest.raises(ValueError):
        ExactScaled(Fraction(1), 0)
    # canonical form: square factors leave the root, and zero carries none
    v = ExactScaled(Fraction(3), 12)
    assert (v.frac, v.sqrt_den) == (Fraction(3, 2), 3)
    assert ExactScaled(Fraction(0), 5).sqrt_den == 1
    assert ExactScaled(7).frac == Fraction(7) and type(ExactScaled(7).frac) is Fraction


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
    # the CLI's defaults are the fields of Budgets(); the engines' own
    # defaults are the same two constants
    walk, balls = errors.DEFAULT_WALK_BUDGET, errors.DEFAULT_BALL_BUDGET
    assert (walk, balls) == (10**8, 10**6)
    assert Budgets() == Budgets(walk_expansions=walk, ball_vertices=balls)
    for fn, name, default in (
        (ball, "max_vertices", balls),
        (vacuum_moments_distance_k, "budget", walk),
        (count_k_cycles, "max_nodes", walk),
    ):
        assert inspect.signature(fn).parameters[name].default == default


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
