"""Edge-case contracts: validation errors, degenerate inputs, report internals."""
import ast
import inspect
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
from freespec.errors import UnreducedWordError
from freespec.freeprod import ball, free_power, vacuum_moments_distance_k, word_distance
from freespec.graphs import complete_graph, count_k_cycles, cycle_graph
from freespec.polymoments import (
    kesten_mckay_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
from freespec.reports import Budgets, ExactScaled, Report, ReportRow, fmt12, fmt12_exact
from oracles import (
    format_word,
    hankel_positive,
    make_word,
    pushforward_moments,
    report_row,
    word_letters,
)


def test_single_copy_free_power():
    # N = 1 degenerates to the base graph itself
    spec = free_power(complete_graph(2), 1)
    assert vacuum_moments_distance_k(spec, 1, 4) == [1, 0, 1, 0, 1]
    assert len(ball(spec, 3).words) == 2


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
    bg = ball(spec, 0)
    assert bg.words == ((),)
    assert bg.graph.edge_count == 0


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
