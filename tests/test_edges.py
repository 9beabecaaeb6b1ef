"""Edge-case contracts: validation errors, degenerate inputs, report internals."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freespec.errors import UnreducedWordError
from freespec.freeprod import (
    ball,
    format_word,
    free_power,
    make_word,
    vacuum_moments_distance_k,
    word_distance,
    word_letters,
)
from freespec.graphs import complete_graph, cycle_graph
from freespec.polymoments import (
    kesten_mckay_moments,
    pushforward_moments,
    tree_distance_k_law_moments,
    tree_distance_poly,
)
from freespec.reports import ExactScaled, Report, ReportRow


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
        assert kesten_mckay_moments(d, 12).hankel_positive()
        for k in (1, 2, 3):
            assert tree_distance_k_law_moments(d, k, 8).hankel_positive()
    pf = pushforward_moments(tree_distance_poly(3, 2), kesten_mckay_moments(3, 12), 6)
    assert pf.hankel_positive()


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


def test_report_row_lookup():
    row = ReportRow("x", "g", "n", 2, 1, 0, ExactScaled(Fraction(1)))
    rep = Report(rows=[row])
    assert rep.row(2, 0) is row
    with pytest.raises(KeyError):
        rep.row(3, 0)
