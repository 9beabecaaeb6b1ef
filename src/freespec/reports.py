"""Report structures and CSV/JSON rendering.

Values inside reports stay exact (rationals, possibly divided by the square
root of an integer for odd normalization powers); floating point only
appears at render time.  Rendering is deterministic: identical inputs give
byte-identical output.  A nonzero exact value outside the normal float
range (past its top, or below sys.float_info.min) renders in CSV from the
value itself, in the same 12-digit shape, and as null in JSON, whose
*_exact fields carry it.  A surd (sqrt_den > 1) also renders in CSV
from the value itself, so its 12 digits are rounded once; JSON floats and
rational CSV cells go through float.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import __version__
from .errors import DEFAULT_BALL_BUDGET, DEFAULT_WALK_BUDGET, Frozen, Record

CSV_HEADER = "experiment,graph,param_name,param_value,k,m,value,reference,abs_err,rel_err"


class Budgets(Frozen):
    _fields = ("walk_expansions", "ball_vertices")

    def __init__(
        self, walk_expansions: int = DEFAULT_WALK_BUDGET, ball_vertices: int = DEFAULT_BALL_BUDGET
    ):
        super().__init__(walk_expansions, ball_vertices)

    def as_dict(self) -> dict:
        return {
            "walk_expansions": self.walk_expansions,
            "ball_vertices": self.ball_vertices,
        }


class ExactScaled(Frozen):
    """An exact value frac / sqrt(sqrt_den); sqrt_den = 1 means plain rational.

    Stored in canonical form: sqrt_den is squarefree (square factors move
    into frac) and zero has sqrt_den 1, so equal values have equal fields.
    """

    _fields = ("frac", "sqrt_den")

    def __init__(self, frac: Fraction, sqrt_den: int = 1):
        if sqrt_den < 1:
            raise ValueError("sqrt_den must be >= 1")
        frac, rest = Fraction(frac), sqrt_den
        if frac == 0:
            rest = 1
        f = 2
        while f * f <= rest:
            while rest % (f * f) == 0:
                rest //= f * f
                frac /= f
            f += 1
        super().__init__(frac, rest)

    def to_float(self) -> float:
        return float(self.frac) / math.sqrt(self.sqrt_den)

    def exact_str(self) -> str:
        if self.sqrt_den == 1:
            return str(self.frac)
        return f"({self.frac})/sqrt({self.sqrt_den})"

    def abs(self) -> "ExactScaled":
        return ExactScaled(abs(self.frac), self.sqrt_den)

    def sub_rational(self, q: Fraction) -> "ExactScaled":
        """self - q, exactly; only defined when one side carries no surd."""
        if self.sqrt_den == 1:
            return ExactScaled(self.frac - q)
        if q == 0:
            return self
        raise ValueError("cannot subtract a nonzero rational from a surd exactly")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScaled(Fraction(other))
        if isinstance(other, ExactScaled):
            return self.frac == other.frac and self.sqrt_den == other.sqrt_den
        return NotImplemented

    def __hash__(self):
        if self.sqrt_den == 1:
            return hash(self.frac)
        return hash((self.frac, self.sqrt_den))


class ReportRow(Record):
    _fields = (
        "experiment", "graph", "param_name", "param_value", "k", "m",
        "value", "reference",
    )

    def __init__(
        self,
        experiment: str,
        graph: str,
        param_name: str,
        param_value: object,
        k: int | None,
        m: int | None,
        value: ExactScaled | float | None,
        reference: ExactScaled | None = None,
    ):
        super().__init__(experiment, graph, param_name, param_value, k, m, value, reference)

    @property
    def skipped(self) -> bool:
        """Whether the row's cell was skipped over its budget: it has no value."""
        return self.value is None

    @property
    def abs_err(self) -> ExactScaled | None:
        # a float value (km-density) never carries a reference
        if self.value is None or self.reference is None:
            return None
        # surd-scaled values only ever face a zero reference (odd powers)
        return self.value.sub_rational(self.reference.frac).abs()

    @property
    def rel_err(self) -> float | None:
        err = self.abs_err
        ref = self.reference
        if err is None or ref is None or ref.frac == 0:
            return None
        try:
            return err.to_float() / abs(ref.to_float())
        except (OverflowError, ZeroDivisionError):
            # outside the float range: references are rational, and so is
            # err against a nonzero one
            return float(err.frac / abs(ref.frac))


def moment_rows(
    experiment: str, graph: str, param_name: str, k: int | None, cells, refs
) -> list[ReportRow]:
    """The rows of a moment table: one per (parameter value, m), in cell order.

    cells holds (param_value, values) pairs, where values lists that
    parameter's ExactScaled values by m, or is None for a cell skipped over
    its budget.  refs holds one exact rational reference per m, or None
    where the table has none.
    """
    return [
        ReportRow(
            experiment=experiment,
            graph=graph,
            param_name=param_name,
            param_value=param_value,
            k=k,
            m=m,
            value=None if values is None else values[m],
            reference=None if ref is None else ExactScaled(ref),
        )
        for param_value, values in cells
        for m, ref in enumerate(refs)
    ]


class Report(Record):
    _fields = ("rows", "seed", "budgets", "wall_ms")

    def __init__(
        self,
        rows: list[ReportRow],
        seed: int | None = None,
        budgets: Budgets = Budgets(),
        wall_ms: int = 0,
    ):
        super().__init__(rows, seed, budgets, wall_ms)


def fmt12(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{x:.12g}"


def _render_param(v) -> str:
    if isinstance(v, float):
        return fmt12(v)
    return str(v)


def _shown(r: ReportRow) -> tuple:
    """A row's value, reference, abs_err and rel_err; a skipped row shows none."""
    if r.skipped:
        return None, None, None, None
    return r.value, r.reference, r.abs_err, r.rel_err


def fmt12_exact(v: ExactScaled) -> str:
    """fmt12 from the exact value rather than a float, for a nonzero v.

    |v| = |frac| / sqrt(sqrt_den) is rounded half to even at 12 significant
    digits and laid out as '.12g' lays out a float: fixed notation when the
    rounded value's decimal exponent is in -4..11, exponent form otherwise.
    """
    square = v.frac * v.frac / v.sqrt_den
    # 10^e <= |v| < 10^(e+1); bit lengths give e to within one, with no
    # int-to-str conversion, whose digit limit a huge value would pass
    bits = square.numerator.bit_length() - square.denominator.bit_length()
    e = math.floor(bits * math.log10(2) / 2)
    while square < Fraction(100) ** e:
        e -= 1
    while square >= Fraction(100) ** (e + 1):
        e += 1
    # the 12 digits are sqrt(scaled) rounded half to even
    scaled = square * Fraction(100) ** (11 - e)
    digits = math.isqrt(math.floor(scaled))
    half = scaled - Fraction((2 * digits + 1) ** 2, 4)
    if half > 0 or (half == 0 and digits % 2):
        digits += 1
    if digits == 10**12:
        digits, e = 10**11, e + 1
    text = str(digits)
    sign = "-" if v.frac < 0 else ""
    if -4 <= e < 12:
        if e < 0:
            text = "0" * -e + text
        point = max(e, 0) + 1
        return sign + (text[:point] + "." + text[point:]).rstrip("0").rstrip(".")
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{e:+03d}"


def _float(v: ExactScaled | float | None) -> float | None:
    """v as a float; None for no value and for nonzero exact values outside
    the normal float range, past its top or below sys.float_info.min."""
    if not isinstance(v, ExactScaled):
        return v
    try:
        x = v.to_float()
    except OverflowError:
        return None
    return None if v.frac and abs(x) < sys.float_info.min else x


def _csv_cell(v: ExactScaled | float | None) -> str:
    if v is None:
        return ""
    if isinstance(v, ExactScaled) and v.sqrt_den > 1:
        # through float(frac) / math.sqrt(sqrt_den) a surd would round twice
        return fmt12_exact(v)
    x = _float(v)
    return fmt12_exact(v) if x is None else fmt12(x)


def _exact(v: ExactScaled | float | None) -> str | None:
    return v.exact_str() if isinstance(v, ExactScaled) else None


def render_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.graph,
                    r.param_name,
                    _render_param(r.param_value),
                    "" if r.k is None else str(r.k),
                    "" if r.m is None else str(r.m),
                ]
                + [_csv_cell(v) for v in _shown(r)]
            )
        )
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json

    # each *_exact field spells its value in full: Python's int-to-str digit
    # limit, where the interpreter has one, is lifted while rendering
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rows = []
        for r in report.rows:
            value, reference, abs_err, rel_err = _shown(r)
            rows.append(
                {
                    "experiment": r.experiment,
                    "graph": r.graph,
                    "param_name": r.param_name,
                    "param_value": r.param_value,
                    "k": r.k,
                    "m": r.m,
                    "value": _float(value),
                    "value_exact": _exact(value),
                    "reference": _float(reference),
                    "reference_exact": _exact(reference),
                    "abs_err": _float(abs_err),
                    "rel_err": rel_err,
                    "skipped": r.skipped,
                }
            )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    doc = {
        "meta": {
            "seed": report.seed,
            "budgets": report.budgets.as_dict(),
            "version": __version__,
            "wall_ms": report.wall_ms,
        },
        "rows": rows,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
