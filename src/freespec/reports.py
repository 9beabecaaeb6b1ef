"""Report structures and CSV/JSON rendering.

Values inside reports stay exact: a rational, or for odd normalization
powers a surd, the signed square root of a rational, kept as that signed
square (canonical with no factoring) and spelled [-]sqrt(v^2) in JSON.
Rounding only happens at render time.  Rendering is deterministic:
identical inputs give byte-identical output.  Every exact CSV cell is
rounded once, from its integers, to 12 significant digits (fmt12_exact);
float cells go through fmt12.  JSON floats go through float: a nonzero
exact value outside the normal float range (past its top, or below
sys.float_info.min) is null there, and the row's *_exact fields carry it.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import __version__
from .errors import Budgets, Frozen, Record

CSV_HEADER = "experiment,graph,param_name,param_value,k,m,value,reference,abs_err,rel_err"


class ExactScaled(Frozen):
    """An exact value frac / sqrt(sqrt_den); sqrt_den = 1 means plain rational.

    Stored in canonical form, with no factoring: a rational value keeps its
    Fraction in rational, and any other value v keeps its signed square
    v * |v|, a Fraction, in square.  Exactly one of the two is set, so equal
    values have equal fields.
    """

    _fields = ("rational", "square")

    def __init__(self, frac: Fraction, sqrt_den: int = 1):
        if sqrt_den < 1:
            raise ValueError("sqrt_den must be >= 1")
        frac = Fraction(frac)
        if sqrt_den == 1:
            super().__init__(frac, None)
            return
        square = frac * abs(frac) / sqrt_den
        num, den = abs(square.numerator), square.denominator
        r, s = math.isqrt(num), math.isqrt(den)
        if r * r == num and s * s == den:
            super().__init__(Fraction(-r if square < 0 else r, s), None)
        else:
            super().__init__(None, square)

    def to_float(self) -> float:
        if self.square is None:
            return float(self.rational)
        # sqrt(num / den) from an integer root of about 64 bits, so a square
        # past the float range still gives its root
        num, den = abs(self.square.numerator), self.square.denominator
        shift = (128 - num.bit_length() + den.bit_length()) // 2
        scaled = (num << 2 * shift) // den if shift >= 0 else num // (den << -2 * shift)
        root = math.ldexp(math.isqrt(scaled), -shift)
        return -root if self.square < 0 else root

    def exact_str(self) -> str:
        if self.square is None:
            return str(self.rational)
        return f"sqrt({self.square})" if self.square > 0 else f"-sqrt({-self.square})"

    def abs(self) -> "ExactScaled":
        if self.square is None:
            return ExactScaled(abs(self.rational))
        num, den = abs(self.square.numerator), self.square.denominator
        return ExactScaled(Fraction(num), num * den)  # sqrt(num / den) = num / sqrt(num * den)

    def sub_rational(self, q: Fraction) -> "ExactScaled":
        """self - q, exactly; only defined when one side carries no surd."""
        if self.square is None:
            return ExactScaled(self.rational - q)
        if q == 0:
            return self
        raise ValueError("cannot subtract a nonzero rational from a surd exactly")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.square is None and self.rational == other
        return super().__eq__(other)

    def __hash__(self):
        return hash(self.rational) if self.square is None else super().__hash__()


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
        return self.value.sub_rational(self.reference.rational).abs()

    @property
    def rel_err(self) -> float | None:
        err = self.abs_err
        ref = self.reference
        if err is None or ref is None or ref == 0:
            return None
        try:
            return err.to_float() / abs(ref.to_float())
        except (OverflowError, ZeroDivisionError):
            # outside the float range: references are rational, and so is
            # err against a nonzero one
            return float(err.rational / abs(ref.rational))


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


def _shown(r: ReportRow) -> tuple:
    """A row's value, reference, abs_err and rel_err; a skipped row shows none."""
    if r.skipped:
        return None, None, None, None
    return r.value, r.reference, r.abs_err, r.rel_err


def fmt12_exact(v: ExactScaled) -> str:
    """fmt12 from the exact value rather than a float; zero renders as "0".

    |v| is rounded half to even at 12 significant digits and laid out as
    '.12g' lays out a float: fixed notation when the rounded value's decimal
    exponent is in -4..11, exponent form otherwise.  The work is on the
    integers of v^2 = num / den alone.
    """
    if v.square is None:
        signed, num, den = v.rational, v.rational.numerator ** 2, v.rational.denominator ** 2
    else:
        signed, num, den = v.square, abs(v.square.numerator), v.square.denominator
    if num == 0:
        return "0"
    # 10^e <= |v| < 10^(e+1), so a / b = v^2 * 100^(11 - e) is in
    # [10^22, 10^24); bit lengths give e to within one, with no int-to-str
    # conversion, whose digit limit a huge value would pass
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2) / 2)
    a, b = (num * 100 ** (11 - e), den) if e <= 11 else (num, den * 100 ** (e - 11))
    while a < 10**22 * b:
        a, e = a * 100, e - 1
    while a >= 10**24 * b:
        b, e = b * 100, e + 1
    # the 12 digits are sqrt(a / b) rounded half to even
    digits = math.isqrt(a // b)
    half = 4 * a - (2 * digits + 1) ** 2 * b
    if half > 0 or (half == 0 and digits % 2):
        digits += 1
    if digits == 10**12:
        digits, e = 10**11, e + 1
    text = str(digits)
    sign = "-" if signed < 0 else ""
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
    return None if v != 0 and abs(x) < sys.float_info.min else x


def _csv_cell(v) -> str:
    if isinstance(v, ExactScaled):
        return fmt12_exact(v)
    if isinstance(v, float):
        return fmt12(v)
    return "" if v is None else str(v)


def _exact(v: ExactScaled | float | None) -> str | None:
    return v.exact_str() if isinstance(v, ExactScaled) else None


def render_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        cells = (r.experiment, r.graph, r.param_name, r.param_value, r.k, r.m, *_shown(r))
        lines.append(",".join(map(_csv_cell, cells)))
    return "\n".join(lines) + "\n"


_ROW_KEYS = (
    "experiment", "graph", "param_name", "param_value", "k", "m", "value", "value_exact",
    "reference", "reference_exact", "abs_err", "rel_err", "skipped",
)


def _json_object(keys, pad: str) -> str:
    """The indent=2 layout of a JSON object with these keys at indent pad:
    a %s for each value, which is already JSON."""
    return "{" + ",".join(f'\n{pad}  "{key}": %s' for key in keys) + f"\n{pad}}}"


def render_json(report: Report) -> str:
    """The report as json.dumps(doc, indent=2, allow_nan=False) lays it out,
    doc being {"meta": {...}, "rows": [{...}, ...]}.

    The layout is written here and every scalar is spelled by one call of
    json's C encoder, which indent=2 would turn off.  An encoded scalar holds
    no raw newline, so a newline separates them.
    """
    import json

    # each *_exact field spells its value in full: Python's int-to-str digit
    # limit, where the interpreter has one, is lifted while rendering
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        values = []
        for r in report.rows:
            value, reference, abs_err, rel_err = _shown(r)
            values += (
                r.experiment, r.graph, r.param_name, r.param_value, r.k, r.m,
                _float(value), _exact(value), _float(reference), _exact(reference),
                _float(abs_err), rel_err, r.skipped,
            )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    budgets = report.budgets.as_dict()
    head = [report.seed, *budgets.values(), __version__, report.wall_ms]
    scalars = json.dumps(head + values, allow_nan=False, separators=("\n", ": "))[1:-1].split("\n")
    seed, *limits, version, wall_ms = scalars[: len(head)]
    row, width = _json_object(_ROW_KEYS, "    "), len(_ROW_KEYS)
    rows = [
        "\n    " + row % tuple(scalars[i : i + width])
        for i in range(len(head), len(scalars), width)
    ]
    meta = _json_object(("seed", "budgets", "version", "wall_ms"), "  ") % (
        seed, _json_object(budgets, "    ") % tuple(limits), version, wall_ms
    )
    rows = "[" + ",".join(rows) + "\n  ]" if rows else "[]"
    return _json_object(("meta", "rows"), "") % (meta, rows) + "\n"
