"""Report structures and CSV/JSON rendering.

Values inside reports stay exact (rationals, possibly divided by the square
root of an integer for odd normalization powers); floating point only
appears at render time.  Rendering is deterministic: identical inputs give
byte-identical output.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__

CSV_HEADER = "experiment,graph,param_name,param_value,k,m,value,reference,abs_err,rel_err"


@dataclass(frozen=True)
class Budgets:
    walk_expansions: int = 10**8
    ball_vertices: int = 10**6

    def as_dict(self) -> dict:
        return {
            "walk_expansions": self.walk_expansions,
            "ball_vertices": self.ball_vertices,
        }


@dataclass(frozen=True)
class ExactScaled:
    """An exact value frac / sqrt(sqrt_den); sqrt_den = 1 means plain rational.

    Stored in canonical form: sqrt_den is squarefree (square factors move
    into frac) and zero has sqrt_den 1, so equal values have equal fields.
    """

    frac: Fraction
    sqrt_den: int = 1

    def __post_init__(self):
        if self.sqrt_den < 1:
            raise ValueError("sqrt_den must be >= 1")
        frac, rest = Fraction(self.frac), self.sqrt_den
        if frac == 0:
            rest = 1
        f = 2
        while f * f <= rest:
            while rest % (f * f) == 0:
                rest //= f * f
                frac /= f
            f += 1
        object.__setattr__(self, "frac", frac)
        object.__setattr__(self, "sqrt_den", rest)

    @property
    def is_rational(self) -> bool:
        return self.sqrt_den == 1

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

    def __lt__(self, other: "ExactScaled") -> bool:
        a, b = self.frac, other.frac
        if a <= 0 and b > 0:
            return True
        if a >= 0 and b <= 0:
            return False
        lhs = a * a * other.sqrt_den
        rhs = b * b * self.sqrt_den
        return lhs < rhs if a > 0 else lhs > rhs

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


def exact(value) -> ExactScaled:
    return value if isinstance(value, ExactScaled) else ExactScaled(Fraction(value))


@dataclass
class ReportRow:
    experiment: str
    graph: str
    param_name: str
    param_value: object
    k: int | None
    m: int | None
    value: ExactScaled | float | None
    reference: ExactScaled | None = None
    skipped: bool = False

    @property
    def abs_err(self) -> ExactScaled | None:
        if self.skipped or self.value is None or self.reference is None:
            return None
        if isinstance(self.value, float):
            return None
        # surd-scaled values only ever face a zero reference (odd powers)
        return self.value.sub_rational(self.reference.frac).abs()

    @property
    def rel_err(self) -> float | None:
        err = self.abs_err
        if err is None or self.reference is None or self.reference.frac == 0:
            return None
        return err.to_float() / abs(self.reference.to_float())


@dataclass
class Report:
    rows: list[ReportRow]
    seed: int | None = None
    budgets: Budgets = field(default_factory=Budgets)
    wall_ms: int = 0

    def row(self, param_value, m: int) -> ReportRow:
        for r in self.rows:
            if r.param_value == param_value and r.m == m:
                return r
        raise KeyError((param_value, m))


def fmt12(x: float) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{x:.12g}"


def _render_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt12(v)
    if isinstance(v, ExactScaled):
        return fmt12(v.to_float())
    return fmt12(float(v))


def _render_param(v) -> str:
    if isinstance(v, float):
        return fmt12(v)
    return str(v)


def render_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        if r.skipped:
            value = reference = abs_err = rel_err = ""
        else:
            value = _render_value(r.value)
            reference = _render_value(r.reference)
            abs_err = _render_value(r.abs_err)
            rel_err = _render_value(r.rel_err)
        lines.append(
            ",".join(
                [
                    r.experiment,
                    r.graph,
                    r.param_name,
                    _render_param(r.param_value),
                    "" if r.k is None else str(r.k),
                    "" if r.m is None else str(r.m),
                    value,
                    reference,
                    abs_err,
                    rel_err,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_exact(v) -> str | None:
    if isinstance(v, ExactScaled):
        return v.exact_str()
    return None


def _json_float(v) -> float | None:
    if v is None:
        return None
    if isinstance(v, float):
        return v
    if isinstance(v, ExactScaled):
        return v.to_float()
    return float(v)


def render_json(report: Report) -> str:
    rows = []
    for r in report.rows:
        rows.append(
            {
                "experiment": r.experiment,
                "graph": r.graph,
                "param_name": r.param_name,
                "param_value": r.param_value,
                "k": r.k,
                "m": r.m,
                "value": None if r.skipped else _json_float(r.value),
                "value_exact": None if r.skipped else _json_exact(r.value),
                "reference": None if r.skipped else _json_float(r.reference),
                "reference_exact": None if r.skipped else _json_exact(r.reference),
                "abs_err": None if r.skipped else _json_float(r.abs_err),
                "rel_err": None if r.skipped else r.rel_err,
                "skipped": r.skipped,
            }
        )
    doc = {
        "meta": {
            "seed": report.seed,
            "budgets": report.budgets.as_dict(),
            "version": __version__,
            "wall_ms": report.wall_ms,
        },
        "rows": rows,
    }
    return json.dumps(doc, indent=2) + "\n"
