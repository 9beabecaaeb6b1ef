"""Exception types shared across the package, and the budget meter.

An error that carries fields passes them, and only them, to Exception and
builds its message in __str__: pickling rebuilds an exception from its args,
so this is what lets an error raised in a worker process reach the parent
unchanged.

Budgets is the one place a charge meets its limit, and the only code that
raises BudgetExceededError; STAGES names every stage it charges.  It and
the record base classes live here because every engine imports this
module.  The records are plain classes rather than dataclasses, because the
dataclasses module imports inspect and ast, and every CLI run is a fresh
process that would pay for them.
"""
import math


class Record:
    """A record whose fields, named in _fields, give its equality and repr.

    __init__ takes the field values in _fields order.  Records compare equal
    when they are of the same class and their fields are equal; a mutable
    record is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        # object.__setattr__, as a frozen dataclass does: writing
        # self.__dict__ directly would make CPython drop its inline attribute
        # values and slow every later field load
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable Record, hashed by its fields.

    A functools.cached_property still works: it writes the instance dict.
    """

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FreespecError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdgeError(FreespecError):
    """A loop edge (u, u) was supplied; simple graphs forbid loops."""

    def __init__(self, vertex: int):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self):
        return f"loop edge at vertex {self.vertex}"


class RootOutOfRangeError(FreespecError):
    """The requested root index is not a vertex."""


class VertexOutOfRangeError(FreespecError):
    """An edge endpoint or source vertex is not a vertex."""


class SizeTooSmallError(FreespecError):
    """A builder was asked for a graph below its minimum size."""


class GraphFormatError(FreespecError):
    """The graph text format could not be parsed."""


class BudgetExceededError(FreespecError):
    """A ball, walk or cycle enumeration exceeded its configured budget."""

    def __init__(self, count: int, budget: int, what: str = "items"):
        super().__init__(count, budget, what)
        self.count = count
        self.budget = budget
        self.what = what

    def __str__(self):
        try:
            count = str(self.count)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            count = f"at least 2^{self.count.bit_length() - 1}"
        return f"budget exceeded: {count} {self.what} (budget {self.budget})"


class UnreducedWordError(FreespecError):
    """A word vertex was not in reduced form."""


class RadiusTooSmallError(FreespecError):
    """The ball radius is too small for the requested identity check."""


class ParityError(FreespecError):
    """n*d is odd, so no d-regular graph on n vertices exists."""


class RetriesExhaustedError(FreespecError):
    """The pairing model kept producing loops or multi-edges."""

    def __init__(self, retries: int, d: int):
        super().__init__(retries, d)
        self.retries = retries
        self.d = d

    def __str__(self):
        return (
            f"no simple graph in {self.retries} pairings; a pairing of degree "
            f"{self.d} is simple with probability about exp(-(d^2-1)/4) = "
            f"{math.exp(-(self.d * self.d - 1) / 4):.2g}"
        )


class WorkerDiedError(FreespecError):
    """A sample worker process ended abruptly, most often killed for memory."""


# The limit of each stage, by the name its errors print: walk_expansions is
# --walk-budget, ball_vertices --ball-budget.  README's budget table has more.
STAGES = {
    "walk expansions": "walk_expansions",
    "check-row letters": "walk_expansions",
    "two-step pairs": "walk_expansions",
    "vacuum-walk expansions": "walk_expansions",
    "trace-walk expansions": "walk_expansions",
    "determinant digits": "walk_expansions",
    "distance-k graph entries": "walk_expansions",
    "cycle-enumeration nodes": "walk_expansions",
    "Jacobi-chain updates": "walk_expansions",
    "ball vertices": "ball_vertices",
    "histogram samples": "ball_vertices",
    "histogram bins": "ball_vertices",
    "density points": "ball_vertices",
}


class Budgets(Frozen):
    """The two limits of a run, and the meter that holds every charge to them.

    charge(stage, count) raises BudgetExceededError when count passes the
    stage's limit.  The meter keeps no totals: an engine that sums a stage
    keeps its own count, and a hot loop compares it with limit(stage), read
    once, and charges only a count past it.  Budgets() holds the defaults.
    """

    _fields = ("walk_expansions", "ball_vertices")

    def __init__(self, walk_expansions: int = 10**8, ball_vertices: int = 10**6):
        super().__init__(walk_expansions, ball_vertices)

    def limit(self, stage: str) -> int:
        return getattr(self, STAGES[stage])

    def charge(self, stage: str, count: int) -> None:
        limit = self.limit(stage)
        if count > limit:
            raise BudgetExceededError(count, limit, stage)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))
