"""Exception types shared across the package.

An error that carries fields passes them, and only them, to Exception and
builds its message in __str__: pickling rebuilds an exception from its args,
so this is what lets an error raised in a worker process reach the parent
unchanged.

The default budgets and the record base classes live here too, because
every engine imports this module.  The records are plain classes rather than
dataclasses, because the dataclasses module imports inspect and ast, and
every CLI run is a fresh process that would pay for them.
"""
import math

DEFAULT_WALK_BUDGET = 10**8
DEFAULT_BALL_BUDGET = 10**6


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
        return f"budget exceeded: {self.count} {self.what} (budget {self.budget})"


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
