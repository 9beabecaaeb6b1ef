"""Exception types shared across the package.

An error that carries fields passes them, and only them, to Exception and
builds its message in __str__: pickling rebuilds an exception from its args,
so this is what lets an error raised in a worker process reach the parent
unchanged.
"""
import math


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


class ComplexityRefusalError(FreespecError):
    """Cycle enumeration exceeded its node budget."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(nodes, budget)
        self.nodes = nodes
        self.budget = budget

    def __str__(self):
        return f"cycle enumeration expanded {self.nodes} nodes (budget {self.budget})"


class BudgetExceededError(FreespecError):
    """A ball or walk computation exceeded its configured budget."""

    def __init__(self, count: int, budget: int, what: str = "items"):
        super().__init__(count, budget, what)
        self.count = count
        self.budget = budget
        self.what = what

    def __str__(self):
        return f"budget exceeded: {self.count} {self.what} (budget {self.budget})"


class UnreducedWordError(FreespecError):
    """A word vertex was not in reduced form."""


class NotAdjacentError(FreespecError):
    """The two word vertices are not adjacent in the free power."""


class RadiusTooSmallError(FreespecError):
    """The ball radius is too small for the requested identity check."""


class InsufficientBaseMomentsError(FreespecError):
    """Pushforward needs more base moments than were supplied."""


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
