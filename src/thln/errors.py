"""Exception hierarchy shared across the package."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class PathFault:
    """What is wrong with a node sequence, and where: ``text`` names the ids
    ``nodes`` by its ``{}`` fields and the sequence index ``position`` (None:
    the sequence as a whole) by ``{position}``. A caller that speaks other
    ids renders it with ``say(name)``."""

    text: str
    nodes: tuple[Any, ...] = ()
    position: Optional[int] = None

    def say(self, name: Callable[[Any], Any] = lambda v: v) -> str:
        return self.text.format(*map(name, self.nodes), position=self.position)

    def __str__(self) -> str:
        return self.say()


class ThlnError(Exception):
    """Base class for all package errors."""


class _PathError(ThlnError):
    """An error that a check of a finished path raises with a PathFault as
    its message; raised elsewhere, it carries plain text."""

    @property
    def fault(self) -> Optional[PathFault]:
        return self.args[0] if self.args and isinstance(self.args[0], PathFault) else None


# -- topology -----------------------------------------------------------

class MalformedGraph(ThlnError):
    """A graph is not well formed, or a serialized graph document cannot be
    parsed into a well-formed graph."""


# -- faults -------------------------------------------------------------

class ForeignFault(ThlnError):
    """A fault set references a node or edge that the host graph does not have."""


# -- search / embedding -------------------------------------------------

class PreconditionViolated(ThlnError):
    """Caller-supplied inputs are outside the operation's contract."""


class UnknownNode(PreconditionViolated):
    """A caller-supplied node id names no node of the graph."""


class OracleBudgetExhausted(ThlnError):
    """A search gave up before finding or refuting; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InternalContradiction(_PathError):
    """A choice the construction guarantees to exist was unavailable.

    This always indicates a bug (or an out-of-contract input), never a normal
    failure mode, and is surfaced loudly instead of being retried.
    """


class DisjointnessViolated(_PathError):
    """A finished path visits a node twice."""


class AdjacencyViolated(_PathError):
    """A finished path steps between two nodes that are not adjacent in the
    surviving graph, or a splice was given an empty segment."""
