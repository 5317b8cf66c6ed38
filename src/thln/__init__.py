"""Twisted hypercube-like networks: construction, fault injection, exact
search services, and fault-tolerant covering-path embedding."""

from .embedder import (
    CaseTrace,
    EmbedResult,
    embed,
    splice,
)
from .errors import (
    AdjacencyViolated,
    DisjointnessViolated,
    ForeignFault,
    InternalContradiction,
    MalformedGraph,
    OracleBudgetExhausted,
    PathFault,
    PreconditionViolated,
    ThlnError,
    UnknownNode,
)
from .faults import (
    FaultPartition,
    FaultSet,
    SurvivingView,
    neighbor_condition,
    surviving_view,
)
from .oracle import (
    SearchBudget,
    SearchOutcome,
    SearchStatus,
    enumerate_ham_path_exists,
    ham_cycle,
    ham_path,
    near_ham_cycle,
    two_disjoint_spanning_paths,
)
from .topology import (
    DEFAULT_BASE_EDGES,
    DecompositionNode,
    ShapeReport,
    ThlnGraph,
    VariantSpec,
    check_shape,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_preset,
)
from .validate import PathClass, PathStatus, validate_cycle, validate_path

__version__ = "0.1.0"
