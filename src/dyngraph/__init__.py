"""Dynamic-graph library: (delta+1)-coloring, component-count estimators, MSF weight."""

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator, static_estimate_nis
from .coloring import Coloring, DeltaBoundError, InvariantError
from .graph_core import DynamicGraph, UpdateOp
from .msf_weight import DeterministicMsfEstimator, RandomizedMsfEstimator

__all__ = [
    "Coloring",
    "DeltaBoundError",
    "DeterministicMsfEstimator",
    "DynamicGraph",
    "InvariantError",
    "PhasedCcEstimator",
    "RandomizedMsfEstimator",
    "SmallCcCounter",
    "UpdateOp",
    "static_estimate_nis",
]

__version__ = "0.1.0"
