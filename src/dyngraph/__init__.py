"""Dynamic-graph library: (delta+1)-coloring, component-count estimators, MSF weight."""

from .cc_exact import SmallCcCounter
from .cc_random import PhasedCcEstimator, StaticEstimateConfig, static_estimate_nis
from .coloring import Coloring, DeltaBoundError, InvariantError, RecolorStats
from .graph_core import DynamicGraph, SelfLoopError, UpdateOp
from .msf_weight import (
    DeterministicMsfEstimator,
    MsfConfig,
    RandomizedMsfEstimator,
    combine,
)
from .nonzero_sampler import NonZeroSampler

__all__ = [
    "Coloring",
    "DeltaBoundError",
    "DeterministicMsfEstimator",
    "DynamicGraph",
    "InvariantError",
    "MsfConfig",
    "NonZeroSampler",
    "PhasedCcEstimator",
    "RandomizedMsfEstimator",
    "RecolorStats",
    "SelfLoopError",
    "SmallCcCounter",
    "StaticEstimateConfig",
    "UpdateOp",
    "combine",
    "static_estimate_nis",
]

__version__ = "0.1.0"
