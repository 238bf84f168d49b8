"""rectilib: finite-resolution rectifiability analysis for doubling measures.

The package is organized around one pipeline: sample measure in, net
hierarchy, metric dyadic cubes, density and flatness profiles, porous
cube family with its packing bound, bridge curve, and a tree-walk
parametrization with a verified Lipschitz constant.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ContainmentError,
    DegenerateInputError,
    DisconnectedError,
    InputError,
    ParameterError,
    RectilibError,
    UnknownIdentifierError,
    UnsupportedMetricError,
)
from .space import Ball, MetricMeasureSpace, TargetSet

__all__ = [
    "Ball",
    "ConfigError",
    "ContainmentError",
    "DegenerateInputError",
    "DisconnectedError",
    "InputError",
    "MetricMeasureSpace",
    "ParameterError",
    "RectilibError",
    "TargetSet",
    "UnknownIdentifierError",
    "UnsupportedMetricError",
    "__version__",
]
