"""Extremal-agent opinion dynamics: simulation, closed forms, experiments.

Agents hold real-valued positions on a line; only the two extremal
agents move, one unit per tick, biased toward the rest of the group.
The package provides the exact state machine (`sim1d`), the closed-form
probabilities and expected-time bounds that govern it (`rw_analytics`),
a reproducible Monte Carlo harness (`experiments`), a planar convex-hull
variant (`sim2d`), and a command-line front end (`cli`).
"""

from .errors import (
    DegenerateConfigurationError,
    InvariantViolationError,
    LineswarmError,
    ValidationError,
)
from .rw_analytics import WalkParams

__version__ = "0.1.0"

__all__ = [
    "WalkParams",
    "LineswarmError",
    "ValidationError",
    "DegenerateConfigurationError",
    "InvariantViolationError",
    "__version__",
]
