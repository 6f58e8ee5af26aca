"""Toolkit for simulating nonholonomic and vakonomic mechanical systems.

Finite-dimensional systems (skate on an inclined plane, rigid-body flows
with velocity constraints, trailer convoys) and periodic-domain PDE systems
(spin chains, binormal curve flow, Camassa-Holm, odd-viscosity fluids,
potential Burgers flows) share one numerical kernel and one trajectory
container, so every conservation law can be checked the same way.
"""

from nonholo.errors import (
    DimensionMismatch,
    DomainExceeded,
    NegativeDensity,
    NonFinite,
    SingularGram,
    SteeringOutOfRange,
    UnknownColumn,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "DomainExceeded",
    "NegativeDensity",
    "NonFinite",
    "SingularGram",
    "SteeringOutOfRange",
    "UnknownColumn",
    "__version__",
]
