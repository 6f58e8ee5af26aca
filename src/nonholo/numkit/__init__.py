"""Shared numerical kernel: steppers, dual numbers, jets, spectral calculus."""

from nonholo.numkit.dual import Dual, cos, exp, generic_jacobian, jacobian, log, sin, sqrt, tan
from nonholo.numkit.jets import Jet, jet_variables
from nonholo.numkit.rank import numerical_rank
from nonholo.numkit.spectral import (
    dealias_1d,
    dealias_2d,
    spectral_derivative,
    spectral_partial_2d,
)
from nonholo.numkit.steppers import Stepper, integrate

__all__ = [
    "Dual",
    "Jet",
    "Stepper",
    "cos",
    "dealias_1d",
    "dealias_2d",
    "exp",
    "generic_jacobian",
    "integrate",
    "jacobian",
    "jet_variables",
    "log",
    "numerical_rank",
    "sin",
    "spectral_derivative",
    "spectral_partial_2d",
    "sqrt",
    "tan",
]
