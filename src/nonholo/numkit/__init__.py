"""Shared numerical kernel: steppers, jets (exact derivatives), spectral calculus, splines."""

from nonholo.numkit.jets import Jet, jet_variables
from nonholo.numkit.rank import numerical_rank
from nonholo.numkit.spectral import dealias_1d, spectral_derivative
from nonholo.numkit.spline import cubic_spline
from nonholo.numkit.steppers import Stepper, integrate

__all__ = [
    "Jet",
    "Stepper",
    "cubic_spline",
    "dealias_1d",
    "integrate",
    "jet_variables",
    "numerical_rank",
    "spectral_derivative",
]
