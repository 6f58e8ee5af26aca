"""The half-spectrum right-hand sides lifted to grid fields, for the tests that
compare them on the grid.  The float-list right-hand sides need no lift:
numpy takes a list wherever it takes an array."""

from nonholo.numkit.spectral import PLANE, forward, inverse


def on_grid(spectral_rhs):
    """``spectral_rhs`` of a half spectrum, as a map of 2-D grid fields."""
    return lambda field, *args: inverse(spectral_rhs(forward(field, PLANE), *args), PLANE)
