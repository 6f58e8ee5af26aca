"""One spectral kernel for periodic grids: Fourier-multiplier derivatives
and 2/3-rule dealiasing.

Grids are uniform with power-of-two sample counts; node j sits at
j * length / n.  Values may be scalar or vector-valued (components on the
last axis); transforms always act on the spatial axes.  Multipliers and
masks are cached read-only per grid, built on first use.  The ``*_from``
helpers take a forward transform the caller already holds, so one
transform of a field serves all its derivatives and its dealiased copy,
bit-identical to transforming afresh (same ``np.fft`` calls and factors).
"""

from functools import lru_cache

import numpy as np


def _check_pow2(n):
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size {n} is not a power of two")


def wavenumbers(n, length):
    return 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)


def _readonly(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _multiplier(n, length, order):
    """(i k)^order; the Nyquist mode of odd orders is zeroed (its multiplier
    is purely imaginary and has no consistent real-signal interpretation)."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2, or 3")
    _check_pow2(n)
    mult = (1j * wavenumbers(n, length)) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    return _readonly(mult)


@lru_cache(maxsize=256)
def _mask(n):
    """2/3 rule: True on the modes with |k| <= n//3."""
    return _readonly(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3)


def _along(table, axis, ndim):
    """A 1-D table shaped to broadcast along ``axis`` of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = table.size
    return table.reshape(shape)


def derivative_from(fh, order, length=2.0 * np.pi, axis=0):
    """Derivative along ``axis`` from ``fh = np.fft.fft(values, axis=axis)``."""
    mult = _multiplier(fh.shape[axis], length, order)
    return np.real(np.fft.ifft(fh * _along(mult, axis, fh.ndim), axis=axis))


def dealias_1d_from(fh):
    """``dealias_1d(values)`` from ``fh = np.fft.fft(values, axis=0)``."""
    return np.real(np.fft.ifft(fh * _along(_mask(fh.shape[0]), 0, fh.ndim), axis=0))


def _masked_ifft2(fh):
    """Zero the aliased modes of ``fh`` on both spatial axes (in place) and invert."""
    fh *= _along(_mask(fh.shape[0]), 0, fh.ndim)
    fh *= _along(_mask(fh.shape[1]), 1, fh.ndim)
    return np.real(np.fft.ifft2(fh, axes=(0, 1)))


def dealias_2d_from_ax1(a1):
    """``dealias_2d(values)`` from ``a1 = np.fft.fft(values, axis=1)``; fft2
    transforms axis 1 and then axis 0, so finishing along axis 0 matches it."""
    return _masked_ifft2(np.fft.fft(a1, axis=0))


def spectral_derivative(values, order, length=2.0 * np.pi, axis=0):
    """Fourier-multiplier derivative along ``axis``."""
    values = np.asarray(values, dtype=float)
    _multiplier(values.shape[axis], length, order)  # validate before transforming
    return derivative_from(np.fft.fft(values, axis=axis), order, length, axis)


def spectral_partial_2d(values, order, axis, lengths=(2.0 * np.pi, 2.0 * np.pi)):
    """Partial derivative of a 2-D periodic field along spatial axis 0 or 1."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return spectral_derivative(values, order, length=lengths[axis], axis=axis)


def jacobian_2d(v, lengths=(2.0 * np.pi, 2.0 * np.pi), v_d=None):
    """d[i, j] = partial_i v_j of a 2-D vector field v of shape (2, n0, n1).  A given
    ``v_d`` receives dealias_2d(v[j]), from the same axis-1 transform as partial_1 v_j."""
    v = np.asarray(v, dtype=float)
    d = np.empty((2, 2) + v.shape[1:])
    for j in range(2):
        d[0, j] = spectral_partial_2d(v[j], 1, 0, lengths)
        a1 = np.fft.fft(v[j], axis=1)
        d[1, j] = derivative_from(a1, 1, lengths[1], axis=1)
        if v_d is not None:
            v_d[j] = dealias_2d_from_ax1(a1)
    return d


def dealias_1d(values, length=None):
    """Zero modes with |k| > n//3 along axis 0 (2/3 rule)."""
    return dealias_1d_from(np.fft.fft(np.asarray(values, dtype=float), axis=0))


def dealias_2d(values):
    """2/3-rule mask on both spatial axes of a 2-D field."""
    return _masked_ifft2(np.fft.fft2(np.asarray(values, dtype=float), axes=(0, 1)))
