"""One spectral kernel for periodic grids: Fourier-multiplier derivatives,
2/3-rule dealiasing, the Helmholtz inverse and the aliased-tail energy.

This is the only module that transforms a field: callers pass values and
get values back.  Grids are uniform with power-of-two sample counts; on a
1-D grid node j sits at j * length / n, and 2-D fields live on [0, 2 pi)^2.
Values may be scalar or vector-valued (components on the last axis);
transforms always act on the spatial axes.  Multipliers and masks are
cached read-only per grid, built on first use.  ``forward`` returns a
transform that only the ``*_from`` functions read, so one transform of a
field serves all its derivatives and its dealiased copy, bit-identical to
transforming afresh (same ``np.fft`` calls and factors).
"""

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def check_grid(n):
    """Reject a grid size that is not a power of two (at least 2)."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size {n} is not a power of two")


def _wavenumbers(n, length):
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
    check_grid(n)
    mult = (1j * _wavenumbers(n, length)) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    return _readonly(mult)


@lru_cache(maxsize=256)
def _mask(n):
    """2/3 rule: True on the modes with |k| <= n//3."""
    return _readonly(np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3)


@lru_cache(maxsize=64)
def _helmholtz_symbol(n):
    """1 + k^2 on the 2 pi circle."""
    check_grid(n)
    k = _wavenumbers(n, TWO_PI)
    return _readonly(1.0 + k * k)


def _along(table, axis, ndim):
    """A 1-D table shaped to broadcast along ``axis`` of an ndim-array."""
    shape = [1] * ndim
    shape[axis] = table.size
    return table.reshape(shape)


def forward(values, axis=0):
    """The transform of ``values`` along ``axis``, for the ``*_from`` functions."""
    return np.fft.fft(values, axis=axis)


def derivative_from(fh, order, length=TWO_PI, axis=0):
    """Derivative along ``axis`` of the values with ``fh = forward(values, axis)``."""
    mult = _multiplier(fh.shape[axis], length, order)
    return np.real(np.fft.ifft(fh * _along(mult, axis, fh.ndim), axis=axis))


def dealias_1d_from(fh):
    """``dealias_1d(values)`` from ``fh = forward(values, 0)``."""
    return np.real(np.fft.ifft(fh * _along(_mask(fh.shape[0]), 0, fh.ndim), axis=0))


def helmholtz_inverse_from(mh):
    """``helmholtz_inverse(m)`` from ``mh = forward(m)``."""
    return np.real(np.fft.ifft(mh / _helmholtz_symbol(len(mh))))


def helmholtz_inverse(m):
    """u with u - u_xx = m on the 2 pi circle: multiplier 1/(1 + k^2)."""
    return helmholtz_inverse_from(np.fft.fft(np.asarray(m, dtype=float)))


def _masked_ifft2(fh):
    """Zero the aliased modes of ``fh`` on both spatial axes (in place) and invert."""
    fh *= _along(_mask(fh.shape[0]), 0, fh.ndim)
    fh *= _along(_mask(fh.shape[1]), 1, fh.ndim)
    return np.real(np.fft.ifft2(fh, axes=(0, 1)))


def _dealias_2d_from_ax1(a1):
    """``dealias_2d(values)`` from ``a1 = np.fft.fft(values, axis=1)``; fft2
    transforms axis 1 and then axis 0, so finishing along axis 0 matches it."""
    return _masked_ifft2(np.fft.fft(a1, axis=0))


def spectral_derivative(values, order, length=TWO_PI, axis=0):
    """Fourier-multiplier derivative along ``axis``."""
    values = np.asarray(values, dtype=float)
    _multiplier(values.shape[axis], length, order)  # validate before transforming
    return derivative_from(np.fft.fft(values, axis=axis), order, length, axis)


def jacobian_2d(v, v_d=None):
    """d[i, j] = partial_i v_j of a 2-D vector field v of shape (2, n0, n1).  A given
    ``v_d`` receives dealias_2d(v[j]), from the same axis-1 transform as partial_1 v_j."""
    v = np.asarray(v, dtype=float)
    d = np.empty((2, 2) + v.shape[1:])
    for j in range(2):
        d[0, j] = spectral_derivative(v[j], 1, axis=0)
        a1 = np.fft.fft(v[j], axis=1)
        d[1, j] = derivative_from(a1, 1, axis=1)
        if v_d is not None:
            v_d[j] = _dealias_2d_from_ax1(a1)
    return d


def dealias_1d(values):
    """Zero modes with |k| > n//3 along axis 0 (2/3 rule)."""
    return dealias_1d_from(np.fft.fft(np.asarray(values, dtype=float), axis=0))


def dealias_2d(values):
    """2/3-rule mask on both spatial axes of a 2-D field."""
    return _masked_ifft2(np.fft.fft2(np.asarray(values, dtype=float), axes=(0, 1)))


def spectral_tail_fraction(field):
    """Energy fraction of a 2-D field outside the 2/3 mask (aliasing alarm gauge)."""
    field = np.asarray(field, dtype=float)
    fh = np.abs(np.fft.fft2(field)) ** 2
    n0, n1 = field.shape
    # for integer |k|, |k| > n/3 exactly when |k| > n//3: outside the dealiasing mask
    tail = ~_mask(n0)[:, None] | ~_mask(n1)[None, :]
    total = fh.sum() - fh[0, 0]
    if total == 0.0:
        return 0.0
    return float(fh[tail].sum() / total)
