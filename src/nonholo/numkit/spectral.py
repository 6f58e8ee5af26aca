"""One spectral kernel for periodic grids: real-to-complex transforms on the
half spectrum, Fourier-multiplier derivatives, 2/3-rule dealiasing, the
Helmholtz inverse and the aliased-tail energy.

This is the only module that transforms a field.  It calls the real
transforms (``rfft``/``irfft`` in 1-D, ``rfft2``/``irfft2`` in 2-D) and, for
the pruned 2-D pair, ``fft``/``ifft`` along axis -2 of a half spectrum.  Grids
are uniform with power-of-two sample counts; on a 1-D grid node j sits at
j * length / n, and 2-D fields live on [0, 2 pi)^2.  ``forward`` and
``inverse`` act along one axis (1-D) or over ``PLANE`` (2-D); other axes
stack fields, so one call transforms them all.  Per grid one cached read-only
``table``, built on first use, holds the half-spectrum 2/3 mask M and the
first-derivative multipliers, dealiased (i k M, the mask folded in) and plain
(i k).  So one forward transform of a field gives every dealiased derivative
and the dealiased field, and a product is dealiased by masking its spectrum
once, together with any derivative taken of it.  Results agree with full
complex transforms to round-off, not bit for bit.

A 2-D spectrum that is only used masked needs only its ``kept`` columns
kx <= n//3: ``forward_pruned`` runs the axis -2 pass of ``rfft2`` on those
columns alone, and ``inverse_pruned`` runs the axis -2 pass of ``irfft2`` on
them into a half spectrum whose other columns are zero (FFT pruning:
Markel, IEEE Trans. Audio Electroacoust. 19(4), 1971; Sorensen and Burrus,
IEEE Trans. Signal Process. 41(3), 1993).  Each 1-D transform sees the data
the full pass gives it, so a pruned transform equals the full one on the
kept columns bit for bit.  ``integrate_spectrum`` marches a state on its
half spectrum, and ``Frames`` turns the recorded half spectra into grid
fields one record at a time.
"""

import operator
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from nonholo.numkit.steppers import integrate

TWO_PI = 2.0 * np.pi
PLANE = (-2, -1)  # the spatial axes of 2-D fields; leading axes stack fields


def check_grid(n):
    """Reject a grid size that is not a power of two (at least 2)."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size {n} is not a power of two")


def _readonly(a):
    a.flags.writeable = False
    return a


def forward(values, axes=-1):
    """Half spectrum of real ``values`` along one axis (an int), or over a
    tuple of two axes such as ``PLANE``."""
    return np.fft.rfft2(values, axes=axes) if isinstance(axes, tuple) else np.fft.rfft(values, axis=axes)


def inverse(spec, axes=-1):
    """Real values whose half spectrum along ``axes`` (as in ``forward``) is ``spec``."""
    return np.fft.irfft2(spec, axes=axes) if isinstance(axes, tuple) else np.fft.irfft(spec, axis=axes)


@lru_cache(maxsize=64)
def table(shape):
    """Read-only multipliers on the half spectrum of a grid of ``shape`` (d = 1
    or 2 power-of-two sizes, period 2 pi on each axis), stacked as
    [M, i k_1 M, ..., i k_d M, i k_1, ..., i k_d]: the 2/3-rule mask M
    (|k| <= n//3 on every axis), then the dealiased and the plain first
    derivative along each axis.  Each derivative zeroes the Nyquist mode of
    its axis, whose multiplier has no real-signal meaning."""
    d = len(shape)
    rows = np.zeros((1 + 2 * d,) + shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    rows[0] = 1.0
    for a, n in enumerate(shape):
        check_grid(n)
        k = (np.fft.rfftfreq if a == d - 1 else np.fft.fftfreq)(n, 1.0 / n)
        k = _along(k, a, d)
        rows[0] *= np.abs(k) <= n // 3
        rows[1 + d + a] = 1j * np.where(np.abs(k) == n // 2, 0.0, k)
    rows[1 : 1 + d] = rows[1 + d :] * rows[0]
    return _readonly(rows)


@lru_cache(maxsize=256)
def _multipliers(n, length, orders):
    """(i k)^p on the half spectrum for each p in ``orders``, stacked; odd
    orders zero the Nyquist mode."""
    if not set(orders) <= {1, 2, 3}:
        raise ValueError("derivative order must be 1, 2, or 3")
    check_grid(n)
    ik = 1j * (TWO_PI / length) * np.fft.rfftfreq(n, 1.0 / n)
    mult = np.stack([ik**p for p in orders])
    mult[:, -1] *= [p % 2 == 0 for p in orders]
    return _readonly(mult)


def _along(tab, axis, ndim):
    """``tab`` with its last axis moved to broadcast along ``axis`` of an
    ndim-array; its leading axes are kept in front."""
    shape = [1] * ndim
    shape[axis] = -1
    return tab.reshape(tab.shape[:-1] + tuple(shape))


def spectral_derivatives(values, orders, length=TWO_PI, axis=0):
    """Derivatives of each order in ``orders`` (1, 2 or 3) along ``axis``,
    stacked on a new first axis, from one forward and one inverse transform."""
    values = np.asarray(values, dtype=float)
    mult = _along(_multipliers(values.shape[axis], length, tuple(orders)), axis, values.ndim)
    return inverse(mult * forward(values, axis), axis + 1 if axis >= 0 else axis)


def spectral_derivative(values, order, length=TWO_PI, axis=0):
    """Fourier-multiplier derivative along ``axis``."""
    return spectral_derivatives(values, (order,), length, axis)[0]


def dealias_1d(values):
    """Zero modes with |k| > n//3 along axis 0 (2/3 rule)."""
    values = np.asarray(values, dtype=float)
    mask = _along(table(values.shape[:1])[0], 0, values.ndim)
    return inverse(mask * forward(values, 0), 0)


def kept(n):
    """Half-spectrum columns 0..n//3 of an n-sample last axis that the 2/3 mask keeps."""
    return slice(0, n // 3 + 1)


def forward_pruned(values):
    """``forward(values, PLANE)`` on the ``kept`` columns alone."""
    return np.fft.fft(np.fft.rfft(values, axis=-1)[..., kept(values.shape[-1])], axis=-2)


def inverse_pruned(spec, n):
    """``inverse(spec, PLANE)`` of a half spectrum that is zero beyond the
    ``kept`` columns ``spec`` of an n-sample last axis.

    The column pass writes into a zeroed half spectrum: ``irfft`` also pads
    a short input itself, but that path is slower, at 128^2 slower than the
    full ``irfft2``."""
    padded = np.zeros(spec.shape[:-1] + (n // 2 + 1,), dtype=complex)
    np.fft.ifft(spec, axis=-2, out=padded[..., : spec.shape[-1]])
    return np.fft.irfft(padded, n=n, axis=-1)


def all_finite(a):
    """Whether every entry of a real array, or every part of a complex one,
    is finite.  A complex array is read through its real view, which takes
    half the time of a complex ``isfinite``."""
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a).view(float)
    return bool(np.isfinite(a).all())


def grid_of(spec):
    """The 2-D grid (n0, n1) of fields whose half spectrum over ``PLANE`` is ``spec``."""
    return spec.shape[-2], 2 * (spec.shape[-1] - 1)


class Frames(Sequence):
    """Grid fields of recorded half spectra, each made by ``make(spectrum)``
    when it is indexed, so the records are never held twice."""

    def __init__(self, specs, make):
        self._specs, self._make = specs, make

    def __len__(self):
        return len(self._specs)

    def __getitem__(self, i):
        # an integer only: a slice would hand ``make`` a stack of records
        return self._make(self._specs[operator.index(i)])


def integrate_spectrum(spectral_rhs, spec0, t_span, stepper, record_every, make):
    """(times, recorded half spectra, their ``Frames`` by ``make``) of a state
    integrated on its half spectrum ``spec0``, where ``spectral_rhs(spec, t)``
    is the half spectrum of the time derivative.  The stepper marches the
    float view of the complex state, so its landing on ``t_span[1]`` and its
    finiteness checks are those of any real state."""

    def rhs(t, y):
        return spectral_rhs(y.view(complex).reshape(spec0.shape), t).view(float).ravel()

    times, rows = integrate(rhs, spec0.view(float).ravel(), t_span, stepper,
                            record_every=record_every)
    specs = rows.view(complex).reshape((len(times),) + spec0.shape)
    return times, specs, Frames(specs, make)


# Records per ledger kernel call, chosen by measured peak RSS on pde-1d-dense:
# 70.0 MB with blocks of 256 (an in-process replay; 71.4 MB with one call per
# record), against 74.0 MB with blocks of 64 and 82.7 MB with one call on all
# 2501 records (the benchmark).
LEDGER_BLOCK = 256


def in_blocks(fn, records):
    """``fn`` of consecutive blocks of at most ``LEDGER_BLOCK`` records,
    concatenated: a ledger pass makes one kernel call per block, not per
    record, and its temporaries stay a block in size."""
    return np.concatenate([fn(records[i : i + LEDGER_BLOCK])
                           for i in range(0, len(records), LEDGER_BLOCK)])


@lru_cache(maxsize=64)
def helmholtz_symbol(n):
    """1 + k^2 on the half spectrum of the 2 pi circle."""
    check_grid(n)
    k = np.fft.rfftfreq(n, 1.0 / n)
    return _readonly(1.0 + k * k)


def helmholtz_inverse(m):
    """u with u - u_xx = m on the 2 pi circle (the last axis; others stack
    fields): multiplier 1/(1 + k^2)."""
    m = np.asarray(m, dtype=float)
    return inverse(forward(m) / helmholtz_symbol(m.shape[-1]))


def power(spec):
    """Each mode's share of sum(values**2) (Parseval) for 2-D fields with half
    spectrum ``spec``; an interior column stands for a +-k pair, so it counts twice."""
    n0, h = spec.shape[-2:]
    p = spec.real**2 + spec.imag**2
    p[..., 1 : h - 1] *= 2.0
    return p / (n0 * 2 * (h - 1))


def tail_fractions(spec):
    """Energy fraction outside the 2/3 mask (the aliasing alarm gauge) of each
    2-D field with half spectrum ``spec``, the mean excluded."""
    n0, h = spec.shape[-2:]
    p = power(spec)
    total = p.sum(axis=(-2, -1)) - p[..., 0, 0]
    tail = (p * (table((n0, 2 * (h - 1)))[0].real == 0.0)).sum(axis=(-2, -1))
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0.0)
