"""Shallow-water momentum dynamics on the circle.

The evolution is kept in the momentum variable m = u - u_xx, where the
equation reads m_t = -(2 u_x m + u m_x) - kappa u_x.  Working with m makes
mean conservation exact in the zero mode and avoids inverting the Helmholtz
operator inside the time derivative; u is recovered by the Fourier
multiplier 1/(1 + k^2).
"""

from functools import lru_cache

import numpy as np

from nonholo.errors import NonFinite
from nonholo.numkit import dealias_1d, integrate, spectral_derivative
from nonholo.numkit.spectral import _check_pow2, _readonly, wavenumbers
from nonholo.numkit.spectral import dealias_1d_from, derivative_from
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=64)
def _helmholtz_symbol(n):
    """1 + k^2 on the 2 pi circle (read-only, cached per grid size)."""
    _check_pow2(n)
    k = wavenumbers(n, TWO_PI)
    return _readonly(1.0 + k * k)


def _helmholtz_inverse_from(mh):
    """helmholtz_inverse(m) from ``mh = np.fft.fft(m)``."""
    return np.real(np.fft.ifft(mh / _helmholtz_symbol(len(mh))))


def helmholtz_inverse(m):
    """u with u - u_xx = m on the 2 pi circle: multiplier 1/(1 + k^2)."""
    return _helmholtz_inverse_from(np.fft.fft(np.asarray(m, dtype=float)))


def helmholtz_apply(u):
    """m = u - u_xx (the inverse of helmholtz_inverse)."""
    return u - spectral_derivative(u, order=2, length=TWO_PI)


def ch_rhs(m, kappa=0.0):
    """m_t = -(2 u_x m + u m_x) - kappa u_x with dealiased products."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NonFinite("momentum field contains non-finite entries")
    mh = np.fft.fft(m)
    u = _helmholtz_inverse_from(mh)
    mx, md = derivative_from(mh, 1, TWO_PI), dealias_1d_from(mh)
    uh = np.fft.fft(u)
    ux, ud = derivative_from(uh, 1, TWO_PI), dealias_1d_from(uh)
    uxd, mxd = dealias_1d(ux), dealias_1d(mx)
    out = dealias_1d(-(2.0 * uxd * md + ud * mxd)) - kappa * ux
    if not np.all(np.isfinite(out)):
        raise NonFinite("blow-up in the momentum derivative")
    return out


def ch_rhs_velocity_form(u, kappa=0.0):
    """u_t from the five-term velocity form, for cross-checking ch_rhs.

    Evaluates -(kappa u_x + 3 u u_x - 2 u_x u_xx - u u_xxx) and applies the
    Helmholtz inverse to identify u_t from (1 - d_xx) u_t.
    """
    uh = np.fft.fft(np.asarray(u, dtype=float))
    ux, uxx, uxxx = (derivative_from(uh, order, TWO_PI) for order in (1, 2, 3))
    ud = dealias_1d_from(uh)
    uxd, uxxd, uxxxd = (dealias_1d(f) for f in (ux, uxx, uxxx))
    rhs = -(kappa * ux + dealias_1d(3.0 * ud * uxd - 2.0 * uxd * uxxd - ud * uxxxd))
    return helmholtz_inverse(rhs)


def mean_value(f):
    return float(np.mean(f))


def h1_energy(m, u=None):
    """E = 1/2 integral (u^2 + u_x^2) dx = 1/2 integral u m dx, u = helmholtz_inverse(m)."""
    m = np.asarray(m, dtype=float)
    u = helmholtz_inverse(m) if u is None else u
    return 0.5 * float(np.sum(u * m)) * TWO_PI / len(m)


def integrate_ch(m0, kappa, t_span, stepper, record_every=1):
    """Integrate the momentum form; ledger records mean(u) and the H^1 energy."""
    m0 = np.asarray(m0, dtype=float)
    _check_pow2(len(m0))

    def rhs(t, m):
        return ch_rhs(m, kappa)

    times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
    us = [helmholtz_inverse(m) for m in states]
    ledger = {
        "mean_u": np.array([mean_value(u) for u in us]),
        "energy": np.array([h1_energy(m, u) for m, u in zip(states, us)]),
    }
    cols = [f"m_{j}" for j in range(len(m0))]
    return Trajectory(
        times=times,
        columns=cols,
        states=states,
        ledger=ledger,
    )
