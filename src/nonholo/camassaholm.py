"""Shallow-water momentum dynamics on the circle.

The evolution is kept in the momentum variable m = u - u_xx, where the
equation reads m_t = -(2 u_x m + u m_x) - kappa u_x.  Working with m makes
mean conservation exact in the zero mode and avoids inverting the Helmholtz
operator inside the time derivative; u is recovered by the Fourier
multiplier 1/(1 + k^2).
"""

import numpy as np

from nonholo.errors import NonFinite
from nonholo.numkit import dealias_1d, integrate, spectral_derivative
from nonholo.numkit.spectral import (
    check_grid,
    forward,
    helmholtz_inverse,
    helmholtz_symbol,
    in_blocks,
    inverse,
    table,
)
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi


def helmholtz_apply(u):
    """m = u - u_xx (the inverse of helmholtz_inverse)."""
    return u - spectral_derivative(u, order=2, length=TWO_PI)


def ch_rhs(m, kappa=0.0):
    """m_t = -(2 u_x m + u m_x) - kappa u_x with dealiased products."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NonFinite("momentum field contains non-finite entries")
    t = table(m.shape)  # [M, i k M, i k]
    mh = forward(m)
    uh = mh / helmholtz_symbol(len(m))
    (md, mxd), (ud, uxd) = inverse(t[:2] * np.stack([mh, uh])[:, None])
    out = inverse(t[0] * forward(-(2.0 * uxd * md + ud * mxd)) - kappa * t[2] * uh)
    if not np.isfinite(out).all():
        raise NonFinite("blow-up in the momentum derivative")
    return out


def ch_rhs_velocity_form(u, kappa=0.0):
    """u_t from the five-term velocity form, for cross-checking ch_rhs.

    Evaluates -(kappa u_x + 3 u u_x - 2 u_x u_xx - u u_xxx) and applies the
    Helmholtz inverse to identify u_t from (1 - d_xx) u_t.
    """
    ux, uxx, uxxx = (spectral_derivative(u, order) for order in (1, 2, 3))
    ud, uxd, uxxd, uxxxd = (dealias_1d(f) for f in (u, ux, uxx, uxxx))
    rhs = -(kappa * ux + dealias_1d(3.0 * ud * uxd - 2.0 * uxd * uxxd - ud * uxxxd))
    return helmholtz_inverse(rhs)


def h1_energy(m, u=None):
    """E = 1/2 integral (u^2 + u_x^2) dx = 1/2 integral u m dx, u = helmholtz_inverse(m),
    of a field or of each field of a stack along the last axis."""
    m = np.asarray(m, dtype=float)
    u = helmholtz_inverse(m) if u is None else u
    energy = 0.5 * np.sum(u * m, axis=-1) * TWO_PI / m.shape[-1]
    return float(energy) if energy.ndim == 0 else energy


def integrate_ch(m0, kappa, t_span, stepper, record_every=1):
    """Integrate the momentum form; ledger records mean(u) and the H^1 energy."""
    m0 = np.asarray(m0, dtype=float)
    check_grid(len(m0))

    def rhs(t, m):
        return ch_rhs(m, kappa)

    times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
    def mean_and_energy(ms):
        us = helmholtz_inverse(ms)
        return np.stack([np.mean(us, axis=-1), h1_energy(ms, us)], axis=-1)

    rows = in_blocks(mean_and_energy, states)
    ledger = {"mean_u": rows[:, 0], "energy": rows[:, 1]}
    cols = [f"m_{j}" for j in range(len(m0))]
    return Trajectory(
        times=times,
        columns=cols,
        states=states,
        ledger=ledger,
    )
