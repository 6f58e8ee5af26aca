"""Pressureless advection on the 2-torus [0, 2 pi)^2 and its potential description.

Gradient initial data stays gradient under u_t = -(u . grad) u for as long
as the solution is smooth, and the potential then obeys
f_t = -|grad f|^2 / 2 (mean-zero gauge).  The half factor is forced by
differentiating the advection equation along u = grad f.

Both equations are integrated on the half spectra of their fields.  Each
spectral rhs takes the half spectrum of the state and returns the masked
half spectrum of its time derivative, so every transform it makes is a
pruned one (see ``nonholo.numkit.spectral``) and no field goes back and forth
between the grid and the spectrum.  ``burgers_rhs`` and ``hj_rhs`` wrap the
spectral rhs for fields on the grid.  The recorded spectra become grid
frames one at a time.
"""

import numpy as np

from nonholo.errors import NonFinite, at_time
from nonholo.numkit.spectral import (
    PLANE,
    all_finite,
    check_grid,
    forward,
    forward_pruned,
    grid_of,
    integrate_spectrum,
    inverse,
    inverse_pruned,
    kept,
    table,
    tail_fractions,
)
from nonholo.trajectory import Trajectory


def _check_field(u, name, t=None):
    """``u`` (grid values or a half spectrum), refused unless every entry is finite."""
    if not all_finite(u):
        raise NonFinite(f"{name} contains non-finite entries{at_time(t)}")
    return u


def gradient(f):
    """(d1 f, d2 f) of a 2-D field."""
    f = np.asarray(f, dtype=float)
    return inverse(table(f.shape)[3:] * forward(f, PLANE), PLANE)


def _curl_from(uh, shape):
    """d1 u2 - d2 u1 from the half spectrum ``uh`` of a velocity field on ``shape``."""
    grad = table(shape)[3:]
    return inverse(grad[0] * uh[1] - grad[1] * uh[0], PLANE)


def curl_2d(u):
    """Scalar vorticity d1 u2 - d2 u1."""
    u = np.asarray(u, dtype=float)
    return _curl_from(forward(u, PLANE), u.shape[1:])


def burgers_spectral_rhs(uh, t=None):
    """Masked half spectrum of -(u . grad) u from the half spectrum ``uh`` of u;
    ``t``, when given, is named in a failure."""
    _check_field(uh, "velocity", t)
    shape = grid_of(uh)
    cols = kept(shape[1])
    tab = table(shape)[:3, None, :, cols]
    # the dealiased velocity ud and its dealiased gradients du[i] = D_i u
    ud, *du = inverse_pruned(tab * uh[..., cols], shape[1])
    out = np.zeros_like(uh)
    out[..., cols] = tab[0] * forward_pruned(-(ud[0] * du[0] + ud[1] * du[1]))
    if not all_finite(out):
        raise NonFinite(f"blow-up in the advection derivative{at_time(t)}")
    return out


def hj_spectral_rhs(fh, t=None):
    """Masked half spectrum of f_t = -|grad f|^2 / 2 with its mean mode zeroed
    (gauge), from the half spectrum ``fh`` of f."""
    _check_field(fh, "potential", t)
    shape = grid_of(fh)
    cols = kept(shape[1])
    tab = table(shape)[:3, :, cols]
    g = inverse_pruned(tab[1:3] * fh[..., cols], shape[1])  # dealiased gradient
    out = np.zeros_like(fh)
    out[..., cols] = tab[0] * forward_pruned(-0.5 * (g[0] ** 2 + g[1] ** 2))
    out[0, 0] = 0.0
    return out


def burgers_rhs(u):
    """-(u . grad) u with dealiased products.  The grid field is checked
    first, since transforming a non-finite field warns."""
    u = _check_field(np.asarray(u, dtype=float), "velocity")
    return inverse(burgers_spectral_rhs(forward(u, PLANE)), PLANE)


def hj_rhs(f):
    """f_t = -|grad f|^2 / 2, re-projected to zero mean (gauge)."""
    f = _check_field(np.asarray(f, dtype=float), "potential")
    return inverse(hj_spectral_rhs(forward(f, PLANE)), PLANE)


def _integrate(spectral_rhs, field0, t_span, stepper, record_every):
    """(times, recorded half spectra, grid frames) of a checked grid field
    integrated on its half spectrum."""
    check_grid(field0.shape[-2])
    check_grid(field0.shape[-1])
    return integrate_spectrum(spectral_rhs, forward(field0, PLANE), t_span, stepper,
                              record_every, lambda spec: inverse(spec, PLANE))


def integrate_burgers(u0, t_span, stepper, record_every=1):
    """Advect the velocity field; ledger records max |curl| and the tail alarm.
    Returns (Trajectory, frames)."""
    u0 = _check_field(np.asarray(u0, dtype=float), "velocity")
    shape = u0.shape[1:]
    times, specs, frames = _integrate(burgers_spectral_rhs, u0, t_span, stepper, record_every)
    ledger = {"curl_max": np.empty(len(times)), "tail_fraction": np.empty(len(times))}
    states = np.empty((len(times), 3))
    for i, uh in enumerate(specs):
        u = frames[i]
        ledger["curl_max"][i] = np.max(np.abs(_curl_from(uh, shape)))
        ledger["tail_fraction"][i] = np.max(tail_fractions(uh))
        states[i] = np.max(np.hypot(u[0], u[1])), np.mean(u[0]), np.mean(u[1])
    traj = Trajectory(
        times=times,
        columns=["speed_max", "mean_ux", "mean_uy"],
        states=states,
        ledger=ledger,
    )
    return traj, frames


def integrate_hj(f0, t_span, stepper, record_every=1):
    """Evolve the mean-zero potential; returns (Trajectory, frames)."""
    f0 = _check_field(np.asarray(f0, dtype=float), "potential")
    times, specs, frames = _integrate(hj_spectral_rhs, f0 - np.mean(f0), t_span, stepper,
                                      record_every)
    ledger = {"mean_f": np.empty(len(times)), "tail_fraction": np.empty(len(times))}
    states = np.empty((len(times), 2))
    for i, fh in enumerate(specs):
        f = frames[i]
        ledger["mean_f"][i] = np.mean(f)
        ledger["tail_fraction"][i] = tail_fractions(fh)
        states[i] = f.min(), f.max()
    traj = Trajectory(
        times=times,
        columns=["f_min", "f_max"],
        states=states,
        ledger=ledger,
    )
    return traj, frames


def potentiality_check(frames):
    """max over frames of || curl u ||_inf for an advected velocity sequence."""
    return max(float(np.max(np.abs(curl_2d(u)))) for u in frames)


def characteristics_1d(u0_func, x, t, tol=1e-12, max_iter=100):
    """Solve u = u0(x - t u) by Newton iteration (pre-shock 1-D oracle).

    ``u0_func`` must supply values and derivatives as (u0, u0').
    """
    x = np.asarray(x, dtype=float)
    u, _ = u0_func(x)
    for _ in range(max_iter):
        val, der = u0_func(x - t * u)
        resid = u - val
        u = u - resid / (1.0 + t * der)
        if np.max(np.abs(resid)) < tol:
            return u
    raise ArithmeticError("characteristics iteration did not converge (shock?)")
