"""Pressureless advection on the 2-torus and its potential description.

Gradient initial data stays gradient under u_t = -(u . grad) u for as long
as the solution is smooth, and the potential then obeys
f_t = -|grad f|^2 / 2 (mean-zero gauge).  The half factor is forced by
differentiating the advection equation along u = grad f.
"""

import numpy as np

from nonholo.errors import NonFinite
from nonholo.numkit import dealias_2d, integrate, spectral_partial_2d
from nonholo.numkit.spectral import _check_pow2, _mask, jacobian_2d
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi


def _check_field(u, name):
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NonFinite(f"{name} contains non-finite entries")
    return u


def gradient(f, lengths=(TWO_PI, TWO_PI)):
    return np.stack(
        [spectral_partial_2d(f, 1, 0, lengths), spectral_partial_2d(f, 1, 1, lengths)]
    )


def curl_2d(u, lengths=(TWO_PI, TWO_PI)):
    """Scalar vorticity d1 u2 - d2 u1."""
    return spectral_partial_2d(u[1], 1, 0, lengths) - spectral_partial_2d(u[0], 1, 1, lengths)


def burgers_rhs(u, lengths=(TWO_PI, TWO_PI)):
    """-(u . grad) u with dealiased products."""
    u = _check_field(u, "velocity")
    out = np.empty_like(u)
    ud = np.empty_like(u)
    du = jacobian_2d(u, lengths, ud)
    for j in range(2):
        out[j] = -dealias_2d(ud[0] * dealias_2d(du[0, j]) + ud[1] * dealias_2d(du[1, j]))
    if not np.all(np.isfinite(out)):
        raise NonFinite("blow-up in the advection derivative")
    return out


def hj_rhs(f, lengths=(TWO_PI, TWO_PI)):
    """f_t = -|grad f|^2 / 2, re-projected to zero mean (gauge)."""
    f = _check_field(f, "potential")
    g = gradient(f, lengths)
    out = -0.5 * dealias_2d(dealias_2d(g[0]) ** 2 + dealias_2d(g[1]) ** 2)
    return out - np.mean(out)


def spectral_tail_fraction(field):
    """Energy fraction carried by the top third of wavenumbers (alarm gauge)."""
    field = np.asarray(field, dtype=float)
    fh = np.abs(np.fft.fft2(field)) ** 2
    n0, n1 = field.shape
    # for integer |k|, |k| > n/3 exactly when |k| > n//3: outside the dealiasing mask
    tail = ~_mask(n0)[:, None] | ~_mask(n1)[None, :]
    total = fh.sum() - fh[0, 0]
    if total == 0.0:
        return 0.0
    return float(fh[tail].sum() / total)


def integrate_burgers(u0, t_span, stepper, lengths=(TWO_PI, TWO_PI), record_every=1):
    """Advect the velocity field; ledger records max |curl| and the tail alarm."""
    u0 = _check_field(u0, "velocity")
    shape = u0.shape[1:]
    _check_pow2(shape[0])
    _check_pow2(shape[1])

    def rhs(t, y):
        return burgers_rhs(y.reshape((2,) + shape), lengths).ravel()

    times, rows = integrate(rhs, u0.ravel(), t_span, stepper, record_every=record_every)
    frames = [r.reshape((2,) + shape) for r in rows]
    ledger = {
        "curl_max": np.array([np.max(np.abs(curl_2d(u, lengths))) for u in frames]),
        "tail_fraction": np.array(
            [max(spectral_tail_fraction(u[0]), spectral_tail_fraction(u[1])) for u in frames]
        ),
    }
    states = np.array(
        [[float(np.max(np.hypot(u[0], u[1]))), float(np.mean(u[0])), float(np.mean(u[1]))] for u in frames]
    )
    traj = Trajectory(
        times=times,
        columns=["speed_max", "mean_ux", "mean_uy"],
        states=states,
        ledger=ledger,
    )
    return traj, frames


def integrate_hj(f0, t_span, stepper, lengths=(TWO_PI, TWO_PI), record_every=1):
    """Evolve the mean-zero potential; returns (Trajectory, frames)."""
    f0 = _check_field(f0, "potential")
    f0 = f0 - np.mean(f0)
    shape = f0.shape
    _check_pow2(shape[0])
    _check_pow2(shape[1])

    def rhs(t, y):
        return hj_rhs(y.reshape(shape), lengths).ravel()

    times, rows = integrate(rhs, f0.ravel(), t_span, stepper, record_every=record_every)
    frames = [r.reshape(shape) for r in rows]
    ledger = {
        "mean_f": np.array([float(np.mean(f)) for f in frames]),
        "tail_fraction": np.array([spectral_tail_fraction(f) for f in frames]),
    }
    states = np.array([[float(f.min()), float(f.max())] for f in frames])
    traj = Trajectory(
        times=times,
        columns=["f_min", "f_max"],
        states=states,
        ledger=ledger,
    )
    return traj, frames


def potentiality_check(frames, lengths=(TWO_PI, TWO_PI)):
    """max over frames of || curl u ||_inf for an advected velocity sequence."""
    return max(float(np.max(np.abs(curl_2d(u, lengths)))) for u in frames)


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
