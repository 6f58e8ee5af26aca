"""Pressureless advection on the 2-torus [0, 2 pi)^2 and its potential description.

Gradient initial data stays gradient under u_t = -(u . grad) u for as long
as the solution is smooth, and the potential then obeys
f_t = -|grad f|^2 / 2 (mean-zero gauge).  The half factor is forced by
differentiating the advection equation along u = grad f.
"""

import numpy as np

from nonholo.errors import NonFinite
from nonholo.numkit import dealias_2d, integrate
from nonholo.numkit.spectral import (
    PLANE,
    check_grid,
    forward,
    inverse,
    table,
    tail_fractions,
)
from nonholo.trajectory import Trajectory


def _check_field(u, name):
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise NonFinite(f"{name} contains non-finite entries")
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


def burgers_rhs(u):
    """-(u . grad) u with dealiased products."""
    u = _check_field(u, "velocity")
    # the dealiased velocity ud and its dealiased gradients du[i] = D_i u
    ud, *du = inverse(table(u.shape[1:])[:3, None] * forward(u, PLANE), PLANE)
    out = -dealias_2d(ud[0] * du[0] + ud[1] * du[1])
    if not np.all(np.isfinite(out)):
        raise NonFinite("blow-up in the advection derivative")
    return out


def hj_rhs(f):
    """f_t = -|grad f|^2 / 2, re-projected to zero mean (gauge)."""
    f = _check_field(f, "potential")
    g = inverse(table(f.shape)[1:3] * forward(f, PLANE), PLANE)  # dealiased gradient
    out = -0.5 * dealias_2d(g[0] ** 2 + g[1] ** 2)
    return out - np.mean(out)


def integrate_burgers(u0, t_span, stepper, record_every=1):
    """Advect the velocity field; ledger records max |curl| and the tail alarm."""
    u0 = _check_field(u0, "velocity")
    shape = u0.shape[1:]
    check_grid(shape[0])
    check_grid(shape[1])

    def rhs(t, y):
        return burgers_rhs(y.reshape((2,) + shape)).ravel()

    times, rows = integrate(rhs, u0.ravel(), t_span, stepper, record_every=record_every)
    frames = [r.reshape((2,) + shape) for r in rows]
    ledger = {"curl_max": np.empty(len(frames)), "tail_fraction": np.empty(len(frames))}
    for i, u in enumerate(frames):
        uh = forward(u, PLANE)  # one transform serves the curl and the tail of both components
        ledger["curl_max"][i] = np.max(np.abs(_curl_from(uh, shape)))
        ledger["tail_fraction"][i] = np.max(tail_fractions(uh))
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


def integrate_hj(f0, t_span, stepper, record_every=1):
    """Evolve the mean-zero potential; returns (Trajectory, frames)."""
    f0 = _check_field(f0, "potential")
    f0 = f0 - np.mean(f0)
    shape = f0.shape
    check_grid(shape[0])
    check_grid(shape[1])

    def rhs(t, y):
        return hj_rhs(y.reshape(shape)).ravel()

    times, rows = integrate(rhs, f0.ravel(), t_span, stepper, record_every=record_every)
    frames = [r.reshape(shape) for r in rows]
    ledger = {
        "mean_f": np.array([float(np.mean(f)) for f in frames]),
        "tail_fraction": np.array([float(tail_fractions(forward(f, PLANE))) for f in frames]),
    }
    states = np.array([[float(f.min()), float(f.max())] for f in frames])
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
