"""Spin chains and vortex filaments on the circle.

A spin field is a loop of unit vectors in R^3 evolving by L_t = L x L'';
a closed arclength-parametrized curve evolves by the filament (binormal)
flow gamma_t = gamma' x gamma''.  The Gauss map L = gamma' intertwines the
two, which doubles as a cross-validation between the solvers.
"""

from functools import partial

import numpy as np

from nonholo.errors import NonFinite
from nonholo.numkit import integrate, spectral_derivative
from nonholo.numkit.spectral import in_blocks, spectral_derivatives
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi


def _check_loop(F, name):
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3)")
    if not np.isfinite(F).all():
        raise NonFinite(f"{name} contains non-finite entries")
    return F


def _cross(a, b):
    """Row-wise a x b of two (n, 3) loops: the products and differences of np.cross."""
    out = np.empty(a.shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(a[:, j] * b[:, k], a[:, k] * b[:, j], out=out[:, i])
    return out


def unit_norm_deviation(L):
    """Worst deviation of node norms from 1 of a loop (n, 3), or of each loop
    of a stack (records, n, 3)."""
    dev = np.max(np.abs(np.linalg.norm(L, axis=-1) - 1.0), axis=-1)
    return float(dev) if dev.ndim == 0 else dev


def ll_rhs(L):
    """L x L'' with the spectral second derivative along the loop."""
    L = _check_loop(L, "spin field")
    L2 = spectral_derivative(L, order=2, length=TWO_PI, axis=0)
    return _cross(L, L2)


def spin_energy(L):
    """H = 1/2 integral |L'|^2 dtheta of a loop (n, 3), or of each loop of a
    stack (records, n, 3), from one transform of the stack."""
    L = np.asarray(L, dtype=float)
    Lp = spectral_derivative(L, order=1, length=TWO_PI, axis=-2)
    energy = 0.5 * np.sum(Lp * Lp, axis=(-2, -1)) * TWO_PI / L.shape[-2]
    return float(energy) if energy.ndim == 0 else energy


def spin_momentum(L):
    """integral L dtheta (a conserved 3-vector) of a loop (n, 3), or of each
    loop of a stack (records, n, 3)."""
    L = np.asarray(L, dtype=float)
    return np.sum(L, axis=-2) * TWO_PI / L.shape[-2]


def magnon(n, k, eps, t=0.0):
    """Single-harmonic precessing solution with frequency k^2 cos(eps)."""
    theta = np.arange(n) * TWO_PI / n
    omega = k * k * np.cos(eps)
    phase = k * theta - omega * t
    return np.column_stack(
        [np.sin(eps) * np.cos(phase), np.sin(eps) * np.sin(phase), np.full(n, np.cos(eps))]
    )


def integrate_ll(L0, t_span, stepper, renormalize=False, record_every=1):
    """Integrate the spin flow; ledger tracks energy, momentum, unit norms."""
    L0 = _check_loop(L0, "spin field")
    n = len(L0)

    def rhs(t, y):
        return ll_rhs(y.reshape(n, 3)).ravel()

    def unit_rows(y):
        L = y.reshape(n, 3)
        return (L / np.linalg.norm(L, axis=1)[:, None]).ravel()

    times, states = integrate(rhs, L0.ravel(), t_span, stepper, record_every=record_every,
                              project=unit_rows if renormalize else None)
    loops = states.reshape(len(times), n, 3)
    ledger = {
        "energy": in_blocks(spin_energy, loops),
        "norm_dev": in_blocks(unit_norm_deviation, loops),
    }
    mom = in_blocks(spin_momentum, loops)
    for i, name in enumerate(["mom_x", "mom_y", "mom_z"]):
        ledger[name] = mom[:, i]
    cols = [f"{ax}_{j}" for j in range(n) for ax in ("Lx", "Ly", "Lz")]
    return Trajectory(
        times=times,
        columns=cols,
        states=states,
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# closed curves


def circle_curve(n, r=1.0):
    theta = np.arange(n) * TWO_PI / n
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)])


def binormal_rhs(gamma, length=TWO_PI):
    """gamma' x gamma'' for an arclength-scaled parametrization."""
    gamma = _check_loop(gamma, "curve")
    return _cross(*spectral_derivatives(gamma, (1, 2), length))


def curve_length(gamma, length=TWO_PI):
    """Length of a closed curve (n, 3), or of each curve of a stack
    (records, n, 3), from one transform of the stack."""
    gamma = np.asarray(gamma, dtype=float)
    g1 = spectral_derivative(gamma, order=1, length=length, axis=-2)
    total = np.sum(np.linalg.norm(g1, axis=-1), axis=-1) * length / gamma.shape[-2]
    return float(total) if total.ndim == 0 else total


def integrate_binormal(gamma0, t_span, stepper, length=TWO_PI, record_every=1):
    gamma0 = _check_loop(gamma0, "curve")
    n = len(gamma0)

    def rhs(t, y):
        return binormal_rhs(y.reshape(n, 3), length).ravel()

    times, states = integrate(rhs, gamma0.ravel(), t_span, stepper, record_every=record_every)
    loops = states.reshape(len(times), n, 3)
    ledger = {"length": in_blocks(partial(curve_length, length=length), loops)}
    cols = [f"{ax}_{j}" for j in range(n) for ax in ("x", "y", "z")]
    return Trajectory(
        times=times,
        columns=cols,
        states=states,
        ledger=ledger,
    )


def gauss_map_consistency(gamma0, t_span, stepper, length=TWO_PI, record_every=1):
    """Evolve gamma by the filament flow and L0 = gamma' by the spin flow.

    Returns the sup over recorded times of || gamma'(t) - L(t) ||_inf.  The
    curve is rescaled so the loop parameter runs over [0, 2 pi) for both
    flows; arclength parametrization makes gamma' a unit field.
    """
    gamma0 = _check_loop(gamma0, "curve")
    n = len(gamma0)
    scale = length / TWO_PI
    g0 = gamma0 / scale  # now parametrized over [0, 2 pi) by "arclength/scale"
    L0 = spectral_derivative(g0, order=1, length=TWO_PI, axis=0)

    tr_c = integrate_binormal(g0, t_span, stepper, TWO_PI, record_every)
    tr_s = integrate_ll(L0, t_span, stepper, renormalize=False, record_every=record_every)
    worst = 0.0
    for row_c, row_s in zip(tr_c.states, tr_s.states):
        gp = spectral_derivative(row_c.reshape(n, 3), order=1, length=TWO_PI, axis=0)
        worst = max(worst, float(np.max(np.abs(gp - row_s.reshape(n, 3)))))
    return worst
