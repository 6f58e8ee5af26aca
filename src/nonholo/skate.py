"""Skate on an inclined plane: three related systems.

* ``regularized_rhs``: the unconstrained system with a quadratic penalty
  (strength 1/nu) on the no-sideslip residual phi = xdot sin(theta) -
  ydot cos(theta) plus a friction force (strength 1/alpha) on the same
  residual.  State (x, y, theta, xdot, ydot, thetadot).
* ``reduced_rhs``: the one-parameter family obtained in the double limit
  nu, alpha -> 0 with fixed ratio mu = nu/alpha.  State
  (x, y, theta, omega, rho, lam) where rho is the blade-direction speed
  and lam the constraint multiplier.  mu -> 0 gives the variational
  (vakonomic) skate; mu -> infinity the no-work (Lagrange-d'Alembert) skate.
* ``lda_rhs``: the mu = infinity limit written as its own system (no lam),
  state (x, y, theta, omega, rho); thetadot stays constant and
  rhodot = -g cos(theta).

Gravity pulls along -x with strength g.  The reduced equations use
-g cos(theta) / +g sin(theta) force terms, the unique scaling that keeps
E = (rho^2 + omega^2)/2 + g x conserved for every mu.
"""

import math

import numpy as np

from nonholo.errors import SingularGram
from nonholo.numkit import Stepper, integrate
from nonholo.trajectory import Trajectory

REDUCED_COLUMNS = ["x", "y", "theta", "omega", "rho", "lam"]
LDA_COLUMNS = ["x", "y", "theta", "omega", "rho"]
FULL_COLUMNS = ["x", "y", "theta", "xdot", "ydot", "thetadot"]

# Figure-style reference initial data: x0=y0=0, theta0=pi/4, v0=1, omega0=-10
FIG_INITIAL = dict(x=0.0, y=0.0, theta=np.pi / 4, v=1.0, omega=-10.0)


def _reduced(s, g, mu):
    x, y, theta, omega, rho, lam = s
    cs, sn = math.cos(theta), math.sin(theta)
    return [
        rho * cs,
        rho * sn,
        omega,
        -lam * rho,
        -g * cs + lam * omega,
        -rho * omega + g * sn - mu * lam,
    ]


def reduced_rhs(s, g, mu):
    """Interpolating family: d/dt (x, y, theta, omega, rho, lam)."""
    return np.array(_reduced(s, g, mu))


def _lda(s, g):
    x, y, theta, omega, rho = s
    cs = math.cos(theta)
    return [rho * cs, rho * math.sin(theta), omega, 0.0, -g * cs]


def lda_rhs(s, g):
    """No-work limit: d/dt (x, y, theta, omega, rho)."""
    return np.array(_lda(s, g))


def lda_closed_form(theta0, omega0, rho0, g, t):
    """Quadrature solution of the no-work skate: theta(t), rho(t).

    theta advances linearly; rho follows from integrating
    rhodot = -g cos(theta(t)).  Requires omega0 != 0.
    """
    t = np.asarray(t, dtype=float)
    theta = theta0 + omega0 * t
    rho = rho0 - (g / omega0) * (np.sin(theta) - np.sin(theta0))
    return theta, rho


def _regularized(s, g, nu, alpha):
    x, y, theta, xd, yd, td = s
    sn, cs = math.sin(theta), math.cos(theta)
    phi = xd * sn - yd * cs
    rho = xd * cs + yd * sn
    # M = I + outer(n, n) / nu with n = (sin theta, -cos theta), entry by entry
    # as numpy forms it (0.0 + keeps the sign of a zero off-diagonal entry)
    M = [
        [1.0 + sn * sn / nu, 0.0 + sn * -cs / nu],
        [0.0 + -cs * sn / nu, 1.0 + -cs * -cs / nu],
    ]
    b = [
        -g - (phi / alpha) * sn - (phi * td / nu) * cs - (td * rho / nu) * sn,
        (phi / alpha) * cs + (td * rho / nu) * cs - (phi * td / nu) * sn,
    ]
    try:
        acc = np.linalg.solve(M, b).tolist()
    except np.linalg.LinAlgError as exc:
        # in floating point 1 + sin^2/nu loses the 1 once nu is below ~1e-16
        raise SingularGram(
            f"mass matrix I + n n^T/nu is singular in floating point at nu = {nu!r}"
        ) from exc
    return [xd, yd, td, acc[0], acc[1], phi * rho / nu]


def regularized_rhs(s, g, nu, alpha):
    """Penalty-plus-friction system: d/dt (x, y, theta, xdot, ydot, thetadot).

    Accelerations solve M(theta) (xddot, yddot)^T = b with
    M = I + (1/nu) n n^T, n = (sin theta, -cos theta); thetaddot = phi rho/nu.
    """
    return np.array(_regularized(s, g, nu, alpha))


def skate_energy(x, omega, rho, g):
    """E = (rho^2 + omega^2)/2 + g x, conserved by reduced_rhs and lda_rhs."""
    return 0.5 * (rho * rho + omega * omega) + g * x


def regularized_energy(s, g, nu):
    """Extended energy including the penalty term phi^2/(2 nu)."""
    x, y, theta, xd, yd, td = s
    phi = xd * np.sin(theta) - yd * np.cos(theta)
    return 0.5 * (xd * xd + yd * yd + td * td) + g * x + phi * phi / (2.0 * nu)


def regularized_dissipation(s, alpha):
    """Rayleigh dissipation 2 R_alpha = phi^2 / alpha."""
    x, y, theta, xd, yd, td = s
    phi = xd * np.sin(theta) - yd * np.cos(theta)
    return phi * phi / alpha


def reduced_energy_rate(s, g, mu):
    """Analytic dE/dt along reduced_rhs (identically zero; kept as an oracle)."""
    ds = reduced_rhs(s, g, mu)
    x, y, theta, omega, rho, lam = s
    return rho * ds[4] + omega * ds[3] + g * ds[0]


def regularized_energy_rate(s, g, nu, alpha):
    """Analytic dE_nu/dt along regularized_rhs (equals -phi^2/alpha)."""
    ds = regularized_rhs(s, g, nu, alpha)
    x, y, theta, xd, yd, td = s
    sn, cs = np.sin(theta), np.cos(theta)
    phi = xd * sn - yd * cs
    rho = xd * cs + yd * sn
    phidot = ds[3] * sn - ds[4] * cs + td * rho
    return xd * ds[3] + yd * ds[4] + td * ds[5] + g * xd + phi * phidot / nu


def initial_reduced(x=0.0, y=0.0, theta=0.0, v=1.0, omega=0.0, lam=0.0):
    """Reduced state from figure-style initial data (v is the blade speed)."""
    return np.array([x, y, theta, omega, v, lam])


def initial_full(x=0.0, y=0.0, theta=0.0, v=1.0, omega=0.0):
    """Constraint-compatible full state: velocity v along the blade."""
    return np.array([x, y, theta, v * np.cos(theta), v * np.sin(theta), omega])


def integrate_skate(system, y0, g, t_span, stepper=None, mu=0.0, nu=None, alpha=None,
                    record_every=1):
    """Integrate one of the three skate systems and attach the energy ledger.

    system: "reduced" (needs mu), "lda", or "regularized" (needs nu, alpha).
    """
    stepper = stepper or Stepper.rk4(1e-4)
    if system == "reduced":
        rhs = lambda t, s: _reduced(s, g, mu)
        columns = REDUCED_COLUMNS
    elif system == "lda":
        rhs = lambda t, s: _lda(s, g)
        columns = LDA_COLUMNS
    elif system == "regularized":
        if nu is None or alpha is None or nu <= 0 or alpha <= 0:
            raise ValueError("regularized system needs nu > 0 and alpha > 0")
        rhs = lambda t, s: _regularized(s, g, nu, alpha)
        columns = FULL_COLUMNS
    else:
        raise ValueError(f"unknown skate system {system!r}")

    times, states = integrate(rhs, y0, t_span, stepper, record_every=record_every)

    if system == "regularized":
        energy = np.array([regularized_energy(s, g, nu) for s in states])
        phi = states[:, 3] * np.sin(states[:, 2]) - states[:, 4] * np.cos(states[:, 2])
        ledger = {"energy": energy, "phi": phi}
    else:
        ledger = {"energy": skate_energy(states[:, 0], states[:, 3], states[:, 4], g)}
    return Trajectory(times, columns, states, ledger)


def fit_circle(x, y):
    """Least-squares circle fit; returns (cx, cy, r, max_residual)."""
    A = np.column_stack([2 * x, 2 * y, np.ones_like(x)])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = sol
    r = np.sqrt(c + cx * cx + cy * cy)
    res = np.abs(np.hypot(x - cx, y - cy) - r)
    return cx, cy, r, float(res.max())
