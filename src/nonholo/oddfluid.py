"""Compressible 2-D fluid with parity-breaking stress.

The base system is barotropic Euler plus a first-order viscosity tensor
built from two density-dependent coefficients (odd viscosity and odd
torque); the tensor is antisymmetric under exchanging its derivative slots
with its force slots, so it does no work and the fluid energy is conserved
for any coefficient choice.  The extended system carries an intrinsic
angular-momentum deviation field that relaxes at rate mu/nu and feeds back
through a modified pressure and viscosity; the relaxation drains the
extended energy at a rate proportional to the squared deviation.
"""

from dataclasses import dataclass

import numpy as np

from nonholo.errors import NegativeDensity, NonFinite
from nonholo.numkit import Jet, dealias_2d, integrate
from nonholo.numkit.spectral import PLANE, check_grid, forward, inverse, power, table
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi
DENSITY_FLOOR = 1e-6


def coefficient_and_derivative(f, rho):
    """Evaluate a smooth coefficient function and its exact rho-derivative.

    ``f`` is called once, on a degree-1 jet in rho whose coefficient array
    has the grid as leading axes, so it must be built from ``+ - * /`` and
    integer ``**`` (a polynomial or rational function of rho).  A result that
    is not a jet is a constant.  A float ``f`` is that constant itself: it
    gives ``(f, 0.0)``, which broadcast against the grid as the planes would.
    """
    if isinstance(f, float):
        return f, 0.0
    rho = np.asarray(rho, dtype=float)
    # coefficient k is coef[..., k], stored as contiguous planes: elementwise
    # jet operations keep that layout, so no step strides through the grid
    coef = np.moveaxis(np.stack([rho, np.ones_like(rho)]), 0, -1)
    out = f(Jet(1, 1, coef))
    if isinstance(out, Jet):
        return (np.broadcast_to(out.coef[..., 0], rho.shape).astype(float),
                np.broadcast_to(out.coef[..., 1], rho.shape).astype(float))
    return np.broadcast_to(np.asarray(out, dtype=float), rho.shape), np.zeros_like(rho)


@dataclass
class FluidParams:
    """Equation of state, parity-breaking coefficients, and relaxation rates.

    ``eos`` is ("isothermal", c) with internal energy c^2 rho (ln rho - 1)
    or ("polytropic2", kappa) with kappa rho^2; both give positive pressure
    on positive densities (c^2 rho and kappa rho^2 respectively).
    ``eta_H`` and ``Gamma_H`` are functions of rho (see
    ``coefficient_and_derivative``) or floats, for constant coefficients.
    """

    eos: tuple = ("isothermal", 1.0)
    eta_H: callable = lambda rho: 0.0 * rho
    Gamma_H: callable = lambda rho: 0.0 * rho
    mu: float = 1.0
    nu: float = 1.0

    def internal_energy(self, rho):
        kind, a = self.eos
        if kind == "isothermal":
            return a * a * rho * (np.log(rho) - 1.0)
        if kind == "polytropic2":
            return a * rho * rho
        raise ValueError(f"unknown equation of state {kind!r}")

    def eps_prime(self, rho):
        kind, a = self.eos
        if kind == "isothermal":
            return a * a * np.log(rho)
        if kind == "polytropic2":
            return 2.0 * a * rho
        raise ValueError(f"unknown equation of state {kind!r}")

    def pressure(self, rho):
        # p = rho eps'(rho) - eps(rho)
        return rho * self.eps_prime(rho) - self.internal_energy(rho)

    def coefficients(self, rho):
        """(eta_H, Gamma_H, Gamma_hat) on rho, each coefficient function
        evaluated once; Gamma_hat = Gamma_H - eta_H + rho * eta_H'."""
        eh, ehp = coefficient_and_derivative(self.eta_H, rho)
        gh, _ = coefficient_and_derivative(self.Gamma_H, rho)
        return eh, gh, gh - eh + rho * ehp


@dataclass
class FluidState:
    """Density, velocity, and (extended system) angular-momentum deviation
    on the grid of [0, 2 pi)^2."""

    rho: np.ndarray
    v: np.ndarray
    ell: np.ndarray = None

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        check_grid(self.rho.shape[0])
        check_grid(self.rho.shape[1])
        if self.v.shape != (2,) + self.rho.shape:
            raise ValueError("velocity must have shape (2, nx, ny)")
        if self.ell is not None:
            self.ell = np.asarray(self.ell, dtype=float)
            if self.ell.shape != self.rho.shape:
                raise ValueError("deviation field must match the density grid")

    @property
    def shape(self):
        return self.rho.shape


def _check_state(rho, v, ell=None):
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(v))):
        raise NonFinite("fluid state contains non-finite entries")
    if ell is not None and not np.all(np.isfinite(ell)):
        raise NonFinite("deviation field contains non-finite entries")
    if np.min(rho) <= DENSITY_FLOOR:
        raise NegativeDensity(f"density fell to {np.min(rho):.3e}")


def velocity_jacobian(v):
    """d[i, j] = partial_i v_j of a velocity field of shape (2, nx, ny)."""
    v = np.asarray(v, dtype=float)
    return inverse(table(v.shape[1:])[3:, None] * forward(v, PLANE), PLANE)


def viscous_stress(eta_H, Gamma_H, ell, dv, mode):
    """Contraction of the parity-breaking viscosity tensor with dv.

    ``mode`` "base" uses the coefficient -eta_H on the symmetric-rotation
    part; "extended" uses ell/2 in its place (they agree when
    ell = -2 eta_H).  The Gamma_H part is Gamma_H (eps_ij div v -
    delta_ij curl v) in both modes, matching the base-system orientation.
    """
    div = dv[0, 0] + dv[1, 1]
    curl = dv[0, 1] - dv[1, 0]
    coef = 0.5 * ell if mode == "extended" else -eta_H
    T = np.empty_like(dv)
    # eps_ik d_k v_j + eps_jk d_i v_k with eps_12 = 1
    for i in range(2):
        for j in range(2):
            si, ei = (1.0, 1) if i == 0 else (-1.0, 0)
            sj, ej = (1.0, 1) if j == 0 else (-1.0, 0)
            T[i, j] = coef * (si * dv[ei, j] + sj * dv[i, ej])
    T[0, 1] += Gamma_H * div
    T[1, 0] -= Gamma_H * div
    T[0, 0] -= Gamma_H * curl
    T[1, 1] -= Gamma_H * curl
    return T


def stress_tensor(state, params, mode="base", dv=None, coefs=None):
    """Full stress T_ij on the grid, shape (2, 2, nx, ny).

    The velocity Jacobian ``dv`` and ``coefs`` = params.coefficients(rho)
    are computed here unless the caller already has them.
    """
    _check_state(state.rho, state.v, state.ell)
    if dv is None:
        dv = velocity_jacobian(state.v)
    if coefs is None:
        coefs = params.coefficients(state.rho)
    eta, gam, ghat = coefs
    p = params.pressure(state.rho)
    if mode == "base":
        T = viscous_stress(eta, gam, None, dv, "base")
    elif mode == "extended":
        if state.ell is None:
            raise ValueError("extended stress needs the deviation field")
        dl = state.ell
        ell = dl - 2.0 * eta
        nu = params.nu
        p = p + dl * dl / (2.0 * nu) + (2.0 / nu) * ghat * dl
        T = viscous_stress(eta, gam, ell, dv, "extended")
    else:
        raise ValueError(f"unknown stress mode {mode!r}")
    T[0, 0] -= p
    T[1, 1] -= p
    return T


def _rhs(state, params, mode):
    """(rho_t, v_t) of the base or effective system, (rho_t, v_t, dl_t) of the
    extended one.

    One forward transform of (rho, v[, dl]) gives their dealiased copies and
    the plain and dealiased velocity Jacobians.  One transform of the stress
    and the fluxes gives the stress divergence, the mass flux divergence and
    the deviation source in spectral space; each product is masked once.
    """
    extended = mode == "extended"
    if extended and state.ell is None:
        raise ValueError("extended dynamics needs the deviation field")
    rho, v = state.rho, state.v
    _check_state(rho, v, state.ell)
    t = table(rho.shape)
    mask, dgrad = t[0], t[1:3]
    sh = forward(np.stack([rho, v[0], v[1]] + ([state.ell] if extended else [])), PLANE)
    nf = len(sh)
    spec = np.empty((nf + 8,) + sh.shape[1:], dtype=complex)
    np.multiply(mask, sh, out=spec[:nf])
    # rows 1-2 of the table give D_i v_j (dealiased), rows 3-4 partial_i v_j
    np.multiply(t[1:, None], sh[1:3], out=spec[nf:].reshape((4, 2) + sh.shape[1:]))
    phys = inverse(spec, PLANE)
    rho_d, v_d = phys[0], phys[1:3]
    ddv, dv = phys[nf:].reshape((2, 2, 2) + rho.shape)
    coefs = params.coefficients(rho)
    T = stress_tensor(state, params, "extended" if extended else "base", dv, coefs)
    div = dv[0, 0] + dv[1, 1]
    if mode == "effective":
        # relaxation-limit pressure shift; the stress is only used dealiased
        shift = -(8.0 / params.mu) * coefs[2] * div
        T[0, 0] -= shift
        T[1, 1] -= shift
    flux = [T.reshape((4,) + rho.shape), rho_d * v_d]
    if extended:
        flux += [phys[3] * v_d, (coefs[2] * div)[None]]
    fh = forward(np.concatenate(flux), PLANE)
    parts = [dgrad[0] * fh[0:2] + dgrad[1] * fh[2:4],  # D_i T_ij
             -(dgrad[0] * fh[4] + dgrad[1] * fh[5])[None]]
    if extended:
        source = 2.0 * fh[8] + (params.mu / params.nu) * sh[3]
        parts.append((-(dgrad[0] * fh[6] + dgrad[1] * fh[7]) - mask * source)[None])
    out = inverse(np.concatenate(parts), PLANE)
    v_t = dealias_2d(out[0:2] / rho_d - (v_d[0] * ddv[0] + v_d[1] * ddv[1]))
    return (out[2], v_t, out[3]) if extended else (out[2], v_t)


def base_rhs(state, params):
    """(rho_t, v_t) of the parity-breaking barotropic system."""
    return _rhs(state, params, "base")


def effective_rhs(state, params):
    """Base system with the relaxation-limit pressure shift -(8/mu) Gamma_hat div v."""
    return _rhs(state, params, "effective")


def extended_rhs(state, params):
    """(rho_t, v_t, dl_t) of the system with the relaxing deviation field."""
    return _rhs(state, params, "extended")


# ---------------------------------------------------------------------------
# energies and balance checks


def _cell_area(shape):
    return TWO_PI * TWO_PI / (shape[0] * shape[1])


def fluid_energy(state, params):
    """H = integral [rho |v|^2 / 2 + eps(rho)]."""
    dens = 0.5 * state.rho * (state.v[0] ** 2 + state.v[1] ** 2) + params.internal_energy(
        state.rho
    )
    return float(np.sum(dens)) * _cell_area(state.shape)


def extended_energy(state, params):
    """H_nu = H + integral (dl)^2 / (2 nu)."""
    extra = float(np.sum(state.ell ** 2)) / (2.0 * params.nu)
    return fluid_energy(state, params) + extra * _cell_area(state.shape)


def rayleigh_dissipation(state, params):
    """R_mu = integral (mu / 2 nu) (dl)^2."""
    return (
        0.5
        * params.mu
        / params.nu
        * float(np.sum(state.ell ** 2))
        * _cell_area(state.shape)
    )


def energy_rate(state, params, rhs_func):
    """Discrete dH/dt (or dH_nu/dt) via the analytic variational derivatives.

    Pairs (|v|^2/2 + eps'(rho), rho v, dl/nu) with the state derivative, so
    the check is independent of the time integrator.
    """
    out = rhs_func(state, params)
    rho_t, v_t = out[0], out[1]
    area = _cell_area(state.shape)
    rate = np.sum(
        (0.5 * (state.v[0] ** 2 + state.v[1] ** 2) + params.eps_prime(state.rho)) * rho_t
    )
    rate += np.sum(state.rho * (state.v[0] * v_t[0] + state.v[1] * v_t[1]))
    if len(out) == 3:
        rate += np.sum(state.ell * out[2]) / params.nu
    return float(rate) * area


def energy_balance_residual(state, params):
    """|dH_nu/dt + 2 R_mu| for the extended system (exact identity at nu=1)."""
    return abs(energy_rate(state, params, extended_rhs) + 2.0 * rayleigh_dissipation(state, params))


def slaved_deviation(state, params):
    """Leading small-coupling deviation -(4 nu / mu) Gamma_hat div v."""
    dv = velocity_jacobian(state.v)
    ghat = params.coefficients(state.rho)[2]
    return -(4.0 * params.nu / params.mu) * ghat * (dv[0, 0] + dv[1, 1])


# ---------------------------------------------------------------------------
# integration


def _pack(state):
    parts = [state.rho.ravel(), state.v[0].ravel(), state.v[1].ravel()]
    if state.ell is not None:
        parts.append(state.ell.ravel())
    return np.concatenate(parts)


def _unpack(y, shape, with_ell):
    m = shape[0] * shape[1]
    rho = y[:m].reshape(shape)
    v = y[m : 3 * m].reshape((2,) + shape)
    ell = y[3 * m : 4 * m].reshape(shape) if with_ell else None
    return FluidState(rho=rho, v=v, ell=ell)


def integrate_fluid(system, state0, params, t_span, stepper, record_every=1):
    """Integrate one of the fluid systems; returns (Trajectory, frames).

    ``system`` is "base", "effective", or "extended".  The trajectory state
    columns are cheap summaries (density range, max speed, rms divergence);
    full field frames are returned alongside for post-processing.
    """
    with_ell = system == "extended"
    if with_ell and state0.ell is None:
        raise ValueError("extended integration needs the deviation field")
    shape = state0.shape
    rhs_func = {"base": base_rhs, "effective": effective_rhs, "extended": extended_rhs}[
        system
    ]

    def rhs(t, y):
        st = _unpack(y, shape, with_ell)
        out = rhs_func(st, params)
        parts = [out[0].ravel(), out[1][0].ravel(), out[1][1].ravel()]
        if with_ell:
            parts.append(out[2].ravel())
        return np.concatenate(parts)

    times, rows = integrate(rhs, _pack(state0), t_span, stepper, record_every=record_every)
    frames = [_unpack(r, shape, with_ell) for r in rows]
    area = _cell_area(shape)
    grad = table(shape)[3:]

    def div_l2(st):
        vh = forward(st.v, PLANE)  # Parseval: the divergence norm needs no inverse transform
        return float(np.sqrt(np.sum(power(grad[0] * vh[0] + grad[1] * vh[1])) * area))

    states = np.array(
        [
            [
                float(st.rho.min()),
                float(st.rho.max()),
                float(np.sqrt(st.v[0] ** 2 + st.v[1] ** 2).max()),
                div_l2(st),
            ]
            for st in frames
        ]
    )
    ledger = {"H": np.array([fluid_energy(st, params) for st in frames])}
    if with_ell:
        ledger["H_nu"] = np.array([extended_energy(st, params) for st in frames])
        ledger["R_mu"] = np.array([rayleigh_dissipation(st, params) for st in frames])
        ledger["dl_max"] = np.array([float(np.max(np.abs(st.ell))) for st in frames])
    traj = Trajectory(
        times=times,
        columns=["rho_min", "rho_max", "speed_max", "div_l2"],
        states=states,
        ledger=ledger,
    )
    return traj, frames
