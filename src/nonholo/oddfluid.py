"""Compressible 2-D fluid with parity-breaking stress.

The base system is barotropic Euler plus a first-order viscosity tensor
built from two density-dependent coefficients (odd viscosity and odd
torque); the tensor is antisymmetric under exchanging its derivative slots
with its force slots, so it does no work and the fluid energy is conserved
for any coefficient choice.  The extended system carries an intrinsic
angular-momentum deviation field that relaxes at rate mu/nu and feeds back
through a modified pressure and viscosity; the relaxation drains the
extended energy at a rate proportional to the squared deviation.

The systems are integrated on the half spectra of their fields:
``spectral_rhs`` maps the half spectra of (rho, v[, dl]) to the masked half
spectra of their time derivatives, and ``base_rhs``, ``effective_rhs`` and
``extended_rhs`` wrap it for fields on the grid.
"""

from dataclasses import dataclass

import numpy as np

from nonholo.errors import NegativeDensity, NonFinite, at_time
from nonholo.numkit import Jet
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
    power,
    table,
)
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


def _stress(rho, ell, dv, params, mode, coefs):
    """Full stress T_ij from the grid density (and deviation ``ell`` in the
    extended mode), the plain velocity Jacobian ``dv`` and ``coefs`` =
    params.coefficients(rho)."""
    eta, gam, ghat = coefs
    p = params.pressure(rho)
    if mode == "base":
        T = viscous_stress(eta, gam, None, dv, "base")
    else:
        nu = params.nu
        p = p + ell * ell / (2.0 * nu) + (2.0 / nu) * ghat * ell
        T = viscous_stress(eta, gam, ell - 2.0 * eta, dv, "extended")
    T[0, 0] -= p
    T[1, 1] -= p
    return T


def stress_tensor(state, params, mode="base"):
    """Full stress T_ij on the grid, shape (2, 2, nx, ny)."""
    _check_state(state.rho, state.v, state.ell)
    if mode not in ("base", "extended"):
        raise ValueError(f"unknown stress mode {mode!r}")
    if mode == "extended" and state.ell is None:
        raise ValueError("extended stress needs the deviation field")
    return _stress(state.rho, state.ell, velocity_jacobian(state.v), params, mode,
                   params.coefficients(state.rho))


def _stacked(first, rows, v):
    """``first`` stacked over the products rows[i] * v[j] of table rows and the
    velocity spectra, i-major."""
    out = np.empty((len(first) + 2 * len(rows),) + first.shape[1:], dtype=complex)
    out[: len(first)] = first
    np.multiply(rows[:, None], v, out=out[len(first) :].reshape((len(rows),) + v.shape))
    return out


def outside_mask(spec, mode):
    """Grid fields of the modes of ``spec`` that the 2/3 mask drops: rho [and
    dl], then partial_i v_j.  Every rhs is masked, so along a trajectory these
    stay those of the initial state."""
    tab = table(grid_of(spec))
    rest = np.where(tab[0] == 0.0, spec, 0.0)
    raw = [0, 3] if mode == "extended" else [0]
    return inverse(_stacked(rest[raw], tab[3:], rest[1:3]), PLANE)


def _flux_spectra(spec, params, mode, t, rest):
    """Pruned half spectra of the stress rows T_00, T_01, T_10, T_11, the mass
    flux rho_d v_d and, extended, the deviation flux dl_d v_d and Gamma_hat
    div v; with the dealiased grid fields rho_d, v_d[, dl_d] and D_i v_j."""
    extended = mode == "extended"
    shape = grid_of(spec)
    cols = kept(shape[1])
    tab = table(shape)
    # the dealiased fields, then D_i v_j (table rows 1-2)
    masked = tab[0, :, cols] * spec[..., cols]
    phys = inverse_pruned(_stacked(masked, tab[1:3, :, cols], spec[1:3, :, cols]), shape[1])
    rho_d, v_d = phys[0], phys[1:3]
    # with the modes outside the mask added: rho [and dl] with every mode,
    # which the pressure and the coefficients take, and partial_i v_j
    rho = rho_d + rest[0]
    if np.min(rho) <= DENSITY_FLOOR:
        raise NegativeDensity(f"density fell to {np.min(rho):.3e}{at_time(t)}")
    ell = phys[3] + rest[1] if extended else None
    dv = (phys[len(spec) :] + rest[-4:]).reshape((2, 2) + shape)
    coefs = params.coefficients(rho)
    div = dv[0, 0] + dv[1, 1]
    flux = np.empty((9 if extended else 6,) + shape)
    flux[:4] = _stress(rho, ell, dv, params, "extended" if extended else "base",
                       coefs).reshape((4,) + shape)
    if mode == "effective":
        # relaxation-limit pressure shift on T_00 and T_11; the stress is only
        # used dealiased
        shift = -(8.0 / params.mu) * coefs[2] * div
        flux[0] -= shift
        flux[3] -= shift
    np.multiply(rho_d, v_d, out=flux[4:6])
    if extended:
        np.multiply(phys[3], v_d, out=flux[6:8])
        np.multiply(coefs[2], div, out=flux[8])
    return forward_pruned(flux), phys


def _check_finite(fields, extended, t=None):
    """Refuse stacked (rho, v_0, v_1[, dl]), grid values or half spectra, with
    a non-finite entry; ``t``, when given, is named in the failure."""
    if not all_finite(fields[:3]):
        raise NonFinite(f"fluid state contains non-finite entries{at_time(t)}")
    if extended and not all_finite(fields[3]):
        raise NonFinite(f"deviation field contains non-finite entries{at_time(t)}")


def spectral_rhs(spec, params, mode, t=None, rest=None):
    """Masked half spectra of (rho_t, v_t) of the base or effective system, or
    of (rho_t, v_t, dl_t) of the extended one, stacked as ``spec`` stacks the
    half spectra of (rho, v[, dl]); ``t``, when given, is named in a failure.
    ``rest`` is ``outside_mask(spec, mode)``, computed here unless given.

    One pruned inverse transform gives the dealiased fields and Jacobian;
    with ``rest`` added they give the density (and deviation) with every
    mode, which the pressure and the coefficients take, and the plain
    velocity Jacobian.  One pruned forward transform of the stress and the
    fluxes gives the stress divergence, the mass flux divergence and the
    deviation source; each product is masked once.  The velocity's quotient
    and advection terms take one more pruned pair.
    """
    extended = mode == "extended"
    _check_finite(spec, extended, t)
    if rest is None:
        rest = outside_mask(spec, mode)
    fh, phys = _flux_spectra(spec, params, mode, t, rest)
    shape = grid_of(spec)
    cols = kept(shape[1])
    tab = table(shape)
    mask, dgrad = tab[0, :, cols], tab[1:3, :, cols]
    out = np.zeros_like(spec)
    out[0, :, cols] = -(dgrad[0] * fh[4] + dgrad[1] * fh[5])
    if extended:
        source = 2.0 * fh[8] + (params.mu / params.nu) * spec[3, :, cols]
        out[3, :, cols] = -(dgrad[0] * fh[6] + dgrad[1] * fh[7]) - mask * source
    div_T = inverse_pruned(dgrad[0] * fh[0:2] + dgrad[1] * fh[2:4], shape[1])  # D_i T_ij
    rho_d, v_d, ddv = phys[0], phys[1:3], phys[len(spec) :].reshape((2, 2) + shape)
    accel = div_T / rho_d - (v_d[0] * ddv[0] + v_d[1] * ddv[1])
    out[1:3, :, cols] = mask * forward_pruned(accel)
    return out


def _fields(state, mode):
    """(rho, v_0, v_1[, dl]) of ``state`` stacked, as ``mode`` evolves them."""
    if mode not in ("base", "effective", "extended"):
        raise ValueError(f"unknown fluid system {mode!r}")
    if mode == "extended" and state.ell is None:
        raise ValueError("extended dynamics needs the deviation field")
    return np.stack([state.rho, *state.v] + ([state.ell] if mode == "extended" else []))


def _state_of(fields):
    """The FluidState of stacked grid fields (rho, v_0, v_1[, dl])."""
    return FluidState(rho=fields[0], v=fields[1:3], ell=fields[3] if len(fields) == 4 else None)


def _rhs(state, params, mode):
    """``spectral_rhs`` of a FluidState, as time derivatives on the grid.  The
    grid fields are checked first, since transforming a non-finite field
    warns."""
    fields = _fields(state, mode)
    _check_state(state.rho, state.v, state.ell)
    out = inverse(spectral_rhs(forward(fields, PLANE), params, mode), PLANE)
    return (out[0], out[1:3]) + ((out[3],) if mode == "extended" else ())


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


def integrate_fluid(system, state0, params, t_span, stepper, record_every=1):
    """Integrate one of the fluid systems on the half spectra of its fields;
    returns (Trajectory, frames).

    ``system`` is "base", "effective", or "extended".  The trajectory state
    columns are cheap summaries (density range, max speed, rms divergence);
    the frames, FluidStates on the grid, are made from the recorded spectra
    when they are indexed.
    """
    fields = _fields(state0, system)
    _check_finite(fields, system == "extended")  # before transforming, which would warn
    spec0 = forward(fields, PLANE)
    shape = state0.shape
    rest = outside_mask(spec0, system)
    times, specs, frames = integrate_spectrum(
        lambda spec, t: spectral_rhs(spec, params, system, t, rest), spec0, t_span, stepper,
        record_every, lambda spec: _state_of(inverse(spec, PLANE)))
    area = _cell_area(shape)
    grad = table(shape)[3:]
    states = np.empty((len(times), 4))
    columns = ["H"] + (["H_nu", "R_mu", "dl_max"] if system == "extended" else [])
    ledger = {key: np.empty(len(times)) for key in columns}
    for i, spec in enumerate(specs):
        st = frames[i]
        # Parseval: the divergence norm needs no inverse transform
        div_l2 = np.sqrt(np.sum(power(grad[0] * spec[1] + grad[1] * spec[2])) * area)
        states[i] = st.rho.min(), st.rho.max(), np.sqrt(st.v[0] ** 2 + st.v[1] ** 2).max(), div_l2
        ledger["H"][i] = fluid_energy(st, params)
        if system == "extended":
            ledger["H_nu"][i] = extended_energy(st, params)
            ledger["R_mu"][i] = rayleigh_dissipation(st, params)
            ledger["dl_max"][i] = np.max(np.abs(st.ell))
    traj = Trajectory(
        times=times,
        columns=["rho_min", "rho_max", "speed_max", "div_l2"],
        states=states,
        ledger=ledger,
    )
    return traj, frames
