"""Parity-breaking fluid: stress algebra, conservation, and limit ordering."""

import warnings

import numpy as np
import pytest

from nonholo.errors import NegativeDensity, NonFinite
from nonholo.numkit import Stepper
from nonholo.oddfluid import (
    FluidParams,
    FluidState,
    base_rhs,
    coefficient_and_derivative,
    effective_rhs,
    energy_balance_residual,
    energy_rate,
    extended_energy,
    extended_rhs,
    fluid_energy,
    integrate_fluid,
    rayleigh_dissipation,
    slaved_deviation,
    stress_tensor,
    velocity_jacobian,
)

TWO_PI = 2.0 * np.pi


def mesh(n):
    x = np.arange(n) * TWO_PI / n
    return np.meshgrid(x, x, indexing="ij")


def generic_params(mu=1.0, nu=1.0):
    return FluidParams(
        eos=("isothermal", 1.0),
        eta_H=lambda r: 0.1 * r,
        Gamma_H=lambda r: 0.05 * r * r,
        mu=mu,
        nu=nu,
    )


def smooth_state(n=64, with_ell=False, amp_v=0.1):
    X, Y = mesh(n)
    rho = 1.0 + 0.1 * np.cos(X) + 0.05 * np.sin(Y + 1.0) + 0.03 * np.cos(X + 2 * Y)
    v = amp_v * np.stack(
        [np.sin(X) * np.cos(Y) + 0.3 * np.cos(2 * Y), np.cos(X + Y) + 0.2 * np.sin(2 * X)]
    )
    ell = 0.05 * np.sin(X + Y) + 0.02 * np.cos(2 * X) if with_ell else None
    return FluidState(rho=rho, v=v, ell=ell)


def test_coefficient_derivative_exact():
    r = np.linspace(0.5, 2.0, 7)
    val, der = coefficient_and_derivative(lambda x: 0.3 * x * x + 2.0, r)
    assert np.allclose(val, 0.3 * r * r + 2.0)
    assert np.allclose(der, 0.6 * r)
    val, der = coefficient_and_derivative(lambda x: 1.0 / (1.0 + x), r)
    assert np.allclose(val, 1.0 / (1.0 + r))
    assert np.allclose(der, -1.0 / (1.0 + r) ** 2)
    for const in (lambda x: 1.5 + 0.0 * x, lambda x: 1.5):  # a jet, then a plain float
        val, der = coefficient_and_derivative(const, r)
        assert np.array_equal(val, np.full_like(r, 1.5)) and np.array_equal(der, np.zeros_like(r))


@pytest.mark.parametrize("eta, gamma", [(0.1, 0.3), (-0.0, -0.0), (-0.2, 0.0)])
def test_float_coefficients_match_their_constant_functions_bit_for_bit(eta, gamma):
    assert coefficient_and_derivative(eta, np.ones(3)) == (eta, 0.0)
    state = smooth_state(16, with_ell=True)
    floats = FluidParams(eta_H=eta + 0.0, Gamma_H=gamma + 0.0, mu=2.0, nu=0.5)
    jets = FluidParams(eta_H=lambda r: eta + 0.0 * r, Gamma_H=lambda r: gamma + 0.0 * r,
                       mu=2.0, nu=0.5)
    for rhs in (base_rhs, effective_rhs, extended_rhs):
        for a, b in zip(rhs(state, floats), rhs(state, jets)):
            assert a.tobytes() == b.tobytes()


def test_equations_of_state_pressure():
    r = np.linspace(0.5, 2.0, 5)
    iso = FluidParams(eos=("isothermal", 2.0))
    assert np.allclose(iso.pressure(r), 4.0 * r)
    poly = FluidParams(eos=("polytropic2", 0.7))
    assert np.allclose(poly.pressure(r), 0.7 * r * r)
    with pytest.raises(ValueError):
        FluidParams(eos=("gamma-law", 1.4)).pressure(r)


def test_uniform_state_stress_and_rhs():
    n = 32
    st = FluidState(rho=np.ones((n, n)), v=np.zeros((2, n, n)))
    params = generic_params()
    T = stress_tensor(st, params, "base")
    p = params.pressure(np.ones((n, n)))
    assert np.allclose(T[0, 0], -p) and np.allclose(T[1, 1], -p)
    assert np.allclose(T[0, 1], 0.0) and np.allclose(T[1, 0], 0.0)
    rho_t, v_t = base_rhs(st, params)
    assert np.max(np.abs(rho_t)) < 1e-14 and np.max(np.abs(v_t)) < 1e-14


def test_zero_coefficients_give_plain_pressure_stress():
    st = smooth_state(32)
    params = FluidParams(eos=("isothermal", 1.0))
    T = stress_tensor(st, params, "base")
    p = params.pressure(st.rho)
    assert np.allclose(T[0, 0], -p) and np.allclose(T[1, 1], -p)
    assert np.allclose(T[0, 1], 0.0) and np.allclose(T[1, 0], 0.0)


def test_shear_stress_matches_index_contraction_oracle():
    # hand contraction of -eta_H (eps_ik delta_jl + eps_jl delta_ik) d_k v_l
    # for v = (sin y, 0) at constant rho, Gamma_H = 0
    n = 64
    X, Y = mesh(n)
    st = FluidState(rho=np.ones((n, n)), v=np.stack([np.sin(Y), np.zeros((n, n))]))
    params = FluidParams(eos=("isothermal", 1.0), eta_H=lambda r: 0.2 * r)
    T = stress_tensor(st, params, "base")
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dv = velocity_jacobian(st.v)
    expected = np.zeros_like(T)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l_ in range(2):
                    expected[i, j] += -0.2 * (
                        eps[i, k] * (j == l_) + eps[j, l_] * (i == k)
                    ) * dv[k, l_]
    expected[0, 0] -= params.pressure(st.rho)
    expected[1, 1] -= params.pressure(st.rho)
    assert np.max(np.abs(T - expected)) < 1e-12


def test_base_energy_rate_vanishes_for_any_coefficients():
    rng = np.random.default_rng(0)
    for _ in range(3):
        a, b = rng.uniform(0.02, 0.3, 2)
        params = FluidParams(
            eos=("polytropic2", 0.5),
            eta_H=lambda r, a=a: a * r,
            Gamma_H=lambda r, b=b: b * r * r,
        )
        st = smooth_state(32)
        H = fluid_energy(st, params)
        assert abs(energy_rate(st, params, base_rhs)) < 1e-10 * abs(H)


def test_acoustic_frequency_matches_sound_speed():
    # rho = 1 + a cos x, v = 0, unit sound speed: the k=1 density mode is a
    # standing wave with angular frequency 1
    n = 32
    X, _ = mesh(n)
    a = 1e-3
    st = FluidState(rho=1.0 + a * np.cos(X), v=np.zeros((2, n, n)))
    params = FluidParams(eos=("isothermal", 1.0))
    tr, frames = integrate_fluid("base", st, params, (0, np.pi), Stepper.rk4(1e-3), 10)
    amp = np.array([np.sum(f.rho * np.cos(X)) for f in frames]) * (TWO_PI / n) ** 2
    # amp(t) ~ a * 2 pi^2 cos(t): locate the half period at the minimum
    t_half = tr.times[np.argmin(amp)]
    assert abs(t_half - np.pi) < 1e-3 * np.pi


def test_base_energy_conservation_integrated():
    params = generic_params()
    st = smooth_state(32)
    tr, _ = integrate_fluid("base", st, params, (0, 0.25), Stepper.rk4(1e-3), 50)
    H = tr.column("H")
    assert np.max(np.abs(H - H[0])) < 1e-8 * abs(H[0])


def test_extended_balance_identity_per_call():
    params = generic_params(mu=1.3, nu=1.0)
    st = smooth_state(64, with_ell=True)
    H = extended_energy(st, params)
    assert energy_balance_residual(st, params) < 1e-10 * abs(H)
    # the dissipation really is active
    assert rayleigh_dissipation(st, params) > 1e-3


def test_extended_balance_integrated():
    params = generic_params(mu=2.0, nu=1.0)
    st = smooth_state(32, with_ell=True)
    tr, _ = integrate_fluid("extended", st, params, (0, 0.25), Stepper.rk4(1e-3), 25)
    Hn = tr.column("H_nu")
    R = tr.column("R_mu")
    drop = Hn - Hn[0]
    quad = -2.0 * np.concatenate([[0.0], np.cumsum(0.5 * (R[1:] + R[:-1]) * np.diff(tr.times))])
    assert np.max(np.abs(drop - quad)) < 1e-6 * abs(Hn[0])
    assert Hn[-1] < Hn[0]  # it actually dissipates


def test_pure_relaxation_closed_form():
    n = 32
    d0, mu, nu = 0.3, 1.7, 1.0
    st = FluidState(rho=np.ones((n, n)), v=np.zeros((2, n, n)), ell=np.full((n, n), d0))
    params = FluidParams(eos=("isothermal", 1.0), mu=mu, nu=nu)
    tr, frames = integrate_fluid("extended", st, params, (0, 1), Stepper.rk4(1e-3), 10 ** 6)
    assert np.max(np.abs(frames[-1].ell - d0 * np.exp(-mu / nu))) < 1e-8
    assert np.max(np.abs(frames[-1].rho - 1.0)) < 1e-12


def test_gamma_hat_zero_collapse():
    # Gamma_H = eta_H - rho eta_H' makes the deviation source vanish; with
    # zero initial deviation the extended system reduces to the base system
    params = FluidParams(
        eos=("isothermal", 1.0), eta_H=lambda r: 0.1 * r, Gamma_H=lambda r: 0.0 * r
    )
    assert np.max(np.abs(params.coefficients(np.linspace(0.5, 2, 9))[2])) < 1e-14
    st = smooth_state(32, with_ell=True)
    st.ell[:] = 0.0
    rb = base_rhs(FluidState(rho=st.rho, v=st.v), params)
    re = extended_rhs(st, params)
    assert np.max(np.abs(rb[0] - re[0])) < 1e-12
    assert np.max(np.abs(rb[1] - re[1])) < 1e-12
    assert np.max(np.abs(re[2])) < 1e-12


def test_effective_approaches_base_at_rate_one_over_mu():
    st = smooth_state(32)
    gaps = []
    for mu in (10.0, 100.0):
        params = generic_params(mu=mu)
        re = effective_rhs(st, params)
        rb = base_rhs(st, params)
        gaps.append(max(np.max(np.abs(re[0] - rb[0])), np.max(np.abs(re[1] - rb[1]))))
    assert gaps[0] > 0
    assert abs(gaps[0] / gaps[1] - 10.0) < 0.5


def test_small_mu_suppresses_compressibility():
    st = smooth_state(32)
    norms = []
    for mu in (4.0, 1.0, 0.25):
        params = generic_params(mu=mu)
        tr, _ = integrate_fluid("effective", st, params, (0, 0.4), Stepper.rk4(2e-3), 200)
        norms.append(tr.column("div_l2")[-1])
    assert norms[0] > norms[1] > norms[2]


def test_small_nu_limit_exists_and_gap_to_shifted_pressure_is_reported():
    # as nu shrinks (slaved initial deviation) the extended trajectories
    # settle toward a limit; the residual distance to the shifted-pressure
    # system is reported, not asserted to vanish: the printed shift is
    # linear in the source coefficient where the slaving substitution
    # produces a quadratic dependence
    st = smooth_state(32)
    params_eff = generic_params(mu=2.0)
    _, frames_eff = integrate_fluid(
        "effective", st, params_eff, (0, 0.1), Stepper.rk4(5e-4), 10 ** 6
    )
    finals = []
    gaps = []
    for nu in (1e-1, 1e-2, 1e-3):
        params = generic_params(mu=2.0, nu=nu)
        st_ext = FluidState(rho=st.rho.copy(), v=st.v.copy(), ell=slaved_deviation(st, params))
        _, frames = integrate_fluid("extended", st_ext, params, (0, 0.1), Stepper.rk4(5e-4), 10 ** 6)
        finals.append(frames[-1])
        gaps.append(
            max(
                np.max(np.abs(frames[-1].rho - frames_eff[-1].rho)),
                np.max(np.abs(frames[-1].v - frames_eff[-1].v)),
            )
        )

    def dist(a, b):
        return max(np.max(np.abs(a.rho - b.rho)), np.max(np.abs(a.v - b.v)))

    # successive small-coupling solutions form a Cauchy-like sequence
    assert dist(finals[1], finals[2]) < dist(finals[0], finals[1])
    # the reported gap stays bounded but does not vanish
    assert max(gaps) < 0.05
    print(f"shifted-pressure gap by nu: {dict(zip((1e-1, 1e-2, 1e-3), gaps))}")


def test_negative_density_raises():
    n = 32
    st = FluidState(rho=np.full((n, n), 1e-7), v=np.zeros((2, n, n)))
    with pytest.raises(NegativeDensity):
        base_rhs(st, generic_params())


def test_nonfinite_state_raises():
    n = 32
    v = np.zeros((2, n, n))
    v[0, 0, 0] = np.nan
    with pytest.raises(NonFinite):
        base_rhs(FluidState(rho=np.ones((n, n)), v=v), generic_params())


@pytest.mark.parametrize("system, field, message", [
    ("base", "rho", "fluid state"), ("effective", "v", "fluid state"),
    ("extended", "ell", "deviation field")])
def test_nonfinite_initial_state_raises_before_any_transform(system, field, message):
    # a transform of an inf field warns; the initial fields are checked first
    n = 16
    X, Y = mesh(n)
    st = FluidState(rho=1.0 + 0.1 * np.cos(X), v=np.stack([np.sin(Y), np.cos(X)]),
                    ell=0.1 * np.sin(X + Y) if system == "extended" else None)
    getattr(st, field)[..., 1, 2] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=f"^{message} contains non-finite entries$"):
            integrate_fluid(system, st, generic_params(), (0, 0.01), Stepper.rk4(1e-3))


def test_extended_requires_deviation_field():
    st = smooth_state(32)
    with pytest.raises(ValueError):
        extended_rhs(st, generic_params())
    with pytest.raises(ValueError):
        stress_tensor(st, generic_params(), "extended")
