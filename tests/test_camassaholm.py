"""Momentum-form shallow-water dynamics: algebraic and conservation oracles."""

import numpy as np
import pytest

from nonholo.camassaholm import (
    ch_rhs,
    ch_rhs_velocity_form,
    h1_energy,
    helmholtz_apply,
    helmholtz_inverse,
    integrate_ch,
    mean_value,
)
from nonholo.errors import NonFinite
from nonholo.numkit import Stepper

TWO_PI = 2.0 * np.pi


def grid(n=256):
    return np.arange(n) * TWO_PI / n


def test_helmholtz_inverse_constant_and_harmonic():
    n = 256
    x = grid(n)
    assert np.allclose(helmholtz_inverse(np.full(n, 3.0)), 3.0, atol=1e-14)
    # (1 + k^2) = 2 at k = 1
    assert np.allclose(helmholtz_inverse(2.0 * np.cos(x)), np.cos(x), atol=1e-13)


def test_helmholtz_round_trip_and_mean_identity():
    rng = np.random.default_rng(2)
    n = 128
    x = grid(n)
    u = sum(rng.normal() * np.cos(k * x + rng.normal()) for k in range(1, 6)) + 0.7
    m = helmholtz_apply(u)
    assert np.allclose(helmholtz_inverse(m), u, atol=1e-12)
    assert abs(mean_value(u) - mean_value(m)) < 1e-14  # zero modes agree


def test_constants_are_stationary_for_every_kappa():
    m = np.full(256, 0.8)
    for kp in (0.0, 0.5, -2.0):
        assert np.max(np.abs(ch_rhs(m, kp))) < 1e-14


def test_momentum_form_matches_velocity_form():
    # expanding m = u - u_xx in the momentum form reproduces the five-term
    # velocity equation; compare u_t from both routes
    n = 256
    u = np.sin(grid(n))
    m = helmholtz_apply(u)
    for kp in (0.0, 0.5):
        a = helmholtz_inverse(ch_rhs(m, kp))
        b = ch_rhs_velocity_form(u, kp)
        assert np.max(np.abs(a - b)) < 1e-10


def test_rhs_mean_is_zero_pointwise():
    # d/dt int m dx = -int (2 u_x m + u m_x) dx = -int d_x(u^2/2 - u_x^2/2 + u m)... = 0
    rng = np.random.default_rng(5)
    n = 256
    x = grid(n)
    u = sum(0.2 * rng.normal() * np.sin(k * x + rng.normal()) for k in range(1, 8))
    m = helmholtz_apply(u)
    for kp in (0.0, 1.0):
        assert abs(mean_value(ch_rhs(m, kp))) < 1e-14


def test_energy_rate_is_zero_pointwise():
    # dE/dt = int u m_t dx vanishes analytically for every kappa
    rng = np.random.default_rng(7)
    n = 256
    x = grid(n)
    u = sum(0.3 * rng.normal() * np.cos(k * x + rng.normal()) for k in range(1, 6))
    m = helmholtz_apply(u)
    E = h1_energy(m)
    for kp in (0.0, 0.5):
        md = ch_rhs(m, kp)
        rate = float(np.sum(helmholtz_inverse(m) * md)) * TWO_PI / n
        assert abs(rate) < 1e-10 * max(abs(E), 1.0)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_integration_conserves_mean_and_energy(kappa):
    n = 256
    u0 = 0.1 * np.sin(grid(n))
    m0 = helmholtz_apply(u0)
    tr = integrate_ch(m0, kappa, (0, 1), Stepper.rk4(1e-4), record_every=1000)
    mu = tr.column("mean_u")
    e = tr.column("energy")
    assert np.max(np.abs(mu - mu[0])) < 1e-12
    assert np.max(np.abs(e - e[0])) < 1e-8 * abs(e[0])


def test_constant_initial_data_stays_constant():
    m0 = np.full(128, 0.4)
    tr = integrate_ch(m0, 0.7, (0, 0.5), Stepper.rk4(1e-3), record_every=100)
    assert np.max(np.abs(tr.states - 0.4)) < 1e-13


def test_time_convergence_fourth_order():
    n = 128
    u0 = 0.2 * np.sin(grid(n)) + 0.1 * np.cos(2 * grid(n))
    m0 = helmholtz_apply(u0)

    def final(dt):
        return integrate_ch(m0, 0.3, (0, 0.5), Stepper.rk4(dt), record_every=10 ** 6).states[-1]

    ref = final(1e-3 / 8)
    e1 = np.max(np.abs(final(4e-3) - ref))
    e2 = np.max(np.abs(final(2e-3) - ref))
    assert e1 / e2 > 10.0  # ~16 for a 4th-order scheme


def test_nonfinite_momentum_rejected():
    m = np.full(64, 1.0)
    m[3] = np.inf
    with pytest.raises(NonFinite):
        ch_rhs(m)


def test_power_of_two_grid_required():
    with pytest.raises(ValueError):
        helmholtz_inverse(np.zeros(100))


def test_ledger_equals_the_per_record_helpers_bit_for_bit():
    # the ledger takes 256 records per transform; a block boundary falls inside
    m0 = helmholtz_apply(0.1 * np.sin(grid(64)) + 0.05 * np.cos(3 * grid(64)))
    tr = integrate_ch(m0, 0.5, (0, 0.3), Stepper.rk4(1e-3))
    assert len(tr) > 256
    us = [helmholtz_inverse(m) for m in tr.states]
    assert tr.column("mean_u").tobytes() == np.array([mean_value(u) for u in us]).tobytes()
    energy = [h1_energy(m, u) for m, u in zip(tr.states, us)]
    assert tr.column("energy").tobytes() == np.array(energy).tobytes()
