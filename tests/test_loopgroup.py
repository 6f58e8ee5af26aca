"""Spin-chain and filament flows against closed-form loop solutions."""

import numpy as np
import pytest

from nonholo.errors import NonFinite
from nonholo.loopgroup import (
    binormal_rhs,
    circle_curve,
    curve_length,
    gauss_map_consistency,
    integrate_binormal,
    integrate_ll,
    ll_rhs,
    magnon,
    spin_energy,
    spin_momentum,
    unit_norm_deviation,
)
from nonholo.numkit import Stepper, spectral_derivative

TWO_PI = 2.0 * np.pi


def test_constant_spin_field_is_stationary():
    L = np.tile([0.0, 0.0, 1.0], (64, 1))
    assert np.allclose(ll_rhs(L), 0.0)
    tr = integrate_ll(L, (0, 0.2), Stepper.rk4(1e-3), record_every=50)
    assert np.max(np.abs(tr.states - tr.states[0])) < 1e-14


def test_magnon_satisfies_equation_to_spectral_accuracy():
    # exact precessing solution: frequency k^2 cos(eps)
    n, k, eps = 128, 2, 0.4
    dt = 1e-6
    L = magnon(n, k, eps)
    Ldot = (magnon(n, k, eps, dt) - magnon(n, k, eps, -dt)) / (2 * dt)
    assert np.max(np.abs(ll_rhs(L) - Ldot)) < 1e-8


def test_magnon_integration_matches_closed_form():
    n, k, eps = 128, 1, 0.7
    tr = integrate_ll(magnon(n, k, eps), (0, 1), Stepper.rk4(1e-4), record_every=10 ** 5)
    err = np.max(np.abs(tr.states[-1].reshape(n, 3) - magnon(n, k, eps, 1.0)))
    assert err < 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_magnon_dispersion_relation(k):
    # measure the precession frequency from the complex first spin component
    n, eps = 128, 0.5
    tr = integrate_ll(magnon(n, k, eps), (0, 0.5), Stepper.rk4(1e-4), record_every=100)
    z = tr.states[:, 0] + 1j * tr.states[:, 1]  # (Lx, Ly) at the first node
    phase = np.unwrap(np.angle(z))
    slope = np.polyfit(tr.times, phase, 1)[0]
    omega = k * k * np.cos(eps)
    assert abs(-slope - omega) / omega < 1e-4


def test_spin_invariants_on_random_smooth_data():
    rng = np.random.default_rng(4)
    n = 128
    theta = np.arange(n) * TWO_PI / n
    L = np.tile([0.0, 0.0, 1.0], (n, 1))
    for k in (1, 2, 3):
        L[:, 0] += 0.1 * rng.normal() * np.cos(k * theta) + 0.1 * rng.normal() * np.sin(k * theta)
        L[:, 1] += 0.1 * rng.normal() * np.cos(k * theta)
    L /= np.linalg.norm(L, axis=1)[:, None]
    tr = integrate_ll(L, (0, 1), Stepper.rk4(1e-4), renormalize=True, record_every=1000)
    e = tr.column("energy")
    assert np.max(np.abs(e - e[0])) < 1e-6 * abs(e[0])
    for c in ("mom_x", "mom_y", "mom_z"):
        m = tr.column(c)
        assert np.max(np.abs(m - m[0])) < 1e-8
    assert tr.column("norm_dev").max() < 1e-12


def test_unit_norm_drift_without_renormalization():
    # d|L|^2/dt = 2 <L, L x L''> = 0 analytically
    L = magnon(64, 1, 0.3)
    tr = integrate_ll(L, (0, 0.1), Stepper.rk4(1e-3), renormalize=False, record_every=20)
    assert tr.column("norm_dev").max() < 1e-8


def test_renormalized_steps_go_through_integrate(monkeypatch):
    # the projected march is the one that ``integrate`` runs, so wrappers of
    # ``integrate`` see every step and rhs call of a renormalized chain
    from nonholo import loopgroup

    calls = []
    real = loopgroup.integrate

    def spy(rhs, y0, t_span, stepper, **kwargs):
        calls.append(kwargs.get("project"))
        return real(rhs, y0, t_span, stepper, **kwargs)

    monkeypatch.setattr(loopgroup, "integrate", spy)
    L = magnon(32, 1, 0.3) * 1.001
    tr = integrate_ll(L, (0, 0.01), Stepper.rk4(1e-3), renormalize=True, record_every=5)
    assert len(calls) == 1 and calls[0] is not None
    assert tr.column("norm_dev")[1:].max() < 1e-15


def test_momentum_rate_is_a_total_derivative():
    # d/dt int L = int (L x L')' = 0 on the periodic grid
    rng = np.random.default_rng(8)
    n = 64
    theta = np.arange(n) * TWO_PI / n
    L = np.column_stack(
        [np.sin(0.3 + theta), np.cos(2 * theta) * 0.5, 1.0 + 0.1 * np.sin(theta)]
    )
    L /= np.linalg.norm(L, axis=1)[:, None]
    drift = np.sum(ll_rhs(L), axis=0) * TWO_PI / n
    assert np.max(np.abs(drift)) < 1e-12


def test_nonfinite_input_rejected():
    L = magnon(32, 1, 0.2)
    L[3, 1] = np.nan
    with pytest.raises(NonFinite):
        ll_rhs(L)


# ---------------------------------------------------------------------------
# filament flow


def test_circle_translates_along_axis():
    # planar circle of radius r: gamma' x gamma'' = (0, 0, 1/r) exactly
    for r in (1.0, 2.5):
        g = circle_curve(64, r)
        rhs = binormal_rhs(g, length=TWO_PI * r)
        assert np.max(np.abs(rhs - [0.0, 0.0, 1.0 / r])) < 1e-10


def test_near_straight_limit_small_drift():
    r = 1e3
    g = circle_curve(256, r)
    rhs = binormal_rhs(g, length=TWO_PI * r)
    assert np.max(np.abs(rhs[:, 2] - 1e-3)) < 1e-9


def test_length_conservation():
    n = 128
    theta = np.arange(n) * TWO_PI / n
    g = circle_curve(n) + 0.05 * np.column_stack(
        [np.cos(3 * theta), np.zeros(n), np.sin(2 * theta)]
    )
    tr = integrate_binormal(g, (0, 0.5), Stepper.rk4(1e-4), record_every=1000)
    L = tr.column("length")
    assert np.max(np.abs(L - L[0])) < 1e-10 * L[0]


def test_gauss_map_consistency_circle():
    d = gauss_map_consistency(circle_curve(64), (0, 0.5), Stepper.rk4(1e-3), record_every=100)
    assert d < 1e-8


def test_gauss_map_consistency_perturbed_circle_and_order():
    n = 128
    theta = np.arange(n) * TWO_PI / n
    r = 1.0 + 0.05 * np.cos(3 * theta)
    g = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)])
    d1 = gauss_map_consistency(g, (0, 0.5), Stepper.rk4(1e-4), record_every=10 ** 5)
    assert d1 < 1e-5


def test_energy_and_momentum_helpers_on_magnon():
    n, k, eps = 128, 2, 0.3
    L = magnon(n, k, eps)
    # H = 1/2 int |L'|^2 = pi k^2 sin^2(eps)
    assert abs(spin_energy(L) - np.pi * k * k * np.sin(eps) ** 2) < 1e-10
    # momentum = 2 pi cos(eps) e3 (the harmonics integrate to zero)
    assert np.allclose(spin_momentum(L), [0, 0, TWO_PI * np.cos(eps)], atol=1e-10)
    assert unit_norm_deviation(L) < 1e-12
    assert abs(curve_length(circle_curve(64, 2.0), TWO_PI * 2) - TWO_PI * 2) < 1e-10


def test_stacked_spin_energy_equals_the_per_loop_energy_bit_for_bit():
    # the ledger takes 256 records per transform; a block boundary falls inside
    loops = np.random.default_rng(4).standard_normal((300, 32, 3))
    per_loop = [spin_energy(L) for L in loops]
    assert spin_energy(loops).tobytes() == np.array(per_loop).tobytes()
    tr = integrate_ll(magnon(32, 1, 0.3), (0, 0.03), Stepper.rk4(1e-4))
    loops = tr.states.reshape(len(tr), 32, 3)
    assert tr.column("energy").tobytes() == np.array([spin_energy(L) for L in loops]).tobytes()


def test_stacked_ledgers_equal_the_per_record_helpers_bit_for_bit():
    # 301 records, so the ledger's block boundary at 256 falls inside
    rng = np.random.default_rng(6)
    loops = rng.standard_normal((300, 32, 3))
    for helper in (unit_norm_deviation, spin_momentum, curve_length):
        assert helper(loops).tobytes() == np.array([helper(L) for L in loops]).tobytes()
    L0 = magnon(32, 1, 0.3) + 1e-3 * rng.standard_normal((32, 3))
    tr = integrate_ll(L0, (0, 0.03), Stepper.rk4(1e-4))
    loops = tr.states.reshape(len(tr), 32, 3)
    assert len(loops) > 256
    norm_dev = np.array([unit_norm_deviation(L) for L in loops])
    assert tr.column("norm_dev").tobytes() == norm_dev.tobytes()
    mom = np.array([spin_momentum(L) for L in loops])
    for i, name in enumerate(["mom_x", "mom_y", "mom_z"]):
        assert tr.column(name).tobytes() == mom[:, i].tobytes()
    gamma0 = circle_curve(32, 0.5) + 1e-3 * rng.standard_normal((32, 3))
    tr = integrate_binormal(gamma0, (0, 0.03), Stepper.rk4(1e-4), length=3.0)
    curves = tr.states.reshape(len(tr), 32, 3)
    assert tr.column("length").tobytes() == np.array([curve_length(g, 3.0) for g in curves]).tobytes()
