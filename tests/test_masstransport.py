"""Advection on the torus: potentiality, characteristics, and the potential
equation's half-factor."""

import warnings

import numpy as np
import pytest

from nonholo.errors import NonFinite
from nonholo.masstransport import (
    _curl_from,
    burgers_spectral_rhs,
    characteristics_1d,
    gradient,
    hj_spectral_rhs,
    integrate_burgers,
    integrate_hj,
)
from nonholo.numkit import Stepper
from nonholo.numkit.spectral import PLANE, forward, tail_fractions

from lift import on_grid

burgers_rhs, hj_rhs = on_grid(burgers_spectral_rhs), on_grid(hj_spectral_rhs)

TWO_PI = 2.0 * np.pi


def mesh(n):
    x = np.arange(n) * TWO_PI / n
    return np.meshgrid(x, x, indexing="ij")


def test_zero_and_constant_fields_are_stationary():
    n = 64
    assert np.max(np.abs(burgers_rhs(np.zeros((2, n, n))))) == 0.0
    u = np.stack([np.full((n, n), 0.7), np.full((n, n), -1.2)])
    assert np.max(np.abs(burgers_rhs(u))) < 1e-14
    assert np.max(np.abs(hj_rhs(np.zeros((n, n))))) == 0.0


def test_one_dimensional_embedding_matches_characteristics():
    # u = (sin x, 0): compare against u = u0(x - t u) solved by Newton
    n = 128
    X, _ = mesh(n)
    u0 = np.stack([np.sin(X), np.zeros((n, n))])
    _, frames = integrate_burgers(u0, (0, 0.5), Stepper.rk4(1e-3), record_every=10 ** 6)
    x = np.arange(n) * TWO_PI / n
    exact = characteristics_1d(lambda z: (np.sin(z), np.cos(z)), x, 0.5)
    assert np.max(np.abs(frames[-1][0] - exact[:, None])) < 1e-6
    assert np.max(np.abs(frames[-1][1])) < 1e-12


def test_characteristics_iteration_reports_shock():
    x = np.linspace(0, TWO_PI, 64)
    with pytest.raises(ArithmeticError):
        characteristics_1d(lambda z: (np.sin(z), np.cos(z)), x, 1.5)  # past breaking


def test_gradient_data_stays_potential():
    n = 128
    X, Y = mesh(n)
    u0 = gradient(np.cos(X) + np.sin(2 * Y))
    tr, _ = integrate_burgers(u0, (0, 0.3), Stepper.rk4(1e-3), record_every=50)
    assert tr.column("curl_max").max() < 1e-6
    assert tr.column("tail_fraction").max() < 1e-3  # no spectral-tail alarm


def test_non_gradient_control_keeps_order_one_curl():
    n = 64
    _, Y = mesh(n)
    u0 = np.stack([-np.sin(Y), np.zeros((n, n))])  # curl = cos y, max 1
    tr, _ = integrate_burgers(u0, (0, 0.3), Stepper.rk4(1e-3), record_every=100)
    assert tr.column("curl_max").min() > 0.5


def test_hj_hand_value_and_gauge():
    n = 64
    X, _ = mesh(n)
    # f = cos x: -(1/2) sin^2 x, mean-zeroed to cos(2x)/4
    r = hj_rhs(np.cos(X))
    assert np.max(np.abs(r - np.cos(2 * X) / 4.0)) < 1e-13
    assert abs(np.mean(r)) < 1e-15


def test_hj_matches_burgers_gradient():
    n = 128
    X, Y = mesh(n)
    f0 = np.cos(X) + np.sin(2 * Y)
    st = Stepper.rk4(1e-3)
    _, uf = integrate_burgers(gradient(f0), (0, 0.3), st, record_every=10 ** 6)
    _, ff = integrate_hj(f0, (0, 0.3), st, record_every=10 ** 6)
    assert np.max(np.abs(gradient(ff[-1]) - uf[-1])) < 1e-5


def test_hj_burgers_gap_is_roundoff_at_any_step():
    # on the dealiased subspace the discrete advection of a gradient field
    # commutes with taking gradients of the discrete potential flow, so the
    # matched-step gap sits at roundoff rather than merely at the scheme's
    # fourth order
    n = 64
    X, Y = mesh(n)
    f0 = 0.5 * np.cos(X) + 0.3 * np.sin(Y)

    def gap(dt):
        st = Stepper.rk4(dt)
        _, uf = integrate_burgers(gradient(f0), (0, 0.25), st, record_every=10 ** 6)
        _, ff = integrate_hj(f0, (0, 0.25), st, record_every=10 ** 6)
        return np.max(np.abs(gradient(ff[-1]) - uf[-1]))

    assert gap(2.5e-2) < 1e-12
    assert gap(1.25e-2) < 1e-12


def test_curl_of_gradient_vanishes():
    rng = np.random.default_rng(3)
    n = 64
    X, Y = mesh(n)
    f = sum(
        rng.normal() * np.cos(i * X + j * Y + rng.normal())
        for i in range(3)
        for j in range(3)
    )
    assert np.max(np.abs(_curl_from(forward(gradient(f), PLANE), (n, n)))) < 1e-10


def test_tail_fraction_flags_rough_fields():
    n = 64
    X, _ = mesh(n)
    smooth = np.cos(X)
    rough = np.cos((n // 2 - 1) * X)
    assert tail_fractions(forward(smooth, PLANE)) < 1e-20
    assert tail_fractions(forward(rough, PLANE)) > 0.9


def test_nonfinite_input_rejected():
    # the initial grid field is checked before it is transformed, which would warn
    n = 32
    u = np.zeros((2, n, n))
    u[1, 2, 3] = np.inf
    f = np.zeros((n, n))
    f[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="^velocity contains non-finite entries$"):
            integrate_burgers(u, (0, 0.01), Stepper.rk4(1e-3))
        with pytest.raises(NonFinite, match="^potential contains non-finite entries$"):
            integrate_hj(f, (0, 0.01), Stepper.rk4(1e-3))
