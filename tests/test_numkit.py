"""Tests for the shared numerical kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo.distributions import VectorField, car_fields, field_jet
from nonholo.errors import NonFinite
from nonholo.numkit import (
    Jet,
    Stepper,
    dealias_1d,
    integrate,
    jet_variables,
    numerical_rank,
    spectral_derivative,
    spectral_partial_2d,
)
from nonholo.numkit import jets
from nonholo.numkit.jets import derivative_along, monomials, n_monomials


class TestSteppers:
    def test_zero_rhs_is_identity(self):
        rhs = lambda t, y: np.zeros_like(y)
        times, states = integrate(rhs, [1.0, -2.0], (0.0, 0.1), Stepper.rk4(0.1))
        assert times[-1] == 0.1 and np.array_equal(states[-1], [1.0, -2.0])

    def test_rk4_single_step_matches_exponential(self):
        rhs = lambda t, y: y
        _, states = integrate(rhs, [1.0], (0.0, 0.1), Stepper.rk4(0.1))
        assert len(states) == 2
        # one classical step carries the dt^5/5! truncation term, about 8.5e-8
        assert abs(states[-1, 0] - np.exp(0.1)) < 1e-7
        _, states = integrate(rhs, [1.0], (0.0, 0.01), Stepper.rk4(0.01))
        assert abs(states[-1, 0] - np.exp(0.01)) < 1e-12

    def test_blow_up_raises(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1
        rhs = lambda t, y: y * y
        with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
            integrate(rhs, [1.0], (0.0, 1.1), Stepper.rk4(1e-2))

    def test_rk4_is_the_only_scheme(self):
        stepper = Stepper.rk4(0.1)
        assert (stepper.scheme, stepper.dt) == ("rk4", 0.1)
        with pytest.raises(TypeError):
            Stepper(scheme="rk45", dt=0.1)

    def test_rk4_fourth_order_convergence(self):
        rhs = lambda t, y: y
        errs = []
        for dt in (0.02, 0.01):
            _, states = integrate(rhs, [1.0], (0.0, 1.0), Stepper.rk4(dt))
            errs.append(abs(states[-1, 0] - np.e))
        ratio = errs[0] / errs[1]
        assert 16 * 0.9 < ratio < 16 * 1.1

    def test_record_every(self):
        rhs = lambda t, y: -y
        times, states = integrate(rhs, [1.0], (0.0, 1.0), Stepper.rk4(0.01), record_every=10)
        assert len(times) == 11
        assert np.allclose(np.diff(times), 0.1)

    def test_nonfinite_initial_state(self):
        with pytest.raises(NonFinite):
            integrate(lambda t, y: y, [np.nan], (0.0, 1.0), Stepper.rk4(0.1))

    @pytest.mark.parametrize("t_span, dt", [((0.0, 1e308), 1e-3), ((-1e308, 1e308), 1.0)])
    def test_rk4_rejects_a_non_finite_step_count(self, t_span, dt):
        with pytest.raises(ValueError, match="t_span .* dt .* non-finite step count"):
            integrate(lambda t, y: y, [1.0], t_span, Stepper.rk4(dt))

    def test_rk4_shortens_the_last_step_to_land_on_t1(self):
        times, states = integrate(lambda t, y: -y, [1.0], (0.0, 0.0105), Stepper.rk4(1e-3))
        assert times[-1] == 0.0105 and len(times) == 12
        assert abs(states[-1, 0] - np.exp(-0.0105)) < 1e-14

    @given(st.floats(-10.0, 10.0), st.floats(1e-3, 2.0), st.floats(1e-3, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_rk4_last_recorded_time_is_t1(self, t0, span, dt):
        t1 = t0 + span
        times, states = integrate(lambda t, y: -y, [1.0], (t0, t1), Stepper.rk4(dt),
                                  record_every=7)
        n = round((t1 - t0) / dt)
        tol = 1e-9 * max(1.0, abs(t1))
        if abs(t0 + n * dt - t1) <= tol:
            # a whole number of steps keeps the grid t0 + k dt
            assert times[-1] == t0 + n * dt and abs(times[-1] - t1) <= tol
        else:
            assert times[-1] == t1
        assert np.all(np.diff(times) > 0)
        assert abs(states[-1, 0] - np.exp(-(times[-1] - t0))) < 1e-6


class TestJetJacobians:
    """The linear coefficients of a field's degree-1 jet are its Jacobian."""

    @staticmethod
    def jacobian(func, point):
        n = len(point)
        return field_jet(VectorField(n, func), point, 1).coef[:, 1:1 + n]

    def test_jacobian_identity(self):
        J = self.jacobian(lambda p: list(p), [0.3, -0.7, 2.0])
        assert np.array_equal(J, np.eye(3))

    def test_jacobian_hand_case(self):
        f = lambda p: [p[0] * p[1], p[0] + p[1]]
        J = self.jacobian(f, [2.0, 3.0])
        assert np.array_equal(J, [[3.0, 2.0], [1.0, 1.0]])

    def test_jacobian_matches_finite_differences_on_drive(self):
        drive = car_fields(1.0).generators[1]
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(-0.6, 0.6, size=4)
            J = field_jet(drive, p, 1).coef[:, 1:5]
            h = 1e-5
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd = (np.array(drive.func(p + e), dtype=float)
                      - np.array(drive.func(p - e), dtype=float)) / (2 * h)
                assert np.abs(J[:, j] - fd).max() < 1e-6

    def test_nested_differentiation(self):
        # x^3 at 2 is 8 + 12 X + 6 X^2 + X^3: the x^2 coefficient is half of d^2/dx^2 = 12
        (x,) = jet_variables([2.0], 2)
        assert np.array_equal((x ** 3).coef, [8.0, 12.0, 6.0])


def _poly(jet):
    """Coefficients of a scalar jet as {exponent tuple: value}."""
    return {tuple(int(e) for e in row): c
            for row, c in zip(monomials(jet.nvars, jet.deg), jet.coef)}


def _ref_mul(p, q, deg):
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            if sum(k) <= deg:
                out[k] = out.get(k, 0.0) + va * vb
    return out


def _ref_add(p, q, scale=1.0):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + scale * v
    return out


def _ref_diff(p, i):
    out = {}
    for k, v in p.items():
        if k[i]:
            kk = list(k)
            kk[i] -= 1
            out[tuple(kk)] = v * k[i]
    return out


def _ref_powers(g, nvars, deg):
    """[1, g, g^2, ..., g^deg], naive products truncated at deg."""
    powers = [{(0,) * nvars: 1.0}]
    for _ in range(deg):
        powers.append(_ref_mul(powers[-1], g, deg))
    return powers


def _ref_split(jet):
    """Constant term and the powers of the rest."""
    g = _poly(jet)
    c = g.pop((0,) * jet.nvars)
    return c, _ref_powers(g, jet.nvars, jet.deg)


def _ref_sin(jet):
    # sin(c + g) = sin c cos g + cos c sin g
    c, powers = _ref_split(jet)
    out = {}
    for k, gk in enumerate(powers):
        head = math.cos(c) if k % 2 else math.sin(c)
        out = _ref_add(out, gk, (-1.0) ** (k // 2) * head / math.factorial(k))
    return out


def _ref_cos(jet):
    # cos(c + g) = cos c cos g - sin c sin g
    c, powers = _ref_split(jet)
    out = {}
    for k, gk in enumerate(powers):
        head = -math.sin(c) if k % 2 else math.cos(c)
        out = _ref_add(out, gk, (-1.0) ** (k // 2) * head / math.factorial(k))
    return out


def _ref_reciprocal(jet):
    # 1 / (c + g) = sum_k (-g)^k / c^(k+1)
    c, powers = _ref_split(jet)
    out = {}
    for k, gk in enumerate(powers):
        out = _ref_add(out, gk, (-1.0) ** k / c ** (k + 1))
    return out


def _assert_matches(jet, ref):
    got = _poly(jet)
    assert set(ref) <= set(got)
    expected = np.array([ref.get(k, 0.0) for k in got])
    assert np.allclose(list(got.values()), expected, rtol=1e-12, atol=1e-12)


@st.composite
def jet_sets(draw, count=2, vector=False, min_deg=0):
    """``count`` random jets in one variable set; vector jets have nvars rows."""
    nvars = draw(st.integers(1, 3))
    rows = nvars if vector else 1
    out = []
    for _ in range(count):
        deg = draw(st.integers(min_deg, 4))
        size = n_monomials(nvars, deg)
        coef = draw(st.lists(st.floats(-1.0, 1.0), min_size=rows * size, max_size=rows * size))
        coef = np.array(coef).reshape(rows, size)
        if vector:
            # vanishing, constant and affine rows take the shortcuts of derivative_along
            kind = draw(st.sampled_from(["zero", "constant", "affine", "full"]))
            keep = {"zero": 0, "constant": 1, "affine": nvars + 1, "full": size}[kind]
            coef[draw(st.lists(st.integers(0, rows - 1), unique=True)), keep:] = 0.0
        out.append(Jet(nvars, deg, coef if vector else coef[0]))
    return out


class TestJet:
    @given(jet_sets())
    @settings(max_examples=60, deadline=None)
    def test_product_matches_naive_expansion(self, pair):
        a, b = pair
        deg = min(a.deg, b.deg)
        prod = a * b
        assert prod.deg == deg
        _assert_matches(prod, _ref_mul(_poly(a), _poly(b), deg))

    @given(jet_sets(count=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_diff_matches_naive_expansion(self, single, data):
        (a,) = single
        i = data.draw(st.integers(0, a.nvars - 1))
        d = a.diff(i)
        assert d.deg == max(a.deg - 1, 0)
        ref = {k: v for k, v in _ref_diff(_poly(a), i).items() if sum(k) <= d.deg}
        _assert_matches(d, ref)

    @given(jet_sets(count=1), st.floats(0.5, 2.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_series_match_naive_expansion(self, single, c, negative):
        (a,) = single
        a.coef[0] = -c if negative else c
        _assert_matches(a.sin(), _ref_sin(a))
        _assert_matches(a.cos(), _ref_cos(a))
        _assert_matches(a.reciprocal(), _ref_reciprocal(a))

    @given(jet_sets(vector=True, min_deg=1))
    @settings(max_examples=60, deadline=None)
    def test_derivative_along_matches_naive_expansion(self, pair):
        field, f = pair
        nvars = field.nvars
        out = derivative_along(field, f)
        deg = min(field.deg, f.deg) - 1
        assert out.coef.shape == (nvars, n_monomials(nvars, deg))
        for i in range(nvars):
            ref = {}
            for j in range(nvars):
                vj = Jet(nvars, field.deg, field.coef[j])
                fi = Jet(nvars, f.deg, f.coef[i])
                ref = _ref_add(ref, _ref_mul(_poly(vj), _ref_diff(_poly(fi), j), deg))
            _assert_matches(Jet(nvars, deg, out.coef[i]), ref)

    def test_vector_jet_value_and_scalar_value(self):
        x, y = Jet.constant(0.5, 2, 3), Jet(2, 3, np.arange(2 * 10.0).reshape(2, 10))
        assert x.value == 0.5 and isinstance(x.value, float)
        assert np.array_equal(y.value, [0.0, 10.0])

    def test_tables_do_not_depend_on_the_degree_built(self):
        # the cache keeps one table per variable count at the largest degree
        # asked for; its prefix must equal the table of any lower degree
        big, small = jets._build(4, 6), jets._build(4, 3)
        p, n = small.npairs[3], small.size(3)
        assert np.array_equal(big.left[:p], small.left)
        assert np.array_equal(big.right[:p], small.right)
        assert np.array_equal(big.seg[:n], small.seg)
        assert np.array_equal(big.up[:, :small.up.shape[1]], small.up)

    def test_monomials_are_graded(self):
        exps = monomials(3, 4)
        assert len(exps) == n_monomials(3, 4) == 35
        assert np.all(np.diff(exps.sum(axis=1)) >= 0)
        assert len({tuple(e) for e in exps}) == len(exps)
        assert exps[1:4].tolist() == np.eye(3, dtype=int).tolist()


class TestRank:
    def test_dependent_triple(self):
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        assert numerical_rank([e1, e2, e1 + e2]) == 2

    def test_empty_and_zero(self):
        assert numerical_rank([]) == 0
        assert numerical_rank([np.zeros(4), np.zeros(4)]) == 0

    def test_hidden_rank_three(self):
        rng = np.random.default_rng(0)
        basis = rng.normal(size=(3, 8))
        vectors = rng.normal(size=(5, 3)) @ basis
        assert numerical_rank(list(vectors)) == 3

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_permutation_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(4, 5))
        base = numerical_rank(list(vectors))
        perm = rng.permutation(4)
        scales = rng.choice([-3.0, 0.5, 2.0, -1.0], size=4)
        scaled = [scales[i] * vectors[perm[i]] for i in range(4)]
        assert numerical_rank(scaled) == base


class TestSpectral:
    def test_sin_first_derivative(self):
        x = np.arange(64) * (2 * np.pi / 64)
        d = spectral_derivative(np.sin(x), 1)
        assert np.abs(d - np.cos(x)).max() < 1e-12

    def test_constant_any_order(self):
        for order in (1, 2, 3):
            assert np.abs(spectral_derivative(np.full(32, 4.2), order)).max() < 1e-13

    def test_second_derivative(self):
        x = np.arange(64) * (2 * np.pi / 64)
        d = spectral_derivative(np.sin(x), 2)
        assert np.abs(d + np.sin(x)).max() < 1e-12

    def test_mode_exactness(self):
        n = 64
        x = np.arange(n) * (2 * np.pi / n)
        for k in (1, 5, 17, 31):
            for order in (1, 2, 3):
                d = spectral_derivative(np.cos(k * x), order)
                expected = {
                    1: -k * np.sin(k * x),
                    2: -k * k * np.cos(k * x),
                    3: k**3 * np.sin(k * x),
                }[order]
                assert np.abs(d - expected).max() < 1e-8 * max(1.0, k**order)

    def test_nyquist_zeroed_for_odd_orders(self):
        n = 32
        x = np.arange(n) * (2 * np.pi / n)
        nyq = np.cos((n // 2) * x)
        assert np.abs(spectral_derivative(nyq, 1)).max() < 1e-12

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            spectral_derivative(np.zeros(48), 1)

    def test_2d_partials(self):
        n = 32
        x = np.arange(n) * (2 * np.pi / n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        f = np.sin(X) * np.cos(2 * Y)
        dx = spectral_partial_2d(f, 1, 0)
        dy = spectral_partial_2d(f, 1, 1)
        assert np.abs(dx - np.cos(X) * np.cos(2 * Y)).max() < 1e-11
        assert np.abs(dy + 2 * np.sin(X) * np.sin(2 * Y)).max() < 1e-11

    def test_dealias_removes_tail(self):
        n = 64
        x = np.arange(n) * (2 * np.pi / n)
        f = np.cos(3 * x) + np.cos(30 * x)
        g = dealias_1d(f)
        assert np.abs(g - np.cos(3 * x)).max() < 1e-12

    def test_periodic_derivative_and_quadrature(self):
        n = 64
        nodes = np.arange(n) * (2 * np.pi / n)
        f = np.sin(nodes)
        # the uniform sum is the exact (spectral) quadrature on a periodic grid
        assert abs(np.sum(f) * (2 * np.pi / n)) < 1e-13
        assert np.abs(spectral_derivative(f, 1) - np.cos(nodes)).max() < 1e-12
        x = np.arange(32) * (2 * np.pi / 32)
        X, Y = np.meshgrid(x, x, indexing="ij")
        cell = (2 * np.pi / 32) ** 2
        assert abs(np.sum(1.0 + np.sin(X + Y)) * cell - (2 * np.pi) ** 2) < 1e-10
