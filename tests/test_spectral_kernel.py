"""Bit-identity of the spectral kernel and the CSV writer.

Every check compares with ``np.array_equal`` (or byte equality) against a
local reference that transforms each field afresh, exactly as the
per-module FFT code did before the kernel shared transforms: the same
complex FFTs, the same multipliers, the same order of operations.  A
tolerance would hide the 1-ulp differences that change artifact hashes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import camassaholm, loopgroup, masstransport, oddfluid, trajectory
from nonholo.numkit import spectral
from nonholo.numkit.spectral import (
    dealias_1d,
    dealias_1d_from,
    dealias_2d,
    dealias_2d_from_ax1,
    derivative_from,
    jacobian_2d,
    spectral_derivative,
    spectral_partial_2d,
)
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# reference: every field transformed afresh, tables rebuilt on every call


def ref_derivative(values, order, length=TWO_PI, axis=0):
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    k = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    fh = np.fft.fft(values, axis=axis) * mult.reshape(shape)
    return np.real(np.fft.ifft(fh, axis=axis))


def ref_partial_2d(values, order, axis, lengths):
    return ref_derivative(values, order, length=lengths[axis], axis=axis)


def ref_dealias_1d(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    mask = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
    shape = [1] * values.ndim
    shape[0] = n
    fh = np.fft.fft(values, axis=0) * mask.reshape(shape)
    return np.real(np.fft.ifft(fh, axis=0))


def ref_dealias_2d(values):
    values = np.asarray(values, dtype=float)
    n0, n1 = values.shape[0], values.shape[1]
    m0 = np.abs(np.fft.fftfreq(n0, d=1.0 / n0)) <= n0 // 3
    m1 = np.abs(np.fft.fftfreq(n1, d=1.0 / n1)) <= n1 // 3
    fh = np.fft.fft2(values, axes=(0, 1))
    fh *= m0.reshape([n0] + [1] * (values.ndim - 1))
    fh *= m1.reshape([1, n1] + [1] * (values.ndim - 2))
    return np.real(np.fft.ifft2(fh, axes=(0, 1)))


def ref_helmholtz_inverse(m):
    k = 2.0 * np.pi / TWO_PI * np.fft.fftfreq(len(m), d=1.0 / len(m))
    return np.real(np.fft.ifft(np.fft.fft(m) / (1.0 + k * k)))


def ref_ch_rhs(m, kappa):
    u = ref_helmholtz_inverse(m)
    ux = ref_derivative(u, 1)
    mx = ref_derivative(m, 1)
    ud, uxd, md, mxd = (ref_dealias_1d(f) for f in (u, ux, m, mx))
    return ref_dealias_1d(-(2.0 * uxd * md + ud * mxd)) - kappa * ux


def ref_velocity_jacobian(v, lengths):
    d = np.empty((2, 2) + v.shape[1:])
    for i in range(2):
        for j in range(2):
            d[i, j] = ref_partial_2d(v[j], 1, i, lengths)
    return d


def ref_stress(state, params, mode):
    dv = ref_velocity_jacobian(state.v, state.lengths)
    p = params.pressure(state.rho)
    eta = params.eta_value(state.rho)
    gam = params.gamma_value(state.rho)
    if mode == "base":
        T = oddfluid.viscous_stress(eta, gam, None, dv, "base")
    else:
        dl = state.ell
        nu = params.nu
        p = p + dl * dl / (2.0 * nu) + (2.0 / nu) * params.gamma_hat(state.rho) * dl
        T = oddfluid.viscous_stress(eta, gam, dl - 2.0 * eta, dv, "extended")
    T[0, 0] -= p
    T[1, 1] -= p
    return T


def ref_euler_terms(rho, v, T, lengths):
    rho_d = ref_dealias_2d(rho)
    v_d = np.stack([ref_dealias_2d(v[0]), ref_dealias_2d(v[1])])
    rho_t = -(
        ref_partial_2d(ref_dealias_2d(rho_d * v_d[0]), 1, 0, lengths)
        + ref_partial_2d(ref_dealias_2d(rho_d * v_d[1]), 1, 1, lengths)
    )
    v_t = np.empty_like(v)
    for j in range(2):
        adv = v_d[0] * ref_dealias_2d(ref_partial_2d(v[j], 1, 0, lengths)) + v_d[
            1
        ] * ref_dealias_2d(ref_partial_2d(v[j], 1, 1, lengths))
        divT = ref_partial_2d(T[0, j], 1, 0, lengths) + ref_partial_2d(T[1, j], 1, 1, lengths)
        v_t[j] = ref_dealias_2d(-adv + ref_dealias_2d(divT) / rho_d)
    return ref_dealias_2d(rho_t), v_t


def ref_base_rhs(state, params):
    return ref_euler_terms(state.rho, state.v, ref_stress(state, params, "base"), state.lengths)


def ref_effective_rhs(state, params):
    T = ref_stress(state, params, "base")
    dv = ref_velocity_jacobian(state.v, state.lengths)
    shift = ref_dealias_2d(
        -(8.0 / params.mu) * params.gamma_hat(state.rho) * (dv[0, 0] + dv[1, 1]))
    T[0, 0] -= shift
    T[1, 1] -= shift
    return ref_euler_terms(state.rho, state.v, T, state.lengths)


def ref_extended_rhs(state, params):
    lengths = state.lengths
    rho_t, v_t = ref_euler_terms(state.rho, state.v, ref_stress(state, params, "extended"),
                                 lengths)
    dl = ref_dealias_2d(state.ell)
    v_d = np.stack([ref_dealias_2d(state.v[0]), ref_dealias_2d(state.v[1])])
    dv = ref_velocity_jacobian(state.v, lengths)
    div = dv[0, 0] + dv[1, 1]
    transport = ref_partial_2d(ref_dealias_2d(dl * v_d[0]), 1, 0, lengths) + ref_partial_2d(
        ref_dealias_2d(dl * v_d[1]), 1, 1, lengths)
    dl_t = ref_dealias_2d(
        -transport
        - 2.0 * ref_dealias_2d(params.gamma_hat(state.rho) * div)
        - (params.mu / params.nu) * state.ell
    )
    return rho_t, v_t, dl_t


def ref_burgers_rhs(u, lengths):
    out = np.empty_like(u)
    ud = np.stack([ref_dealias_2d(u[0]), ref_dealias_2d(u[1])])
    for j in range(2):
        out[j] = -ref_dealias_2d(
            ud[0] * ref_dealias_2d(ref_partial_2d(u[j], 1, 0, lengths))
            + ud[1] * ref_dealias_2d(ref_partial_2d(u[j], 1, 1, lengths))
        )
    return out


def ref_tail_fraction(field):
    fh = np.abs(np.fft.fft2(field)) ** 2
    n0, n1 = field.shape
    k0 = np.abs(np.fft.fftfreq(n0, 1.0 / n0))
    k1 = np.abs(np.fft.fftfreq(n1, 1.0 / n1))
    tail = (k0[:, None] > n0 / 3.0) | (k1[None, :] > n1 / 3.0)
    total = fh.sum() - fh[0, 0]
    return 0.0 if total == 0.0 else float(fh[tail].sum() / total)


def ref_fmt_row(values):
    return ",".join(format(float(x), ".17g") for x in values)


def ref_to_csv(traj):
    header = ["t"] + list(traj.columns) + list(traj.ledger.keys())
    lines = [",".join(header)]
    ledger_cols = [traj.ledger[k] for k in traj.ledger]
    for i in range(len(traj)):
        lines.append(ref_fmt_row([traj.times[i], *traj.states[i], *(c[i] for c in ledger_cols)]))
    return "".join(line + "\n" for line in lines).encode("ascii")


def ref_field_csv(field):
    return ("\n".join(ref_fmt_row(row) for row in field) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# strategies

sizes = st.sampled_from([8, 16, 32, 64, 128, 256])
sizes_2d = st.sampled_from([8, 16, 32, 64])
# periods other than 2 pi, so the wavenumber scale 2 pi / length is not 1
lengths = st.floats(0.1, 50.0).filter(lambda x: x != TWO_PI)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def field(seed, shape, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# shared-transform helpers against fresh transforms


class TestSharedTransforms:
    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds, scale=scales)
    def test_1d_derivatives_and_dealias_from_one_transform(self, n, length, seed, scale):
        f = field(seed, n, scale)
        fh = np.fft.fft(f, axis=0)
        for order in (1, 2, 3):
            ref = ref_derivative(f, order, length)
            assert np.array_equal(derivative_from(fh, order, length), ref)
            assert np.array_equal(spectral_derivative(f, order, length), ref)
        assert np.array_equal(dealias_1d_from(fh), ref_dealias_1d(f))
        assert np.array_equal(dealias_1d(f), ref_dealias_1d(f))

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_loop_derivatives_from_one_transform(self, n, length, seed):
        loop = field(seed, (n, 3))
        fh = np.fft.fft(loop, axis=0)
        for order in (1, 2, 3):
            ref = ref_derivative(loop, order, length, axis=0)
            assert np.array_equal(derivative_from(fh, order, length, axis=0), ref)
            assert np.array_equal(spectral_derivative(loop, order, length, axis=0), ref)
        assert np.array_equal(dealias_1d(loop), ref_dealias_1d(loop))

    @settings(max_examples=40, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, l0=lengths, l1=lengths, seed=seeds)
    def test_2d_partials_and_dealias(self, n0, n1, l0, l1, seed):
        f = field(seed, (n0, n1))
        for axis in (0, 1):
            for order in (1, 2):
                ref = ref_partial_2d(f, order, axis, (l0, l1))
                assert np.array_equal(spectral_partial_2d(f, order, axis, (l0, l1)), ref)
        a1 = np.fft.fft(f, axis=1)
        assert np.array_equal(derivative_from(a1, 1, l1, axis=1),
                              ref_partial_2d(f, 1, 1, (l0, l1)))
        assert np.array_equal(dealias_2d_from_ax1(a1), ref_dealias_2d(f))
        assert np.array_equal(dealias_2d(f), ref_dealias_2d(f))
        stacked = field(seed + 1, (n0, n1, 2))
        assert np.array_equal(dealias_2d(stacked), ref_dealias_2d(stacked))

    @settings(max_examples=30, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, l0=lengths, l1=lengths, seed=seeds)
    def test_jacobian_shares_the_axis1_transform_with_dealias(self, n0, n1, l0, l1, seed):
        v = field(seed, (2, n0, n1))
        v_d = np.empty_like(v)
        d = jacobian_2d(v, (l0, l1), v_d)
        assert np.array_equal(d, ref_velocity_jacobian(v, (l0, l1)))
        assert np.array_equal(v_d, np.stack([ref_dealias_2d(v[0]), ref_dealias_2d(v[1])]))
        assert np.array_equal(jacobian_2d(v, (l0, l1)), d)

    @settings(max_examples=20, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_tail_fraction_uses_the_dealias_mask(self, n0, n1, seed):
        f = field(seed, (n0, n1))
        assert masstransport.spectral_tail_fraction(f) == ref_tail_fraction(f)

    def test_cached_tables_are_read_only(self):
        tables = [spectral._multiplier(16, 3.0, 1), spectral._mask(16),
                  camassaholm._helmholtz_symbol(16)]
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1.0
        assert spectral._multiplier(16, 3.0, 1) is tables[0]

    def test_bad_order_and_grid_rejected_before_any_transform(self):
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(np.zeros(8), 4)
        with pytest.raises(ValueError, match="power of two"):
            spectral_derivative(np.zeros(12), 1)


# ---------------------------------------------------------------------------
# right-hand sides against the fresh-transform references


class TestRightHandSides:
    @settings(max_examples=30, deadline=None)
    @given(n=sizes, seed=seeds, kappa=st.floats(-2.0, 2.0), scale=scales)
    def test_camassa_holm(self, n, seed, kappa, scale):
        m = field(seed, n, scale)
        assert np.array_equal(camassaholm.ch_rhs(m, kappa), ref_ch_rhs(m, kappa))
        assert np.array_equal(camassaholm.helmholtz_inverse(m), ref_helmholtz_inverse(m))

    @settings(max_examples=30, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_binormal_and_spin(self, n, length, seed):
        gamma = field(seed, (n, 3))
        ref = np.cross(ref_derivative(gamma, 1, length), ref_derivative(gamma, 2, length))
        assert np.array_equal(loopgroup.binormal_rhs(gamma, length), ref)
        ref = np.cross(gamma, ref_derivative(gamma, 2, TWO_PI))
        assert np.array_equal(loopgroup.ll_rhs(gamma), ref)

    @settings(max_examples=15, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, l0=lengths, l1=lengths, seed=seeds,
           coef=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           eos=st.sampled_from([("isothermal", 1.3), ("polytropic2", 0.7)]),
           rates=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)))
    def test_odd_fluid(self, n0, n1, l0, l1, seed, coef, eos, rates):
        a, b, c, d = coef
        params = oddfluid.FluidParams(
            eos=eos, eta_H=lambda rho: a + b * rho * rho, Gamma_H=lambda rho: c + d * rho,
            mu=rates[0], nu=rates[1],
        )
        rng = np.random.default_rng(seed)
        state = oddfluid.FluidState(
            rho=1.0 + 0.2 * rng.random((n0, n1)), v=rng.standard_normal((2, n0, n1)),
            ell=rng.standard_normal((n0, n1)), lengths=(l0, l1),
        )
        for new, ref in ((oddfluid.extended_rhs, ref_extended_rhs),
                         (oddfluid.effective_rhs, ref_effective_rhs),
                         (oddfluid.base_rhs, ref_base_rhs)):
            got, want = new(state, params), ref(state, params)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @settings(max_examples=15, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, l0=lengths, l1=lengths, seed=seeds)
    def test_burgers(self, n0, n1, l0, l1, seed):
        u = field(seed, (2, n0, n1))
        assert np.array_equal(masstransport.burgers_rhs(u, (l0, l1)),
                              ref_burgers_rhs(u, (l0, l1)))


# ---------------------------------------------------------------------------
# the row-wise byte writer against per-value formatting

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.nan,
           math.inf, -math.inf, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


class TestCsvWriter:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(1, 5),
           n_ledger=st.integers(0, 3))
    def test_to_csv_matches_per_value_format(self, data, rows, cols, n_ledger):
        times = sorted(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=rows, max_size=rows,
            unique=True)))
        block = data.draw(st.lists(values, min_size=rows * (cols + n_ledger),
                                   max_size=rows * (cols + n_ledger)))
        block = np.array(block, dtype=float).reshape(rows, cols + n_ledger)
        traj = Trajectory(
            times=np.array(times, dtype=float), columns=[f"q{j}" for j in range(cols)],
            states=block[:, :cols],
            ledger={f"L{j}": block[:, cols + j] for j in range(n_ledger)},
        )
        assert trajectory.to_csv(traj) == ref_to_csv(traj)

    def test_empty_trajectory_is_the_header_alone(self):
        traj = Trajectory(times=np.zeros(0), columns=["x", "y"], states=np.zeros((0, 2)),
                          ledger={"E": np.zeros(0)})
        assert trajectory.to_csv(traj) == b"t,x,y,E\n" == ref_to_csv(traj)

    def test_special_values_without_ledger(self):
        traj = Trajectory(times=np.arange(len(SPECIAL), dtype=float), columns=["v"],
                          states=np.array(SPECIAL)[:, None])
        out = trajectory.to_csv(traj)
        assert out == ref_to_csv(traj)
        assert b"\n2,4.9406564584124654e-324\n" in out and b"-0\n" in out
        assert b"nan\n" in out and b"-inf\n" in out

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_field_csv_matches_per_value_format(self, data, rows, cols):
        grid = np.array(data.draw(st.lists(values, min_size=rows * cols,
                                           max_size=rows * cols))).reshape(rows, cols)
        assert trajectory.csv_bytes([], grid) == ref_field_csv(grid)
