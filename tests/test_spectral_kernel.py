"""The real-FFT spectral kernel against complex-FFT references, and the CSV writer.

The kernel transforms real fields on the half spectrum and masks each
pseudospectral product once, so it agrees with the local references (each
field transformed afresh with full complex FFTs, every product dealiased as
the per-module code once did) to round-off, not bit for bit.  Every such
check allows ``BOUND`` times the reference's largest magnitude.  The
exactness properties need no reference: derivatives of trigonometric
polynomials inside the 2/3 mask, dealiasing of band-limited fields and of
the modes outside the mask, and the Nyquist mode under odd derivatives.
``test_only_the_kernel_transforms`` checks that every ``numpy.fft`` call of
the PDE systems comes from the kernel and is a real transform or a pruned
pass along axis -2 of a half spectrum; the pruned pair equals the full
transforms on the kept columns bit for bit.  The CSV writer is compared byte
for byte with per-value formatting.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import camassaholm, loopgroup, masstransport, oddfluid, trajectory
from nonholo.numkit import spectral
from nonholo.numkit.spectral import (
    PLANE,
    dealias_1d,
    forward,
    forward_pruned,
    inverse,
    inverse_pruned,
    kept,
    spectral_derivative,
    spectral_derivatives,
    table,
)
from nonholo.numkit.steppers import Stepper
from nonholo.trajectory import Trajectory

TWO_PI = 2.0 * np.pi
# largest deviation from a reference or an exact value, relative to its largest
# magnitude; 300-example runs of these strategies saw at most 1.9e-14
# (Camassa-Holm and the odd fluid against their references)
BOUND = 1e-12
REAL_TRANSFORMS = {"rfft", "irfft", "rfft2", "irfft2"}
# the column passes of the pruned pair, along axis -2 of a half spectrum
COLUMN_TRANSFORMS = {"fft", "ifft"}
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2",
                 "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


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


def ref_velocity_jacobian(v):
    d = np.empty((2, 2) + v.shape[1:])
    for i in range(2):
        for j in range(2):
            d[i, j] = ref_derivative(v[j], 1, axis=i)
    return d


def ref_gamma_hat(params, rho):
    eh, ehp = oddfluid.coefficient_and_derivative(params.eta_H, rho)
    gh, _ = oddfluid.coefficient_and_derivative(params.Gamma_H, rho)
    return gh - eh + rho * ehp


def ref_stress(state, params, mode):
    dv = ref_velocity_jacobian(state.v)
    p = params.pressure(state.rho)
    eta = oddfluid.coefficient_and_derivative(params.eta_H, state.rho)[0]
    gam = oddfluid.coefficient_and_derivative(params.Gamma_H, state.rho)[0]
    if mode == "base":
        T = oddfluid.viscous_stress(eta, gam, None, dv, "base")
    else:
        dl = state.ell
        nu = params.nu
        p = p + dl * dl / (2.0 * nu) + (2.0 / nu) * ref_gamma_hat(params, state.rho) * dl
        T = oddfluid.viscous_stress(eta, gam, dl - 2.0 * eta, dv, "extended")
    T[0, 0] -= p
    T[1, 1] -= p
    return T


def ref_euler_terms(rho, v, T):
    rho_d = ref_dealias_2d(rho)
    v_d = np.stack([ref_dealias_2d(v[0]), ref_dealias_2d(v[1])])
    rho_t = -(
        ref_derivative(ref_dealias_2d(rho_d * v_d[0]), 1, axis=0)
        + ref_derivative(ref_dealias_2d(rho_d * v_d[1]), 1, axis=1)
    )
    v_t = np.empty_like(v)
    for j in range(2):
        adv = v_d[0] * ref_dealias_2d(ref_derivative(v[j], 1, axis=0)) + v_d[
            1
        ] * ref_dealias_2d(ref_derivative(v[j], 1, axis=1))
        divT = ref_derivative(T[0, j], 1, axis=0) + ref_derivative(T[1, j], 1, axis=1)
        v_t[j] = ref_dealias_2d(-adv + ref_dealias_2d(divT) / rho_d)
    return ref_dealias_2d(rho_t), v_t


def ref_base_rhs(state, params):
    return ref_euler_terms(state.rho, state.v, ref_stress(state, params, "base"))


def ref_effective_rhs(state, params):
    T = ref_stress(state, params, "base")
    dv = ref_velocity_jacobian(state.v)
    shift = ref_dealias_2d(
        -(8.0 / params.mu) * ref_gamma_hat(params, state.rho) * (dv[0, 0] + dv[1, 1]))
    T[0, 0] -= shift
    T[1, 1] -= shift
    return ref_euler_terms(state.rho, state.v, T)


def ref_extended_rhs(state, params):
    rho_t, v_t = ref_euler_terms(state.rho, state.v, ref_stress(state, params, "extended"))
    dl = ref_dealias_2d(state.ell)
    v_d = np.stack([ref_dealias_2d(state.v[0]), ref_dealias_2d(state.v[1])])
    dv = ref_velocity_jacobian(state.v)
    div = dv[0, 0] + dv[1, 1]
    transport = ref_derivative(ref_dealias_2d(dl * v_d[0]), 1, axis=0) + ref_derivative(
        ref_dealias_2d(dl * v_d[1]), 1, axis=1)
    dl_t = ref_dealias_2d(
        -transport
        - 2.0 * ref_dealias_2d(ref_gamma_hat(params, state.rho) * div)
        - (params.mu / params.nu) * state.ell
    )
    return rho_t, v_t, dl_t


def ref_burgers_rhs(u):
    out = np.empty_like(u)
    ud = np.stack([ref_dealias_2d(u[0]), ref_dealias_2d(u[1])])
    for j in range(2):
        out[j] = -ref_dealias_2d(
            ud[0] * ref_dealias_2d(ref_derivative(u[j], 1, axis=0))
            + ud[1] * ref_dealias_2d(ref_derivative(u[j], 1, axis=1))
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
pruned_sizes = st.sampled_from([8, 16, 32, 64, 128])
# periods other than 2 pi, so the wavenumber scale 2 pi / length is not 1
lengths = st.floats(0.1, 50.0).filter(lambda x: x != TWO_PI)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def field(seed, shape, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(shape)


def assert_close(got, ref):
    """|got - ref| <= BOUND * max |ref|, elementwise, with equal shapes."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= BOUND * np.max(np.abs(ref))


def stacked(ref, values):
    """``ref`` applied to each field of a leading stack."""
    return np.stack([ref(v) for v in values])


def dealias_2d(values):
    """The 2/3 mask on 2-D fields through the pruned pair."""
    n = values.shape[-1]
    return inverse_pruned(table(values.shape[-2:])[0][..., kept(n)] * forward_pruned(values), n)


# ---------------------------------------------------------------------------
# kernel helpers against fresh complex transforms


class TestSharedTransforms:
    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds, scale=scales)
    def test_1d_derivatives_and_dealias_from_one_transform(self, n, length, seed, scale):
        f = field(seed, n, scale)
        together = spectral_derivatives(f, (1, 2, 3), length)
        for order in (1, 2, 3):
            ref = ref_derivative(f, order, length)
            assert_close(together[order - 1], ref)
            assert_close(spectral_derivative(f, order, length), ref)
        assert_close(dealias_1d(f), ref_dealias_1d(f))

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_loop_derivatives_from_one_transform(self, n, length, seed):
        loop = field(seed, (n, 3))
        together = spectral_derivatives(loop, (1, 2, 3), length, axis=0)
        for order in (1, 2, 3):
            ref = ref_derivative(loop, order, length, axis=0)
            assert_close(together[order - 1], ref)
            assert_close(spectral_derivative(loop, order, length, axis=0), ref)
        assert_close(dealias_1d(loop), ref_dealias_1d(loop))

    @settings(max_examples=40, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_2d_partials_and_dealias(self, n0, n1, seed):
        f = field(seed, (n0, n1))
        for axis in (0, 1):
            for order in (1, 2):
                assert_close(spectral_derivative(f, order, axis=axis),
                             ref_derivative(f, order, axis=axis))
        assert_close(dealias_2d(f), ref_dealias_2d(f))
        stack = field(seed + 1, (2, n0, n1))
        assert_close(dealias_2d(stack), stacked(ref_dealias_2d, stack))

    @settings(max_examples=30, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_jacobian_shares_the_axis1_transform_with_dealias(self, n0, n1, seed):
        # one forward transform gives the dealiased field, its dealiased
        # gradient and its plain gradient (the table rows)
        v = field(seed, (2, n0, n1))
        rows = inverse(table((n0, n1))[:, None] * forward(v, PLANE), PLANE)
        assert_close(rows[0], stacked(ref_dealias_2d, v))
        dv = ref_velocity_jacobian(v)
        assert_close(rows[1:3], np.stack([stacked(ref_dealias_2d, d) for d in dv]))
        assert_close(rows[3:], dv)
        assert_close(oddfluid.velocity_jacobian(v), dv)
        assert_close(masstransport.gradient(v[0]), dv[:, 0])
        assert_close(masstransport.curl_2d(v), dv[0, 1] - dv[1, 0])

    @settings(max_examples=20, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_tail_fraction_uses_the_dealias_mask(self, n0, n1, seed):
        f = field(seed, (n0, n1))
        assert_close(spectral.tail_fractions(forward(f, PLANE)), ref_tail_fraction(f))

    def test_cached_tables_are_read_only(self):
        tables = [table((16,)), table((8, 16)), spectral._multipliers(16, 3.0, (1, 2)),
                  spectral.helmholtz_symbol(16)]
        for t in tables:
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0] = 1.0
        assert table((16,)) is tables[0]

    @settings(max_examples=40, deadline=None)
    @given(n0=pruned_sizes, n1=pruned_sizes, fields=st.integers(1, 12), seed=seeds,
           scale=scales)
    def test_pruned_pair_equals_the_full_transforms_on_the_kept_columns(self, n0, n1, fields,
                                                                        seed, scale):
        values = field(seed, (fields, n0, n1), scale)
        mask = table((n0, n1))[0]
        cols = kept(n1)
        spec = forward(values, PLANE)
        # the same 1-D transforms on the same data: equal bits, signed zeros too
        assert forward_pruned(values).tobytes() == spec[..., cols].tobytes()
        assert (mask[..., cols] * forward_pruned(values)).tobytes() == (
            (mask * spec)[..., cols].tobytes())
        # irfft pads with +0.0 where the mask leaves a -0.0 or +0.0: equal values
        assert np.array_equal(inverse_pruned((mask * spec)[..., cols], n1),
                              inverse(mask * spec, PLANE))

    def test_only_the_kernel_transforms(self, monkeypatch):
        # wrapped on the numpy.fft module, as the benchmark's tracer counts them
        callers = []

        def wrap(name, fn):
            def traced(a, *args, **kwargs):
                column_pass = np.iscomplexobj(a) and kwargs.get("axis") == -2 and not args
                callers.append((sys._getframe(1).f_globals["__name__"], name, column_pass))
                return fn(a, *args, **kwargs)
            return traced

        for name in FFT_FUNCTIONS:
            monkeypatch.setattr(np.fft, name, wrap(name, getattr(np.fft, name)))
        span, stepper, n = (0.0, 2e-3), Stepper.rk4(1e-3), 16
        x = np.arange(n) * TWO_PI / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        camassaholm.integrate_ch(camassaholm.helmholtz_apply(np.cos(x)), 0.5, span, stepper)
        camassaholm.ch_rhs_velocity_form(np.cos(x), 0.5)
        loopgroup.integrate_ll(loopgroup.magnon(n, 1, 0.3), span, stepper)
        loopgroup.integrate_binormal(loopgroup.circle_curve(n, 2.0), span, stepper, 4.0 * np.pi)
        f0 = np.cos(X) + np.sin(2.0 * Y)
        frames = masstransport.integrate_burgers(masstransport.gradient(f0), span, stepper)[1]
        masstransport.potentiality_check(frames)
        masstransport.integrate_hj(f0, span, stepper)
        params = oddfluid.FluidParams(eta_H=lambda r: 0.1 * r, Gamma_H=lambda r: 0.2 + 0.0 * r)
        rho, v = 1.0 + 0.1 * np.cos(X), np.stack([np.sin(Y), np.cos(X)])
        for system in ("base", "effective", "extended"):
            ell = 0.1 * np.sin(X + Y) if system == "extended" else None
            state = oddfluid.FluidState(rho=rho, v=v, ell=ell)
            oddfluid.integrate_fluid(system, state, params, span, stepper)
        oddfluid.slaved_deviation(state, params)
        assert len(callers) > 100
        assert {module for module, _, _ in callers} == {"nonholo.numkit.spectral"}
        assert {name for _, name, _ in callers} == REAL_TRANSFORMS | COLUMN_TRANSFORMS
        assert all(column_pass for _, name, column_pass in callers if name in COLUMN_TRANSFORMS)

    def test_frames_index_by_integer_only(self):
        specs = forward(field(3, (4, 2, 8, 8)), PLANE)
        frames = spectral.Frames(specs, lambda spec: inverse(spec, PLANE))
        assert len(frames) == 4
        assert frames[-1].tobytes() == inverse(specs[3], PLANE).tobytes()
        assert frames[np.int64(1)].tobytes() == inverse(specs[1], PLANE).tobytes()
        # a slice would hand the frame maker a stack of records
        with pytest.raises(TypeError):
            frames[1:3]

    def test_bad_order_and_grid_rejected_before_any_transform(self):
        with pytest.raises(ValueError, match="order"):
            spectral_derivative(np.zeros(8), 4)
        with pytest.raises(ValueError, match="power of two"):
            spectral_derivative(np.zeros(12), 1)
        with pytest.raises(ValueError, match="power of two"):
            dealias_2d(np.zeros((8, 12)))


# ---------------------------------------------------------------------------
# exactness on band-limited data, with no reference


def trig_poly(rng, n, length, kmax):
    """Values and exact first three derivatives of a random real trigonometric
    polynomial with wavenumbers |k| <= kmax on n nodes of a ``length`` period."""
    ks = np.arange(kmax + 1)
    a, b = rng.standard_normal((2, kmax + 1))
    w = TWO_PI / length * ks
    phase = TWO_PI * (np.outer(np.arange(n), ks) % n) / n  # k x_j, reduced exactly
    out = []
    for order in range(4):
        # d^p/dx^p of a cos(wx) + b sin(wx) = w^p (a cos + b sin)(wx + p pi/2)
        shifted = phase + order * np.pi / 2
        out.append((a * np.cos(shifted) + b * np.sin(shifted)) @ w**order)
    return out


def spectrum(values, axes):
    """Full complex spectrum, for checking which modes a result holds."""
    return np.fft.fftn(values, axes=axes)


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_derivatives_inside_the_mask_are_exact(self, n, length, seed):
        f, *exact = trig_poly(np.random.default_rng(seed), n, length, n // 3)
        got = spectral_derivatives(f, (1, 2, 3), length)
        for order in (1, 2, 3):
            assert_close(got[order - 1], exact[order - 1])
        loop = np.stack([f, 2.0 * f, -f], axis=1)
        assert_close(spectral_derivative(loop, 2, length), np.stack(
            [exact[1], 2.0 * exact[1], -exact[1]], axis=1))

    @settings(max_examples=30, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_2d_gradients_inside_the_mask_are_exact(self, n0, n1, seed):
        rng = np.random.default_rng(seed)
        g0, dg0 = trig_poly(rng, n0, TWO_PI, n0 // 3)[:2]
        g1, dg1 = trig_poly(rng, n1, TWO_PI, n1 // 3)[:2]
        f = np.outer(g0, g1)
        exact = np.stack([np.outer(dg0, g1), np.outer(g0, dg1)])
        rows = inverse(table((n0, n1)) * forward(f, PLANE), PLANE)
        assert_close(rows[0], f)
        assert_close(rows[1:3], exact)  # dealiased
        assert_close(rows[3:], exact)  # plain
        assert_close(masstransport.gradient(f), exact)

    @settings(max_examples=40, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_dealiasing_keeps_band_limited_fields_1d(self, n, length, seed):
        rng = np.random.default_rng(seed)
        f = trig_poly(rng, n, length, n // 3)[0]
        assert_close(dealias_1d(f), f)
        assert_close(dealias_1d(np.stack([f, -f], axis=1)), np.stack([f, -f], axis=1))
        g = rng.standard_normal((n, 3))
        gh = spectrum(dealias_1d(g), (0,))
        inside = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= n // 3
        assert np.max(np.abs(gh[~inside])) <= BOUND * np.max(np.abs(gh))
        assert_close(gh[inside], spectrum(g, (0,))[inside])

    @settings(max_examples=30, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_dealiasing_keeps_band_limited_fields_2d(self, n0, n1, seed):
        rng = np.random.default_rng(seed)
        f = np.outer(trig_poly(rng, n0, TWO_PI, n0 // 3)[0], trig_poly(rng, n1, TWO_PI, n1 // 3)[0])
        assert_close(dealias_2d(f), f)
        g = rng.standard_normal((2, n0, n1))
        gh = spectrum(dealias_2d(g), PLANE)
        inside = ((np.abs(np.fft.fftfreq(n0, 1.0 / n0)) <= n0 // 3)[:, None]
                  & (np.abs(np.fft.fftfreq(n1, 1.0 / n1)) <= n1 // 3)[None, :])
        assert np.max(np.abs(gh[:, ~inside])) <= BOUND * np.max(np.abs(gh))
        assert_close(gh[:, inside], spectrum(g, PLANE)[:, inside])

    @settings(max_examples=30, deadline=None)
    @given(n=sizes, length=lengths, amp=st.floats(0.1, 10.0), n1=sizes_2d)
    def test_odd_derivatives_kill_a_pure_nyquist_mode(self, n, length, amp, n1):
        nyq = amp * (-1.0) ** np.arange(n)  # cos(pi j), the Nyquist mode
        got = spectral_derivatives(nyq, (1, 2, 3), length)
        assert np.max(np.abs(got[[0, 2]])) <= BOUND * amp
        assert_close(got[1], -((np.pi * n / length) ** 2) * nyq)
        # a field that is the Nyquist mode along axis 0 or along axis 1
        for plane in (np.outer(nyq, np.ones(n1)), np.outer(np.ones(n1), nyq)):
            rows = inverse(table(plane.shape) * forward(plane, PLANE), PLANE)
            assert np.max(np.abs(rows[1:])) <= BOUND * amp  # every derivative row


# ---------------------------------------------------------------------------
# right-hand sides against the fresh-transform references


def ref_hj_rhs(f):
    g = [ref_derivative(f, 1, axis=axis) for axis in (0, 1)]
    out = -0.5 * ref_dealias_2d(ref_dealias_2d(g[0]) ** 2 + ref_dealias_2d(g[1]) ** 2)
    return out - np.mean(out)


class TestRightHandSides:
    @settings(max_examples=30, deadline=None)
    @given(n=sizes, seed=seeds, kappa=st.floats(-2.0, 2.0), scale=scales)
    def test_camassa_holm(self, n, seed, kappa, scale):
        m = field(seed, n, scale)
        assert_close(camassaholm.ch_rhs(m, kappa), ref_ch_rhs(m, kappa))
        assert_close(camassaholm.helmholtz_inverse(m), ref_helmholtz_inverse(m))

    @settings(max_examples=30, deadline=None)
    @given(n=sizes, length=lengths, seed=seeds)
    def test_binormal_and_spin(self, n, length, seed):
        gamma = field(seed, (n, 3))
        ref = np.cross(ref_derivative(gamma, 1, length), ref_derivative(gamma, 2, length))
        assert_close(loopgroup.binormal_rhs(gamma, length), ref)
        ref = np.cross(gamma, ref_derivative(gamma, 2, TWO_PI))
        assert_close(loopgroup.ll_rhs(gamma), ref)

    @settings(max_examples=15, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds,
           coef=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           eos=st.sampled_from([("isothermal", 1.3), ("polytropic2", 0.7)]),
           rates=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)))
    def test_odd_fluid(self, n0, n1, seed, coef, eos, rates):
        a, b, c, d = coef
        params = oddfluid.FluidParams(
            eos=eos, eta_H=lambda rho: a + b * rho * rho, Gamma_H=lambda rho: c + d * rho,
            mu=rates[0], nu=rates[1],
        )
        rng = np.random.default_rng(seed)
        state = oddfluid.FluidState(
            rho=1.0 + 0.2 * rng.random((n0, n1)), v=rng.standard_normal((2, n0, n1)),
            ell=rng.standard_normal((n0, n1)),
        )
        for new, ref in ((oddfluid.extended_rhs, ref_extended_rhs),
                         (oddfluid.effective_rhs, ref_effective_rhs),
                         (oddfluid.base_rhs, ref_base_rhs)):
            got, want = new(state, params), ref(state, params)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_close(g, w)

    @settings(max_examples=15, deadline=None)
    @given(n0=sizes_2d, n1=sizes_2d, seed=seeds)
    def test_burgers(self, n0, n1, seed):
        u = field(seed, (2, n0, n1))
        assert_close(masstransport.burgers_rhs(u), ref_burgers_rhs(u))
        assert_close(masstransport.hj_rhs(u[0]), ref_hj_rhs(u[0]))


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
        states = data.draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        # a Trajectory refuses non-finite ledger values, so only the states draw them
        ledger = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=rows * n_ledger, max_size=rows * n_ledger))
        ledger = np.array(ledger, dtype=float).reshape(rows, n_ledger)
        traj = Trajectory(
            times=np.array(times, dtype=float), columns=[f"q{j}" for j in range(cols)],
            states=np.array(states, dtype=float).reshape(rows, cols),
            ledger={f"L{j}": ledger[:, j] for j in range(n_ledger)},
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
