"""Exact identities of the small ODE right-hand sides at random states.

Each property evaluates a right-hand side once and never integrates:

* the reduced skate conserves E = (rho^2 + omega^2)/2 + g x for every mu;
* the regularized skate dissipates its extended energy at the rate
  -phi^2/alpha, and its closed-form accelerations agree with a linear solve
  of M(theta) acc = b;
* the constrained (Suslov) flow keeps every pairing <a_i, A^{-1} m> fixed,
  and agrees with the flow whose multipliers are solved at each call;
* a rig's velocity meets every axle's no-sideslip constraint;
* the spin flow L x L'' is orthogonal to L, and the filament flow
  gamma_s x gamma_ss to the tangent gamma_s, at every node of a random
  band-limited loop.

Each tolerance is a multiple of the float64 epsilon times the scale of the
terms that cancel (times the condition number where a solve is involved).
The multiples carry a margin over the worst ratio measured on random
states; the measured ratios are in CHANGES.md.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonholo.driving import axle_residuals, rig_distribution, rig_rhs, sine_control
from nonholo.liealg import eps_rhs
from nonholo.loopgroup import binormal_rhs, ll_rhs
from nonholo.masstransport import burgers_rhs, gradient, hj_rhs
from nonholo.numkit import spectral_derivative
from nonholo.oddfluid import (
    FluidParams,
    FluidState,
    base_rhs,
    effective_rhs,
    energy_balance_residual,
    energy_rate,
    extended_rhs,
    velocity_jacobian,
)
from nonholo.skate import reduced_energy_rate, regularized_energy_rate, regularized_rhs

EPS = np.finfo(float).eps
# rounding in the subnormal range is absolute, not relative
TINY = np.finfo(float).tiny
SETTINGS = settings(max_examples=200, deadline=None)

finite = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
states = lambda n, bound: st.lists(finite(-bound, bound), min_size=n, max_size=n)
# log-uniform in [10^lo, 10^hi]
scales = lambda lo, hi: finite(lo, hi).map(lambda e: 10.0**e)


# ---------------------------------------------------------------------------
# reduced skate


@given(states(6, 10.0), finite(0.0, 10.0), scales(-3.0, 3.0))
@SETTINGS
def test_reduced_energy_is_conserved(s, g, mu):
    x, y, theta, omega, rho, lam = s
    gc = g * math.cos(theta)
    # the rate's three terms: rho (-g cos + lam omega), -omega lam rho, g rho cos
    scale = abs(rho) * (abs(gc) + abs(lam * omega)) + abs(omega * lam * rho) + abs(gc * rho)
    assert abs(reduced_energy_rate(s, g, mu)) <= 4 * EPS * scale + TINY


# ---------------------------------------------------------------------------
# regularized skate


def skate_forces(s, g, nu, alpha):
    """phi, rho, the unit normal n and the right side b of M acc = b."""
    x, y, theta, xd, yd, td = s
    sn, cs = math.sin(theta), math.cos(theta)
    phi = xd * sn - yd * cs
    rho = xd * cs + yd * sn
    b = np.array([
        -g - (phi / alpha) * sn - (phi * td / nu) * cs - (td * rho / nu) * sn,
        (phi / alpha) * cs + (td * rho / nu) * cs - (phi * td / nu) * sn,
    ])
    return phi, rho, np.array([sn, -cs]), b


skate_cases = st.tuples(states(6, 10.0), finite(0.0, 10.0), scales(-6.0, 0.0), scales(-6.0, 0.0))


@given(skate_cases)
@SETTINGS
def test_regularized_energy_decays_at_the_dissipation_rate(case):
    s, g, nu, alpha = case
    phi, rho, _, b = skate_forces(s, g, nu, alpha)
    ds = regularized_rhs(s, g, nu, alpha)
    xd, yd, td = s[3:]
    # the rate sums velocities times forces; phi/nu weighs the normal part
    scale = ((abs(xd) + abs(yd) + abs(td) + abs(phi) / nu)
             * (np.abs(b).sum() + abs(ds[5]) + abs(td * rho) + g) + phi * phi / alpha)
    rate = regularized_energy_rate(s, g, nu, alpha)
    assert abs(rate + phi * phi / alpha) <= 16 * EPS * scale + TINY


@given(skate_cases)
@SETTINGS
def test_regularized_accelerations_agree_with_the_solve(case):
    s, g, nu, alpha = case
    _, _, n, b = skate_forces(s, g, nu, alpha)
    ref = np.linalg.solve(np.eye(2) + np.outer(n, n) / nu, b)
    acc = regularized_rhs(s, g, nu, alpha)[3:5]
    # the solve is the less accurate side: its error grows with cond(M) = 1 + 1/nu
    assert np.max(np.abs(acc - ref)) <= 4 * EPS * (1.0 + 1.0 / nu) * np.max(np.abs(b)) + TINY


# ---------------------------------------------------------------------------
# Suslov flow


operators = st.one_of(
    st.lists(finite(0.2, 5.0), min_size=3, max_size=3).map(np.diag),
    st.lists(finite(-1.0, 1.0), min_size=9, max_size=9).map(
        lambda v: np.eye(3) * 3.0 + np.reshape(v, (3, 3)) @ np.reshape(v, (3, 3)).T),
)
constraint_sets = st.lists(states(3, 1.0), min_size=1, max_size=2).map(np.array)


@given(operators, constraint_sets, states(3, 3.0))
# a Gram matrix of 2.5e-310 has the inverse inf, unless the rows are rescaled
@example(np.eye(3), np.array([[0.0, 0.0, 1.5819104648121994e-155]]), [1.0, 2.0, 0.5])
@SETTINGS
def test_constrained_flow_keeps_every_pairing(A, a, m):
    Ainv = np.linalg.inv(A)
    gram = a @ Ainv @ a.T
    cond = np.linalg.cond(gram)
    assume(cond <= 1e8)
    mdot, _ = eps_rhs(m, A, a)
    free = np.cross(m, Ainv @ m)
    # 1-norms: squares of tiny entries would underflow
    scale = EPS * cond * np.abs(free).sum()
    for ai in a:
        pairing = ai @ (Ainv @ mdot)
        assert abs(pairing) <= 16 * scale * np.abs(ai).sum() * np.linalg.norm(Ainv, 1) + TINY
    # the multipliers solved from the Gram system at this state, with the rows
    # scaled to a largest entry of 1, as the flow does, so that -a A^{-1} f
    # cannot underflow
    u = a / np.abs(a).max(axis=1, keepdims=True)
    ref = free + u.T @ np.linalg.solve(u @ Ainv @ u.T, -(u @ (Ainv @ free)))
    assert np.abs(mdot - ref).sum() <= 64 * scale + TINY


# ---------------------------------------------------------------------------
# rigs


rigs = st.sampled_from([("unicycle", 0), ("unicycle", 1), ("unicycle", 3), ("car", 0),
                        ("car", 1), ("car", 2)])


@given(rigs, finite(0.3, 3.0), states(7, 10.0), finite(-0.78, 0.78), states(4, 3.0),
       finite(-10.0, 10.0))
@SETTINGS
def test_rig_velocity_meets_every_axle_constraint(rig, l, q, steer, controls, t):
    kind, n = rig
    dist = rig_distribution(kind, n, l)
    q = q[: dist.dim]
    if kind == "car":
        q[-1] = steer  # inside the open chart interval (-pi/4, pi/4)
    qdot = rig_rhs(dist, sine_control(*controls))(t, q)
    assert np.all(np.abs(axle_residuals(kind, n, q, qdot, l)) <= 1e-12)


# ---------------------------------------------------------------------------
# spin chain and vortex filament


@st.composite
def loops(draw):
    """A random band-limited loop of n = 16 or 32 nodes in R^3: modes up to
    n // 3, so no product in the rhs is aliased, and a log-uniform scale."""
    n = draw(st.sampled_from([16, 32]))
    modes = draw(st.integers(1, n // 3))
    coef = np.reshape(draw(states(3 * (2 * modes + 1), 1.0)), (2 * modes + 1, 3))
    theta = np.arange(n) * (2.0 * np.pi / n)
    k = np.arange(1, modes + 1)
    basis = np.hstack([np.ones((n, 1)), np.cos(np.outer(theta, k)), np.sin(np.outer(theta, k))])
    return draw(scales(-3.0, 3.0)) * (basis @ coef)


def cross_terms(a, b):
    """|a_j b_k| + |a_k b_j|, the two products that component i of a x b subtracts."""
    out = np.empty(a.shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out[:, i] = np.abs(a[:, j] * b[:, k]) + np.abs(a[:, k] * b[:, j])
    return out


def orthogonality_bound(u, a, b):
    """Rounding bound on u . (a x b) per node, for u . (a x b) = 0 exactly."""
    return 4 * EPS * np.sum(np.abs(u) * cross_terms(a, b), axis=1) + TINY


@given(loops())
@SETTINGS
def test_spin_flow_is_orthogonal_to_the_spin(L):
    L2 = spectral_derivative(L, order=2, length=2.0 * np.pi, axis=0)
    dot = np.sum(L * ll_rhs(L), axis=1)
    assert np.all(np.abs(dot) <= orthogonality_bound(L, L, L2))


@given(loops(), scales(-1.0, 1.0))
@SETTINGS
def test_filament_flow_is_orthogonal_to_the_tangent(gamma, length):
    g1 = spectral_derivative(gamma, order=1, length=length, axis=0)
    g2 = spectral_derivative(gamma, order=2, length=length, axis=0)
    dot = np.sum(g1 * binormal_rhs(gamma, length), axis=1)
    assert np.all(np.abs(dot) <= orthogonality_bound(g1, g1, g2))


# ---------------------------------------------------------------------------
# parity-breaking fluid and mass transport on the 2-torus


def plane(rng, n, kmax):
    """A random real trigonometric polynomial on the n x n grid of [0, 2 pi)^2
    with |kx|, |ky| <= kmax, scaled to a largest value of 1."""
    x = np.arange(n) * (2.0 * np.pi / n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.zeros((n, n))
    for kx in range(-kmax, kmax + 1):
        for ky in range(kmax + 1):
            a, b = rng.standard_normal(2)
            f += a * np.cos(kx * X + ky * Y) + b * np.sin(kx * X + ky * Y)
    return f / np.max(np.abs(f))


seeds = st.integers(0, 2**32 - 1)


@st.composite
def fluid_cases(draw, with_ell):
    """A state on n = 16 or 32 with modes up to n // 16 and a density within
    20 % of 1, and parameters with constant or linear coefficients.  The rhs
    divides by the density, so its spectrum is not band-limited; on these
    states its truncated tail stays below rounding (at n = 16 a 30 % density
    swing already leaves 1e-14 in the energy rate)."""
    n = draw(st.sampled_from([16, 32]))
    rng = np.random.default_rng(draw(seeds))
    kmax = n // 16
    rho = 1.0 + draw(finite(0.0, 0.2)) * plane(rng, n, kmax)
    v = draw(scales(-1.0, 1.0)) * np.stack([plane(rng, n, kmax), plane(rng, n, kmax)])
    ell = draw(scales(-1.0, 1.0)) * plane(rng, n, kmax) if with_ell else None
    a, b, c, d = draw(states(4, 1.0))
    if draw(st.booleans()):
        eta, gamma = (lambda r: a + b * r), (lambda r: c + d * r)
    else:
        eta, gamma = a, c
    eos = (draw(st.sampled_from(["isothermal", "polytropic2"])), draw(finite(0.5, 2.0)))
    params = FluidParams(eos=eos, eta_H=eta, Gamma_H=gamma, mu=draw(finite(0.1, 5.0)), nu=1.0)
    return FluidState(rho=rho, v=v, ell=ell), params


def rate_scale(state, params, out):
    """The summed magnitudes of the terms of energy_rate, which cancel."""
    rho_t, v_t = out[0], out[1]
    kinetic = 0.5 * (state.v[0] ** 2 + state.v[1] ** 2) + params.eps_prime(state.rho)
    total = np.abs(kinetic * rho_t).sum()
    total += np.abs(state.rho * (state.v[0] * v_t[0] + state.v[1] * v_t[1])).sum()
    if len(out) == 3:
        total += np.abs(state.ell * out[2]).sum() / params.nu
    return total * (2.0 * np.pi) ** 2 / state.rho.size


def dilatation_rate(state, params):
    """-(8/mu) integral Gamma_hat (div v)^2: the power of the effective pressure shift."""
    dv = velocity_jacobian(state.v)
    div = dv[0, 0] + dv[1, 1]
    ghat = params.coefficients(state.rho)[2]
    return -(8.0 / params.mu) * float(np.sum(ghat * div * div)) * (2.0 * np.pi) ** 2 / div.size


# worst ratios to EPS over 20 000 random cases: 24.5 (base), 4.9 (effective),
# 4.8 (extended) and 1.6 (advected gradient); each bound is about five times
# the worst of its group
FLUID_TOL = 128 * EPS
MT_TOL = 8 * EPS


@given(fluid_cases(with_ell=False))
@SETTINGS
def test_base_fluid_conserves_energy(case):
    state, params = case
    rate = energy_rate(state, params, base_rhs)
    assert abs(rate) <= FLUID_TOL * rate_scale(state, params, base_rhs(state, params)) + TINY


@given(fluid_cases(with_ell=False))
@SETTINGS
def test_effective_fluid_loses_energy_to_the_pressure_shift(case):
    state, params = case
    rate, shift = energy_rate(state, params, effective_rhs), dilatation_rate(state, params)
    scale = rate_scale(state, params, effective_rhs(state, params)) + abs(shift)
    assert abs(rate - shift) <= FLUID_TOL * scale + TINY


@given(fluid_cases(with_ell=True))
@SETTINGS
def test_extended_fluid_balances_energy_and_dissipation(case):
    state, params = case
    residual = energy_balance_residual(state, params)
    assert residual <= FLUID_TOL * rate_scale(state, params, extended_rhs(state, params)) + TINY


@given(st.sampled_from([16, 32]), seeds, scales(-3.0, 3.0))
@SETTINGS
def test_advected_gradient_is_the_gradient_of_the_potential_rate(n, seed, scale):
    # u = grad f stays a gradient: burgers_rhs(grad f) = grad hj_rhs(f) exactly
    # under the 2/3 mask, whose kept modes are free of aliasing
    f = scale * plane(np.random.default_rng(seed), n, n // 3)
    u = gradient(f)
    got, want = burgers_rhs(u), gradient(hj_rhs(f))
    # relative to the scale of the products u_i D_i u_j that the rhs sums
    bound = MT_TOL * np.max(np.abs(u)) * np.max(np.abs(velocity_jacobian(u)))
    assert np.max(np.abs(got - want)) <= bound + TINY
