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
from nonholo.numkit import spectral_derivative
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
