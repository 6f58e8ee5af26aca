"""Spin-flow conservation laws and the vanishing-multiplier coincidence."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonholo.errors import SingularGram
from nonholo.liealg import (
    constrained_flow,
    euler_arnold_rhs,
    integrate_lie,
    restricted_inverse_inertia,
    spin_energy,
)
from nonholo.numkit import Stepper

reals = st.floats(-5, 5, allow_nan=False)
vec3 = st.tuples(reals, reals, reals).map(np.array)


def constrained(m, A, constraints):
    """(m', lambda) of the constrained flow at m, as integrate_lie takes them."""
    P, K, Ainv = constrained_flow(A, constraints)
    free = euler_arnold_rhs(m, Ainv)
    return P @ free, K @ free


def test_spherical_top_is_stationary():
    assert np.allclose(euler_arnold_rhs([1.0, -2.0, 0.5], np.eye(3)), 0.0)


def test_principal_axis_is_stationary():
    assert np.allclose(euler_arnold_rhs([1, 0, 0], np.diag([1.0, 0.5, 1 / 3])), 0.0)


def test_hand_cross_product_value():
    got = euler_arnold_rhs([1.0, 1.0, 1.0], np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(got, [1.0, -2.0, 1.0])


def test_degenerate_operator_stationary_point():
    assert np.allclose(euler_arnold_rhs([0, 0, 1.0], np.diag([1.0, 1.0, 0.0])), 0.0)


@given(vec3, vec3)
def test_cross_product_antisymmetry_pairing(m, v):
    # <m x v, v> = 0: the mechanism behind energy conservation
    assert abs(np.dot(np.cross(m, v), v)) < 1e-12 * (1 + np.linalg.norm(m) * np.dot(v, v))


@given(vec3)
def test_free_flow_conserves_energy_and_casimir_differentially(m):
    B = np.diag([1.0, 0.5, 1 / 3])
    md = euler_arnold_rhs(m, B)
    scale = 1 + np.dot(m, m) ** 1.5
    assert abs(np.dot(B @ m, md)) < 1e-12 * scale  # dH/dt
    assert abs(np.dot(m, md)) < 1e-12 * scale  # d|m|^2/dt


def test_rigid_body_middle_axis_drift():
    # tumbling near the unstable middle axis; invariants still held to 1e-8
    st_ = Stepper.rk4(1e-3)
    tr = integrate_lie(("free", [1.0, 0.5, 1 / 3]), [0.05, 1.0, 0.05], (0, 40), st_, 100)
    e = tr.column("energy")
    c = tr.column("casimir")
    assert np.max(np.abs(e - e[0])) < 1e-8
    assert np.max(np.abs(c - c[0])) < 1e-8
    # it actually tumbles: m2 changes sign
    assert tr.column("m2").min() < -0.5


def test_eps_identity_inertia_is_stationary():
    md, lam = constrained([1.0, 2.0, 0.0], np.eye(3), [[0.0, 0.0, 1.0]])
    assert np.allclose(md, 0.0) and np.allclose(lam, 0.0)


def test_eps_preserves_constraint_and_energy():
    A = np.diag([1.0, 2.0, 3.0])
    a = [[0.0, 0.0, 1.0]]
    m0 = np.array([1.0, 2.0, 0.0])
    st_ = Stepper.rk4(1e-3)
    tr = integrate_lie(("constrained", A, a), m0, (0, 10), st_, 50)
    assert tr.column("constraint_max").max() < 1e-10
    e = tr.column("energy")
    assert np.max(np.abs(e - e[0])) < 1e-8


def test_eps_generic_constraint_breaks_casimir():
    # with the constraint off the principal axes the momentum sphere is not
    # preserved, unlike every free flow
    A = np.diag([1.0, 2.0, 3.0])
    Ainv = np.linalg.inv(A)
    a = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    m0 = np.array([1.0, 2.0, 0.5])
    m0 -= (a @ Ainv @ m0) / (a @ Ainv @ Ainv @ a) * (Ainv @ a)
    st_ = Stepper.rk4(1e-3)
    tr = integrate_lie(("constrained", A, [a]), m0, (0, 10), st_, 50)
    assert tr.column("constraint_max").max() < 1e-10
    e = tr.column("energy")
    assert np.max(np.abs(e - e[0])) < 1e-8
    c = tr.column("casimir")
    assert np.max(np.abs(c - c[0])) > 1e-3


def test_eps_differential_invariants_random_states():
    rng = np.random.default_rng(1)
    A = np.diag([1.0, 2.0, 3.0])
    Ainv = np.linalg.inv(A)
    a = np.array([[0.2, -0.1, 1.0]])
    for _ in range(20):
        m = rng.normal(size=3)
        # project onto the constraint-compatible set <a, A^{-1}m> = 0
        m -= (a[0] @ Ainv @ m) / (a[0] @ Ainv @ Ainv @ a[0]) * (Ainv @ a[0])
        md, _ = constrained(m, A, a)
        assert abs(np.dot(Ainv @ m, md)) < 1e-12 * (1 + np.dot(m, m) ** 1.5)
        assert abs(a[0] @ Ainv @ md) < 1e-12 * (1 + np.dot(m, m) ** 1.5)


def test_symmetric_top_multipliers_vanish_and_flows_coincide():
    # equal transverse inertias with a vertical constraint: the multiplier
    # is identically zero and the free, degenerate, and constrained flows
    # agree from constrained initial data
    A = np.diag([2.0, 2.0, 1.0])
    a = [0.0, 0.0, 1.0]
    m0 = np.array([0.7, -0.4, 0.0])
    st_ = Stepper.rk4(1e-3)
    span = (0, 10)
    eps_tr = integrate_lie(("constrained", A, [a]), m0, span, st_, 100)
    free_tr = integrate_lie(("free", np.linalg.inv(A)), m0, span, st_, 100)
    degen_tr = integrate_lie(("free", restricted_inverse_inertia(A, a)), m0, span, st_, 100)
    assert np.max(np.abs(eps_tr.column("lambda_0"))) < 1e-12
    assert np.max(np.abs(eps_tr.states - free_tr.states)) < 1e-8
    assert np.max(np.abs(eps_tr.states - degen_tr.states)) < 1e-8


def test_singular_gram_is_reported():
    with pytest.raises(SingularGram):
        constrained_flow(np.eye(3), [[0, 0, 1.0], [0, 0, 2.0]])


def test_too_many_constraints_rejected():
    with pytest.raises(ValueError):
        constrained_flow(np.eye(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_constraint_values_pairing():
    # m is an eigenvector of A, so it stays put and <a, A^{-1} m> = 4 / 2
    A = np.diag([2.0, 1.0, 1.0])
    tr = integrate_lie(("constrained", A, [[1.0, 0.0, 0.0]]), [4.0, 0.0, 0.0], (0, 0.1),
                       Stepper.rk4(1e-2), 5)
    assert np.allclose(tr.column("constraint_max"), 2.0)


def test_constraint_ledger_equals_the_pairings_bit_for_bit():
    # the ledger inverts A once per run; here it is inverted again per record
    A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]])
    a = [[0.2, -0.5, 1.0], [1.0, 0.3, 0.0]]
    tr = integrate_lie(("constrained", A, a), [0.7, -1.1, 0.4], (0, 1), Stepper.rk4(1e-2), 5)
    worst = [max(abs(float(ai @ (np.linalg.inv(A) @ m))) for ai in a) for m in tr.states]
    assert tr.column("constraint_max").tobytes() == np.array(worst).tobytes()


def test_acceleration_shift_changes_trajectory_not_velocity():
    # adding a multiple of the constraint covector to m0 leaves the initial
    # angular velocity in the plane unchanged but alters the evolution
    A = np.diag([1.0, 2.0, 3.0])
    a = np.array([0.0, 0.0, 1.0])
    B = restricted_inverse_inertia(A, a)
    m0 = np.array([1.0, 1.0, 0.0])
    m0_shift = m0 + 2.0 * a
    assert np.allclose(B @ m0, B @ m0_shift)
    st_ = Stepper.rk4(1e-2)
    t1 = integrate_lie(("free", B), m0, (0, 3), st_, 10)
    t2 = integrate_lie(("free", B), m0_shift, (0, 3), st_, 10)
    assert np.max(np.abs(t1.states - t2.states)) > 1e-3
