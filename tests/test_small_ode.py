"""The float-list RK4 loop of the small ODE systems against the array loop.

Each system's rhs returns a list of floats, so ``integrate`` runs its float
loop.  The references below are the numpy formulas the systems used when
they ran through the array loop; both loops must give identical bits.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonholo.driving import (
    ControlSignal,
    piecewise_control,
    rig_distribution,
    simulate_rig,
    sine_control,
)
from nonholo.errors import NonFinite
from nonholo.liealg import constrained_flow, euler_arnold_rhs, integrate_lie
from nonholo.loopgroup import integrate_ll, ll_rhs, magnon
from nonholo.numkit import Stepper, integrate
from nonholo.skate import (
    FIG_INITIAL,
    initial_reduced,
    integrate_skate,
    lda_rhs,
    reduced_rhs,
    regularized_rhs,
)

SETTINGS = settings(max_examples=25, deadline=None)

finite = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
states = lambda n, bound=3.0: st.lists(finite(-bound, bound), min_size=n, max_size=n)
# spans of 10-400 steps that are usually not a multiple of dt
schedules = st.tuples(finite(-5.0, 5.0), finite(0.05, 0.4), finite(1e-3, 5e-3),
                      st.integers(1, 9))


# ---------------------------------------------------------------------------
# the array-loop formulas


def reduced_np(s, g, mu):
    x, y, theta, omega, rho, lam = s
    return np.array(
        [
            rho * np.cos(theta),
            rho * np.sin(theta),
            omega,
            -lam * rho,
            -g * np.cos(theta) + lam * omega,
            -rho * omega + g * np.sin(theta) - mu * lam,
        ]
    )


def lda_np(s, g):
    x, y, theta, omega, rho = s
    return np.array(
        [rho * np.cos(theta), rho * np.sin(theta), omega, 0.0, -g * np.cos(theta)]
    )


def regularized_np(s, g, nu, alpha):
    x, y, theta, xd, yd, td = s
    sn, cs = np.sin(theta), np.cos(theta)
    phi = xd * sn - yd * cs
    rho = xd * cs + yd * sn
    n = np.array([sn, -cs])
    b = np.array(
        [
            -g - (phi / alpha) * sn - (phi * td / nu) * cs - (td * rho / nu) * sn,
            (phi / alpha) * cs + (td * rho / nu) * cs - (phi * td / nu) * sn,
        ]
    )
    # (I + n n^T / nu)^{-1} b by Sherman-Morrison, |n| = 1
    acc = b - n * ((n[0] * b[0] + n[1] * b[1]) / (1.0 + nu))
    return np.array([xd, yd, td, acc[0], acc[1], phi * rho / nu])


def euler_arnold_np(m, B):
    return np.cross(m, B @ m)


def eps_np(m, A, constraints):
    Ainv = np.linalg.inv(A)
    a = np.asarray(constraints, dtype=float).reshape(-1, 3)
    free = np.cross(m, Ainv @ m)
    u = a / np.abs(a).max(axis=1, keepdims=True)
    K = -np.linalg.solve(u @ Ainv @ u.T, u @ Ainv)
    return (np.eye(3) + u.T @ K) @ free


def sine_np(a1, w1, a2, w2):
    return ControlSignal(lambda t: a1 * np.sin(w1 * t), lambda t: a2 * np.sin(w2 * t))


def array_loop(rhs_np, y0, schedule):
    t0, span, dt, every = schedule
    return integrate(lambda t, y: rhs_np(y), y0, (t0, t0 + span), Stepper.rk4(dt),
                     record_every=every)


def assert_same(traj, ref):
    times, states_ = ref
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states_)


# ---------------------------------------------------------------------------
# skate


@given(states(6, 50.0), finite(0.0, 10.0), finite(0.0, 100.0), schedules)
@SETTINGS
def test_reduced_skate_float_loop_is_bit_identical(s0, g, mu, schedule):
    y0 = np.array(s0)
    assert np.array_equal(reduced_rhs(y0, g, mu), reduced_np(y0, g, mu))
    t0, span, dt, every = schedule
    traj = integrate_skate("reduced", y0, g, (t0, t0 + span), Stepper.rk4(dt), mu=mu,
                           record_every=every)
    assert_same(traj, array_loop(lambda y: reduced_np(y, g, mu), y0, schedule))


@given(states(5, 50.0), finite(0.0, 10.0), schedules)
@SETTINGS
def test_lda_skate_float_loop_is_bit_identical(s0, g, schedule):
    y0 = np.array(s0)
    assert np.array_equal(lda_rhs(y0, g), lda_np(y0, g))
    t0, span, dt, every = schedule
    traj = integrate_skate("lda", y0, g, (t0, t0 + span), Stepper.rk4(dt), record_every=every)
    assert_same(traj, array_loop(lambda y: lda_np(y, g), y0, schedule))


@given(states(6, 2.0), finite(0.0, 10.0), finite(0.01, 1.0), finite(0.01, 1.0), schedules)
@SETTINGS
def test_regularized_skate_float_loop_is_bit_identical(s0, g, nu, alpha, schedule):
    y0 = np.array(s0)
    assert np.array_equal(regularized_rhs(y0, g, nu, alpha), regularized_np(y0, g, nu, alpha))
    t0, span, dt, every = schedule
    traj = integrate_skate("regularized", y0, g, (t0, t0 + span), Stepper.rk4(dt),
                           nu=nu, alpha=alpha, record_every=every)
    assert_same(traj, array_loop(lambda y: regularized_np(y, g, nu, alpha), y0, schedule))


def test_regularized_rhs_keeps_the_sign_of_a_zero_coupling():
    # theta = +-0 makes sin(theta) a signed zero in n, and b's entries are signed zeros
    for theta in (0.0, -0.0, np.pi / 2, np.pi):
        s = np.array([0.0, 0.0, theta, 0.0, -0.0, 0.0])
        got = regularized_rhs(s, 0.0, 0.1, 0.1)
        want = regularized_np(s, 0.0, 0.1, 0.1)
        assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# rigs


@given(st.sampled_from([("unicycle", 0), ("unicycle", 1), ("unicycle", 3), ("car", 0),
                        ("car", 1), ("car", 2)]),
       finite(0.0, 0.3), finite(1.0, 3.0), finite(-2.0, 2.0), finite(0.1, 3.0),
       states(7, 1.0), schedules)
@SETTINGS
def test_rig_float_loop_is_bit_identical(rig, a1, w1, a2, w2, q, schedule):
    kind, n = rig
    dim = n + 3 if kind == "unicycle" else n + 4
    q0 = np.array(q[:dim])
    if kind == "car":
        q0[-1] = 0.0    # |phi| <= 2 a1 / w1 < pi/4 along the run
    g1, g2 = rig_distribution(kind, n).generators
    controls = sine_np(a1, w1, a2, w2)

    def rhs_np(t, y):
        u1, u2 = controls.at(t)
        return u1 * g1.at(y) + u2 * g2.at(y)

    t0, span, dt, every = schedule
    traj = simulate_rig(kind, n, sine_control(a1, w1, a2, w2), q0, (t0, t0 + span),
                        Stepper.rk4(dt), record_every=every)
    ref = integrate(rhs_np, q0, (t0, t0 + span), Stepper.rk4(dt), record_every=every)
    assert_same(traj, ref)


def test_piecewise_rig_float_loop_is_bit_identical():
    breaks, values1, values2 = [0.0, 0.3, 0.7, 1.0], [0.2, -0.1, 0.3], [1.0, 0.5, -1.0]
    controls = piecewise_control(breaks, values1, values2)
    g1, g2 = rig_distribution("unicycle", 2).generators
    b, v1, v2 = np.array(breaks), np.array(values1), np.array(values2)

    def rhs_np(t, y):
        k = int(np.clip(np.searchsorted(b, t, side="right") - 1, 0, len(v1) - 1))
        return v1[k] * g1.at(y) + v2[k] * g2.at(y)

    q0 = np.array([0.1, -0.2, 0.3, 0.1, -0.4])
    traj = simulate_rig("unicycle", 2, controls, q0, (0.0, 1.2345), Stepper.rk4(1e-2))
    assert_same(traj, integrate(rhs_np, q0, (0.0, 1.2345), Stepper.rk4(1e-2)))


# ---------------------------------------------------------------------------
# Suslov


operators = st.one_of(
    st.lists(finite(0.2, 5.0), min_size=3, max_size=3).map(np.diag),
    st.lists(finite(-1.0, 1.0), min_size=9, max_size=9).map(
        lambda v: np.eye(3) * 3.0 + np.reshape(v, (3, 3)) @ np.reshape(v, (3, 3)).T),
)


@given(operators, states(3), schedules)
@SETTINGS
def test_free_spin_float_loop_is_bit_identical(B, m, schedule):
    m0 = np.array(m)
    assert np.array_equal(euler_arnold_rhs(m0, B), euler_arnold_np(m0, B))
    t0, span, dt, every = schedule
    traj = integrate_lie(("free", B), m0, (t0, t0 + span), Stepper.rk4(dt), record_every=every)
    assert_same(traj, array_loop(lambda y: euler_arnold_np(y, B), m0, schedule))


@given(operators, st.lists(states(3, 1.0), min_size=1, max_size=2), states(3), schedules)
@SETTINGS
def test_constrained_spin_float_loop_is_bit_identical(A, constraints, m, schedule):
    a = np.array(constraints)
    gram = a @ np.linalg.inv(A) @ a.T
    assume(np.linalg.cond(gram) < 1e6)
    m0 = np.array(m)
    P, _, Ainv = constrained_flow(A, a)
    assert np.array_equal(P @ euler_arnold_rhs(m0, Ainv), eps_np(m0, A, a))
    t0, span, dt, every = schedule
    traj = integrate_lie(("constrained", A, a), m0, (t0, t0 + span), Stepper.rk4(dt),
                         record_every=every)
    assert_same(traj, array_loop(lambda y: eps_np(y, A, a), m0, schedule))


# ---------------------------------------------------------------------------
# any state dimension: the generated float step against the array loop


def mixing_rhs(t, y):
    # every component couples to its neighbours through sin and products
    d = len(y)
    return [math.sin(y[j - 1]) * y[(j + 1) % d] - 0.5 * y[j] + math.cos(t + j)
            for j in range(d)]


@given(st.integers(1, 70).flatmap(lambda d: states(d)), finite(-5.0, 5.0),
       st.integers(1, 30), finite(1e-3, 5e-2), st.sampled_from([1.0, -1.0]),
       st.one_of(st.just(0.0), finite(0.05, 0.95)), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_the_float_loop_is_bit_identical_in_any_dimension(y0, t0, steps, dt, sign, part,
                                                          every):
    # part = 0 ends on a full step; otherwise the last step is shortened
    dt *= sign
    t1 = t0 + (steps + part) * dt
    stepper = Stepper.rk4(dt)
    times, states_ = integrate(mixing_rhs, y0, (t0, t1), stepper, record_every=every)
    ref = integrate(lambda t, y: np.array(mixing_rhs(t, y.tolist())), y0, (t0, t1), stepper,
                    record_every=every)
    assert times[-1] == ref[0][-1] == t1
    assert np.array_equal(times, ref[0]) and np.array_equal(states_, ref[1])


@pytest.mark.parametrize("kind", [list, np.array], ids=["float-loop", "array-loop"])
@pytest.mark.parametrize("size", [1, 3], ids=["too-short", "too-long"])
def test_a_rhs_of_the_wrong_length_is_refused(kind, size):
    rhs, calls = counted(lambda t, y: kind([-1.0] * size))
    with pytest.raises(ValueError, match=fr"rhs returned shape \({size},\) "
                                         r"for a state of shape \(2,\)"):
        integrate(rhs, [1.0, 2.0], (0.0, 0.01), Stepper.rk4(1e-3))
    assert len(calls) == 1


@pytest.mark.parametrize("size, message", [(1, "not enough"), (3, "too many")])
def test_a_later_wrong_length_stops_the_float_loop(size, message):
    rhs = lambda t, y: [-1.0] * (size if t > 0.0 else 2)
    with pytest.raises(ValueError, match=f"{message} values to unpack"):
        integrate(rhs, [1.0, 2.0], (0.0, 0.01), Stepper.rk4(1e-3))


# ---------------------------------------------------------------------------
# loop choice, blow-up and the renormalized spin chain


def counted(rhs):
    calls = []

    def wrapped(t, y):
        calls.append(type(y))
        return rhs(t, y)

    return wrapped, calls


@given(finite(0.5, 2.0), finite(1e-2, 5e-2))
@settings(max_examples=20, deadline=None)
def test_blow_up_raises_at_the_same_step_in_both_loops(y0, dt):
    # y' = y^2 blows up at t = 1 / y0
    float_rhs, float_calls = counted(lambda t, y: [v * v for v in y])
    array_rhs, array_calls = counted(lambda t, y: y * y)
    with np.errstate(over="ignore", invalid="ignore"):
        for rhs in (float_rhs, array_rhs):
            with pytest.raises(NonFinite, match="state during integration"):
                integrate(rhs, [y0], (0.0, 3.0 / y0), Stepper.rk4(dt))
    assert len(float_calls) == len(array_calls) and len(float_calls) % 4 == 0


@pytest.mark.parametrize("mu, dt", [(1e5, 1e-3), (1e4, 1e-2)])
def test_a_trig_rhs_that_blows_up_raises_at_the_same_step_in_both_loops(mu, dt):
    # mu dt far past RK4's stability bound: lam, then omega and theta overflow
    # inside a step, where math.cos raises on inf and np.cos gives NaN
    y0 = initial_reduced(**FIG_INITIAL)
    with pytest.raises(NonFinite, match="state during integration") as info:
        integrate_skate("reduced", y0, 1.0, (0.0, 5.0), Stepper.rk4(dt), mu=mu)
    assert isinstance(info.value.__context__, ValueError)
    float_rhs, float_calls = counted(lambda t, s: reduced_rhs(s, 1.0, mu))
    array_rhs, array_calls = counted(lambda t, s: reduced_np(s, 1.0, mu))
    with np.errstate(over="ignore", invalid="ignore"):
        for rhs in (float_rhs, array_rhs):
            with pytest.raises(NonFinite, match="state during integration"):
                integrate(rhs, y0, (0.0, 5.0), Stepper.rk4(dt))
    # the float loop stops at the failing stage, the array loop after the step
    assert len(array_calls) % 4 == 0 and -(-len(float_calls) // 4) == len(array_calls) // 4


def test_a_float_rhs_error_on_finite_stages_is_not_hidden():
    def rhs(t, y):
        if t > 0.0:
            raise ValueError("bad input")
        return [-v for v in y]

    with pytest.raises(ValueError, match="bad input"):
        integrate(rhs, [1.0], (0.0, 0.01), Stepper.rk4(1e-3))


def test_the_float_loop_carries_plain_floats():
    seen = []

    def rhs(t, y):
        seen.append({type(v) for v in y})
        return [-v for v in y]

    integrate(rhs, np.array([1.0, 2.0]), (0.0, 0.0105), Stepper.rk4(1e-3))
    assert seen[0] == {np.float64} and all(kinds == {float} for kinds in seen[1:])


def test_an_array_rhs_keeps_the_array_loop():
    rhs, calls = counted(lambda t, y: -y)
    integrate(rhs, [1.0, 2.0], (0.0, 0.0105), Stepper.rk4(1e-3))
    assert calls == [np.ndarray] * 44       # 11 steps, 4 stages, no extra evaluation


def test_a_list_rhs_runs_the_float_loop_from_its_first_evaluation():
    rhs, calls = counted(lambda t, y: [-v for v in y])
    times, states_ = integrate(rhs, [1.0, 2.0], (0.0, 0.0105), Stepper.rk4(1e-3))
    assert calls == [np.ndarray] + [list] * 43
    ref = integrate(lambda t, y: -y, [1.0, 2.0], (0.0, 0.0105), Stepper.rk4(1e-3))
    assert np.array_equal(times, ref[0]) and np.array_equal(states_, ref[1])


@pytest.mark.parametrize("t1, every", [(0.00105, 1), (0.00105, 3), (0.001, 3)])
def test_renormalized_spin_chain_ends_at_t1(t1, every, monkeypatch):
    import nonholo.loopgroup as lg

    calls = []
    monkeypatch.setattr(lg, "ll_rhs", lambda L: calls.append(1) or ll_rhs(L))
    tr = integrate_ll(magnon(16, 1, 0.3), (0.0, t1), Stepper.rk4(1e-4), renormalize=True,
                      record_every=every)
    nsteps = 11 if t1 == 0.00105 else 10
    assert tr.times[-1] == t1
    assert len(calls) == 4 * nsteps
    grid = [i * 1e-4 for i in range(every, nsteps, every)]
    assert list(tr.times[1:len(grid) + 1]) == grid
    assert tr.column("norm_dev").max() < 1e-14


@pytest.mark.parametrize("t1, nsteps", [(1e-12, 1), (5e-324, 1), (0.0, 0)])
def test_a_span_within_the_landing_tolerance_of_zero_steps_ends_at_t1(t1, nsteps):
    rhs, calls = counted(lambda t, y: [-v for v in y])
    times, states_ = integrate(rhs, [1.0], (0.0, t1), Stepper.rk4(1e-3))
    assert list(times) == [0.0, t1][: nsteps + 1] and len(states_) == nsteps + 1
    assert len(calls) == 1 + 3 * nsteps     # the first evaluation is the step's first stage
