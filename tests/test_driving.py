"""Rig simulation and bracket-maneuver checks against geometric oracles."""

import numpy as np
import pytest

from nonholo.distributions import VectorField, car_fields
from nonholo.driving import (
    axle_residuals,
    bracket_maneuver,
    bracket_maneuver_slope,
    constant_control,
    default_rig_start,
    parallel_park_demo,
    piecewise_control,
    simulate_rig,
    sine_control,
)
from nonholo.errors import DimensionMismatch
from nonholo.numkit import Stepper
from nonholo.skate import fit_circle


def test_pure_drive_translates_unicycle():
    st = Stepper.rk4(1e-3)
    tr = simulate_rig(
        "unicycle", 0, constant_control(0.0, 1.0), [0, 0, 0], (0, 1), st, record_every=50
    )
    assert np.allclose(tr.final_state, [1.0, 0.0, 0.0], atol=1e-12)
    assert tr.column("residual_max").max() < 1e-12


def test_aligned_convoy_stays_straight():
    st = Stepper.rk4(1e-3)
    tr = simulate_rig(
        "unicycle", 2, constant_control(0.0, 1.0), np.zeros(5), (0, 1), st, record_every=50
    )
    assert np.allclose(tr.final_state[2:], 0.0, atol=1e-13)
    assert np.allclose(tr.final_state[:2], [1.0, 0.0], atol=1e-12)
    assert tr.column("residual_max").max() < 1e-12


def test_car_constant_steer_traces_circle():
    # [DERIVED] theta' = tan(phi)/l, unit speed: circle of curvature tan(phi)/l
    st = Stepper.rk4(1e-3)
    phi0 = np.pi / 8
    tr = simulate_rig(
        "car", 0, constant_control(0.0, 1.0), [0, 0, 0, phi0], (0, 2), st, record_every=10
    )
    _, _, r, resid = fit_circle(tr.column("x"), tr.column("y"))
    assert abs(1.0 / r - np.tan(phi0)) < 1e-6
    assert resid < 1e-6
    assert tr.column("residual_max").max() < 1e-12


def test_generic_controls_keep_axle_residuals_tiny():
    st = Stepper.rk4(1e-3)
    controls = sine_control(0.7, 2.0, 1.0, 0.9)
    tr = simulate_rig(
        "unicycle", 3, controls, default_rig_start("unicycle", 3), (0, 3), st, record_every=25
    )
    assert tr.column("residual_max").max() < 1e-8
    trc = simulate_rig(
        "car", 1, sine_control(0.3, 1.0, 1.0, 0.5), default_rig_start("car", 1), (0, 2), st,
        record_every=25, l=1.4,
    )
    assert trc.column("residual_max").max() < 1e-8


def test_piecewise_controls_lookup():
    c = piecewise_control([0.0, 1.0, 2.0], [1.0, -1.0], [0.0, 2.0])
    assert c.at(0.5) == (1.0, 0.0)
    assert c.at(1.5) == (-1.0, 2.0)
    assert c.at(2.5) == (-1.0, 2.0)  # clamped past the last break
    with pytest.raises(ValueError):
        piecewise_control([0.0, 1.0], [1.0, 2.0], [0.0])


def towing_oracle_rhs(controls, n):
    """Independent position-space towing model for the unicycle rig.

    State: (theta_head, p_0, ..., p_n) with p_i the axle centers.  The head
    axle p_n moves at speed u2 along its heading and turns at rate u1; every
    trailer axle moves along its own (unit) hitch direction with the
    projected speed of its predecessor.
    """

    def rhs(t, s):
        u1, u2 = controls.at(t)
        th = s[0]
        p = s[1:].reshape(n + 1, 2)
        dp = np.zeros_like(p)
        dp[n] = u2 * np.array([np.cos(th), np.sin(th)])
        for i in range(n - 1, -1, -1):
            e = p[i + 1] - p[i]
            dp[i] = np.dot(dp[i + 1], e) * e
        return np.concatenate([[u1], dp.ravel()])

    return rhs


def chart_to_positions(q, n):
    p = [np.array(q[:2])]
    for i in range(n):
        p.append(p[-1] + np.array([np.cos(q[2 + i]), np.sin(q[2 + i])]))
    return np.array(p)


def test_chart_model_matches_towing_oracle_at_fourth_order():
    from nonholo.numkit import integrate

    n = 3
    controls = sine_control(0.8, 1.3, 1.0, 0.7)
    q0 = default_rig_start("unicycle", n)
    p0 = chart_to_positions(q0, n)
    s0 = np.concatenate([[q0[2 + n]], p0.ravel()])
    span = (0.0, 2.0)

    def gap(dt):
        st = Stepper.rk4(dt)
        tr = simulate_rig("unicycle", n, controls, q0, span, st, record_every=10 ** 9)
        _, states = integrate(towing_oracle_rhs(controls, n), s0, span, st, record_every=10 ** 9)
        p_chart = chart_to_positions(tr.final_state, n)
        p_oracle = states[-1][1:].reshape(n + 1, 2)
        return np.max(np.abs(p_chart - p_oracle))

    g1, g2 = gap(2e-2), gap(1e-2)
    assert g1 < 1e-6
    assert g1 / g2 > 8.0  # both discretizations agree at 4th order


def test_bracket_maneuver_closed_form_commutator():
    V = VectorField(2, lambda q: [1.0, 0.0], "dx")
    W = VectorField(2, lambda q: [0.0, q[0]], "x dy")
    end = bracket_maneuver(V, W, [0.0, 0.0], 0.1)
    assert np.allclose(end, [0.0, 0.01], atol=1e-12)


def test_bracket_maneuver_with_itself_is_identity():
    V = VectorField(2, lambda q: [q[1], -q[0]], "rot")
    p = np.array([0.2, 0.3])
    assert np.linalg.norm(bracket_maneuver(V, V, p, 0.1) - p) < 1e-10


def test_car_maneuver_third_order_slope():
    steer, drive = car_fields(1.0).generators
    slope, errs = bracket_maneuver_slope(
        steer, drive, [0.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.05]
    )
    assert 2.9 <= slope <= 3.5
    assert errs[0] > errs[-1]


def test_parallel_park_direction_and_order():
    for th0 in (0.0, np.pi / 2):
        tr = parallel_park_demo(1.0, 0.3, theta0=th0)
        d = tr.final_state[:2]
        lateral = tr.column("lateral")[-1]
        side = np.array([np.sin(th0), -np.cos(th0)])
        cosang = np.dot(d / np.linalg.norm(d), side)
        assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) < 5.0
        assert abs(tr.final_state[2] - th0) < 0.1 * abs(lateral)
        assert abs(tr.final_state[3]) < 0.1 * abs(lateral)
    full = parallel_park_demo(1.0, 0.3).column("lateral")[-1]
    half = parallel_park_demo(1.0, 0.15).column("lateral")[-1]
    assert abs(full / half - 8.0) < 0.7


def test_axle_residuals_flag_sliding_motion():
    # sideways translation of the whole convoy violates every axle constraint
    q = np.zeros(5)
    qdot = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    res = axle_residuals("unicycle", 2, q, qdot)
    assert np.allclose(res, -1.0)


def test_unknown_rig_kind_rejected():
    with pytest.raises(ValueError):
        simulate_rig("bike", 0, constant_control(0, 1), [0, 0, 0], (0, 1), Stepper.rk4(0.1))


@pytest.mark.parametrize("kind, n, q0", [("unicycle", 1, [0.0, 0.0, 0.0]),
                                         ("car", 0, [0.0, 0.0, 0.0, 0.0, 0.0])])
def test_a_start_of_the_wrong_dimension_is_refused(kind, n, q0):
    with pytest.raises(DimensionMismatch, match=f"{kind} rig with {n} trailers expects dim"):
        simulate_rig(kind, n, constant_control(0, 1), q0, (0, 1), Stepper.rk4(0.1))
