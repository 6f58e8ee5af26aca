"""Driving kinematics: trailer convoys, cars, and bracket maneuvers.

Motion is generated by two control amplitudes multiplying the system's two
generator fields, so every trajectory is tangent to the rolling distribution
by construction; the recorded residuals measure how well the reconstructed
axle velocities respect that tangency.  The rig right-hand side calls the
generator functions on the float state directly (see ``rig_rhs``).
"""

import math
from dataclasses import dataclass

import numpy as np

from nonholo.distributions import car_trailer_fields, lie_bracket, trailer_fields
from nonholo.errors import DimensionMismatch
from nonholo.numkit import Stepper, integrate
from nonholo.trajectory import Trajectory


@dataclass
class ControlSignal:
    """Two open-loop control amplitudes u1(t), u2(t)."""

    u1: callable
    u2: callable

    def at(self, t):
        return float(self.u1(t)), float(self.u2(t))


def constant_control(c1, c2):
    return ControlSignal(lambda t: c1, lambda t: c2)


def sine_control(a1, w1, a2, w2):
    return ControlSignal(lambda t: a1 * math.sin(w1 * t), lambda t: a2 * math.sin(w2 * t))


def piecewise_control(breaks, values1, values2):
    """Piecewise-constant controls; values[k] applies on [breaks[k], breaks[k+1])."""
    breaks = np.asarray(breaks, dtype=float)
    v1 = np.asarray(values1, dtype=float)
    v2 = np.asarray(values2, dtype=float)
    if len(v1) != len(breaks) - 1 or len(v2) != len(breaks) - 1:
        raise ValueError("need one value per interval between breaks")

    def lookup(vals):
        def u(t):
            k = int(np.clip(np.searchsorted(breaks, t, side="right") - 1, 0, len(vals) - 1))
            return vals[k]

        return u

    return ControlSignal(lookup(v1), lookup(v2))


def rig_distribution(kind, n, l=1.0):
    if kind == "unicycle":
        return trailer_fields(n)
    if kind == "car":
        return car_trailer_fields(n, l)
    raise ValueError(f"unknown rig kind {kind!r}")


def rig_columns(kind, n):
    cols = ["x", "y"] + [f"theta_{i}" for i in range(n + 1)]
    if kind == "car":
        cols.append("phi")
    return cols


def axle_residuals(kind, n, q, qdot, l=1.0):
    """Transverse-velocity residual of every axle, reconstructed from the chart.

    The chart's (x, y) is the last trailer's axle; axle i+1 sits one hitch
    length ahead of axle i along heading theta_i.  A car also has a front
    axle at distance l whose wheels point at theta_n + phi.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    thetas = q[2 : 3 + n]
    theta_dots = qdot[2 : 3 + n]
    p_dot = qdot[:2].copy()
    res = []
    for i in range(n + 1):
        res.append(p_dot[0] * np.sin(thetas[i]) - p_dot[1] * np.cos(thetas[i]))
        p_dot += theta_dots[i] * np.array([-np.sin(thetas[i]), np.cos(thetas[i])])
    if kind == "car":
        phi = q[3 + n]
        front = p_dot + (l - 1.0) * theta_dots[n] * np.array(
            [-np.sin(thetas[n]), np.cos(thetas[n])]
        )
        a = thetas[n] + phi
        res.append(front[0] * np.sin(a) - front[1] * np.cos(a))
    return np.array(res)


def rig_rhs(dist, controls):
    """q' = u1(t) G1(q) + u2(t) G2(q) of a two-generator distribution, as a list.

    It calls the generators' functions on the float state directly: the
    length check and the jet-to-float conversion of ``VectorField.values``
    matter only for jets, and the caller checks the state's length once.
    """
    f1, f2 = (g.func for g in dist.generators)

    def rhs(t, q):
        u1, u2 = controls.at(t)
        return [u1 * a + u2 * b for a, b in zip(f1(q), f2(q))]

    return rhs


def simulate_rig(kind, n, controls, q0, t_span, stepper, l=1.0, record_every=1):
    """Integrate q' = u1(t) G1(q) + u2(t) G2(q) and record constraint residuals."""
    dist = rig_distribution(kind, n, l)
    q0 = np.asarray(q0, dtype=float)
    if len(q0) != dist.dim:
        raise DimensionMismatch(f"{kind} rig with {n} trailers expects dim {dist.dim}")
    rhs = rig_rhs(dist, controls)
    times, states = integrate(rhs, q0, t_span, stepper, record_every=record_every)
    resid = np.empty(len(times))
    for k, (t, q) in enumerate(zip(times, states)):
        resid[k] = np.max(np.abs(axle_residuals(kind, n, q, rhs(t, q), l)))
    return Trajectory(
        times=times,
        columns=rig_columns(kind, n),
        states=states,
        ledger={"residual_max": resid},
    )


# ---------------------------------------------------------------------------
# flows and bracket maneuvers


def _flow(field, p, duration, n_steps):
    """Endpoint of the field's flow for a signed duration (fixed-step RK4)."""
    p = np.asarray(p, dtype=float)
    if duration == 0.0:
        return p
    rhs = lambda t, q: field.values(q)
    return integrate(rhs, p, (0.0, duration), Stepper.rk4(duration / n_steps))[1][-1]


def flow_schedule(schedule, p0, n_steps=32):
    """Apply (field, duration) legs in order; returns the visited endpoints."""
    pts = [np.asarray(p0, dtype=float)]
    for field, duration in schedule:
        pts.append(_flow(field, pts[-1], duration, n_steps))
    return pts


def bracket_maneuver(V, W, p, t, n_steps=32):
    """Endpoint of flow(-t,W) o flow(-t,V) o flow(t,W) o flow(t,V) from p.

    The net displacement is t^2 [V, W](p) + O(t^3).
    """
    schedule = [(V, t), (W, t), (V, -t), (W, -t)]
    return flow_schedule(schedule, p, n_steps)[-1]


def bracket_maneuver_slope(V, W, p, ts, n_steps=32):
    """Log-log slope of || maneuver(t) - p - t^2 [V,W](p) || against t."""
    br = lie_bracket(V, W).at(p)
    errs = [
        float(np.linalg.norm(bracket_maneuver(V, W, p, t, n_steps) - p - t * t * br))
        for t in ts
    ]
    slope, _ = np.polyfit(np.log(np.asarray(ts, dtype=float)), np.log(errs), 1)
    return float(slope), errs


def park_schedule(dist, t):
    """Leg sequence whose net effect is t^3 times the sideways bracket field.

    The inner four legs realize the heading-rotation bracket of (steer,
    drive); commutating the drive flow with that maneuver (and with its
    reverse) produces the doubly nested bracket that translates the car
    orthogonally to its axis.
    """
    steer, drive = dist.generators
    turn_legs = [(steer, t), (drive, t), (steer, -t), (drive, -t)]
    turn_inverse = [(drive, t), (steer, t), (drive, -t), (steer, -t)]
    return [(drive, t)] + turn_legs + [(drive, -t)] + turn_inverse


def parallel_park_demo(l, t, theta0=0.0, n_steps=32):
    """Execute the nested-commutator schedule from a parked pose.

    The net displacement is ~ t^3/l in the direction (sin theta0,
    -cos theta0), with heading and steering angle returning to their start
    values at higher order.
    """
    dist = car_trailer_fields(0, l)
    q0 = np.array([0.0, 0.0, theta0, 0.0])
    schedule = park_schedule(dist, t)
    pts = flow_schedule(schedule, q0, n_steps)
    elapsed = np.cumsum([0.0] + [abs(d) for _, d in schedule])
    lateral = np.array([(p[0] - q0[0]) * np.sin(theta0) - (p[1] - q0[1]) * np.cos(theta0) for p in pts])
    return Trajectory(
        times=elapsed,
        columns=["x", "y", "theta_0", "phi"],
        states=np.array(pts),
        ledger={"lateral": lateral},
    )


def default_rig_start(kind, n):
    """All axles aligned along +x at the origin."""
    return np.zeros(n + 3 if kind == "unicycle" else n + 4)
