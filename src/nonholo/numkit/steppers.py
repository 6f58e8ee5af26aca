"""Fixed-step classical RK4.

The state is carried either as a numpy array or, for the small ODE systems,
as a list of floats: a right-hand side that returns a ``list`` runs the float
loop, one that returns an ndarray runs the array loop.  Both loops take the
stage sums in the same order, so they give bit-identical states; the float
loop only skips numpy's per-call overhead on 3-8 element states.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from nonholo.errors import NonFinite


@dataclass(frozen=True)
class Stepper:
    scheme: ClassVar[str] = "rk4"
    dt: float = 1e-3

    @classmethod
    def rk4(cls, dt):
        return cls(dt=dt)


def _check_finite(y, what):
    ok = all(map(math.isfinite, y)) if isinstance(y, list) else np.all(np.isfinite(y))
    if not ok:
        raise NonFinite(f"non-finite values in {what}")


def _rk4_arrays(rhs, t, y, h, k1):
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_floats(rhs, t, y, h, k1):
    # numpy's order of operations: y + (0.5 h) k, y + (h/6)(((k1 + 2 k2) + 2 k3) + k4)
    a = 0.5 * h
    z = y
    try:
        z = [v + a * k for v, k in zip(y, k1)]
        k2 = rhs(t + a, z)
        z = [v + a * k for v, k in zip(y, k2)]
        k3 = rhs(t + a, z)
        z = [v + h * k for v, k in zip(y, k3)]
        k4 = rhs(t + h, z)
    except ValueError:
        # math.sin/math.cos raise on +-inf where numpy gives NaN; a non-finite
        # stage makes the array loop's state non-finite in this same step
        _check_finite(z, "state during integration")
        raise
    c = h / 6.0
    return [v + c * (p + 2.0 * q + 2.0 * r + s) for v, p, q, r, s in zip(y, k1, k2, k3, k4)]


def march(rhs, y0, t_span, dt, record_every=1, project=None):
    """RK4 from y0 over t_span in steps of dt; returns (times, states) arrays.

    When the span is not a multiple of dt, the last step is shortened so
    that the final sample is at t1; step i ends at t0 + i dt.  States are
    recorded every ``record_every`` steps, plus the final state.  The first
    rhs evaluation picks the loop (see the module docstring) and serves as
    the first step's first stage.  ``project``, when given, maps each new
    state back onto a constraint set before it is checked and recorded.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    _check_finite(y, "initial state")
    span = (t1 - t0) / dt
    if not np.isfinite(span):
        raise ValueError(f"t_span {t_span!r} and dt {dt!r} give a non-finite step count")
    nsteps = int(round(span))
    exact = abs(t0 + nsteps * dt - t1) <= 1e-9 * max(1.0, abs(t1))
    if not exact:
        # full steps first; one shortened step then lands on t1
        nsteps = int(np.ceil(span - 1e-12)) - 1
    final = nsteps - 1 if exact else -1

    k1 = rhs(t0, y)
    if isinstance(k1, list):
        # plain floats from here on; k1 was computed from numpy scalars
        stage, y, k1 = _rk4_floats, y.tolist(), [float(k) for k in k1]
    else:
        stage = _rk4_arrays
    times = [t0]
    states = [y.copy()]

    def advance(t, y, h, k1):
        y = stage(rhs, t, y, h, k1)
        if project is not None:
            y = project(y)
        _check_finite(y, "state during integration")
        return y

    t = t0
    for i in range(nsteps):
        if i:
            k1 = rhs(t, y)
        y = advance(t, y, dt, k1)
        t = t0 + (i + 1) * dt
        if (i + 1) % record_every == 0 or i == final:
            times.append(t)
            states.append(y.copy())
    if not exact:
        if nsteps > 0:
            k1 = rhs(t, y)
        times.append(t1)
        states.append(advance(t, y, t1 - t, k1))
    return np.array(times), np.array(states)


def integrate(rhs, y0, t_span, stepper, record_every=1, project=None):
    """Integrate rhs over t_span with ``stepper``; returns (times, states) arrays.

    See ``march`` for the step schedule, the choice of loop and ``project``.
    """
    return march(rhs, y0, t_span, stepper.dt, record_every, project)
