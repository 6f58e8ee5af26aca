"""Fixed-step classical RK4.

The state is carried either as a numpy array or, for the small ODE systems,
as a list of floats: a right-hand side that returns a ``list`` runs the float
loop, one that returns an ndarray runs the array loop.  Both loops take the
stage sums in the same order, so they give bit-identical states; the float
loop only skips numpy's per-call overhead on 3-8 element states.

The float loop's step is generated once per state dimension d (``exec`` of
one template, as ``dataclasses`` builds its methods): it unpacks the state
and each stage into d locals and writes each stage state as one list
display.  A list comprehension over ``zip`` costs a function frame and an
iterator per stage, which on these states took longer than the rhs itself.
The generated step does the same float operations in the same order, so it
stays bit-identical to the array loop.
"""

import functools
import math
import re
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
    ok = all(map(math.isfinite, y)) if isinstance(y, list) else np.isfinite(y).all()
    if not ok:
        raise NonFinite(f"non-finite values in {what}")


def _rk4_arrays(rhs, t, y, h, k1):
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# The float step's source: each [...] holding a "#" is unrolled over the d
# components, "#" standing for the index (see _float_step).
_FLOAT_STEP = """
def step(rhs, t, y, h, k1):
    [y#] = y
    [p#] = k1
    a = 0.5 * h
    z = y
    try:
        z = [y# + a * p#]
        [q#] = rhs(t + a, z)
        z = [y# + a * q#]
        [r#] = rhs(t + a, z)
        z = [y# + h * r#]
        [s#] = rhs(t + h, z)
    except ValueError:
        # math.sin/math.cos raise on +-inf where numpy gives NaN; a non-finite
        # stage makes the array loop's state non-finite in this same step
        _check_finite(z, "state during integration")
        raise
    c = h / 6.0
    return [y# + c * (p# + 2.0 * q# + 2.0 * r# + s#)]
"""


@functools.cache
def _float_step(d):
    """The RK4 step on a list of d floats, with every component in a local.

    It takes numpy's order of operations, y + (0.5 h) k and
    y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), so its states are the array loop's.
    The source is built from the integer d alone.
    """
    unroll = lambda m: "[" + ", ".join(m[1].replace("#", str(j)) for j in range(d)) + "]"
    namespace = {"_check_finite": _check_finite}
    exec(re.sub(r"\[([^\[\]]*#[^\[\]]*)\]", unroll, _FLOAT_STEP), namespace)
    return namespace["step"]


def _plan(t_span, dt):
    """(full steps of dt, whether the last of them lands on t1) for march."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = (t1 - t0) / dt
    if not np.isfinite(span):
        raise ValueError(f"t_span {t_span!r} and dt {dt!r} give a non-finite step count")
    if span < 0:
        raise ValueError(f"t_span {t_span!r} runs against the sign of dt {dt!r}")
    nsteps = int(round(span))
    # a nonzero span within the landing tolerance of zero steps takes one step
    exact = (nsteps > 0 or t1 == t0) and abs(t0 + nsteps * dt - t1) <= 1e-9 * max(1.0, abs(t1))
    if not exact:
        # full steps first; one shortened step then lands on t1
        nsteps = max(int(np.ceil(span - 1e-12)) - 1, 0)
    return nsteps, exact


def record_rows(t_span, dt, record_every=1):
    """Number of samples march records over t_span in steps of dt: the initial
    state, every ``record_every``-th full step, and the last state at t1."""
    nsteps, exact = _plan(t_span, dt)
    if exact:  # the last full step is recorded, once
        return 1 - (-nsteps // record_every)
    return 2 + nsteps // record_every


def march(rhs, y0, t_span, dt, record_every=1, project=None):
    """RK4 from y0 over t_span in steps of dt; returns (times, states) arrays.

    The final sample is at t1.  When the span is not a multiple of dt, the
    last step is shortened to end there; step i ends at t0 + i dt, and a
    last full step that ends within the landing tolerance of t1 is recorded
    at t1.  A nonzero span shorter than dt is one shortened step, however
    short.  States are recorded every ``record_every`` steps, plus the final
    state (``record_rows`` counts them).  The first rhs evaluation picks the
    loop (see the module docstring) and serves as the first step's first
    stage.  ``project``, when given, maps each new state back onto a
    constraint set before it is checked and recorded.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    _check_finite(y, "initial state")
    nsteps, exact = _plan(t_span, dt)
    final = nsteps - 1 if exact else -1

    k1 = rhs(t0, y)
    if np.shape(k1) != y.shape:
        raise ValueError(f"rhs returned shape {np.shape(k1)} for a state of shape {y.shape}")
    if isinstance(k1, list):
        # plain floats from here on; k1 was computed from numpy scalars
        stage, y, k1 = _float_step(len(y)), y.tolist(), [float(k) for k in k1]
    else:
        stage = _rk4_arrays
    # records go into one array of exactly the rows recorded; a list of rows
    # and its copy would hold every record twice
    times = np.empty(record_rows(t_span, dt, record_every))
    states = np.empty(times.shape + np.shape(y))
    times[0], states[0], k = t0, y, 1

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
            times[k], states[k], k = t, y, k + 1
    if exact:
        times[k - 1] = t1  # t0 + nsteps dt, within the landing tolerance of t1
    else:
        if nsteps > 0:
            k1 = rhs(t, y)
        times[k], states[k], k = t1, advance(t, y, t1 - t, k1), k + 1
    return times[:k], states[:k]


def integrate(rhs, y0, t_span, stepper, record_every=1, project=None):
    """Integrate rhs over t_span with ``stepper``; returns (times, states) arrays.

    See ``march`` for the step schedule, the choice of loop and ``project``.
    A state that turns non-finite raises ``NonFinite``, so numpy's overflow
    and invalid-value warnings on the way there are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return march(rhs, y0, t_span, stepper.dt, record_every, project)
