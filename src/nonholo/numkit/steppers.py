"""Explicit time steppers: fixed-step RK4 and adaptive RK45 (Dormand-Prince).

Fixed-step RK4 is the workhorse for every invariant test (deterministic,
order 4); the adaptive scheme is for long-horizon runs where efficiency
matters more than a clean convergence order.
"""

from dataclasses import dataclass

import numpy as np

from nonholo.errors import NonFinite, StepSizeUnderflow


@dataclass(frozen=True)
class Stepper:
    scheme: str = "rk4"          # "rk4" or "rk45"
    dt: float = 1e-3             # fixed step (rk4) / initial step (rk45)
    atol: float = 1e-9
    rtol: float = 1e-9
    dt_min: float = 1e-12
    dt_max: float = 1.0

    @classmethod
    def rk4(cls, dt):
        return cls(scheme="rk4", dt=dt)

    @classmethod
    def rk45(cls, atol=1e-9, rtol=1e-9, dt_min=1e-12, dt_max=1.0, dt=1e-3):
        return cls(scheme="rk45", dt=dt, atol=atol, rtol=rtol, dt_min=dt_min, dt_max=dt_max)

    def as_dict(self):
        d = {"scheme": self.scheme, "dt": self.dt}
        if self.scheme == "rk45":
            d.update(atol=self.atol, rtol=self.rtol, dt_min=self.dt_min, dt_max=self.dt_max)
        return d


def _check_finite(y, what):
    if not np.all(np.isfinite(y)):
        raise NonFinite(f"non-finite values in {what}")


def _rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk45_attempt(rhs, t, y, dt):
    ks = []
    for i in range(7):
        yi = y
        for j, a in enumerate(_DP_A[i]):
            if a != 0.0:
                yi = yi + dt * a * ks[j]
        ks.append(rhs(t + _DP_C[i] * dt, yi))
    y5 = y
    y4 = y
    for i in range(7):
        if _DP_B5[i] != 0.0:
            y5 = y5 + dt * _DP_B5[i] * ks[i]
        if _DP_B4[i] != 0.0:
            y4 = y4 + dt * _DP_B4[i] * ks[i]
    return y5, y5 - y4


def step(rhs, t, y, stepper):
    """Take one accepted step; returns (t_new, y_new, dt_used)."""
    y = np.asarray(y, dtype=float)
    _check_finite(rhs(t, y), "right-hand side")
    if stepper.scheme == "rk4":
        y_new = _rk4_step(rhs, t, y, stepper.dt)
        _check_finite(y_new, "state after step")
        return t + stepper.dt, y_new, stepper.dt

    dt = min(stepper.dt, stepper.dt_max)
    while True:
        if dt < stepper.dt_min:
            raise StepSizeUnderflow(f"dt={dt:.3e} below dt_min={stepper.dt_min:.3e}")
        y_new, err = _rk45_attempt(rhs, t, y, dt)
        if not np.all(np.isfinite(y_new)):
            dt *= 0.5
            continue
        scale = stepper.atol + stepper.rtol * np.maximum(np.abs(y), np.abs(y_new))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if enorm <= 1.0:
            return t + dt, y_new, dt
        dt *= max(0.2, 0.9 * enorm ** (-0.2))


def integrate(rhs, y0, t_span, stepper, record_every=1, observer=None):
    """Integrate rhs over t_span; returns (times, states) arrays.

    RK4 takes steps of ``stepper.dt``; when the span is not a multiple of
    dt, the last step is shortened so that the final sample is at t1.
    States are recorded every ``record_every`` accepted steps (plus the final
    state).  ``observer(t, y)``, when given, is called at each recorded
    sample and may be used for ledgers.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=float)
    _check_finite(y, "initial state")
    times = []
    states = []

    def record(t, y):
        times.append(t)
        states.append(y.copy())
        if observer is not None:
            observer(t, y)

    record(t0, y)
    t = t0
    k = 0
    if stepper.scheme == "rk4":
        dt = stepper.dt
        span = (t1 - t0) / dt
        if not np.isfinite(span):
            raise ValueError(f"t_span {t_span!r} and dt {dt!r} give a non-finite step count")
        nsteps = int(round(span))
        exact = abs(t0 + nsteps * dt - t1) <= 1e-9 * max(1.0, abs(t1))
        if not exact:
            # full steps first; one shortened step then lands on t1
            nsteps = int(np.ceil(span - 1e-12)) - 1
        final = nsteps - 1 if exact else -1
        for i in range(nsteps):
            y = _rk4_step(rhs, t, y, dt)
            _check_finite(y, "state during integration")
            t = t0 + (i + 1) * dt
            k += 1
            if k % record_every == 0 or i == final:
                record(t, y)
        if not exact:
            y = _rk4_step(rhs, t, y, t1 - t)
            _check_finite(y, "state during integration")
            record(t1, y)
        return np.array(times), np.array(states)

    dt_next = stepper.dt
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        trial = Stepper(scheme="rk45", dt=min(dt_next, t1 - t), atol=stepper.atol,
                        rtol=stepper.rtol, dt_min=stepper.dt_min, dt_max=stepper.dt_max)
        t, y, used = step(rhs, t, y, trial)
        dt_next = min(stepper.dt_max, 2.0 * used)
        k += 1
        if k % record_every == 0 or t >= t1 - 1e-14:
            record(t, y)
    return np.array(times), np.array(states)
