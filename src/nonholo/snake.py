"""Inextensible string kinematics: a curve dragged along its own track.

A string of length L whose head traces an immersed planar curve occupies,
at each instant, an arclength window of that curve: z(s, t) = u(f(t) - s)
with s measured back from the head.  The balanced sleigh pulling such a
string follows the free sleigh's trajectory (a circle or a line), and
every string point replays the contact point's path with a constant time
delay.

Arclengths come from one quadrature routine, ``_cumulative_arclength``, and
frames are written as CSV and time-lapse SVG by the writers in
``nonholo.trajectory``.  scipy (quadrature and splines) is imported inside
the functions that use it, so importing this module, and with it the CLI,
does not load scipy.
"""

import numpy as np

from nonholo.errors import DomainExceeded
from nonholo.skate import integrate_skate, initial_reduced
from nonholo.trajectory import Trajectory, csv_bytes, svg_bytes

_ARCLENGTH_TOL = 1e-8


def _cumulative_arclength(dspline, grid):
    """Arclength from grid[0] to each grid point of the curve whose derivative is ``dspline``.

    Each grid interval is one adaptive quadrature of the speed; the running
    sum starts at 0.
    """
    from scipy.integrate import quad

    speed = lambda s: float(np.linalg.norm(dspline(s)))
    tol = _ARCLENGTH_TOL / len(grid)
    segments = [quad(speed, a, b, epsabs=tol, limit=200)[0] for a, b in zip(grid[:-1], grid[1:])]
    return np.concatenate([[0.0], np.cumsum(segments)])


class HeadPath:
    """Arclength-parametrized planar curve built from sample points.

    The samples are interpolated by a cubic spline and reparametrized by
    arclength with adaptive quadrature, so ``point(s)`` moves at unit speed
    to within the quadrature tolerance.
    """

    def __init__(self, points):
        from scipy.interpolate import CubicSpline

        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 4:
            raise ValueError("head path needs at least 4 planar sample points")
        tau = np.linspace(0.0, 1.0, len(points))
        self._spline = CubicSpline(tau, points, axis=0)
        self._dspline = self._spline.derivative()
        self.length = float(_cumulative_arclength(self._dspline, tau)[-1])
        # dense inverse map s -> tau, refined by Newton on demand
        dense_tau = np.linspace(0.0, 1.0, 16 * len(points))
        dense_s = _cumulative_arclength(self._dspline, dense_tau)
        self._dense_s_max = float(dense_s[-1])
        if not (np.all(np.diff(dense_s) > 0) and np.isfinite(self._dense_s_max)):
            raise ValueError(
                f"arclength must be finite and increasing, got length {self._dense_s_max!r}"
            )
        self._inv = CubicSpline(dense_s, dense_tau)

    @classmethod
    def from_function(cls, func, t_span, n=200):
        ts = np.linspace(t_span[0], t_span[1], n)
        return cls(np.array([func(t) for t in ts]))

    def _tau(self, s):
        s = np.clip(s, 0.0, self._dense_s_max)
        return np.clip(self._inv(s), 0.0, 1.0)

    def point(self, s):
        """Position at arclength s (scalar or array)."""
        return self._spline(self._tau(s))

    def tangent(self, s):
        d = self._dspline(self._tau(s))
        d = np.atleast_2d(d)
        out = d / np.linalg.norm(d, axis=-1, keepdims=True)
        return out[0] if np.ndim(s) == 0 else out

    def unit_speed_deviation(self, n=200):
        """Worst deviation of |d point / ds| from 1 over n probe points."""
        s = np.linspace(0.0, self.length, n)
        h = max(self.length * 1e-6, 1e-9)
        sm = np.clip(s - h, 0.0, self.length)
        sp = np.clip(s + h, 0.0, self.length)
        d = (self.point(sp) - self.point(sm)) / (sp - sm)[:, None]
        return float(np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)))


def snake_evolve(head, f, t_grid, s_grid):
    """Frames z(s, t) = u(f(t) - s), s measured back from the head.

    ``f`` maps time to the head's arclength station; it must keep the whole
    string on the path: f(t) in [max(s_grid), head.length].
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    L = float(s_grid.max())
    frames = []
    for t in t_grid:
        ft = float(f(t))
        if ft < L - 1e-12 or ft > head.length + 1e-12:
            raise DomainExceeded(
                f"head station f({t}) = {ft} outside [{L}, {head.length}]"
            )
        frames.append(head.point(ft - s_grid))
    return np.array(frames)


def frame_arclength(frame, s_grid):
    """Arclength of one string frame via spline quadrature.

    A cubic spline through the sampled points, parametrized by ``s_grid``,
    recovers the smooth curve's length far more accurately than the raw
    polyline sum.
    """
    from scipy.interpolate import CubicSpline

    s_grid = np.asarray(s_grid, dtype=float)
    dspline = CubicSpline(s_grid, frame, axis=0).derivative()
    return float(_cumulative_arclength(dspline, s_grid)[-1])


def collinearity_residual(frames, t_grid, s_grid):
    """max |z_t x z_s| over the interior grid (centered time differences).

    The string's constraint is that material velocity is tangent to the
    curve; the planar cross product of the two finite-difference vectors
    measures its violation, which vanishes at second order in the time step.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    dt = t_grid[2:] - t_grid[:-2]
    z_t = (frames[2:] - frames[:-2]) / dt[:, None, None]
    ds = s_grid[2:] - s_grid[:-2]
    z_s = (frames[:, 2:, :] - frames[:, :-2, :]) / ds[None, :, None]
    z_s = z_s[1:-1]
    cross = z_t[:, 1:-1, 0] * z_s[:, :, 1] - z_t[:, 1:-1, 1] * z_s[:, :, 0]
    return float(np.max(np.abs(cross)))


# ---------------------------------------------------------------------------
# the sleigh with a string


def sleigh_with_string(v0, omega0, L, t_span, stepper=None, n_string=50, record_every=1):
    """Balanced sleigh dragging an inextensible string of length L.

    The contact point follows the free constrained sleigh (circle of radius
    |v0/omega0|, or a line when omega0 = 0); the string is laid along the
    already-traversed track, each material point replaying the contact
    point's path with delay s/|v0|, and the not-yet-consumed part of the
    initially straight string translating along the initial tangent.
    Returns (contact-point Trajectory, frames of string positions).
    """
    from scipy.interpolate import CubicSpline

    if L <= 0:
        raise ValueError("string length must be positive")
    if v0 == 0:
        raise ValueError("the head must move to drag the string")
    y0 = initial_reduced(theta=0.0, v=v0, omega=omega0)[:5]
    # keep every step internally: the delay replay interpolates the track
    full = integrate_skate("lda", y0, 0.0, t_span, stepper, record_every=1)
    speed = abs(v0)
    x = full.column("x")
    y = full.column("y")
    p0 = np.array([x[0], y[0]])
    tangent0 = np.array([np.cos(full.column("theta")[0]), np.sin(full.column("theta")[0])])
    if v0 < 0:
        tangent0 = -tangent0
    # smooth interpolants of the traversed track for the delayed replay
    track_x = CubicSpline(full.times, x)
    track_y = CubicSpline(full.times, y)
    keep = slice(None, None, record_every)
    out_times = full.times[keep]
    s_grid = np.linspace(0.0, L, n_string)
    frames = []
    for t in out_times:
        delayed = t - s_grid / speed
        on_track = delayed >= 0.0
        zx = np.where(on_track, track_x(np.maximum(delayed, 0.0)), 0.0)
        zy = np.where(on_track, track_y(np.maximum(delayed, 0.0)), 0.0)
        behind = speed * t - s_grid  # negative track coordinate on the straight part
        zx = np.where(on_track, zx, p0[0] + behind * tangent0[0])
        zy = np.where(on_track, zy, p0[1] + behind * tangent0[1])
        frames.append(np.column_stack([zx, zy]))
    traj = Trajectory(
        out_times,
        full.columns,
        full.states[keep],
        {k: v[keep] for k, v in full.ledger.items()},
    )
    return traj, np.array(frames)


# ---------------------------------------------------------------------------
# export helpers


def frame_to_csv(frame, s_grid=None):
    """One string frame as CSV bytes with columns s,x,y."""
    frame = np.asarray(frame, dtype=float).reshape(-1, 2)
    if s_grid is None:
        s_grid = np.arange(len(frame), dtype=float)
    return csv_bytes(["s", "x", "y"], np.column_stack([s_grid, frame]))


def timelapse_svg(frames, title=None):
    """All frames overlaid on one equal-aspect canvas, fading with age."""
    nf = len(frames)
    styles = [f' stroke-opacity="{0.15 + 0.85 * (i + 1) / nf:.3f}"' for i in range(nf)]
    return svg_bytes(frames, title, styles=styles)
