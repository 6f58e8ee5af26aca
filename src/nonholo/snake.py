"""Inextensible string kinematics: a curve dragged along its own track.

A string of length L whose head traces an immersed planar curve occupies,
at each instant, an arclength window of that curve: z(s, t) = u(f(t) - s)
with s measured back from the head.  The balanced sleigh pulling such a
string follows the free sleigh's trajectory (a circle or a line), and
every string point replays the contact point's path with a constant time
delay.

Curves are not-a-knot cubic splines (``numkit.spline``).  Arclengths come
from one routine, ``_cumulative_arclength``: the 8-point Gauss-Legendre rule
on each grid interval, with the spline's derivative evaluated at every node
of every interval in one vectorised call.  The speed of a cubic spline is
smooth on each knot interval, so the fixed rule is as accurate as adaptive
quadrature there.  Frames are written as CSV and time-lapse SVG by the
writers in ``nonholo.trajectory``.
"""

import numpy as np

from nonholo.errors import DomainExceeded
from nonholo.numkit import cubic_spline
from nonholo.skate import integrate_skate, initial_reduced
from nonholo.trajectory import Trajectory, csv_bytes, svg_bytes

# bound on samples x largest coordinate: spline slopes and arclengths grow
# with that product, and must stay finite through the solve and the tables
_MAX_EXTENT = 1e150

# the 8-point Gauss-Legendre rule on [-1, 1], nodes and weights correctly
# rounded (the eigen-decomposition of the Jacobi matrix; Golub & Welsch,
# Math. Comp. 23, 1969); it integrates polynomials up to degree 15 exactly
_HALF_NODES = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267,
                        0.9602898564975363])
_HALF_WEIGHTS = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448,
                          0.10122853629037626])
_GAUSS_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_GAUSS_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


def _cumulative_arclength(dspline, grid):
    """Arclength from grid[0] to each grid point of the curve whose derivative is ``dspline``.

    Each grid interval takes the 8-point Gauss-Legendre rule of the speed
    |dspline|; the running sum starts at 0.
    """
    half = 0.5 * np.diff(grid)
    nodes = (grid[:-1] + half)[:, None] + half[:, None] * _GAUSS_NODES
    velocity = dspline(nodes)
    speed = np.hypot(velocity[..., 0], velocity[..., 1])
    return np.concatenate([[0.0], np.cumsum(half * (speed @ _GAUSS_WEIGHTS))])


class HeadPath:
    """Arclength-parametrized planar curve built from sample points.

    The samples are interpolated by a cubic spline and reparametrized by
    arclength through a spline of the inverse map s -> tau, so ``point(s)``
    moves at unit speed to within that interpolation's error.
    """

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) < 4:
            raise ValueError("head path needs at least 4 planar sample points")
        if not np.all(np.isfinite(points)):
            raise ValueError("head path sample points must be finite")
        if np.max(np.abs(points)) * len(points) >= _MAX_EXTENT:
            raise ValueError(f"coordinates times samples must stay below {_MAX_EXTENT:g}")
        tau = np.linspace(0.0, 1.0, len(points))
        self._spline = cubic_spline(tau, points)
        self._dspline = self._spline.derivative()
        self.length = float(_cumulative_arclength(self._dspline, tau)[-1])
        # dense inverse map s -> tau
        dense_tau = np.linspace(0.0, 1.0, 16 * len(points))
        dense_s = _cumulative_arclength(self._dspline, dense_tau)
        self._dense_s_max = float(dense_s[-1])
        if not (np.all(np.diff(dense_s) > 0) and np.isfinite(self._dense_s_max)):
            raise ValueError(
                f"arclength must be finite and increasing, got length {self._dense_s_max!r}"
            )
        # the inverse map's cubic coefficients grow as the inverse cube of
        # the length, so a short enough path overflows them
        with np.errstate(over="ignore", invalid="ignore"):
            self._inv = cubic_spline(dense_s, dense_tau)
        if not np.all(np.isfinite(self._inv.c)):
            raise ValueError(f"arclength {self._dense_s_max!r} is too short to invert")

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
    s_grid = np.asarray(s_grid, dtype=float)
    dspline = cubic_spline(s_grid, frame).derivative()
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
    # a smooth interpolant of the traversed track for the delayed replay
    track = cubic_spline(full.times, np.column_stack([x, y]))
    # every record_every-th step and the final one, as integrate records them
    keep = list(range(0, len(full.times), record_every))
    if keep[-1] != len(full.times) - 1:
        keep.append(len(full.times) - 1)
    out_times = full.times[keep]
    s_grid = np.linspace(0.0, L, n_string)
    # one row per recorded time, one column per string point
    delayed = out_times[:, None] - s_grid / speed
    behind = speed * out_times[:, None] - s_grid  # negative track coordinate on the straight part
    straight = p0 + behind[..., None] * tangent0
    frames = np.where((delayed >= 0.0)[..., None], track(np.maximum(delayed, 0.0)), straight)
    traj = Trajectory(
        out_times,
        full.columns,
        full.states[keep],
        {k: v[keep] for k, v in full.ledger.items()},
    )
    return traj, frames


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
