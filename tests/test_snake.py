"""Tests for the dragged-string kinematics and the sleigh pulling a string."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo.errors import DomainExceeded
from nonholo.numkit import Stepper
from nonholo.skate import fit_circle
from nonholo.snake import (
    _ARCLENGTH_TOL,
    HeadPath,
    _cumulative_arclength,
    _speed,
    collinearity_residual,
    frame_arclength,
    frame_to_csv,
    sleigh_with_string,
    snake_evolve,
    timelapse_svg,
)


def _circle_path(radius=0.5, turns=12.0, n=400):
    return HeadPath.from_function(
        lambda t: np.array([radius * np.cos(t / radius), radius * np.sin(t / radius)]),
        (0.0, turns),
        n=n,
    )


def _segment_distance(points, poly):
    """Max distance from each point to the polyline (segment projection)."""
    a, b = poly[:-1], poly[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    worst = 0.0
    for p in points:
        ap = p - a
        t = np.clip(np.einsum("ij,ij->i", ap, ab) / denom, 0.0, 1.0)
        d = np.linalg.norm(ap - t[:, None] * ab, axis=1)
        worst = max(worst, float(d.min()))
    return worst


class TestHeadPath:
    def test_needs_four_planar_points(self):
        with pytest.raises(ValueError):
            HeadPath(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            HeadPath(np.zeros((10, 3)))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"),
        (np.inf, "finite"),
        (1e300, "below"),
    ])
    def test_rejects_unusable_coordinates(self, bad, message):
        points = np.zeros((6, 2))
        points[:, 0] = np.arange(6)
        points[2, 1] = bad
        with pytest.raises(ValueError, match=message):
            HeadPath(points)

    def test_straight_segment_length_and_points(self):
        hp = HeadPath.from_function(lambda t: np.array([t, 0.0]), (0.0, 10.0), n=200)
        assert abs(hp.length - 10.0) < 1e-7
        s = np.linspace(0.0, 10.0, 37)
        assert np.abs(hp.point(s) - np.stack([s, np.zeros_like(s)], axis=-1)).max() < 1e-9

    def test_unit_speed_reparametrization(self):
        # samples are deliberately non-uniform in arclength
        hp = HeadPath.from_function(
            lambda t: np.array([np.sinh(t), np.cosh(t) - 1.0]), (0.0, 2.0), n=300
        )
        assert hp.unit_speed_deviation(300) < 1e-6

    def test_tangent_is_unit(self):
        hp = _circle_path()
        t = hp.tangent(np.linspace(0.0, hp.length, 50))
        assert np.abs(np.linalg.norm(t, axis=1) - 1.0).max() < 1e-9


def _spline_derivative(points):
    from scipy.interpolate import CubicSpline

    tau = np.linspace(0.0, 1.0, len(points))
    return tau, CubicSpline(tau, points, axis=0).derivative()


class TestSpeedIntegrand:
    """The arclength integrand reproduces scipy's spline evaluation and numpy's
    norm bit for bit; a scipy or numpy whose arithmetic differs fails here
    instead of moving the snake's artifacts."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 60), scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_then_numpy_norm(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        tau, dspline = _spline_derivative(rng.normal(size=(n, 2)) * 10.0**scale)
        speed = _speed(dspline)
        probes = np.concatenate([
            rng.uniform(0.0, 1.0, 200),
            tau,
            np.nextafter(tau, -np.inf),
            np.nextafter(tau, np.inf),
            [0.0, 1.0],
            rng.uniform(-0.5, 0.0, 20),
            rng.uniform(1.0, 1.5, 20),
        ])
        for s in probes.tolist():
            assert speed(s) == float(np.linalg.norm(dspline(s))), s

    @pytest.mark.parametrize("points", [
        np.column_stack([np.cos(np.linspace(0.0, 2.0 * np.pi, 40)),
                         np.sin(np.linspace(0.0, 2.0 * np.pi, 40))]),
        np.random.default_rng(3).normal(size=(25, 2)).cumsum(axis=0),
    ], ids=["circle", "random-walk"])
    def test_tables_equal_quad_over_scipy_and_numpy(self, points):
        from scipy.integrate import quad

        tau, dspline = _spline_derivative(points)
        speed = lambda s: float(np.linalg.norm(dspline(s)))
        for grid in (tau, np.linspace(0.0, 1.0, 16 * len(tau))):
            tol = _ARCLENGTH_TOL / len(grid)
            segments = [quad(speed, a, b, epsabs=tol, limit=200)[0]
                        for a, b in zip(grid[:-1], grid[1:])]
            expected = np.concatenate([[0.0], np.cumsum(segments)])
            assert np.array_equal(_cumulative_arclength(dspline, grid), expected)


class TestSnakeEvolve:
    def test_straight_path_translates_rigidly(self):
        hp = HeadPath.from_function(lambda t: np.array([t, 0.0]), (0.0, 10.0), n=200)
        s_grid = np.linspace(0.0, 2.0, 21)
        t_grid = np.linspace(0.0, 5.0, 26)
        frames = snake_evolve(hp, lambda t: t + 3.0, t_grid, s_grid)
        for frame, t in zip(frames, t_grid):
            expected = np.stack([t + 3.0 - s_grid, np.zeros_like(s_grid)], axis=-1)
            assert np.abs(frame - expected).max() < 1e-9

    def test_circular_path_stays_on_circle(self):
        radius = 0.5
        hp = _circle_path(radius)
        frames = snake_evolve(
            hp, lambda t: t + 3.0, np.linspace(0.0, 5.0, 26), np.linspace(0.0, 2.0, 41)
        )
        assert np.abs(np.hypot(frames[..., 0], frames[..., 1]) - radius).max() < 1e-6

    def test_unstretchability(self):
        hp = _circle_path()
        s_grid = np.linspace(0.0, 2.0, 101)
        frames = snake_evolve(hp, lambda t: t + 3.0, np.linspace(0.0, 5.0, 11), s_grid)
        for frame in frames:
            assert abs(frame_arclength(frame, s_grid) - 2.0) / 2.0 < 1e-6

    def test_image_lies_on_head_path(self):
        hp = _circle_path()
        frames = snake_evolve(
            hp, lambda t: t + 3.0, np.linspace(0.0, 5.0, 6), np.linspace(0.0, 2.0, 21)
        )
        poly = hp.point(np.linspace(0.0, hp.length, 40000))
        assert _segment_distance(frames.reshape(-1, 2), poly) < 1e-6

    def test_collinearity_second_order(self):
        # varying curvature so centered chords in t and s genuinely disagree
        hp = HeadPath.from_function(
            lambda t: np.array([1.5 * np.cos(t), 0.8 * np.sin(t)]), (0.0, 2 * np.pi), n=600
        )
        residuals = []
        for h in (0.2, 0.1, 0.05):
            t_grid = np.arange(0.0, 2.0 + h / 2, h)
            s_grid = np.arange(0.0, 2.0 + h, 2 * h)
            frames = snake_evolve(hp, lambda t: t + 2.5, t_grid, s_grid)
            residuals.append(collinearity_residual(frames, t_grid, s_grid))
        assert residuals[0] / residuals[1] > 2.5
        assert residuals[1] / residuals[2] > 2.5
        assert residuals[-1] < 2.0 * 0.05**2

    def test_domain_exceeded(self):
        hp = HeadPath.from_function(lambda t: np.array([t, 0.0]), (0.0, 10.0), n=200)
        s_grid = np.linspace(0.0, 2.0, 11)
        with pytest.raises(DomainExceeded):
            snake_evolve(hp, lambda t: t - 5.0, [0.0, 1.0], s_grid)
        with pytest.raises(DomainExceeded):
            snake_evolve(hp, lambda t: t + 9.0, [0.0, 2.0], s_grid)


class TestSleighWithString:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sleigh_with_string(1.0, 1.0, 0.0, (0.0, 1.0), Stepper.rk4(1e-3))
        with pytest.raises(ValueError):
            sleigh_with_string(0.0, 1.0, 1.0, (0.0, 1.0), Stepper.rk4(1e-3))

    def test_straight_line_when_not_spinning(self):
        traj, frames = sleigh_with_string(
            1.0, 0.0, 0.5, (0.0, 2.0), Stepper.rk4(1e-3), n_string=20, record_every=200
        )
        assert np.abs(frames[..., 1]).max() < 1e-12
        last = frames[-1]
        assert abs(last[0, 0] - 2.0) < 1e-9 and abs(last[-1, 0] - 1.5) < 1e-9

    def test_initial_string_is_straight_behind_head(self):
        _, frames = sleigh_with_string(
            1.0, -10.0, 1.0, (0.0, 2.0), Stepper.rk4(1e-3), n_string=21, record_every=100
        )
        first = frames[0]
        s = np.linspace(0.0, 1.0, 21)
        assert np.abs(first[:, 0] + s).max() < 1e-12
        assert np.abs(first[:, 1]).max() < 1e-12

    def test_string_settles_on_contact_circle(self):
        traj, frames = sleigh_with_string(
            1.0, -10.0, 1.0, (0.0, 4.0), Stepper.rk4(1e-3), n_string=100, record_every=100
        )
        x, y = traj.column("x"), traj.column("y")
        cx, cy, r, resid = fit_circle(x[len(x) // 2 :], y[len(y) // 2 :])
        assert abs(r - 0.1) < 1e-6
        # after the head has traversed length L, the whole string is on track
        late = frames[traj.times > 1.0]
        dist = np.hypot(late[..., 0] - cx, late[..., 1] - cy)
        assert np.abs(dist - r).max() < 1e-3

    def test_string_arclength_preserved(self):
        _, frames = sleigh_with_string(
            1.0, -10.0, 1.0, (0.0, 4.0), Stepper.rk4(1e-3), n_string=100, record_every=100
        )
        s_grid = np.linspace(0.0, 1.0, 100)
        assert abs(frame_arclength(frames[-1], s_grid) - 1.0) < 1e-6

    def test_points_replay_head_with_delay(self):
        traj, frames = sleigh_with_string(
            1.0, -10.0, 1.0, (0.0, 4.0), Stepper.rk4(1e-3), n_string=51, record_every=100
        )
        x, y = traj.column("x"), traj.column("y")
        dt_out = traj.times[1] - traj.times[0]
        s_grid = np.linspace(0.0, 1.0, 51)
        sup = 0.0
        for k in range(1, 11):  # s = k * dt_out, landing on string node 5k
            s = k * dt_out
            j = int(round(s / (s_grid[1] - s_grid[0])))
            for i in range(k, len(traj.times)):
                d = np.hypot(frames[i, j, 0] - x[i - k], frames[i, j, 1] - y[i - k])
                sup = max(sup, d)
        assert sup < 1e-3


class TestExport:
    def test_frame_csv_roundtrip(self):
        frame = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
        data = frame_to_csv(frame, np.array([0.0, 1.0, 2.0])).decode("ascii")
        lines = data.strip().split("\n")
        assert lines[0] == "s,x,y"
        assert len(lines) == 4
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got[:, 1:], frame)

    def test_timelapse_svg_structure(self):
        frames = np.random.default_rng(0).normal(size=(5, 10, 2))
        svg = timelapse_svg(frames, title="demo")
        text = svg.decode("ascii") if isinstance(svg, bytes) else svg
        assert text.startswith("<svg") or "<svg" in text
        assert text.count("<polyline") == 5
        assert "demo" in text
