"""Tests for the dragged-string kinematics and the sleigh pulling a string."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo.errors import DomainExceeded
from nonholo.numkit import Stepper, cubic_spline
from nonholo.skate import fit_circle
from nonholo.snake import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    HeadPath,
    _cumulative_arclength,
    collinearity_residual,
    frame_arclength,
    sleigh_with_string,
    snake_evolve,
    write_frame_csv,
    write_timelapse_svg,
)
from nonholo.trajectory import render


def _circle_path(radius=0.5, length=12.0, n=400):
    return HeadPath.from_function(
        lambda t: np.array([radius * np.cos(t / radius), radius * np.sin(t / radius)]),
        (0.0, length),
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


EPS = np.finfo(float).eps
# rounding in the subnormal range is absolute, not relative
TINY = np.finfo(float).tiny
# knots 2..60 with spacings in [H_MIN, 1], starting anywhere in [-10, 10]
H_MIN = 0.05
knot_sets = lambda lo, hi: st.tuples(
    st.floats(-10.0, 10.0),
    st.lists(st.floats(H_MIN, 1.0), min_size=lo - 1, max_size=hi - 1),
).map(lambda c: c[0] + np.concatenate([[0.0], np.cumsum(c[1])]))
coefficient_lists = lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
seeds = st.integers(0, 2**32 - 1)


def _poly(coefs, t, nu=0):
    """At t, the nu-th derivative p of sum_k coefs[k] t**k and its scale sum_k |p_k t**k|."""
    p = np.polynomial.Polynomial(coefs).deriv(nu)
    return p(t), np.polynomial.Polynomial(np.abs(p.coef))(np.abs(t))


def _piece_derivatives(spline, i, d):
    """Value and first three derivatives of piece i of a cubic spline at offset d."""
    c0, c1, c2, c3 = spline.c[:, i]
    return np.array([((c0 * d + c1) * d + c2) * d + c3, (3 * c0 * d + 2 * c1) * d + c2,
                     6 * c0 * d + 2 * c1, 6 * c0])


class TestCubicSpline:
    """Not-a-knot interpolation, checked by the properties that define it.

    Each tolerance is a multiple of EPS times the scale of the data (over
    H_MIN**k for a k-th derivative, which differences over the smallest knot
    spacing amplify).  The multiples are about eight times the worst ratio
    measured on random knots; scipy's ``CubicSpline`` errs as much on the same
    cases.  The measured ratios are in CHANGES.md.
    """

    @settings(max_examples=150, deadline=None)
    @given(knot_sets(4, 60), coefficient_lists(4),
           st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20))
    def test_reproduces_every_cubic(self, x, coefs, u):
        spline = cubic_spline(x, _poly(coefs, x)[0])
        # probes inside the knots and up to one unit beyond each end
        t = (x[0] + x[-1]) / 2.0 + (x[-1] - x[0] + 2.0) / 2.0 * np.array(u)
        scale = max(_poly(coefs, x)[1].max(), _poly(coefs, t)[1].max())
        for nu, multiple in enumerate((2**16, 2**13, 2**10)):
            err = np.abs(spline(t) - _poly(coefs, t, nu)[0]).max()
            assert err <= multiple * EPS * scale / H_MIN**nu + TINY, nu
            spline = spline.derivative()

    @settings(max_examples=150, deadline=None)
    @given(knot_sets(2, 60), seeds)
    def test_interpolates_the_knots(self, x, seed):
        y = np.random.default_rng(seed).normal(size=(len(x), 2))
        assert np.abs(cubic_spline(x, y)(x) - y).max() <= 2**11 * EPS * np.abs(y).max()

    @settings(max_examples=150, deadline=None)
    @given(knot_sets(4, 60), seeds)
    def test_continuity_and_not_a_knot(self, x, seed):
        y = np.random.default_rng(seed).normal(size=len(x))
        spline = cubic_spline(x, y)
        tol = EPS * np.abs(y).max() * np.array([2**13, 2**9 / H_MIN, 2**8 / H_MIN**2,
                                                 2**9 / H_MIN**3])
        dx = np.diff(x)
        for i in range(1, len(x) - 1):
            jump = np.abs(_piece_derivatives(spline, i - 1, dx[i - 1])
                          - _piece_derivatives(spline, i, 0.0))
            # value, slope and curvature match at every interior knot; the third
            # derivative, across the second and the second-to-last knot only
            last = 4 if i in (1, len(x) - 2) else 3
            assert np.all(jump[:last] <= tol[:last]), i

    @settings(max_examples=100, deadline=None)
    @given(knot_sets(2, 2), coefficient_lists(2), st.floats(-3.0, 3.0))
    def test_two_knots_give_the_line(self, x, coefs, u):
        spline = cubic_spline(x, _poly(coefs, x)[0])
        assert np.all(spline.c[:2] == 0.0)
        t = x[0] + u * (x[1] - x[0])
        scale = max(_poly(coefs, t)[1], _poly(coefs, x)[1].max())
        assert abs(spline(t) - _poly(coefs, t)[0]) <= 2**5 * EPS * scale + TINY

    @settings(max_examples=100, deadline=None)
    @given(knot_sets(3, 3), coefficient_lists(3), st.floats(-1.0, 2.0))
    def test_three_knots_give_the_parabola(self, x, coefs, u):
        spline = cubic_spline(x, _poly(coefs, x)[0])
        t = x[0] + u * (x[2] - x[0])
        scale = max(_poly(coefs, t)[1], _poly(coefs, x)[1].max())
        assert abs(spline(t) - _poly(coefs, t)[0]) <= 2**8 * EPS * scale + TINY

    @settings(max_examples=100, deadline=None)
    @given(knot_sets(2, 60), seeds, st.floats(0.01, 5.0))
    def test_extrapolates_the_end_pieces(self, x, seed, beyond):
        spline = cubic_spline(x, np.random.default_rng(seed).normal(size=len(x)))
        first = _piece_derivatives(spline, 0, 0.0)
        last = _piece_derivatives(spline, len(x) - 2, x[-1] - x[-2])
        # beyond each end, the end piece's Taylor polynomial about its outer knot
        for derivs, t, d in ((first, x[0] - beyond, -beyond), (last, x[-1] + beyond, beyond)):
            powers = np.array([1.0, d, d * d / 2.0, d**3 / 6.0])
            assert abs(spline(t) - derivs @ powers) <= 2**11 * EPS * (np.abs(derivs) @ np.abs(powers))


class TestGaussLegendreTables:
    def test_rule_integrates_degree_fifteen(self):
        assert np.all(np.diff(_GAUSS_NODES) > 0)
        for k in range(16):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(_GAUSS_WEIGHTS @ _GAUSS_NODES**k - exact) <= 4 * EPS

    def test_rule_matches_golub_welsch(self):
        k = np.arange(1, 8)
        jacobi = np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1)
        nodes, vectors = np.linalg.eigh(jacobi + jacobi.T)
        assert np.abs(nodes - _GAUSS_NODES).max() <= 8 * EPS
        assert np.abs(2.0 * vectors[0] ** 2 - _GAUSS_WEIGHTS).max() <= 8 * EPS

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-np.pi, np.pi), st.floats(-3.0, 3.0), st.floats(-100.0, 100.0),
           st.floats(-100.0, 100.0), st.integers(4, 400))
    def test_exact_on_straight_paths(self, angle, exponent, x0, y0, n):
        length = 10.0**exponent
        direction = np.array([np.cos(angle), np.sin(angle)])
        points = np.array([x0, y0]) + np.linspace(0.0, length, n)[:, None] * direction
        head = HeadPath(points)
        # a sum of N terms rounds by up to N EPS of its size (measured: 0.2 N EPS)
        scale = EPS * (length + np.hypot(x0, y0))
        assert abs(head.length - length) <= 2 * n * scale
        grid = np.linspace(0.0, 1.0, 16 * n)
        table = _cumulative_arclength(head._dspline, grid)
        assert np.abs(table - length * grid).max() <= 2 * 16 * n * scale

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(0.25, 4.0), st.integers(16, 100))
    def test_circle_tables_agree_with_a_refined_rule(self, exponent, turns, per_turn):
        radius = 10.0**exponent
        head = _circle_path(radius, turns * 2 * np.pi * radius, max(4, int(per_turn * turns)))
        n = len(head._spline.x)
        table = _cumulative_arclength(head._dspline, np.linspace(0.0, 1.0, n))
        # the same rule on each knot interval split in four
        refined = _cumulative_arclength(head._dspline, np.linspace(0.0, 1.0, 4 * n - 3))[::4]
        assert np.abs(table - refined).max() <= 1e-13 * 2 * np.pi * radius * turns


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
        data = render(write_frame_csv, frame, np.array([0.0, 1.0, 2.0])).decode("ascii")
        lines = data.strip().split("\n")
        assert lines[0] == "s,x,y"
        assert len(lines) == 4
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got[:, 1:], frame)

    def test_timelapse_svg_structure(self):
        frames = np.random.default_rng(0).normal(size=(5, 10, 2))
        svg = render(write_timelapse_svg, frames, title="demo")
        text = svg.decode("ascii") if isinstance(svg, bytes) else svg
        assert text.startswith("<svg") or "<svg" in text
        assert text.count("<polyline") == 5
        assert "demo" in text
