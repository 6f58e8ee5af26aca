"""Tests for the trajectory container and its CSV/SVG wire formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo.errors import NonFinite, UnknownColumn
from nonholo.snake import frame_to_csv, timelapse_svg
from nonholo.trajectory import Trajectory, to_csv, to_svg


def _sample():
    times = np.array([0.0, 0.1, 0.2])
    states = np.array([[0.0, 1.0], [0.1, 1.0 / 3.0], [0.2, -2.5]])
    ledger = {"energy": np.array([0.5, 0.5 + 1e-17, 0.5])}
    return Trajectory(times, ["x", "y"], states, ledger)


def _parse(data):
    """Header names and float block of CSV bytes, split into lines and fields."""
    header, *rows = data.decode("ascii").split("\n")[:-1]
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], ["x"], np.zeros((3, 1)))

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], ["x"], np.zeros((2, 1)))

    def test_ledger_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory([0.0, 1.0], ["x"], np.zeros((2, 1)), {"e": np.zeros(3)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_ledger_value_names_its_column_and_first_time(self, bad):
        ledger = {"energy": [0.5, 0.5, 0.5], "phi": [0.0, bad, bad]}
        with pytest.raises(NonFinite, match=r"ledger column 'phi' from t = 0\.1$"):
            Trajectory([0.0, 0.1, 0.2], ["x"], np.zeros((3, 1)), ledger)

    def test_column_access(self):
        traj = _sample()
        assert np.array_equal(traj.column("t"), traj.times)
        assert np.array_equal(traj.column("y"), traj.states[:, 1])
        assert np.array_equal(traj.column("energy"), traj.ledger["energy"])
        with pytest.raises(UnknownColumn):
            traj.column("nope")

    def test_final_state_and_extremes(self):
        traj = _sample()
        assert np.array_equal(traj.final_state, [0.2, -2.5])
        ext = traj.ledger_extremes()
        assert ext["energy"]["min"] == 0.5


class TestCsv:
    def test_header_and_row_count(self):
        data = to_csv(_sample()).decode("ascii")
        lines = data.strip().split("\n")
        assert lines[0] == "t,x,y,energy"
        assert len(lines) == 4

    def test_roundtrip_is_bit_exact(self):
        traj = _sample()
        header, block = _parse(to_csv(traj))
        assert header == ["t", "x", "y", "energy"]
        assert np.array_equal(block[:, 0], traj.times)
        assert np.array_equal(block[:, 1:3], traj.states)
        assert np.array_equal(block[:, 3], traj.ledger["energy"])

    def test_serialization_is_deterministic(self):
        traj = _sample()
        assert to_csv(traj) == to_csv(traj)

    def test_awkward_floats_roundtrip(self):
        values = np.array([[np.pi], [1e-300], [np.nextafter(1.0, 2.0)]])
        traj = Trajectory([0.0, 1.0, 2.0], ["v"], values)
        _, block = _parse(to_csv(traj))
        assert np.array_equal(block[:, 1:], values)


class TestSvg:
    def test_structure(self):
        svg = to_svg(_sample(), "x", "y", title="demo").decode("ascii")
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert "demo" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_empty_trajectory(self):
        traj = Trajectory(np.zeros(0), ["x", "y"], np.zeros((0, 2)))
        svg = to_svg(traj, "x", "y").decode("ascii")
        assert "<polyline" not in svg


# ---------------------------------------------------------------------------
# the shared writers against the per-value writers they replaced
#
# Each reference below formats one value at a time with format(x, ".17g"),
# as the snake and trajectory exports did before they shared one writer, so
# the artifact bytes stay pinned across versions, not only between two runs.


def ref_fmt(x):
    return format(float(x), ".17g")


def ref_frame_to_csv(frame, s_grid=None):
    frame = np.asarray(frame, dtype=float)
    if s_grid is None:
        s_grid = np.arange(len(frame), dtype=float)
    lines = ["s,x,y"]
    for s, (px, py) in zip(s_grid, frame):
        lines.append(f"{ref_fmt(s)},{ref_fmt(px)},{ref_fmt(py)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def ref_svg_head(axes, title):
    W, H, margin = 800, 600, 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    if axes:
        parts += [
            f'<line x1="{margin}" y1="{H - margin}" x2="{W - margin}" '
            f'y2="{H - margin}" stroke="black"/>',
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{H - margin}" stroke="black"/>',
        ]
    if title:
        parts.append(f'<text x="{W // 2}" y="24" text-anchor="middle">{title}</text>')
    return parts


def ref_points(px, py):
    return " ".join(f"{ref_fmt(a)},{ref_fmt(b)}" for a, b in zip(px, py))


def ref_to_svg(traj, x_col, y_col, title=None):
    x, y = traj.column(x_col), traj.column(y_col)
    parts = ref_svg_head(True, title)
    if x.size:
        cx = 0.5 * (x.min() + x.max())
        cy = 0.5 * (y.min() + y.max())
        half = 0.5 * max(x.max() - x.min(), y.max() - y.min(), 1e-30)
        scale = min(800, 600) / 2.0 - 40
        px = (x - cx) / half * scale + 800 / 2.0
        py = -(y - cy) / half * scale + 600 / 2.0
        parts.append(f'<polyline points="{ref_points(px, py)}" fill="none" stroke="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode("ascii")


def ref_timelapse_svg(frames, title=None):
    frames = np.asarray(frames, dtype=float)
    parts = ref_svg_head(False, title)
    if frames.size:
        allx, ally = frames[:, :, 0], frames[:, :, 1]
        cx = 0.5 * (allx.min() + allx.max())
        cy = 0.5 * (ally.min() + ally.max())
        half = 0.5 * max(allx.max() - allx.min(), ally.max() - ally.min(), 1e-30)
        scale = min(800, 600) / 2.0 - 40
        for i, fr in enumerate(frames):
            px = (fr[:, 0] - cx) / half * scale + 800 / 2.0
            py = -(fr[:, 1] - cy) / half * scale + 600 / 2.0
            opacity = 0.15 + 0.85 * (i + 1) / len(frames)
            parts.append(f'<polyline points="{ref_points(px, py)}" fill="none" stroke="steelblue" '
                         f'stroke-opacity="{opacity:.3f}"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode("ascii")


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.nan,
           math.inf, -math.inf, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
# finite coordinates that keep the SVG map's arithmetic clear of overflow
coords = st.one_of(st.sampled_from(SPECIAL[:5] + SPECIAL[-2:]),
                   st.floats(-1e150, 1e150), st.floats(-10.0, 10.0))


def _block(data, shape, elements):
    size = math.prod(shape)
    return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestBytesAgainstPerValueWriters:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6), with_grid=st.booleans())
    def test_frame_to_csv(self, data, n, with_grid):
        frame = _block(data, (n, 2), values)
        s_grid = _block(data, (n,), values) if with_grid else None
        assert frame_to_csv(frame, s_grid) == ref_frame_to_csv(frame, s_grid)

    def test_frame_to_csv_of_empty_frames(self):
        for frame in ([], np.zeros((0, 2))):
            assert frame_to_csv(frame) == ref_frame_to_csv(frame) == b"s,x,y\n"
            assert frame_to_csv(frame, []) == ref_frame_to_csv(frame, []) == b"s,x,y\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 6), title=st.sampled_from([None, "", "demo"]),
           elements=st.sampled_from([coords, values]))
    def test_to_svg(self, data, n, title, elements):
        xy = _block(data, (n, 2), elements)
        traj = Trajectory(np.arange(n, dtype=float), ["x", "y"], xy)
        assert to_svg(traj, "x", "y", title) == ref_to_svg(traj, "x", "y", title)
        assert to_svg(traj, "t", "y", title) == ref_to_svg(traj, "t", "y", title)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), nf=st.integers(0, 4), n=st.integers(0, 5),
           title=st.sampled_from([None, "string"]), elements=st.sampled_from([coords, values]))
    def test_timelapse_svg(self, data, nf, n, title, elements):
        frames = _block(data, (nf, n, 2), elements)
        assert timelapse_svg(frames, title) == ref_timelapse_svg(frames, title)

    def test_special_values_in_every_writer(self):
        frame = np.array(SPECIAL).reshape(-1, 2)
        traj = Trajectory(np.arange(len(frame), dtype=float), ["x", "y"], frame)
        assert frame_to_csv(frame) == ref_frame_to_csv(frame)
        assert to_svg(traj, "x", "y") == ref_to_svg(traj, "x", "y")
        assert timelapse_svg([frame, frame[::-1]]) == ref_timelapse_svg([frame, frame[::-1]])
        finite = np.array(SPECIAL[:5] + SPECIAL[-3:]).reshape(-1, 2)
        traj = Trajectory(np.arange(len(finite), dtype=float), ["x", "y"], finite)
        assert to_svg(traj, "x", "y") == ref_to_svg(traj, "x", "y")
        assert b"nan" not in to_svg(traj, "x", "y")
