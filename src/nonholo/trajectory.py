"""Time-stamped state sequences with an attached invariant ledger, and the
byte format of every CSV and SVG artifact.

The CSV layout is the toolkit's wire format: an optional header line of
column names (``t,<state columns>,<ledger columns>`` for a trajectory), rows
printed with 17 significant digits so 64-bit floats round-trip bit-exactly,
LF line endings, '.' decimal separator.  SVGs draw planar curves on one
800x600 canvas with an equal-aspect map over all of them.
"""

from dataclasses import dataclass, field

import numpy as np

from nonholo.errors import UnknownColumn


@dataclass
class Trajectory:
    times: np.ndarray
    columns: list
    states: np.ndarray            # shape (len(times), len(columns))
    ledger: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.size == 0:
            self.states = self.states.reshape(0, len(self.columns))
        if self.states.shape != (self.times.size, len(self.columns)):
            raise ValueError("state block does not match times/columns")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for name, series in self.ledger.items():
            series = np.asarray(series, dtype=float)
            if series.shape != self.times.shape:
                raise ValueError(f"ledger series {name!r} length mismatch")
            self.ledger[name] = series

    def __len__(self):
        return self.times.size

    def column(self, name):
        if name == "t":
            return self.times
        if name in self.columns:
            return self.states[:, self.columns.index(name)]
        if name in self.ledger:
            return self.ledger[name]
        raise UnknownColumn(name)

    @property
    def final_state(self):
        return self.states[-1]

    def ledger_extremes(self):
        out = {}
        for name, series in self.ledger.items():
            if series.size:
                out[name] = {"min": float(series.min()), "max": float(series.max())}
        return out


def csv_bytes(header, block):
    """CSV of a 2-D float block under the column names ``header`` (no header line if empty).

    ``%.17g`` prints each value as ``format(x, ".17g")`` does, and converting
    one row at a time keeps no whole-block list of floats.
    """
    block = np.asarray(block, dtype=float)
    line = b",".join([b"%.17g"] * block.shape[1]) + b"\n"
    lines = [line % tuple(row.tolist()) for row in block]
    if header:
        lines.insert(0, ",".join(header).encode("ascii") + b"\n")
    return b"".join(lines)


def to_csv(traj):
    """Serialize to bytes; deterministic and locale-independent."""
    block = np.column_stack([traj.times, traj.states, *traj.ledger.values()])
    return csv_bytes(["t", *traj.columns, *traj.ledger], block)


_SVG_W, _SVG_H = 800, 600
_MARGIN = 40


def svg_bytes(curves, title=None, axes=False, styles=None):
    """Standalone SVG of planar curves, each an (n, 2) array of points.

    One equal-aspect map fits all curves into the canvas.  ``axes`` draws
    the two axis lines, and ``styles[i]`` is appended to curve i's polyline
    attributes.
    """
    curves = [np.asarray(c, dtype=float).reshape(-1, 2) for c in curves]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if axes:
        parts += [
            f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
            f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
            f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
            f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        ]
    if title:
        parts.append(f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle">{title}</text>')
    xy = np.concatenate(curves) if curves else np.zeros((0, 2))
    if xy.size:
        x, y = xy[:, 0], xy[:, 1]
        cx = 0.5 * (x.min() + x.max())
        cy = 0.5 * (y.min() + y.max())
        half = 0.5 * max(x.max() - x.min(), y.max() - y.min(), 1e-30)
        scale = min(_SVG_W, _SVG_H) / 2.0 - _MARGIN
        for i, c in enumerate(curves):
            px = (c[:, 0] - cx) / half * scale + _SVG_W / 2.0
            py = -(c[:, 1] - cy) / half * scale + _SVG_H / 2.0
            pts = " ".join(["%.17g,%.17g" % p for p in zip(px.tolist(), py.tolist())])
            style = styles[i] if styles else ""
            parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue"{style}/>')
    parts.append("</svg>")
    return "\n".join(parts).encode("ascii")


def to_svg(traj, x_col, y_col, title=None):
    """Standalone SVG polyline of two columns, with axis lines."""
    curve = np.column_stack([traj.column(x_col), traj.column(y_col)])
    return svg_bytes([curve], title, axes=True)
