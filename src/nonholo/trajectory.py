"""Time-stamped state sequences with an attached invariant ledger.

The CSV layout is the toolkit's wire format: header ``t,<state columns>,
<ledger columns>``, rows printed with 17 significant digits so 64-bit floats
round-trip bit-exactly, LF line endings, '.' decimal separator.
"""

from dataclasses import dataclass, field

import numpy as np

from nonholo import __version__
from nonholo.errors import UnknownColumn


@dataclass
class Trajectory:
    times: np.ndarray
    columns: list
    states: np.ndarray            # shape (len(times), len(columns))
    ledger: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

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
        self.meta.setdefault("code_version", __version__)

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


def _fmt(x):
    return format(float(x), ".17g")


def _csv_lines(block):
    """One CSV line per row of a 2-D float block; ``%.17g`` prints each value as ``_fmt``
    does, and converting one row at a time keeps no whole-block list of floats."""
    block = np.asarray(block, dtype=float)
    line = b",".join([b"%.17g"] * block.shape[1]) + b"\n"
    return [line % tuple(row.tolist()) for row in block]


def to_csv(traj):
    """Serialize to bytes; deterministic and locale-independent."""
    header = ",".join(["t"] + list(traj.columns) + list(traj.ledger.keys())) + "\n"
    block = np.column_stack([traj.times, traj.states, *traj.ledger.values()])
    return b"".join([header.encode("ascii"), *_csv_lines(block)])


def from_csv(data, n_state_columns=None, meta=None):
    """Parse bytes produced by ``to_csv``.

    Ledger columns cannot be told apart from state columns by syntax alone;
    ``n_state_columns`` splits the header (default: everything after t is
    state).
    """
    text = data.decode("ascii")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    if header[0] != "t":
        raise ValueError("first column must be t")
    names = header[1:]
    k = len(names) if n_state_columns is None else n_state_columns
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    times = arr[:, 0]
    states = arr[:, 1 : 1 + k]
    ledger = {name: arr[:, 1 + k + j] for j, name in enumerate(names[k:])}
    return Trajectory(times, names[:k], states, ledger, meta or {})


_SVG_W, _SVG_H = 800, 600
_MARGIN = 40


def to_svg(traj, x_col, y_col, title=None):
    """Standalone SVG polyline of two columns, equal-aspect data mapping."""
    x = traj.column(x_col)
    y = traj.column(y_col)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle">{title}</text>')
    if x.size:
        cx = 0.5 * (x.min() + x.max())
        cy = 0.5 * (y.min() + y.max())
        half = 0.5 * max(x.max() - x.min(), y.max() - y.min(), 1e-30)
        scale = min(_SVG_W, _SVG_H) / 2.0 - _MARGIN
        px = (x - cx) / half * scale + _SVG_W / 2.0
        py = -(y - cy) / half * scale + _SVG_H / 2.0
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts).encode("ascii")
