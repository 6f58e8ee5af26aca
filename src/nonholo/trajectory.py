"""Time-stamped state sequences with an attached invariant ledger, and the
byte format of every CSV and SVG artifact.

The CSV layout is the toolkit's wire format: an optional header line of
column names (``t,<state columns>,<ledger columns>`` for a trajectory), rows
printed with 17 significant digits so 64-bit floats round-trip bit-exactly,
LF line endings, '.' decimal separator.  SVGs draw planar curves on one
800x600 canvas with an equal-aspect map over all of them.

Each format has one writer, ``write_csv(fh, ...)`` and ``write_svg(fh, ...)``,
that streams the artifact to an open binary file a chunk of rows at a time;
``render`` returns the bytes of any writer, and ``to_csv``/``to_svg`` are
those of a trajectory.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from nonholo.errors import NonFinite, UnknownColumn


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
            bad = ~np.isfinite(series)
            if bad.any():
                raise NonFinite(f"non-finite values in ledger column {name!r} "
                                f"from t = {float(self.times[bad.argmax()])!r}")
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


# rows formatted per write: the lines of one chunk, never of the whole block,
# are alive at once
_CHUNK_ROWS = 256


def render(write, *args, **kwargs):
    """The bytes that ``write(fh, *args, **kwargs)`` writes to a binary file."""
    fh = io.BytesIO()
    write(fh, *args, **kwargs)
    return fh.getvalue()


def write_csv(fh, header, columns):
    """Write the CSV of float columns under the names ``header`` (no header
    line if empty) to the binary file ``fh``.

    ``columns`` are 1-D or 2-D arrays with one row per CSV row, laid side by
    side.  ``%.17g`` prints each value as ``format(x, ".17g")`` does; the
    columns are stacked and formatted one chunk of rows at a time.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    columns = [c if c.ndim == 2 else c[:, None] for c in columns]
    if header:
        fh.write(",".join(header).encode("ascii") + b"\n")
    line = b",".join([b"%.17g"] * sum(c.shape[1] for c in columns)) + b"\n"
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, _CHUNK_ROWS):
        chunk = np.hstack([c[start:start + _CHUNK_ROWS] for c in columns])
        fh.write(b"".join([line % tuple(row) for row in chunk.tolist()]))


def write_traj_csv(fh, traj):
    """Write the trajectory's CSV: t, the state columns, the ledger columns."""
    write_csv(fh, ["t", *traj.columns, *traj.ledger],
              [traj.times, traj.states, *traj.ledger.values()])


def to_csv(traj):
    """Serialize to bytes; deterministic and locale-independent."""
    return render(write_traj_csv, traj)


_SVG_W, _SVG_H = 800, 600
_MARGIN = 40


def write_svg(fh, curves, title=None, axes=False, styles=None):
    """Write a standalone SVG of planar curves, each an (n, 2) array of
    points, to the binary file ``fh``.

    One equal-aspect map fits all curves into the canvas.  ``axes`` draws
    the two axis lines, and ``styles[i]`` is appended to curve i's polyline
    attributes.  Each curve's points are formatted one chunk at a time.
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
    fh.write("\n".join(parts).encode("ascii"))
    xy = np.concatenate(curves) if curves else np.zeros((0, 2))
    if xy.size:
        x, y = xy[:, 0], xy[:, 1]
        cx = 0.5 * (x.min() + x.max())
        cy = 0.5 * (y.min() + y.max())
        half = 0.5 * max(x.max() - x.min(), y.max() - y.min(), 1e-30)
        scale = min(_SVG_W, _SVG_H) / 2.0 - _MARGIN
        for i, c in enumerate(curves):
            fh.write(b'\n<polyline points="')
            for start in range(0, len(c), _CHUNK_ROWS):
                part = c[start:start + _CHUNK_ROWS]
                px = (part[:, 0] - cx) / half * scale + _SVG_W / 2.0
                py = -(part[:, 1] - cy) / half * scale + _SVG_H / 2.0
                pts = " ".join(["%.17g,%.17g" % p for p in zip(px.tolist(), py.tolist())])
                fh.write(((" " if start else "") + pts).encode("ascii"))
            style = styles[i] if styles else ""
            fh.write(f'" fill="none" stroke="steelblue"{style}/>'.encode("ascii"))
    fh.write(b"\n</svg>")


def write_traj_svg(fh, traj, x_col, y_col, title=None):
    """Write a standalone SVG polyline of two columns, with axis lines."""
    curve = np.column_stack([traj.column(x_col), traj.column(y_col)])
    write_svg(fh, [curve], title, axes=True)


def to_svg(traj, x_col, y_col, title=None):
    """Standalone SVG polyline of two columns, with axis lines, as bytes."""
    return render(write_traj_svg, traj, x_col, y_col, title)
