"""Vector-field calculus on charts: brackets, derived flags, named systems.

Fields evaluate on plain floats and on jets (truncated Taylor expansions).
Jets are the one differentiation mechanism: a Lie bracket's expansion is the
bracket of its factors' expansions one degree higher, so brackets nest to any
depth exactly, and the derived-flag computation brackets the generators'
jets directly.  All the named distributions here are rank 2:
unicycle-with-trailers, car (steer/drive), the bracket normal form with unit
growth, and the jet-space tangency distribution.
"""

from dataclasses import dataclass

import numpy as np

from nonholo.errors import DimensionMismatch, SteeringOutOfRange
from nonholo.numkit import Jet, jet_variables, numerical_rank
from nonholo.numkit.jets import (
    check_table_size, cos, derivative_along, n_monomials, sincos, tan)
from nonholo.numkit.rank import DEFAULT_RANK_TOL


def scalar_value(x):
    """Float value of a number, or of a Jet at its expansion point."""
    return x.value if type(x) is Jet else float(x)


@dataclass
class VectorField:
    """Smooth map on a chart, evaluable on floats and jets."""

    dim: int
    func: callable
    label: str = ""

    def __call__(self, point):
        if len(point) != self.dim:
            raise DimensionMismatch(f"{self.label or 'field'} expects dim {self.dim}")
        return self.func(point)

    def values(self, point):
        """Plain float evaluation as a list of floats."""
        return [scalar_value(c) for c in self(list(point))]

    def at(self, point):
        """Plain float evaluation as a numpy vector."""
        return np.array(self.values(point), dtype=float)

    def jet(self, point, deg):
        """Taylor expansion at ``point`` through total degree ``deg``, as one vector jet."""
        return field_jet(self, point, deg)


@dataclass
class Distribution:
    """Span of a list of generator fields on a common chart."""

    generators: list

    def __post_init__(self):
        if not self.generators:
            raise ValueError("distribution needs at least one generator")
        dims = {g.dim for g in self.generators}
        if len(dims) != 1:
            raise DimensionMismatch("generators live on different charts")

    @property
    def dim(self):
        return self.generators[0].dim


@dataclass
class FlagReport:
    point: list
    dims: list
    goursat: bool
    depth_used: int
    tol: float

    def as_dict(self):
        return {
            "point": [float(x) for x in self.point],
            "dims": list(self.dims),
            "goursat": self.goursat,
            "depth_used": self.depth_used,
            "tol": self.tol,
        }


class _Bracket(VectorField):
    """[V, W], evaluable at float points.

    Its expansion through degree d brackets the factors' expansions through
    d + 1, so a bracket nested k deep expands the original fields to degree k.
    """

    def __init__(self, V, W):
        super().__init__(V.dim, lambda p: self.jet(p, 0).value.tolist(),
                         f"[{V.label or 'V'},{W.label or 'W'}]")
        self.factors = (V, W)

    def jet(self, point, deg):
        V, W = self.factors
        return jet_bracket(V.jet(point, deg + 1), W.jet(point, deg + 1))


def lie_bracket(V, W):
    """[V, W] = (DW)V - (DV)W, exact: polynomial algebra on the fields' jets."""
    if V.dim != W.dim:
        raise DimensionMismatch("bracket of fields on different charts")
    return _Bracket(V, W)


# ---------------------------------------------------------------------------
# jet-side machinery for derived flags


def field_jet(V, point, deg):
    """Taylor expansion of V at point through total degree deg, as one vector jet."""
    n = V.dim
    coef = np.zeros((n, n_monomials(n, deg)))
    for row, c in zip(coef, V(jet_variables([float(x) for x in point], deg))):
        if isinstance(c, Jet):
            row[:] = c.coef
        else:
            row[0] = c
    return Jet(n, deg, coef)


def jet_bracket(vj, wj):
    """Bracket [V, W] = V(W) - W(V) of two field jets (exact polynomial algebra)."""
    return derivative_along(vj, wj) - derivative_along(wj, vj)


def derived_flag(dist, point, max_depth=None, tol=DEFAULT_RANK_TOL):
    """Pointwise dimensions of D, D + [D,D], ... at ``point``.

    Generators and their accumulated brackets are kept as jets, so the
    bracket algebra is exact polynomial arithmetic.  Before each level the
    accumulated list is reduced to a pointwise frame (deterministic greedy
    selection in creation order), which spans the same sheaf near a generic
    point, and only frame pairs not bracketed at an earlier level are
    bracketed.  The list only grows, so the frame is kept across levels and
    each level tests only the values appended since the last one; its scan
    stops once it holds n vectors, as n + 1 vectors in R^n cannot raise the
    rank (see ``_Frame``).  Stops once the chart dimension is reached, the
    dimensions stagnate or the jets' degree budget is spent (each level uses
    one degree; ranks relative to a large ``tol`` can fall as vectors are
    added).

    The jets need a product table of C(2n + b, b) index pairs for chart
    dimension n and degree budget b (n - 2 for rank-2 distributions); above
    ``MAX_TABLE_PAIRS`` (500 000; the trailer system with 6 trailers, n = 9,
    needs 480 700) ``JetTableTooLarge`` is raised before any table is built.
    """
    n = dist.dim
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    point = [float(x) for x in point]

    dims0 = numerical_rank([g.at(point) for g in dist.generators], tol)
    budget = n - dims0 if max_depth is None else min(max_depth, n)

    check_table_size(n, budget)  # before the coefficient arrays, which grow as fast
    jets = [g.jet(point, budget) for g in dist.generators]
    values = [jf.value for jf in jets]
    frame = _Frame(n, tol)
    bracketed = set()
    dims = [dims0]
    depth = 0

    while depth < budget and dims[-1] < n:
        depth += 1
        frame_idx = frame.extend(values)
        for a, i in enumerate(frame_idx):
            for j in frame_idx[a + 1 :]:
                if (i, j) not in bracketed:
                    bracketed.add((i, j))
                    jets.append(jet_bracket(jets[i], jets[j]))
                    values.append(jets[-1].value)
        dims.append(numerical_rank(values, tol))
        if dims[-1] == dims[-2]:
            break

    expected = list(range(2, min(n, 2 + depth) + 1))
    goursat = dims == expected
    return FlagReport(point=point, dims=dims, goursat=goursat, depth_used=depth, tol=tol)


class _Frame:
    """Greedy pointwise frame of a growing list of vectors in R^n, in list order.

    A vector joins when it raises the numerical rank of the vectors chosen
    before it.  The list only grows, so each ``extend`` tests only the vectors
    appended since the last one and gives the indices a scan of the whole
    list from the start would give.  Once n vectors are chosen none can join
    (n + 1 vectors in R^n have rank at most n), so the scan stops there.
    """

    def __init__(self, n, tol):
        self.n, self.tol = n, tol
        self.idx, self.chosen, self.scanned = [], [], 0

    def extend(self, values):
        """Indices of the frame of ``values``, which extends the list of the last call."""
        while self.scanned < len(values) and len(self.idx) < self.n:
            v = values[self.scanned]
            if numerical_rank(self.chosen + [v], self.tol) > len(self.idx):
                self.idx.append(self.scanned)
                self.chosen.append(v)
            self.scanned += 1
        return self.idx


# ---------------------------------------------------------------------------
# named systems


def unicycle_fields():
    """Rotation and heading-drive fields on R^2 x S^1, chart (x, y, theta0): no trailers."""
    return trailer_fields(0)


def _tow(q, n, out):
    """Fill out[0..n+1] with the velocity of a unit-speed head at angle q[2 + n]
    towing n trailers: iterate the prolongation downward, each relative angle
    converting speed into rotation of the next trailer."""
    v = 1.0
    for k in range(n, 0, -1):
        s, c = sincos(q[2 + k] - q[1 + k])
        out[1 + k] = v * s
        v = v * c
    s, c = sincos(q[2])
    out[0] = v * c
    out[1] = v * s
    return out


def trailer_fields(n):
    """Unicycle towing n trailers; chart (x, y, theta_0, ..., theta_n).

    (x, y) is the last trailer's axle; theta_i are absolute axle angles from
    the last trailer up to the towing unicycle.  Built by the one-trailer-at-
    a-time recursion with unit hitch distances.
    """
    if n < 0:
        raise ValueError("trailer count must be >= 0")
    dim = n + 3
    f1 = VectorField(dim, lambda q: [0.0] * (dim - 1) + [1.0], f"tau{n}_1")
    f2 = VectorField(dim, lambda q: _tow(q, n, [0.0] * dim), f"tau{n}_2")
    return Distribution([f1, f2])


STEER_LIMIT = np.pi / 4


def _check_steering(phi_value):
    if abs(phi_value) >= STEER_LIMIT:
        raise SteeringOutOfRange(f"steering angle {phi_value:.4f} outside (-pi/4, pi/4)")


def car_fields(l=1.0):
    """Steer and drive fields of a car, chart (x, y, theta, phi): no trailers."""
    return car_trailer_fields(0, l)


def car_turn_park(l=1.0):
    """Closed forms of the first two bracket fields of (steer, drive).

    turn = h(phi) d/dtheta and park = h(phi)(sin theta d/dx - cos theta d/dy)
    with h(phi) = 1 / (l cos^2 phi).
    """

    def turn(q):
        c = cos(q[3])
        h = 1.0 / (l * c * c)
        return [0.0, 0.0, h, 0.0]

    def park(q):
        c = cos(q[3])
        h = 1.0 / (l * c * c)
        sn, cs = sincos(q[2])
        return [h * sn, -(h * cs), 0.0, 0.0]

    return VectorField(4, turn, "turn"), VectorField(4, park, "park")


def car_trailer_fields(n, l=1.0):
    """Car towing n trailers; chart (x, y, theta_0, ..., theta_n, phi).

    The car's rear axle is the towing head (angle theta_n); trailers hitch
    rear-axle-center to axle-center at unit distance, as in trailer_fields.
    """
    if n < 0:
        raise ValueError("trailer count must be >= 0")
    if l <= 0:
        raise ValueError("axle span l must be positive")
    dim = n + 4

    steer = VectorField(dim, lambda q: [0.0] * (dim - 1) + [1.0], "steer")

    def drive(q):
        _check_steering(scalar_value(q[dim - 1]))
        out = _tow(q, n, [0.0] * dim)
        out[2 + n] = tan(q[dim - 1]) * (1.0 / l)
        return out

    return Distribution([steer, VectorField(dim, drive, "drive")])


def goursat_normal_form(n):
    """The unit-growth normal-form pair on R^n (coordinates x_1..x_n):
    e_n and e_1 + sum_{k>=3} x_k e_{k-1}, the Cartan fields of jet order n - 2."""
    if n < 3:
        raise ValueError("normal form needs dimension >= 3")
    return cartan_distribution(n - 2)


def cartan_distribution(s):
    """Jet-space tangency distribution on R^{s+2}, chart (x, y, z_1..z_s).

    Realized by the two kernel fields of the contact forms
    dz_{i-1} - z_i dx: X1 = d/dz_s and X2 = d/dx + z_1 d/dy + z_2 d/dz_1 +
    ... + z_s d/dz_{s-1}.
    """
    if s < 1:
        raise ValueError("jet order s must be >= 1")
    dim = s + 2

    x1 = VectorField(dim, lambda q: [0.0] * (dim - 1) + [1.0], "dz_s")

    def x2(q):
        out = [0.0] * dim
        out[0] = 1.0
        for j in range(1, s + 1):
            out[j] = q[j + 1]
        return out

    return Distribution([x1, VectorField(dim, x2, "total-derivative")])


def cartan_form_residuals(s, point, vector):
    """Values of the s contact forms on ``vector`` at ``point``."""
    return [vector[i] - point[i + 1] * vector[0] for i in range(1, s + 1)]


def forgetful_projection_check(point4, l=1.0, tol=None):
    """Residual of pushing the car's first prolongation down to the unicycle.

    Pushes (steer, drive, turn) at ``point4`` forward under
    (x, y, theta, phi) -> (x, y, theta) and measures the worst distance of
    the (normalized) pushed vectors from the span of the unicycle pair at
    the projected point.  Also returns the projected rank.
    """
    dist_c = car_fields(l)
    turn, _ = car_turn_park(l)
    gens = list(dist_c.generators) + [turn]
    pushed = [g.at(point4)[:3] for g in gens]

    base = unicycle_fields()
    span = np.column_stack([g.at(point4[:3]) for g in base.generators])

    worst = 0.0
    for v in pushed:
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        u = v / nv
        coef, *_ = np.linalg.lstsq(span, u, rcond=None)
        worst = max(worst, float(np.linalg.norm(span @ coef - u)))
    rank = numerical_rank(pushed, tol or DEFAULT_RANK_TOL)
    return worst, rank
