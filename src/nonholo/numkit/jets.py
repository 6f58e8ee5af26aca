"""Truncated multivariate Taylor polynomials (jets), stored densely.

Evaluating a chart map once on jet-valued coordinates yields its full Taylor
expansion at a point up to a degree budget.  Lie brackets of jet vector
fields are then exact polynomial algebra, which keeps deep derived-flag
computations cheap: the value at the base point of a bracket nested d deep
only needs the original fields expanded to degree d.

A jet keeps its coefficients in a float array in graded monomial order: the
constant term, then x_1 .. x_n, then the quadratic monomials, and so on
(descending lexicographic order within each degree).  The order does not
depend on the budget, so truncating a jet to a lower degree takes a prefix.
Leading array axes are components: a vector field's expansion is one jet
whose coefficients have shape (n, N), and a coefficient function evaluated
over a grid is one jet whose coefficients have the grid as leading axes.  A
plain operand of ``+ - * /`` is a number or an array of those leading axes.
A degree-d jet carries every derivative through order d, so it serves both
nested Lie brackets and single exact derivatives.

Products and derivatives run on index tables built once per number of
variables, lazily and vectorised (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).  The product table lists every
pair (a, b) of monomials with |a| + |b| <= deg, sorted by the index of a*b,
so a product truncated at degree d is a prefix of the table: one gather,
one multiply and one segmented sum.  A derivative d/dx_j is a gather plus a
scale.  The table holds C(2 nvars + deg, deg) pairs; tables above
``MAX_TABLE_PAIRS`` are refused with ``JetTableTooLarge``.
"""

import math
from dataclasses import dataclass

import numpy as np

from nonholo.errors import JetTableTooLarge

MAX_TABLE_PAIRS = 500_000


def n_monomials(nvars, deg):
    """Number of monomials in nvars variables of total degree <= deg."""
    return math.comb(nvars + deg, deg)


@dataclass(frozen=True)
class _Table:
    deg: int
    start: np.ndarray     # start[d]: index of the first monomial of degree d (length deg + 2)
    exps: np.ndarray      # (N, nvars) exponents in graded order
    left: np.ndarray      # product pairs (left[p], right[p]) -> monomial out[p], sorted by out
    right: np.ndarray
    seg: np.ndarray       # seg[c]: first pair whose product is monomial c
    npairs: np.ndarray    # npairs[d]: number of pairs with product degree <= d
    up: np.ndarray        # up[j, m]: index of m * x_j, for m of degree < deg
    scale: np.ndarray     # scale[j, m]: exponent of x_j in m * x_j

    def size(self, d):
        return int(self.start[d + 1])


# nvars -> the table of the largest degree built so far.  A table restricted
# to a lower degree equals the table built for that degree, pair order
# included, so results do not depend on which tables were built before.
_TABLES = {}


def _index(exps, start, comb):
    """Graded-order index of each exponent row of ``exps`` (shape (..., nvars))."""
    nvars = exps.shape[-1]
    rest = exps.sum(axis=-1, dtype=np.intp)
    idx = start[rest]
    for k in range(nvars - 1):
        # monomials of the same degree that precede: same exponents before
        # position k, a larger one at k
        rest = rest - exps[..., k]
        m = nvars - 1 - k
        idx = idx + comb[np.maximum(rest - 1, 0) + m, m] * (rest > 0)
    return idx


def check_table_size(nvars, deg):
    """Pairs in the product table of these jets; ``JetTableTooLarge`` above the cap."""
    pairs = math.comb(2 * nvars + deg, deg)
    if pairs > MAX_TABLE_PAIRS:
        raise JetTableTooLarge(
            f"degree-{deg} jets in {nvars} variables need a product table of "
            f"{pairs} pairs, above the cap of {MAX_TABLE_PAIRS}")
    return pairs


def _build(nvars, deg):
    pairs = check_table_size(nvars, deg)
    start = np.array([0] + [n_monomials(nvars, d) for d in range(deg + 1)], dtype=np.intp)
    size = int(start[-1])
    comb = np.array([[math.comb(a, b) for b in range(nvars + 1)]
                     for a in range(deg + nvars + 1)], dtype=np.intp)
    eye = np.eye(nvars, dtype=np.int16)

    exps = np.zeros((size, nvars), dtype=np.int16)
    for d in range(1, deg + 1):
        cand = (exps[start[d - 1]:start[d], None, :] + eye).reshape(-1, nvars)
        exps[_index(cand, start, comb)] = cand

    degree = exps.sum(axis=1, dtype=np.intp)
    counts = start[deg - degree + 1]
    left = np.repeat(np.arange(size), counts)
    right = np.arange(pairs) - np.repeat(np.cumsum(counts) - counts, counts)
    out = _index(exps[left] + exps[right], start, comb)
    order = np.lexsort((left, out))
    left, right, out = left[order], right[order], out[order]
    seg = np.searchsorted(out, np.arange(size))
    npairs = np.searchsorted(out, start[1:])

    below = exps[:start[deg]]
    up = _index(below[None, :, :] + eye[:, None, :], start, comb)
    scale = below.T + 1.0
    return _Table(deg, start, exps, left, right, seg, npairs, up, scale)


def _table(nvars, deg):
    """Index tables for nvars variables through at least degree deg."""
    table = _TABLES.get(nvars)
    if table is None or table.deg < deg:
        table = _TABLES[nvars] = _build(nvars, deg)
    return table


def _product(a, b, nvars, deg):
    t = _table(nvars, deg)
    p = t.npairs[deg]
    return np.add.reduceat(a[..., t.left[:p]] * b[..., t.right[:p]], t.seg[:t.size(deg)],
                           axis=-1)


def monomials(nvars, deg):
    """Exponents of the monomials of degree <= deg, in coefficient order."""
    return _table(nvars, deg).exps[:n_monomials(nvars, deg)].copy()


class Jet:
    """Polynomial in ``nvars`` variables, accurate through total degree ``deg``.

    ``coef[..., k]`` is the coefficient of the k-th monomial in graded order;
    leading axes, if any, index the components of a vector-valued jet.
    """

    __slots__ = ("nvars", "deg", "coef")

    def __init__(self, nvars, deg, coef=None):
        self.nvars = nvars
        self.deg = deg
        self.coef = np.zeros(n_monomials(nvars, deg)) if coef is None else coef

    @classmethod
    def constant(cls, c, nvars, deg):
        """Constant jet; an array ``c`` gives one constant per leading index."""
        c = np.asarray(c, dtype=float)
        coef = np.zeros(c.shape + (n_monomials(nvars, deg),))
        coef[..., 0] = c
        return cls(nvars, deg, coef)

    @property
    def value(self):
        """Value at the expansion point (the constant term); an array for vector jets."""
        v = self.coef[..., 0]
        return float(v) if v.ndim == 0 else v

    def __add__(self, other):
        if not isinstance(other, Jet):
            coef = self.coef.copy(order="K")  # keeps a grid jet's coefficient planes contiguous
            coef[..., 0] += other
            return Jet(self.nvars, self.deg, coef)
        if other.nvars != self.nvars:
            raise ValueError("jets on different variable sets")
        deg = min(self.deg, other.deg)
        m = n_monomials(self.nvars, deg)
        return Jet(self.nvars, deg, self.coef[..., :m] + other.coef[..., :m])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.deg, -self.coef)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.nvars, self.deg, self.coef * np.asarray(other)[..., None])
        if other.nvars != self.nvars:
            raise ValueError("jets on different variable sets")
        deg = min(self.deg, other.deg)
        return Jet(self.nvars, deg, _product(self.coef, other.coef, self.nvars, deg))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("jet powers are nonnegative integers")
        out = Jet.constant(1.0, self.nvars, self.deg)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i):
        """Partial derivative in variable i; degree budget drops by one."""
        if self.deg == 0:
            return Jet(self.nvars, 0, np.zeros_like(self.coef))
        t = _table(self.nvars, self.deg)
        m = t.size(self.deg - 1)
        return Jet(self.nvars, self.deg - 1, self.coef[..., t.up[i, :m]] * t.scale[i, :m])

    def _compose_series(self, *derivs):
        """sum d[k]/k! * (self - value)^k for each list d in ``derivs``, derivatives
        at the constant term; the powers are shared.  One jet per list."""
        g = self - self.value
        outs = [Jet.constant(d[0], self.nvars, self.deg) for d in derivs]
        gk = g
        for k in range(1, self.deg + 1):
            if k > 1:
                gk = gk * g
            if not gk.coef.any():
                break
            outs = [out + gk * (d[k] / math.factorial(k)) for out, d in zip(outs, derivs)]
        return outs

    def reciprocal(self):
        c = self.value
        derivs = [((-1.0) ** k) * math.factorial(k) / c ** (k + 1) for k in range(self.deg + 1)]
        return self._compose_series(derivs)[0]

    def sincos(self):
        """(sin, cos) series, sharing the powers of (self - value)."""
        c = self.value
        table = [math.sin(c), math.cos(c), -math.sin(c), -math.cos(c)]
        return self._compose_series([table[k % 4] for k in range(self.deg + 1)],
                                    [table[(k + 1) % 4] for k in range(self.deg + 1)])

    def sin(self):
        return self.sincos()[0]

    def cos(self):
        return self.sincos()[1]

    def tan(self):
        s, c = self.sincos()
        return s * c.reciprocal()

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, deg={self.deg}, {self.coef!r})"


def sincos(x):
    """(sin x, cos x) of a number, or the two series of a Jet from one set of powers."""
    return x.sincos() if type(x) is Jet else (math.sin(x), math.cos(x))


def sin(x):
    """sin of a number, or the sine series of a Jet."""
    return x.sin() if type(x) is Jet else math.sin(x)


def cos(x):
    """cos of a number, or the cosine series of a Jet."""
    return x.cos() if type(x) is Jet else math.cos(x)


def tan(x):
    """tan of a number, or the tangent series of a Jet."""
    return x.tan() if type(x) is Jet else math.tan(x)


def jet_variables(point, deg):
    """Coordinate jets x_i = p_i + X_i at ``point`` with budget ``deg``."""
    n = len(point)
    out = []
    for i, p in enumerate(point):
        jet = Jet.constant(p, n, deg)
        if deg > 0:
            jet.coef[1 + i] = 1.0
        out.append(jet)
    return out


def derivative_along(field, f):
    """sum_j field_j * df/dx_j: the derivative of jet ``f`` along a vector jet.

    ``field.coef`` has shape (nvars, N); ``f`` may be scalar or vector
    valued.  The result is accurate through one degree less than the
    inputs.  Components of ``field`` that vanish are skipped, and a factor
    that is constant scales the other instead of going through the product
    table, so sparse linear fields stay cheap.  Temporaries are at most
    (components of f) x (table pairs) in size.
    """
    nvars = field.nvars
    deg = min(field.deg, f.deg) - 1
    if deg < 0:
        raise ValueError("derivative of a degree-0 jet")
    t = _table(nvars, deg + 1)
    m, p = t.size(deg), t.npairs[deg]
    shape = f.coef.shape[:-1]
    fc = f.coef.reshape(-1, f.coef.shape[-1])
    out = np.zeros((fc.shape[0], m))
    acc = None
    # which field components and which partials df/dx_j vanish or are
    # constant, for every j in one pass (scale >= 1, so df vanishes where the
    # coefficients it gathers do)
    v = field.coef[:, :m] != 0
    d = (fc[:, :t.size(deg + 1)] != 0).any(axis=0)[t.up[:, :m]]
    nonzero = v.any(axis=1) & d.any(axis=1)
    for j, vj_varies, df_varies in zip(np.flatnonzero(nonzero).tolist(),
                                      v[nonzero, 1:].any(axis=1).tolist(),
                                      d[nonzero, 1:].any(axis=1).tolist()):
        vj = field.coef[j, :m]
        df = fc[:, t.up[j, :m]] * t.scale[j, :m]
        if not vj_varies:
            out += vj[0] * df
        elif not df_varies:
            out += df[:, :1] * vj
        else:
            if acc is None:
                acc = np.zeros((fc.shape[0], p))
            acc += vj[t.left[:p]] * df[:, t.right[:p]]
    if acc is not None:
        out += np.add.reduceat(acc, t.seg[:m], axis=-1)
    return Jet(nvars, deg, out.reshape(shape + (m,)))
