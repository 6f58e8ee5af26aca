"""Forward-mode dual numbers and exact Jacobians.

A ``Dual`` carries one directional derivative alongside its value.  Every
differentiation pass gets its own tag, so nested passes (Lie brackets of
Lie brackets) keep their perturbations separate and stay exact without any
finite-difference truncation.
"""

import itertools
import math

import numpy as np

from nonholo.errors import NonFinite

_TAGS = itertools.count(1)


def _tag_of(x):
    return x.tag if isinstance(x, Dual) else 0


def _parts(x, tag):
    if isinstance(x, Dual) and x.tag == tag:
        return x.val, x.dot
    return x, 0.0


class Dual:
    """value + derivative pair; arithmetic obeys the product/chain rule."""

    __slots__ = ("val", "dot", "tag")

    def __init__(self, val, dot=0.0, tag=0):
        self.val = val
        self.dot = dot
        self.tag = tag

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"

    def _binary(self, other, rule):
        tag = max(self.tag, _tag_of(other))
        a, b = _parts(self, tag)
        c, d = _parts(other, tag)
        val, dot = rule(a, b, c, d)
        return Dual(val, dot, tag)

    def __add__(self, other):
        return self._binary(other, lambda a, b, c, d: (a + c, b + d))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.dot, self.tag)

    def __sub__(self, other):
        return self._binary(other, lambda a, b, c, d: (a - c, b - d))

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, c, d: (c - a, d - b))

    def __mul__(self, other):
        return self._binary(other, lambda a, b, c, d: (a * c, a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        def rule(a, b, c, d):
            q = a / c
            return q, (b - q * d) / c

        return self._binary(other, rule)

    def __rtruediv__(self, other):
        def rule(a, b, c, d):
            q = c / a
            return q, (d - q * b) / a

        return self._binary(other, rule)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("dual powers are integer only")
        if k == 0:
            return Dual(1.0, 0.0, self.tag)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # analytic primitives; recurse so nested duals work

    def sin(self):
        return Dual(sin(self.val), cos(self.val) * self.dot, self.tag)

    def cos(self):
        return Dual(cos(self.val), -(sin(self.val)) * self.dot, self.tag)

    def tan(self):
        c = cos(self.val)
        return Dual(tan(self.val), self.dot / (c * c), self.tag)

    def exp(self):
        e = exp(self.val)
        return Dual(e, e * self.dot, self.tag)

    def log(self):
        return Dual(log(self.val), self.dot / self.val, self.tag)

    def sqrt(self):
        r = sqrt(self.val)
        return Dual(r, self.dot / (2.0 * r), self.tag)


def _dispatch(x, name, plain):
    if type(x) is float:
        return plain(x)
    method = getattr(x, name, None)
    if method is not None and not isinstance(x, np.ndarray):
        return method()
    return plain(x)


def sin(x):
    return _dispatch(x, "sin", math.sin)


def cos(x):
    return _dispatch(x, "cos", math.cos)


def tan(x):
    return _dispatch(x, "tan", math.tan)


def exp(x):
    return _dispatch(x, "exp", math.exp)


def log(x):
    return _dispatch(x, "log", math.log)


def sqrt(x):
    return _dispatch(x, "sqrt", math.sqrt)


def generic_jacobian(f, point):
    """Jacobian of ``f`` at ``point`` as nested lists.

    Entries keep whatever scalar type the evaluation produces, so the point
    itself may contain duals from an enclosing pass (nested differentiation).
    """
    n = len(point)
    tag = next(_TAGS)
    rows = None
    for j in range(n):
        seeded = list(point)
        seeded[j] = Dual(point[j], 1.0, tag)
        out = f(seeded)
        if rows is None:
            rows = [[None] * n for _ in range(len(out))]
        for i, y in enumerate(out):
            rows[i][j] = y.dot if (isinstance(y, Dual) and y.tag == tag) else 0.0
    return rows


def jacobian(f, point):
    """Exact derivative matrix of f: R^n -> R^m at a float point."""
    rows = generic_jacobian(f, [float(x) for x in point])
    mat = np.array(rows, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise NonFinite("jacobian has non-finite entries")
    return mat
