"""Exception types shared across the toolkit."""


class NonFinite(ArithmeticError):
    """A state, right-hand side, or derived quantity contains NaN/Inf."""


class DimensionMismatch(ValueError):
    """Operands live on charts of different dimension."""


class SteeringOutOfRange(ValueError):
    """Car steering angle left the open chart interval (-pi/4, pi/4)."""


class DomainExceeded(ValueError):
    """A curve parameter left the domain the path is defined on."""


class SingularGram(ArithmeticError):
    """A Gram, inertia or mass matrix is singular; the motion is undetermined."""


class FallingRank(ArithmeticError):
    """Ranks of a nested flag fell: the rank tolerance is too coarse to trust."""


class NegativeDensity(ArithmeticError):
    """Fluid density dropped to or below the positivity floor."""


class JetTableTooLarge(ValueError):
    """A jet product table would exceed its fixed size cap."""


class UnknownColumn(KeyError):
    """A referenced trajectory column does not exist."""


def at_time(t):
    """' at t = <t>', naming the time of a failing evaluation, or '' when none is known."""
    return "" if t is None else f" at t = {float(t)!r}"
