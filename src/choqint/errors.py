"""Exception types shared across the package."""


class ChoqintError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ChoqintError, ValueError):
    """A caller's argument is refused: a grid, origin, window, tolerance or
    config value outside what the function takes.  A :class:`ValueError`,
    so ``except ValueError`` still catches it; a failed check of the
    program's own invariants stays a plain ``ValueError``."""


class ParseError(ChoqintError):
    """Malformed expression source.

    Carries the byte offset into the UTF-8 encoding of the source, a
    description of what was expected, and what was found instead.  The
    message is deterministic for a given input.
    """

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"expected {expected} at offset {offset}, found {found}")


#: the reason of a DomainError whose value overflowed: a numerical failure,
#: where every other reason means the input is undefined at the point
NON_FINITE_RESULT = "non-finite result"


class DomainError(ChoqintError):
    """Evaluation left the mathematical domain (sqrt of a negative, ln of a
    non-positive, zero raised to a negative power, division by zero, or an
    overflow to a non-finite value).  The message shows at most the first
    200 characters of the subexpression."""

    def __init__(self, subexpression: str, point: float, reason: str):
        self.subexpression = subexpression
        self.point = point
        self.reason = reason
        shown = subexpression if len(subexpression) <= 200 else subexpression[:200] + "..."
        super().__init__(f"{reason} in '{shown}' at t = {point!r}")


class NonDifferentiableError(ChoqintError):
    """The expression contains a primitive with no symbolic derivative here."""


class InvalidDistortionError(ChoqintError):
    """The distortion fails m(0) = 0, nonnegativity, or monotonicity."""


class NotInFPlusError(ChoqintError):
    """A function required to be nonnegative, nondecreasing and continuous
    on its working interval failed the certificate."""


class InvalidIntervalError(InvalidArgumentError):
    """A split point of the interval [a, t] lies outside it."""


class DivergentIntegralError(ChoqintError):
    """Quadrature refinement failed to converge, or no finite truncation
    window exists for a transform integrand."""


class NonPositiveSError(ChoqintError):
    """Laplace transforms are evaluated for s > 0 only."""


class OriginNotZeroError(ChoqintError):
    """The inverse problems require f(a) = 0."""


class GVanishesError(ChoqintError):
    """The transform in a denominator vanished at a required node."""
