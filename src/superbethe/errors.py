"""Errors shared across modules."""


class DivisionByZero(ZeroDivisionError):
    """Exact division by an identically zero scalar (e.g. g(u,u))."""


class PoleAtZero(ArithmeticError):
    """An eps-limit was requested of a series with a known pole at eps=0."""


class PrecisionExhausted(ArithmeticError):
    """The kept eps-series coefficients do not determine a requested value:
    an eps-limit's constant term, or the leading term of a divisor."""


class CardinalityMismatch(ValueError):
    """Parameter sets whose sizes must agree do not."""


class ArityMismatch(ValueError):
    """Operator/vector arities do not match."""


class SignatureMismatch(ValueError):
    """Graded objects built over different signatures were combined."""


class SchemaError(ValueError):
    """Malformed input (a config or a formula table), located by a JSON pointer."""

    def __init__(self, message, pointer):
        super().__init__(f"{message} (at {pointer})")
        self.message = message
        self.pointer = pointer
