"""Exact rationals.

All spectral parameters, inhomogeneities, twists and residuals live in Q, as
fractions.Fraction. A Fraction keeps its denominator positive and itself
reduced after every operation, and prints as "p/q" with the sign on the
numerator ("p" when q == 1), which is the wire format used in configs and
reports.
"""

from __future__ import annotations

import re
from fractions import Fraction

BACKEND = "fractions"

_RAT_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rat(p, q=1):
    """Exact rational p/q. The two-argument Fraction refuses a float or a
    string, so no inexact value becomes an exact parameter here."""
    return Fraction(p, q)


ZERO = rat(0)
ONE = rat(1)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def rat_from_str(s: str):
    """Parse the "p/q" wire format (q omitted when 1, sign on p only)."""
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    if "/" in s:
        p, q = s.split("/")
        return rat(int(p), int(q))
    return rat(int(s))


def rat_to_str(x) -> str:
    return str(rat(x))
