"""Exact rational scalars: the coefficient field of the whole engine.

Every coefficient that the engine stores or reports lives in Q.  We use
:class:`fractions.Fraction`, which already guarantees the canonical form we
rely on for equality testing: arbitrary-precision integers, reduced terms and
a positive denominator after every operation.  ``str`` prints that form,
``p/q`` or ``p`` for an integer, so reports format a value in an f-string.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Rational:
    """Parse ``"num"`` or ``"num/den"`` into an exact rational.

    Decimal notation is rejected on purpose: a decimal literal would silently
    enter the exact layer as a binary float.  Callers get a hint to rewrite
    ``0.25`` as ``1/4``.
    """
    cleaned = text.strip()
    if not _RATIONAL_RE.match(cleaned):
        if re.match(r"^[+-]?\d*\.\d+$", cleaned):
            raise ValueError(
                f"decimal input {text!r} not accepted; use an exact fraction "
                f"such as 1/4"
            )
        raise ValueError(f"cannot parse {text!r} as an exact rational")
    return Fraction(cleaned)
