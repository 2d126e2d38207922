"""Exact rational scalars.

Every lattice value, polynomial coefficient and invariant in this package is
an arbitrary-precision rational.  ``gmpy2.mpq`` is used when available (its
speed relative to ``Fraction`` on this package has not been measured); the
stdlib ``fractions.Fraction`` is a drop-in fallback with identical semantics:
always reduced, positive denominator, exact field arithmetic.
"""

from __future__ import annotations

import re

try:  # pragma: no cover - environment dependent
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational

__all__ = ["Rational", "rat", "parse_rational", "format_rational"]

_WIRE_FORM = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def rat(numerator, denominator=1):
    """Build a Rational from integers (or pass an existing one through)."""
    return Rational(numerator, denominator)


def parse_rational(text: str):
    """Parse the wire form ``"p/q"`` (denominator omitted when 1) exactly as
    ``format_rational`` writes it: no exponent, decimal point, underscore,
    plus sign, whitespace, leading zero, ``"-0"`` or unreduced fraction."""
    if isinstance(text, str) and _WIRE_FORM.fullmatch(text):
        value = Rational(text)
        if format_rational(value) == text:
            return value
    raise ValueError(f"not a rational: {text!r}")


def format_rational(value) -> str:
    """Wire form ``"p/q"``; plain ``"p"`` when the denominator is 1."""
    return str(value)
