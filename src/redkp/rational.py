"""Exact rational scalars.

Every lattice value, polynomial coefficient and invariant in this package is
an arbitrary-precision rational: always reduced, positive denominator, exact
field arithmetic.

The one number type is ``Rational``, a ``fractions.Fraction`` subclass whose
``+ - * /``, unary ``-``, ``abs``, ``**`` by an int and ``==`` with a
``Rational`` or ``int`` operand run straight on the ``_numerator`` and
``_denominator`` slots and return a ``Rational``.  Products and quotients
make the gcd reductions of ``Fraction._mul`` and ``_div`` (Knuth, TAOCP
Vol. 2, 4.5.1); sums and differences reach the reduced pair of
``Fraction._add`` and ``_sub`` by one divmod where those take a second gcd
and two divisions (``_sum``).  So every value is the one ``Fraction``
computes, with no operator-fallback dispatch, ``numbers.Rational`` check or
``Fraction.__new__``.  Any other operand (``Fraction``, float, ...) takes
``Fraction``'s own method and gets its result.  On small operands an
operation takes 0.3 of ``Fraction``'s time (0.3-0.4 us against 1.1-1.2 us
for + - * / of two values, best of 24 runs, Python 3.11.7, x86-64); at 1000
bits 0.94, and at 10000 bits 1.0, where the gcds dominate.  A quotient by
zero takes ``Fraction``'s own method, so it raises the running Python's
``ZeroDivisionError`` message.

``from_coprime`` builds a reduced pair by setting its slots, with no gcd;
``parse_rational``, the determinant coefficients of ``polymatrix`` and the
slice products of ``lattice`` use it.

``format_rational`` writes a numerator or denominator past ``_LEAF_BITS``
bits by divide and conquer, as ``int.__str__`` takes time quadratic in the
digit count: n = hi·10^k + lo, k a power of two below n's digit count, lo's
digits zero-padded to k places, until plain ``str`` writes pieces of at
most ``_LEAF_BITS`` bits.  As 10^k = 5^k·2^k, hi and lo come from one
divmod of n >> k by 5^k, cached in ``_POW5``, and the k low bits of n: the
divisor is 30% shorter than 10^k, and so is the schoolbook division's time.
An int that may have more digits than ``sys.get_int_max_str_digits()``
allows (bits·log10 2 >= limit - 1, ``may_pass_digit_cap``, which ``evolve``
also asks of each step) goes to plain ``str`` whole, so the same value
fails first, with CPython's own ``ValueError``; this module never
sets that limit, and a Python without it has none.  A value with both
parts within the leaf is written as ``Fraction.__str__`` writes it, after
one bit-length test.  The leaf was read off ``to_json_dict`` of the 72
sub-cap ``evolve-deep`` histories of bench seeds 5-7 (three passes each),
against plain ``str``, over 10 interleaved rounds (Python 3.11.7, x86-64):

    leaf bits   1000   1500   2000   2500   3000   3500   4000
    time       x0.80  x0.76  x0.74  x0.74  x0.73  x0.78  x0.79

Per int the split takes x0.84 of ``str``'s time at 4000 bits, x0.74 at
6000 and x0.58-0.65 at 8000-14 000.  A divmod by 10^k itself read x0.86
with the 3000-bit leaf, and x0.75 per int at 8000-14 000 bits.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, log10

__all__ = ["Rational", "rat", "parse_rational", "format_rational"]

_WIRE_FORM = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")
_new = object.__new__


class Rational(Fraction):
    """``Fraction`` with its field operations on the slots; see the module
    docstring."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is Rational:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            # the int first: _sum's gcd(1, d) returns at once on CPython
            # 3.10-3.12, where gcd(d, 1) takes a pass over d
            return _sum(b, 1, a._numerator, a._denominator)
        return Fraction.__add__(a, b)

    # addition and multiplication commute, so each is its own reflection
    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Rational:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if type(b) is int:
            return _sum(-b, 1, a._numerator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            return _sum(a, 1, -b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if type(b) is Rational:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return _product(b, 1, a._numerator, a._denominator)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    # a zero divisor takes Fraction's own method, and so the running
    # Python's ZeroDivisionError message

    def __truediv__(a, b):
        if type(b) is Rational and b._numerator:
            return _product(a._numerator, a._denominator, b._denominator, b._numerator)
        if type(b) is int and b:
            return _product(1, b, a._numerator, a._denominator)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int and b._numerator:
            return _product(a, 1, b._denominator, b._numerator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _pair(-a._numerator, a._denominator)

    def __abs__(a):
        return _pair(abs(a._numerator), a._denominator)

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        if b >= 0:
            return _pair(a._numerator**b, a._denominator**b)
        return _pair(a._denominator**-b, a._numerator**-b)

    def __eq__(a, b):
        if type(b) is Rational:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # defining __eq__ sets __hash__ to None; equal values keep equal hashes
    __hash__ = Fraction.__hash__


def _sum(na, da, nb, db):
    """na/da + nb/db as the reduced pair ``Fraction._add`` returns, with one
    divmod by g = gcd(da, db) in place of its gcd(n, g) and two divisions by
    that gcd.

    With s, t = da/g, db/g, the sum is n/(s t g) for n = na t + nb s, and
    gcd(n, s t) = 1.  Write n = q g + r, 0 <= r < g: gcd(n, g) = gcd(g, r) =
    g2, and with h = g/g2 the reduced pair is (q, s t) when r = 0, (n, s db)
    when g2 = 1, and (q h + r/g2, s t h) otherwise.  A zero sum has r = 0
    and s = t = 1, as reduced operands with equal values share da = db.

    The benchmark's steps run on ``lattice``'s τ chain, which makes no
    ``Rational`` sum; its curve paths make them.  In one pass of bench seed 5, ``charpoly-tall``'s rational
    determinant ring makes 218 sums with g > 1 and a denominator past 2000
    bits, and ``charpoly-wide`` and ``check-claims`` make 1897 and 2791 with
    g > 1 on small operands.  With ``Fraction._add``'s gcd(n, g) and two
    divisions in place of this branch, ``charpoly-tall``'s ops took x1.06
    of their summed time (x1.01-1.16 in each of five alternating rounds, in
    process, best of 7 per op), and its (1,1,3) curves x1.00-1.14, rising
    with height.  On 200-bit operands sharing a 100-bit factor a sum costs
    about 3% more."""
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s, t = da // g, db // g
        n = na * t + nb * s
        q, r = divmod(n, g)
        if not r:
            n, d = q, s * t
        else:
            g2 = gcd(g, r)
            if g2 == 1:
                d = s * db
            else:
                h = g // g2
                n, d = q * h + r // g2, s * t * h
    out = _new(Rational)
    out._numerator, out._denominator = n, d
    return out


def _product(na, da, nb, db):
    """(na/da)(nb/db), reduced as ``Fraction._mul`` does by the two cross
    gcds.  A quotient passes its nonzero divisor inverted, and ``lattice``'s
    τ chain a τ ratio of either sign, so ``da`` or ``db`` may be negative;
    then it takes ``Fraction._div``'s sign fix.  An int operand goes first,
    for the reason ``Rational.__add__`` gives."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(da, nb)
    if g2 > 1:
        nb //= g2
        da //= g2
    n, d = na * nb, db * da
    # as _pair, inlined: the call would cost 15% of a small product
    if d < 0:
        n, d = -n, -d
    r = _new(Rational)
    r._numerator, r._denominator = n, d
    return r


def _pair(n, d):
    """The Rational n/d of a coprime pair, its sign moved to n."""
    if d <= 0:
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        n, d = -n, -d
    r = _new(Rational)
    r._numerator, r._denominator = n, d
    return r


def from_coprime(n, d):
    """The Rational n/d of coprime ints n and d > 0, its slots set with no
    gcd, sign or type check."""
    r = _new(Rational)
    r._numerator, r._denominator = n, d
    return r


def rat(numerator, denominator=1):
    """Build a Rational from integers (or pass an existing one through)."""
    return Rational(numerator, denominator)


def parse_rational(text: str):
    """Parse the wire form ``"p/q"`` (denominator omitted when 1) exactly as
    ``format_rational`` writes it: no exponent, decimal point, underscore,
    plus sign, whitespace, leading zero, ``"-0"`` or unreduced fraction.
    One anchored match of ASCII digits, ``int`` on p and q, and a gcd when q
    is written; the value is built by ``from_coprime``."""
    match = _WIRE_FORM.fullmatch(text) if isinstance(text, str) else None
    if match and text != "-0":
        p, q = match.groups()
        if q is None:
            return from_coprime(int(p), 1)
        p, q = int(p), int(q)
        if q > 1 and gcd(p, q) == 1:
            return from_coprime(p, q)
    raise ValueError(f"not a rational: {text!r}")


# the leaf size of format_rational's divide and conquer (the module docstring
# has the table it was chosen from), and 5^k for each split k
_LEAF_BITS = 3000
_POW5 = {}


def format_rational(value) -> str:
    """Wire form ``"p/q"`` of a ``Rational`` or ``Fraction``; plain ``"p"``
    when the denominator is 1.  The text of ``str(value)``, or the same
    ``ValueError`` past the digit cap: a part past ``_LEAF_BITS`` bits is
    split at powers of ten, unless it may pass the cap, which plain ``str``
    then raises (the module docstring)."""
    n, d = value._numerator, value._denominator
    if n.bit_length() <= _LEAF_BITS >= d.bit_length():
        return f"{n}/{d}" if d != 1 else str(n)
    return f"{_decimal(n)}/{_decimal(d)}" if d != 1 else _decimal(n)


def may_pass_digit_cap(bits: int) -> bool:
    """Whether an int of ``bits`` bits may have more digits than
    ``sys.get_int_max_str_digits()`` allows: bits·log10 2 >= limit - 1, as
    its digit count is below bits·log10 2 + 1.  A Python with no cap has no
    ``sys.get_int_max_str_digits``, and ``int()`` stands in for it as 0."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return bool(limit) and bits * log10(2) >= limit - 1


def _decimal(n):
    """``str(n)``: plain ``str`` where n may pass the digit cap (so it raises
    that ``ValueError``), else ``_split``."""
    if may_pass_digit_cap(n.bit_length()):
        return str(n)
    if n < 0:
        return "-" + _split(-n)
    return _split(n)


def _split(n):
    """The digits of n >= 0: n = hi·10^k + lo, k the largest power of two
    below floor(bits·log10 2), which is at most n's digit count, so hi > 0;
    lo's digits zero-padded to k places.  (n >> k) = hi·5^k + r gives
    lo = r·2^k + (n mod 2^k).  Plain ``str`` writes each piece of at most
    ``_LEAF_BITS`` bits."""
    bits = n.bit_length()
    if bits <= _LEAF_BITS:
        return str(n)
    k = 1 << (int(bits * log10(2)) - 1).bit_length() - 1
    power = _POW5.get(k) or _POW5.setdefault(k, 5**k)
    hi, lo = divmod(n >> k, power)
    return _split(hi) + _split((lo << k) | (n & ((1 << k) - 1))).zfill(k)
