"""Compare ``redkp.rational.Rational`` with ``fractions.Fraction`` on + - * /,
``**`` by an int, unary - and abs.

``Rational`` runs ``Fraction``'s field operations on its private slots, and
the order of its gcd arguments is tuned to CPython's ``math.gcd``, so this
check runs on every supported Python, with only the standard library and
redkp installed:

    python tests/fraction_parity.py

Each operator is applied to every ordered pair of operands in which at least
one is a ``Rational`` and the other a ``Rational`` or an int, from 0 and +-1
to about 1400 bits, among them pairs whose denominators share a 607-bit
prime, so that sums reach every branch of ``rational._sum``.  Each
``Rational`` operand is also raised to every int power from -3 to 3
(``BiPoly.evaluate`` takes its powers so), negated and passed to ``abs``.
Every operation must give the value ``Fraction`` gives, as a ``Rational``,
or raise ``ZeroDivisionError`` where ``Fraction`` does (a quotient by zero,
or 0 to a negative power), with the message ``Fraction`` gives on the
running Python (3.12 and later word some of them differently).

``format_rational`` is compared with ``str(Fraction(v))`` on values whose
numerators and denominators run from 0 to 14 000 bits, below the default
4300-digit cap: random ints, 10^k - 1, 10^k and 10^k + 1 for every power of
two k and the leaf size +- 1 bit, so that the divide-and-conquer writer takes
every split it makes under the cap (3.12 changed the internals of
``int.__str__``).

Exits 1 and lists the mismatches if there are any.
"""

import operator
import random
import sys
from fractions import Fraction

from redkp import rational
from redkp.rational import Rational, format_rational

OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)
POWERS = range(-3, 4)
UNARY = (operator.neg, operator.abs)


def operands(rng):
    big = [rng.getrandbits(bits) | 1 for bits in (64, 700, 1400)]
    ints = [0, 1, -1, 3, -12, 2**61 - 1, big[1], -big[2]]
    rationals = [
        Rational(0),
        Rational(1),
        Rational(-5, 3),
        Rational(big[0], 6),
        Rational(-3, big[0]),
        Rational(big[2], rng.getrandbits(1400) | 1),
        Rational(-big[1], 2**700),
        Rational(big[2] * 3, 3 * big[1] + 3),
    ]
    # denominators sharing the prime f take every branch of rational._sum:
    # (f-2)/2f + (f+3)/3f = 5/6 divides out all of g = f, their difference
    # none of it, and 1/12f + 5/12f and 1/12f - 7/12f cancel 6 of g = 12f
    f = 2**607 - 1
    rationals += [
        Rational(f - 2, 2 * f),
        Rational(f + 3, 3 * f),
        Rational(1, 12 * f),
        Rational(5, 12 * f),
        Rational(-7, 12 * f),
    ]
    return ints, rationals


def written(rng):
    ints = [rng.getrandbits(bits) for bits in range(0, 14_001, 250)]
    ints += [10**k + e for k in (2**j for j in range(13)) for e in (-1, 0, 1)]
    leaf = rational._LEAF_BITS
    ints += [2**bits + e for bits in (leaf - 1, leaf, leaf + 1) for e in (-1, 0, 1)]
    dens = [1, 7, rng.getrandbits(3000) | 1, rng.getrandbits(14_000) | 1]
    return [Rational(s * n, d) for n in ints for d in dens for s in (1, -1)]


def outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def fraction(x):
    return Fraction(x) if type(x) is Rational else x


def main():
    ints, rationals = operands(random.Random(33))
    pairs = [(a, b) for a in ints + rationals for b in ints + rationals]
    pairs = [(a, b) for a, b in pairs if Rational in (type(a), type(b))]
    cases = [(op, a, b) for a, b in pairs for op in OPERATORS]
    cases += [(operator.pow, a, k) for a in rationals for k in POWERS]
    cases += [(op, a) for a in rationals for op in UNARY]
    bad = []
    values = written(random.Random(44))
    for v in values:
        got, want = format_rational(v), str(Fraction(v))
        if got != want:
            p, q = v.numerator.bit_length(), v.denominator.bit_length()
            bad.append(f"format_rational of {p}-bit p over {q}-bit q: {got[:30]}..., not str's")
    for op, *args in cases:
        got, want = outcome(op, *args), outcome(op, *map(fraction, args))
        if type(want) is tuple:
            same = got == want
        else:
            same = type(got) is Rational and (got.numerator, got.denominator) == (
                want.numerator,
                want.denominator,
            )
        if not same:
            bad.append(f"{op.__name__}{tuple(args)!r}: {got!r}, Fraction gives {want!r}")
    print(
        f"{len(cases)} cases and {len(values)} writes,"
        f" {len(bad)} mismatches on Python {sys.version.split()[0]}"
    )
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
