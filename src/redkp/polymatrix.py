"""Square matrices with bivariate polynomial entries and exact determinants.

The production determinant is Bareiss fraction-free elimination: every
division is exact over the integral domain, so intermediate entries stay
polynomial.  One elimination (``_det_bareiss``) and one exact division
(``bipoly._divide_terms``) run in either of two coefficient rings, chosen by
``matdet`` from the input:

* Z[x,y], on D*m with plain ``int`` coefficients and a ``divmod`` that
  raises on a remainder, when the common denominator D of all coefficients
  fits in ``_INTEGER_DENOMINATOR_BITS`` bits; the result is det(D*m) / D**n;
* Q[x,y], on the ``Rational`` coefficients themselves with ``/``, otherwise.

Both return the identical polynomial.  The integer ring skips the
normalising ``Fraction`` built for every term product, which is most of the
cost on wide, low-height matrices: on the curves of (3,2,5) to (5,4,9) from
small data (D of 10-24 bits) it is 7-10x faster.  Its scaled integers grow
with D, so the Rational ring wins on tall matrices: on curves with D of
1500-45000 bits the integer ring is up to 25x slower (Python 3.11.7,
``fractions.Fraction``, 2 CPUs).  The Leibniz expansion is kept as an
independent small-size oracle.
"""

from __future__ import annotations

import itertools
import math
import operator

from .bipoly import BiPoly, _coerce, _divide_terms
from .errors import ExactDivisionError, LeibnizGuard, SizeMismatch
from .rational import Rational

LEIBNIZ_MAX = 8
# Largest common denominator, in bits, for which the integer elimination runs.
_INTEGER_DENOMINATOR_BITS = 64


class PolyMatrix:
    """Immutable square matrix of BiPoly entries."""

    __slots__ = ("n", "_rows")

    def __init__(self, rows):
        rows = [[_coerce(e) for e in row] for row in rows]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise SizeMismatch("matrix must be square and non-empty")
        self.n = n
        self._rows = rows

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one, zero = BiPoly.one(), BiPoly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> BiPoly:
        return self._rows[i][j]

    @property
    def rows(self):
        return [list(row) for row in self._rows]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise SizeMismatch("size mismatch in product")
        n = self.n
        a, b = self._rows, other._rows
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = BiPoly.zero()
                for l in range(n):
                    acc = acc + a[i][l] * b[l][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise SizeMismatch("size mismatch in sum")
        return PolyMatrix(
            [
                [self._rows[i][j] + other._rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise SizeMismatch("size mismatch in difference")
        return PolyMatrix(
            [
                [self._rows[i][j] - other._rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def scale(self, factor) -> "PolyMatrix":
        factor = _coerce(factor)
        return PolyMatrix([[e * factor for e in row] for row in self._rows])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._rows for e in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __repr__(self) -> str:
        body = ",\n ".join("[" + ", ".join(map(repr, row)) + "]" for row in self._rows)
        return f"PolyMatrix(\n {body})"

    def minor(self, i: int, j: int) -> BiPoly:
        sub = [
            [self._rows[r][c] for c in range(self.n) if c != j]
            for r in range(self.n)
            if r != i
        ]
        if not sub:
            return BiPoly.one()
        return matdet(PolyMatrix(sub))

    def adjugate(self) -> "PolyMatrix":
        """Classical adjugate, ``m @ m.adjugate() == matdet(m) * I``; the
        independent oracle for the conjugations of ``lax.apply_shift``."""
        n = self.n
        out = [[BiPoly.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                m = self.minor(i, j)
                out[j][i] = m if (i + j) % 2 == 0 else -m
        return PolyMatrix(out)

    def evaluate_complex(self, x0: complex, y0: complex):
        return [
            [e.evaluate_complex(x0, y0) for e in row] for row in self._rows
        ]


def _exact_int_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError("coefficient not divisible")
    return q


def _common_denominator(m: PolyMatrix):
    """lcm of every coefficient's denominator, or None once it passes
    ``_INTEGER_DENOMINATOR_BITS``."""
    d = 1
    for row in m._rows:
        for e in row:
            for c in e._terms.values():
                q = c.denominator
                if d % q:
                    d = math.lcm(d, q)
                    if d.bit_length() > _INTEGER_DENOMINATOR_BITS:
                        return None
    return d


def _det_bareiss(m: PolyMatrix, d) -> BiPoly:
    """Bareiss elimination on the term maps of m's entries.  With d None the
    coefficients stay Rational; with d a common denominator of m they are
    the ints of d*m, and det(d*m) is divided by d**n at the end."""
    n = m.n
    if d is None:
        a = [[e._terms for e in row] for row in m._rows]
        div, dn = operator.truediv, 1
    else:
        a = [
            [{k: c.numerator * (d // c.denominator) for k, c in e._terms.items()} for e in row]
            for row in m._rows
        ]
        div, dn = _exact_int_div, d**n
    sign = 1
    prev = {(0, 0): 1}
    for k in range(n - 1):
        pivot_row = k
        while not a[pivot_row][k]:
            pivot_row += 1
            if pivot_row == n:
                return BiPoly.zero()
        if pivot_row != k:
            a[pivot_row], a[k] = a[k], a[pivot_row]
            sign = -sign
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                acc = {}
                get = acc.get
                for (px, py), pc in pivot.items():
                    for (ex, ey), ec in row_i[j].items():
                        key = (px + ex, py + ey)
                        acc[key] = get(key, 0) + pc * ec
                for (lx, ly), lc in lead.items():
                    for (ex, ey), ec in row_k[j].items():
                        key = (lx + ex, ly + ey)
                        acc[key] = get(key, 0) - lc * ec
                num = {key: c for key, c in acc.items() if c}
                row_i[j] = _divide_terms(num, prev, div) if num else num
        prev = pivot
    return BiPoly._raw({key: Rational(sign * c, dn) for key, c in a[n - 1][n - 1].items()})


def _det_leibniz(m: PolyMatrix) -> BiPoly:
    n = m.n
    if n > LEIBNIZ_MAX:
        raise LeibnizGuard(f"leibniz determinant limited to size {LEIBNIZ_MAX}")
    rows = m._rows
    total = BiPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def matdet(m: PolyMatrix) -> BiPoly:
    """Exact determinant by Bareiss elimination, over the integers when the
    coefficients' common denominator fits in ``_INTEGER_DENOMINATOR_BITS``
    bits, else over Q; ``_det_leibniz`` is the tests' oracle."""
    try:
        return _det_bareiss(m, _common_denominator(m))
    except ExactDivisionError as exc:  # cannot happen over an integral domain
        raise AssertionError("fraction-free elimination failed") from exc
