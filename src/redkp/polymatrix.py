"""Square matrices with bivariate polynomial entries and exact determinants.

The production determinant is Bareiss fraction-free elimination (intermediate
entries stay polynomial because every division is exact over the integral
domain); the Leibniz expansion is kept as an independent small-size oracle.
"""

from __future__ import annotations

import itertools

from .bipoly import BiPoly, _coerce
from .errors import ExactDivisionError, LeibnizGuard, SizeMismatch

LEIBNIZ_MAX = 8


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


def _det_bareiss(m: PolyMatrix) -> BiPoly:
    n = m.n
    a = [list(row) for row in m._rows]
    sign = 1
    prev = BiPoly.one()
    for k in range(n - 1):
        pivot_row = k
        while a[pivot_row][k].is_zero():
            pivot_row += 1
            if pivot_row == n:
                return BiPoly.zero()
        if pivot_row != k:
            a[pivot_row], a[k] = a[k], a[pivot_row]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = BiPoly.zero()
        prev = pivot
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


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


def matdet(m: PolyMatrix, method: str = "bareiss") -> BiPoly:
    """Exact determinant; both methods return identical polynomials."""
    if method == "bareiss":
        try:
            return _det_bareiss(m)
        except ExactDivisionError as exc:  # cannot happen over an integral domain
            raise AssertionError("fraction-free elimination failed") from exc
    if method == "leibniz":
        return _det_leibniz(m)
    raise ValueError(f"unknown determinant method: {method}")
