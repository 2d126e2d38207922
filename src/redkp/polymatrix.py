"""Square matrices with bivariate polynomial entries and exact determinants.

The product skips the zero entries of both operands (a banded Lax factor has
2N nonzero entries of N^2) and sums each output entry in one term map with
``bipoly._add_product``, the accumulator of ``BiPoly.__mul__`` and of Bareiss,
dropping the sums that cancel.  No command calls it: the monodromy, the
intertwinings of ``lax.apply_shift`` and the companion product of ``yform``
are all row updates of band rows.  Its one caller in the package is
``lax.verify_compatibility``; the tests use it as the dense oracle.  The
characteristic matrices A - vI of the curve, the leading forms of ``numeric``
and det(Y - yI) of ``yform`` are formed by ``minus_diagonal``, which
subtracts v on the diagonal only and shares the other entries.

The determinant is exact and runs over Z, by one of two algorithms that
``matdet`` chooses by the kind of matrix.  Let D be the common denominator of
all coefficients.

* Berkowitz's division-free algorithm (``_det_berkowitz``), when m = A - vI
  with v = x or y and A free of v, and D fits in
  ``_INTEGER_DENOMINATOR_BITS`` bits: the spectral curve det(X_t - xI), the
  leading branch of ``numeric`` and det(Y - yI) of ``yform``.  It works on
  ``{deg: int}`` maps of D*A in the other variable, with no gcd and no
  division, and divides the coefficient of v^(n-k) by D^k at the end; on
  the wide curves (N 5-9, D 10-24 bits) it runs 3.3-12x as fast as Bareiss.
* Bareiss fraction-free elimination (``_det_bareiss``) on every other
  matrix: the stars of ``yform``, the cofactor matrices of ``numeric`` and
  every matrix with D past the cut.  Each entry is a Rational scalar times
  an ``int`` term map of content 1 with a positive leading coefficient.  By
  Gauss's lemma a product of primitive parts is primitive and their
  quotient is exact over Z (one ``bipoly._divide_terms``), so only a
  difference of two products takes a content gcd.

Both paths give the identical polynomial.  The cut sits below the crossover
of Berkowitz's time over Bareiss's on characteristic matrices of rising D
(two samples of 11 and 5 systems with N 5-9, one draw each, Python 3.11.7,
``Fraction``):

    D (bits)      Berkowitz / Bareiss
    below 500     0.09-0.45
    500-1024      at most 0.85
    1300-4000     the first ratio of 1 or more; the lowest: (2,1,9) at
                  1300, (1,1,9) at 1350, (1,1,8) at 1374, (1,1,6) at 1388
    3.6k-25k      1.9-3.7 on tall N = 5 curves (0.65-0.99 at N = 3 and 4,
                  D 2.2k-19k, which would need a cut on N)

So the curves ``verify`` builds on small-rational data, to t+3 past its
anchor (D of 150-800 bits on (3,2,5) and (1,1,8)), take Berkowitz, and the
tall windows of 1.5k bits and more keep Bareiss.  The primitive ring is 6x
faster than the Q[x,y] elimination it replaced.  On the small stars and
cofactor matrices (N 2-7, D of at most 64 bits) it runs 1.3-1.6x slower
than Bareiss on D*m over ``int`` did, about 0.2 ms per ``verify``, which
does not pay for a second ring.
"""

from __future__ import annotations

import math

from .bipoly import BiPoly, _add_product, _coerce, _divide_terms, _nonzero
from .errors import ExactDivisionError, SizeMismatch
from .rational import Rational

# Largest common denominator, in bits, for which Berkowitz runs: below it
# Berkowitz took at most 0.85x Bareiss's time on every sampled curve, and the
# first ratio of 1 or more came at 1300 bits (see the module docstring).
_INTEGER_DENOMINATOR_BITS = 1024


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
        right = [[(j, e._terms) for j, e in enumerate(row) if e] for row in other._rows]
        out = []
        for row in self._rows:
            acc = [{} for _ in range(self.n)]
            for e, nonzero in zip(row, right):
                if e:
                    for j, q in nonzero:
                        _add_product(acc[j], e._terms, q)
            out.append([BiPoly._raw(_nonzero(terms)) for terms in acc])
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

    def minus_diagonal(self, v) -> "PolyMatrix":
        """self - v I with the off-diagonal entries shared: N subtractions in
        place of N^2, each entry's terms in the order that
        ``self - PolyMatrix.identity(n).scale(v)`` gives them."""
        rows = [list(row) for row in self._rows]
        for i, row in enumerate(rows):
            row[i] = row[i] - v
        return PolyMatrix(rows)

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


def _primitive(ints: dict, den: int):
    """ints/den as a (Rational scalar, primitive int map) pair; None for 0."""
    if not ints:
        return None
    g = 0
    for c in ints.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {key: c // g for key, c in ints.items()}
    return Rational(g, den), ints


def _scaled(e: BiPoly, d: int) -> dict:
    """The int term map of d*e, for d a multiple of e's denominators."""
    return {key: c.numerator * (d // c.denominator) for key, c in e._terms.items()}


def _primitive_entry(e: BiPoly):
    den = math.lcm(*(c.denominator for c in e._terms.values()))
    return _primitive(_scaled(e, den), den)


def _primitive_update(pivot, a, lead, k, prev):
    """The Bareiss update (pivot*a - lead*k) / prev on ``_primitive`` pairs,
    with None for zero."""
    if a and lead and k:
        s1, s2 = pivot[0] * a[0], lead[0] * k[0]
        den = math.lcm(s1.denominator, s2.denominator)
        acc = _add_product({}, pivot[1], a[1], s1.numerator * (den // s1.denominator))
        acc = _add_product(acc, lead[1], k[1], -s2.numerator * (den // s2.denominator))
        entry = _primitive(_nonzero(acc), den)
    elif a or (lead and k):  # one product of primitive parts: no gcd
        s, p, q = (pivot[0] * a[0], pivot[1], a[1]) if a else (-lead[0] * k[0], lead[1], k[1])
        entry = s, _nonzero(_add_product({}, p, q))
    else:
        entry = None
    return entry and (entry[0] / prev[0], _divide_terms(entry[1], prev[1], _exact_int_div))


def _det_bareiss(m: PolyMatrix) -> BiPoly:
    """Bareiss elimination on the ``_primitive`` pairs of m, with None for a
    zero entry."""
    n = m.n
    a = [[_primitive_entry(e) for e in row] for row in m._rows]
    prev = Rational(1), {(0, 0): 1}
    sign = 1
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
                row_i[j] = _primitive_update(pivot, row_i[j], lead, row_k[j], prev)
        prev = pivot
    scalar, terms = a[n - 1][n - 1] or (0, {})
    return BiPoly._raw({key: sign * c * scalar for key, c in terms.items()})


def _characteristic_variable(m: PolyMatrix):
    """v, 0 for x or 1 for y, when m = A - vI with A free of v; else None."""
    n, rows = m.n, m._rows
    for v, unit in ((0, (1, 0)), (1, (0, 1))):
        if all(rows[i][i]._terms.get(unit) == -1 for i in range(n)) and all(
            not key[v] or (i == j and key == unit)
            for i in range(n)
            for j in range(n)
            for key in rows[i][j]._terms
        ):
            return v
    return None


def _dot(ps, qs, c=1) -> dict:
    """Sum of c*p*q over the pairs of two lists of univariate ``{deg:
    coefficient}`` maps."""
    acc = {}
    get = acc.get
    for p, q in zip(ps, qs):
        if p and q:
            for pd, pc in p.items():
                if c != 1:
                    pc *= c
                for qd, qc in q.items():
                    key = pd + qd
                    cur = get(key)
                    acc[key] = pc * qc if cur is None else cur + pc * qc
    return _nonzero(acc)


def _det_berkowitz(m: PolyMatrix, v: int, d: int) -> BiPoly:
    """det(m) for m = A - vI with A free of v (``_characteristic_variable``)
    and d a common denominator of A, by Berkowitz's division-free algorithm
    (Inf. Process. Lett. 18, 1984) over Z[w], w the other variable.

    A is taken as ``{deg_w: int}`` maps of d*A.  Row r, for r = n-1 down to 0,
    turns the coefficients of det(vI - S), S the trailing principal submatrix
    below and right of row r, into those of the submatrix from row r, by the
    Toeplitz column 1, -a_rr, -R C, -R S C, -R S^2 C, ... (R and C the rest of
    row and column r).  The coefficient of v^(n-k) of det(vI - d*A) is d^k
    times that of det(vI - A), and det(m) = (-1)^n det(vI - A)."""
    n, w = m.n, 1 - v
    a = [
        [{key[w]: c for key, c in _scaled(e, d).items() if not key[v]} for e in row]
        for row in m._rows
    ]
    coeffs = [{0: 1}]  # of det(vI - S), leading first
    for r in range(n - 1, -1, -1):
        row, col, sub = a[r][r + 1 :], [s[r] for s in a[r + 1 :]], [s[r + 1 :] for s in a[r + 1 :]]
        toeplitz = [{0: 1}, {deg: -c for deg, c in a[r][r].items()}]
        for power in range(n - 1 - r):
            if power:
                col = [_dot(s, col) for s in sub]
            toeplitz.append(_dot(row, col, -1))
        coeffs = [_dot(toeplitz[i::-1], coeffs) for i in range(len(toeplitz))]
    sign = -1 if n % 2 else 1
    terms = {}
    for k, c in enumerate(coeffs):
        scale = d**k
        for deg, value in c.items():
            terms[(n - k, deg) if v == 0 else (deg, n - k)] = Rational(sign * value, scale)
    # lex descending, as Bareiss's quotients leave them: float sums over the
    # terms (``numeric``) stay bit-identical
    return BiPoly._raw(dict(sorted(terms.items(), reverse=True)))


def matdet(m: PolyMatrix) -> BiPoly:
    """Exact determinant: by Berkowitz over the integers for m = A - vI
    (v = x or y, A free of v) whose coefficients' common denominator fits in
    ``_INTEGER_DENOMINATOR_BITS`` bits, and by Bareiss on primitive parts
    otherwise."""
    d = _common_denominator(m)
    if d is not None:
        v = _characteristic_variable(m)
        if v is not None:
            return _det_berkowitz(m, v, d)
    try:
        return _det_bareiss(m)
    except ExactDivisionError as exc:  # cannot happen over an integral domain
        raise AssertionError("fraction-free elimination failed") from exc
