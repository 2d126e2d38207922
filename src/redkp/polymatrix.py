"""Square matrices with bivariate polynomial entries and exact determinants.

The product is the plain sum of entry products by ``BiPoly``'s ``*`` and
``+``.  No command calls it: the monodromy, the intertwinings of
``lax.apply_shift`` and the companion product of ``yform`` are all row
updates of band rows.  Its one caller in the package is
``lax.verify_compatibility``; the tests use it as the dense oracle.  The
characteristic matrices A - xI of the curve and the leading forms of
``numeric``, and Y - yI of ``yform``, are formed by ``minus_diagonal``, which
subtracts the variable on the diagonal only and shares the other entries.

``matdet`` is one algorithm, Berkowitz's division-free one (Inf. Process.
Lett. 18, 1984, ``_berkowitz``): row r, from the last up, turns the
coefficients of det(zI - S), S the trailing submatrix below and right of
row r, into those of the submatrix from row r.  The loop is written once
over a ring's unit, negation and dot product.  It has two views.

* m = A - xI with A free of x (the spectral curve det(X_t - xI) and the
  leading branch of ``numeric``): z = x, so it runs on A's entries as
  univariate maps in y and reads det(m)'s terms off every coefficient.
* Any other matrix (the stars of ``yform``, the cofactor matrices of
  ``numeric``, ``verify``'s L*, and Y - yI of ``yform.spectral_duality``,
  which no command runs): z is an auxiliary variable, x^i y^j is the int
  key i*base + j with base = n*max deg_y + 1 (a product of n entries cannot
  carry into the next power of x), and det(m) is (-1)^n times the constant
  coefficient.

It has two rings, by the common denominator D of all coefficients: the
ints of D*A, with the coefficient of z^(n-k) divided by D^k at the end
(one gcd per term, the reduced pair built by ``rational.from_coprime``),
while D fits in ``_INTEGER_DENOMINATOR_BITS`` bits; reduced Rationals past
it.  Both return the same polynomial, its terms lex-descending.  Rationals
over ints, on the characteristic matrices of 12 systems from (1,1,3) to
(4,5,9), two draws each, stepped until D passed 20k bits or the integer
ring 0.5 s (328 curves, best of 3, Python 3.11.7, ``Fraction``):

    D (bits)      N 3-4: median (range)   N 5-9: median (range)
    below 500     1.50 (1.18-2.34)        2.59 (0.89-7.52)
    500-1024      1.29 (1.10-1.97)        1.84 (0.83-2.34)
    1025-2000     0.99 (0.79-2.05)        1.07 (0.38-2.14)
    2000-5000     0.74 (0.41-1.83)        0.63 (0.18-1.27)
    5000-20000    0.72 (0.43-1.54)        0.55 (0.07-1.36)

So the cut sits where the medians cross 1: the wide curves and those
``verify`` builds take the ints, the tall windows the Rationals.

The integer ring has two forms.  Let e be the largest coefficient 1-norm
over the entries of D*A and B = n*bit_length(n*e) + 2.  Each coefficient
of each z^(n-k) coefficient of det(zI - D*A) sums at most n!/(n-k)!
products of k entries, so its absolute value is below (n*e)^n <
2^(B - 2).  While B fits in ``_PACKED_SLOT_BITS`` bits, each entry {k: c}
is packed by Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)
1502-1510) into the one int sum of c*2^(B*k), the loop multiplies ints,
and the result's coefficients are read back as digits in balanced base
2^B; past it the ints stay term maps.  Packed over term maps, on the
characteristic matrices of 11 systems from (1,1,3) to (4,5,9), two draws
each, stepped from the default time until D passed 1024 bits (361 curves,
best of 3, Python 3.11.7, ``Fraction``):

    B (bits)      median (range)      packed faster
    up to 300     0.59 (0.30-1.02)    93 of 94
    300-600       0.60 (0.32-0.91)    55 of 55
    600-1200      1.01 (0.82-2.24)    19 of 41
    past 1200     2.25 (0.81-5.81)    4 of 171

Each form has a workload.  The wide curves (B about 100-400) are packed.
In the ten ``verify`` ops of a ``check-claims`` pass (seeds 5-7), 21-22 of
the 50 determinants have B past 600 (at most 8186): 8-9 of 20 on (3,2,5),
9 of 15 on (1,1,8) and 4 of 5 on (2,3,7).  Packing those too took their
``matdet`` time 1.32-1.36 times and the ops' 1.10-1.37 times on (1,1,8)
and 1.17-1.22 on (2,3,7) (in process, seeds 5 and 6, best of 10).
"""

from __future__ import annotations

import math
from operator import mul, neg

from .bipoly import _ONE, BiPoly, _coerce, _nonzero
from .errors import SizeMismatch
from .rational import from_coprime

# Largest common denominator, in bits, of the integer ring; past it the
# rational ring runs (see the module docstring).
_INTEGER_DENOMINATOR_BITS = 1024

# Largest slot width, in bits, of the packed form of the integer ring; past
# it the ints run as term maps (see the module docstring).
_PACKED_SLOT_BITS = 600


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

    def entry(self, i: int, j: int) -> BiPoly:
        return self._rows[i][j]

    @property
    def rows(self):
        return [list(row) for row in self._rows]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise SizeMismatch("size mismatch in product")
        cols = list(zip(*other._rows))
        return PolyMatrix([[sum(map(mul, row, col), BiPoly.zero()) for col in cols] for row in self._rows])

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
        place of N^2, each entry's terms in the order that subtracting v
        times the identity matrix gives them.  For v = x and self free of x,
        ``matdet`` takes its characteristic view; any other v takes the
        general one."""
        rows = [list(row) for row in self._rows]
        for i, row in enumerate(rows):
            row[i] = row[i] - v
        return PolyMatrix(rows)

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


def _characteristic_variable(m: PolyMatrix):
    """0 when m = A - xI with A free of x; else None."""
    n, rows = m.n, m._rows
    if all(rows[i][i]._terms.get((1, 0)) == -1 for i in range(n)) and all(
        not key[0] or (i == j and key == (1, 0))
        for i in range(n)
        for j in range(n)
        for key in rows[i][j]._terms
    ):
        return 0
    return None


def _dot(ps, qs, c=1) -> dict:
    """Sum of c*p*q over the pairs of two lists of ``{key: coefficient}``
    maps whose keys add as exponents do."""
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


def _packed_dot(ps, qs, c=1) -> int:
    """``_dot`` on packed ints: the sum of c*p*q over the pairs."""
    s = sum(map(mul, ps, qs))
    return s if c == 1 else c * s


def _negate(p: dict) -> dict:
    return {key: -c for key, c in p.items()}


# Rings of the Berkowitz loop: (unit, negation, dot) on term maps of
# Rationals, term maps of ints, and ints packed by Kronecker substitution.
_RATIONAL_TERMS = ({0: _ONE}, _negate, _dot)
_INTEGER_TERMS = ({0: 1}, _negate, _dot)
_PACKED = (1, neg, _packed_dot)


def _berkowitz(a, ring) -> list:
    """Coefficients of det(zI - a), leading first, for a square list of
    lists over ring.  Row r applies the Toeplitz column 1, -a_rr, -R C,
    -R S C, -R S^2 C, ... (R and C the rest of row and column r, S the
    submatrix below and right of it)."""
    one, negate, dot = ring
    n = len(a)
    coeffs = [one]
    for r in range(n - 1, -1, -1):
        row, col, sub = a[r][r + 1 :], [s[r] for s in a[r + 1 :]], [s[r + 1 :] for s in a[r + 1 :]]
        toeplitz = [one, negate(a[r][r])]
        for power in range(n - 1 - r):
            if power:
                col = [dot(s, col) for s in sub]
            toeplitz.append(dot(row, col, -1))
        coeffs = [dot(toeplitz[i::-1], coeffs) for i in range(len(toeplitz))]
    return coeffs


def _unpack(p: int, slot: int) -> dict:
    """{k: c} with p the sum of c*2^(slot*k) and |c| < 2^(slot-1): the
    nonzero digits of p in balanced base 2^slot."""
    mask, half = (1 << slot) - 1, 1 << (slot - 1)
    terms = {}
    for k in range(abs(p).bit_length() // slot + 1):
        c = p & mask
        p >>= slot
        if c >= half:
            c -= mask + 1
            p += 1
        if c:
            terms[k] = c
    return terms


def _det_berkowitz(m: PolyMatrix, v, d) -> BiPoly:
    """det(m) in view v, 0 when m = A - xI with A free of x
    (``_characteristic_variable``) and None for the general view, and in
    ring d, a common denominator of m for the ints or None for the
    Rationals; the ints are packed when their slot fits
    ``_PACKED_SLOT_BITS`` (see the module docstring)."""
    n = m.n
    sign = -1 if n % 2 else 1
    if v is None:  # z auxiliary, x^i y^j packed as i*base + j
        base = n * max(0, *(e.degree_y for row in m._rows for e in row)) + 1
        a = [[{dx * base + dy: c for (dx, dy), c in e._terms.items()} for e in row] for row in m._rows]
    else:  # z = x, A's entries in y
        a = [[{key[1]: c for key, c in e._terms.items() if not key[0]} for e in row] for row in m._rows]
    if d is None:
        ring = _RATIONAL_TERMS
    else:
        ring = _INTEGER_TERMS
        a = [[{key: c.numerator * (d // c.denominator) for key, c in e.items()} for e in row] for row in a]
        # every coefficient of det(zI - a) is below (n e)^n < 2^(slot - 2)
        e = max(sum(map(abs, p.values())) for row in a for p in row)
        slot = n * (n * e).bit_length() + 2
        if slot <= _PACKED_SLOT_BITS:
            ring = _PACKED
            a = [[sum(c << slot * key for key, c in p.items()) for p in row] for row in a]
    coeffs = _berkowitz(a, ring)
    if ring is _PACKED:
        coeffs = [_unpack(p, slot) for p in coeffs]
    # det(m) = (-1)^n det(zI - A) in the characteristic view, (-1)^n times
    # the constant coefficient in the general one; the integer ring divides
    # the coefficient of z^(n-k) of det(zI - d*A) by d^k
    if v is None:
        keyed = [(divmod(key, base), n, c) for key, c in coeffs[n].items()]
    else:
        keyed = [((n - k, key), k, c) for k, terms in enumerate(coeffs) for key, c in terms.items()]
    if d is None:
        terms = {key: sign * c for key, _, c in keyed}
    else:
        scales = [d**k for k in range(n + 1)]
        terms = {}
        for key, k, c in keyed:
            # the scale first, for the reason ``Rational.__add__`` gives
            g = math.gcd(scales[k], c)
            terms[key] = from_coprime(sign * c // g, scales[k] // g)
    # lex descending: float sums over the terms (``numeric``) stay
    # bit-identical
    return BiPoly._raw(dict(sorted(terms.items(), reverse=True)))


def matdet(m: PolyMatrix) -> BiPoly:
    """Exact determinant by Berkowitz's division-free algorithm; see the
    module docstring for its two views, two rings and the integer ring's
    two forms."""
    return _det_berkowitz(m, _characteristic_variable(m), _common_denominator(m))
