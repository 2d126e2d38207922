import itertools
import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redkp.polymatrix
from redkp import BiPoly, LatticeParams, LatticeState, PolyMatrix, Rational, matdet, new_state, rat
from redkp.cli import main
from redkp.errors import ExactDivisionError
from redkp.lattice import default_time
from redkp.lax import (
    build_factor,
    build_monodromy,
    monodromy_bands,
    shift_matrix,
    special_points,
    spectral_curve,
)
from redkp.bipoly import _divide_terms
from redkp.numeric import _leading_form
from redkp.polymatrix import (
    _INTEGER_DENOMINATOR_BITS as CUT,
    _INTEGER_TERMS,
    _PACKED,
    _PACKED_SLOT_BITS as SLOT_CUT,
    _RATIONAL_TERMS,
    _det_berkowitz,
)
from redkp.verify import _suites
from redkp.yform import shift_stars, spectral_duality
from conftest import PARAM_SETS, add, identity, random_state, scale

rationals = st.builds(rat, st.integers(-9, 9), st.integers(1, 9))
nonzero_rationals = st.builds(
    rat, st.integers(-9, 9).filter(lambda v: v != 0), st.integers(1, 9)
)


@st.composite
def bipolys(draw, max_terms=4, max_deg=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[key] = draw(rationals)
    return BiPoly(terms)


def random_bipoly(rng, max_deg=1):
    terms = {}
    for dx in range(max_deg + 1):
        for dy in range(max_deg + 1):
            terms[(dx, dy)] = rat(rng.randint(-5, 5), rng.randint(1, 3))
    return BiPoly(terms)


def random_matrix(rng, n, max_deg=1):
    return PolyMatrix([[random_bipoly(rng, max_deg) for _ in range(n)] for _ in range(n)])


# -- rational field axioms ------------------------------------------------------


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0


@given(a=nonzero_rationals)
def test_rational_inverse(a):
    assert a * (1 / a) == 1


def test_rational_normal_form():
    q = rat(6, 4)
    assert q.numerator == 3 and q.denominator == 2
    assert rat(-2, 4).denominator == 2  # denominator stays positive
    assert rat(0, 7) == 0


def _huge(bits, seed, sign):
    """A reduced fraction of about ``bits`` bits whose denominator often
    shares a factor with another's."""
    rng = random.Random(seed)
    return Fraction(sign * rng.getrandbits(bits), 12 * rng.getrandbits(bits) + 12)


fraction_operands = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
    st.builds(_huge, st.integers(1000, 20000), st.integers(0, 2**32), st.sampled_from((1, -1))),
)
int_operands = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda f: f.numerator, fraction_operands),
)
FIELD_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (operator.eq, operator.ne)


def _outcome(op, *args):
    try:
        return op(*args)
    except (ArithmeticError, TypeError) as exc:
        return exc


def _same_as_fraction(op, *args):
    """``op`` on the Rational copies of the ``Fraction`` arguments (the int
    arguments as they are) against ``op`` on the arguments: the same value
    as a ``Rational``, the same bool, or the same error."""
    got = _outcome(op, *(Rational(a) if type(a) is Fraction else a for a in args))
    want = _outcome(op, *args)
    if isinstance(want, ArithmeticError):
        assert (type(got), str(got)) == (type(want), str(want))
    elif isinstance(want, bool):
        assert got is want
    else:
        assert type(got) is Rational
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(a=fraction_operands, b=fraction_operands, k=int_operands, e=st.integers(-3, 3))
@example(a=Fraction(1, 2), b=Fraction(1, 3), k=-2, e=-1)
@example(a=Fraction(0), b=Fraction(0), k=0, e=-1)
@settings(max_examples=150, deadline=None)
def test_rational_arithmetic_equals_fractions(a, b, k, e):
    """Every slot operator of the stdlib Rational against ``Fraction``:
    both operands Rational, an int on either side, unary and power.  Caught
    mutants: a missing sign fix in ``__truediv__`` (1/2 / -2), an ``==`` that
    ignores the denominator (1/2 == 1/3) and ``__hash__`` left unset."""
    for op in FIELD_OPS:
        _same_as_fraction(op, a, b)
        _same_as_fraction(op, a, k)
        _same_as_fraction(op, k, a)
    for op in COMPARISONS:
        _same_as_fraction(op, a, b)
        _same_as_fraction(op, a, k)
        _same_as_fraction(op, k, a)
    _same_as_fraction(operator.neg, a)
    _same_as_fraction(abs, a)
    _same_as_fraction(operator.pow, a, e)
    assert hash(Rational(a)) == hash(a) and hash(Rational(k)) == hash(k)


# a 607-bit prime shared by the denominators of the branch examples below
SHARED_PRIME = 2**607 - 1


@st.composite
def shared_factor_pairs(draw):
    """Two fractions whose denominators share a drawn factor f of up to 400
    bits.  The second is free, the negative of the first, or w - a for a
    drawn w whose denominator keeps all, part or none of f, so that the
    sum's gcd(n, g) runs from 1 to g = gcd(da, db)."""
    f = draw(st.integers(2, 2**400))
    numerators = st.integers(-(2**400), 2**400)
    a = Fraction(draw(numerators), f * draw(st.integers(1, 60)))
    kind = draw(st.sampled_from(("free", "negative", "difference")))
    if kind == "free":
        return a, Fraction(draw(numerators), f * draw(st.integers(1, 60)))
    if kind == "negative":
        return a, -a
    part = math.gcd(f, draw(st.integers(1, f)))
    return a, Fraction(draw(numerators), part * draw(st.integers(1, 60))) - a


@given(pair=shared_factor_pairs())
# one example per branch of rational._sum, f the shared prime: g = 1; r = 0
# (the sum is 5/6); g2 = 1; 1 < g2 < g (6 of 12f cancels), with positive and
# negative numerators; a zero sum
@example(pair=(Fraction(1, 2), Fraction(-1, 3)))
@example(pair=(Fraction(SHARED_PRIME - 2, 2 * SHARED_PRIME), Fraction(SHARED_PRIME + 3, 3 * SHARED_PRIME)))
@example(pair=(Fraction(SHARED_PRIME - 2, 2 * SHARED_PRIME), Fraction(1, 12 * SHARED_PRIME)))
@example(pair=(Fraction(1, 12 * SHARED_PRIME), Fraction(5, 12 * SHARED_PRIME)))
@example(pair=(Fraction(1, 12 * SHARED_PRIME), Fraction(-7, 12 * SHARED_PRIME)))
@example(pair=(Fraction(-3, 7 * SHARED_PRIME), Fraction(3, 7 * SHARED_PRIME)))
@settings(max_examples=150, deadline=None)
def test_sums_of_shared_factor_operands_equal_fractions(pair):
    """Sums and differences of operands whose denominators share a large
    factor, in both orders: the slots ``rational._sum`` sets are the reduced
    pair ``Fraction`` gives, on every branch of its divmod.  Caught mutants:
    the denominator s*db for s*t*h, the numerator q for q*h + r/g2, and
    (q, s*db) for r = 0."""
    a, b = pair
    for x, y in ((a, b), (b, a)):
        for op in (operator.add, operator.sub):
            _same_as_fraction(op, x, y)


OTHER_OPERANDS = (0.0, 0.5, -2.25, 3.0, 0j, 1.5 - 2j, 3 + 0j, Decimal(0), Decimal("1.5"), Decimal(-2))


@given(a=fraction_operands, b=st.one_of(fraction_operands, st.sampled_from(OTHER_OPERANDS)))
@settings(max_examples=60, deadline=None)
def test_rational_with_other_operands_gives_fractions_result(a, b):
    """A ``Fraction``, float, complex or ``Decimal`` operand takes
    ``Fraction``'s own method, on either side, and gets its result and type,
    or its error (``Decimal`` arithmetic is a TypeError)."""
    r = Rational(a)
    for op in FIELD_OPS + COMPARISONS:
        for got, want in ((_outcome(op, r, b), _outcome(op, a, b)), (_outcome(op, b, r), _outcome(op, b, a))):
            if isinstance(want, Exception):
                assert (type(got), str(got).replace("Rational", "Fraction")) == (type(want), str(want))
            else:
                assert type(got) is type(want) and got == want


def _all_rational(values):
    kinds = {type(v) for v in values}
    assert kinds == {Rational}, kinds


@pytest.mark.parametrize("params", PARAM_SETS)
def test_hot_paths_stay_on_rational(params):
    """Every value the step, the band rows, the site invariants, the slice
    products and the curve make is a ``Rational``, not an int or a
    ``Fraction``: a silent fall-back keeps the values and loses the speed."""
    state = random_state(*params, seed=31)
    t = default_time(state, deep=True)
    state.evolve_to(t + 3)
    _all_rational(v for kind, get in (("I", state.i_slice), ("V", state.v_slice))
                  for s in state.times(kind) for v in get(s))
    _all_rational(state.site_invariants())
    _all_rational(get(s) for kind, get in (("I", state.i_product), ("V", state.v_product))
                  for s in state.times(kind))
    _all_rational(a for form in ("standard", "alternate")
                  for row in monodromy_bands(state, t, form) for a in row)
    points = special_points(state, t)
    _all_rational(c for _, c in spectral_curve(state, t).poly.items())
    _all_rational(v for point in points.all_points() for v in point)


# -- bipoly ring axioms and evaluation ---------------------------------------------


@given(p=bipolys(), q=bipolys(), r=bipolys())
@settings(max_examples=50)
def test_bipoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + BiPoly.zero() == p
    assert p * BiPoly.one() == p


@given(p=bipolys(), q=bipolys(), x0=rationals, y0=rationals)
@settings(max_examples=50)
def test_eval_is_ring_homomorphism(p, q, x0, y0):
    assert (p * q).evaluate(x0, y0) == p.evaluate(x0, y0) * q.evaluate(x0, y0)
    assert (p + q).evaluate(x0, y0) == p.evaluate(x0, y0) + q.evaluate(x0, y0)


def test_eval_examples():
    # x^2 - 17x + 30 factors over the divisors of 30; brute-force the roots
    p = BiPoly({(2, 0): 1, (1, 0): -17, (0, 0): 30})
    roots = []
    for d in range(1, 31):
        if 30 % d == 0:
            for cand in (d, -d):
                if p.evaluate(cand, 0) == 0:
                    roots.append(cand)
    assert sorted(roots) == [2, 15]
    assert p.evaluate(2, 0) == 0

    assert BiPoly.zero().evaluate(rat(7, 3), rat(-2)) == 0

    # y^2 - y(2x+11) + x^2 - 17x + 30 at (0, 6): 36 - 66 + 30 = 0
    curve = BiPoly(
        {(0, 2): 1, (1, 1): -2, (0, 1): -11, (2, 0): 1, (1, 0): -17, (0, 0): 30}
    )
    assert curve.evaluate(0, 6) == rat(36) - 66 + 30
    assert curve.evaluate(0, 6) == 0


def horner_value(p: BiPoly, x0, y0):
    """A Horner pass in x for each power of y, then one in y over their
    values, with no power taken: the oracle for ``BiPoly.evaluate``'s term
    sum."""
    x0, y0 = rat(x0), rat(y0)
    value = rat(0)
    for dy in range(p.degree_y, -1, -1):
        row = rat(0)
        for dx in range(p.degree_x, -1, -1):
            row = row * x0 + p.coefficient(dx, dy)
        value = value * y0 + row
    return value


_TALL_X = rat(-(3**4000 + 2), 2**5000 + 1)  # 6.3k / 5k bits
_TALL_Y = rat(7**3600 - 4, -(5**4000))  # 10.1k / 9.3k bits


@pytest.mark.parametrize(
    "point",
    [
        (0, rat(7, 3)),
        (rat(-5, 2), 0),
        (0, 0),
        (rat(3, 4), rat(-2, 9)),
        (rat(1, 3), rat(2**1000 + 1, 3**7)),
        (_TALL_X, _TALL_Y),
        (_TALL_X, 0),
        (0, _TALL_Y),
        (rat(-7), rat(-2, 5)),
    ],
)
def test_evaluate_equals_naive_term_sum(point):
    rng = random.Random(53)
    polys = [random_bipoly(rng, max_deg=4) for _ in range(5)]
    polys.append(BiPoly({(0, 0): 5, (3, 0): 2, (0, 4): -1, (2, 2): rat(1, 7)}))
    polys.append(BiPoly({(0, 3): -4, (2, 1): 9, (4, 0): 1, (1, 1): -3}))  # integer coefficients
    polys.append(BiPoly.zero())
    for p in polys:
        value = p.evaluate(*point)
        assert type(value) is Rational
        assert value == horner_value(p, *point)
    assert polys[-3].evaluate(0, 0) == 5  # 0**0 = 1 keeps the constant term


def test_constant_bipoly_hashes_as_its_scalar():
    assert BiPoly.constant(3) == 3 and 3 in {BiPoly.constant(3)}
    assert len({BiPoly.constant(3), 3}) == 1
    assert rat(1, 2) in {BiPoly.constant(rat(1, 2))}
    assert len({BiPoly.zero(), 0}) == 1


def test_degrees_and_structure():
    p = BiPoly({(2, 1): rat(1, 2), (0, 3): -1})
    assert p.degree_x == 2 and p.degree_y == 3
    assert BiPoly.zero().degree_x == -1
    assert p.coefficient(2, 1) == rat(1, 2)
    assert p.coefficient(5, 5) == 0
    # zero coefficients are never stored
    assert BiPoly({(1, 1): 0}).is_zero()


@given(p=bipolys(), q=bipolys())
@settings(max_examples=50)
def test_exact_division_roundtrip(p, q):
    if q.is_zero():
        with pytest.raises(ExactDivisionError):
            p.exact_div(q)
        return
    assert (p * q).exact_div(q) == p


def test_exact_division_remainder_raises():
    p = BiPoly({(1, 0): 1, (0, 0): 1})  # x + 1
    q = BiPoly({(0, 1): 1})  # y
    with pytest.raises(ExactDivisionError):
        p.exact_div(q)


def test_integer_exact_division():
    """``_divide_terms`` divides over Q: a quotient of integer polynomials
    may have fractions, and a leading term that does not divide raises."""
    p = {(1, 0): rat(2), (0, 1): rat(-3)}  # 2x - 3y
    q = {(1, 1): rat(5), (0, 0): rat(-1)}  # 5xy - 1
    pq = {(2, 1): rat(10), (1, 2): rat(-15), (1, 0): rat(-2), (0, 1): rat(3)}
    assert _divide_terms(pq, q) == p
    assert _divide_terms(pq, p) == q
    # (2x + 4) / 3
    assert _divide_terms({(1, 0): rat(2), (0, 0): rat(4)}, {(0, 0): rat(3)}) == {(1, 0): rat(2, 3), (0, 0): rat(4, 3)}
    with pytest.raises(ExactDivisionError):
        _divide_terms({(1, 0): rat(1), (0, 0): rat(1)}, {(0, 1): rat(1)})  # (x + 1) / y


def test_serialization_roundtrip_and_order():
    p = BiPoly({(1, 1): rat(-2), (0, 0): rat(30), (0, 2): rat(1, 3)})
    recs = p.to_records()
    assert [(r["dx"], r["dy"]) for r in recs] == sorted((r["dx"], r["dy"]) for r in recs)
    assert BiPoly.from_records(recs) == p
    assert recs[0]["c"] == "30"  # denominator omitted when 1


@pytest.mark.parametrize(
    "record",
    [
        {"dx": 1.9, "dy": 1, "c": "3"},
        {"dx": 1.0, "dy": 1, "c": "3"},
        {"dx": 1, "dy": True, "c": "3"},
        {"dx": False, "dy": 0, "c": "3"},
        {"dx": "02", "dy": 0, "c": "3"},
        {"dx": -1, "dy": 0, "c": "3"},
        {"dx": 1, "dy": 0, "c": "0"},
        {"dx": 1, "dy": 0, "c": "-0/7"},
        {"dx": 1, "dy": 0, "c": "1.5"},
    ],
)
def test_from_records_reads_only_the_wire_form(record):
    good = {"dx": 0, "dy": 2, "c": "-1/3"}
    assert BiPoly.from_records([good]) == BiPoly({(0, 2): rat(-1, 3)})
    with pytest.raises(ValueError):
        BiPoly.from_records([good, record])


# -- determinants ------------------------------------------------------------------

LEIBNIZ_MAX = 8


class LeibnizGuard(Exception):
    """Leibniz expansion rejected: factorial cost beyond the guarded size."""


def leibniz_det(m: PolyMatrix) -> BiPoly:
    """The signed sum over all permutations: the determinant oracle."""
    n = m.n
    if n > LEIBNIZ_MAX:
        raise LeibnizGuard(f"leibniz determinant limited to size {LEIBNIZ_MAX}")
    rows = m.rows
    total = BiPoly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


# 1/(2^(CUT+25) - 1) pushes the common denominator past the integer ring's cut
TALL_SCALE = rat(1, 2 ** (CUT + 25) - 1)
# matdet's view of A - xI (the characteristic one) and of A - yI (the general one)
VIEWS = (0, None)
VARIABLES = (BiPoly.x(), BiPoly.y())


def full_denominator(m: PolyMatrix) -> int:
    """lcm of every coefficient's denominator, with no cut-off."""
    return math.lcm(*(c.denominator for row in m.rows for e in row for _, c in e.items()))


def both_rings(m: PolyMatrix, v=None) -> BiPoly:
    """det(m) in view v (0, or None for the general view) in the rational
    ring and, while the full common denominator fits the cut, in the form
    of the integer ring that ``_det_berkowitz`` takes for it (packed or
    term maps): the same polynomial in the same term order."""
    d = full_denominator(m)
    by_rationals = _det_berkowitz(m, v, None)
    if d.bit_length() <= CUT:
        by_ints = _det_berkowitz(m, v, d)
        assert by_ints == by_rationals and list(by_ints.items()) == list(by_rationals.items())
    return by_rationals


def route(monkeypatch) -> list:
    """The view and ring of each determinant ``matdet`` takes from here on:
    (v, d), v = 0 for A - xI and None for the general view, d the
    common denominator of the integer ring or None for the rational ring."""
    calls = []

    def traced(m, v, d):
        calls.append((v, d))
        return _det_berkowitz(m, v, d)

    monkeypatch.setattr(redkp.polymatrix, "_det_berkowitz", traced)
    return calls


FORMS = {id(_PACKED): "packed", id(_INTEGER_TERMS): "int terms", id(_RATIONAL_TERMS): "rational terms"}


def forms(monkeypatch) -> list:
    """The form of each Berkowitz loop from here on: "packed" ints, "int
    terms" or "rational terms"."""
    calls = []
    loop = redkp.polymatrix._berkowitz

    def traced(a, ring):
        calls.append(FORMS[id(ring)])
        return loop(a, ring)

    monkeypatch.setattr(redkp.polymatrix, "_berkowitz", traced)
    return calls


def slot_bits(m: PolyMatrix, v=None) -> int:
    """n bit_length(n e) + 2, e the largest coefficient 1-norm over the
    entries of D A, A = m + xI in the characteristic view (v = 0) and m in
    the general one."""
    d = full_denominator(m)
    norms = [
        sum(abs(c.numerator) * (d // c.denominator) for key, c in e.items() if v is None or not key[v])
        for row in m.rows for e in row
    ]
    return m.n * (m.n * max(norms)).bit_length() + 2


# Coefficient denominators of the tall draws: mixed, several past the cut
# (3^(2 CUT/3) has 1.06 CUT bits).
TALL_DENOMINATORS = (1, 3, 2**61 - 1, 2 ** (CUT + 25) - 1, 2 ** (CUT + 43) - 1, 3 ** (2 * CUT // 3))


def tall_bipoly(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 1), rng.randint(0, 1))
        terms[key] = rat(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice(TALL_DENOMINATORS))
    return BiPoly(terms)


def tall_matrix(rng, n):
    """A random n x n matrix with D past the cut: a zero at (0,0), a
    denominator past the cut at (1,0), zeros in column 0, and rows that
    repeat a multiple of row 1 on some columns (products that cancel)."""
    zero = BiPoly.zero()
    rows = [[tall_bipoly(rng) if rng.random() < 0.8 else zero for _ in range(n)] for _ in range(n)]
    rows[0][0], rows[1][0] = zero, -tall_bipoly(rng) * TALL_SCALE
    pivot_row = rows[1]
    for i in range(2, n):
        r = rng.random()
        if r < 0.3:
            rows[i][0] = zero
        elif r < 0.7:
            factor = rat(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice(TALL_DENOMINATORS))
            rows[i][0] = pivot_row[0] * factor
            for j in range(1, n):
                if rng.random() < 0.6:
                    rows[i][j] = pivot_row[j] * factor
    return PolyMatrix(rows)


def characteristic_matrix(rng, n, v, dens=(1, 2, 3), degree=2) -> PolyMatrix:
    """A - vI (v = 0 for x, 1 for y) with A random in the other variable, of
    degree up to ``degree``: about a third of its entries zero, negative
    coefficients, denominators drawn from ``dens``."""
    rows = [[BiPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.7:
                terms = {}
                for deg in range(rng.randint(1, degree + 1)):
                    key = (0, deg) if v == 0 else (deg, 0)
                    terms[key] = rat(rng.randint(-5, 5), rng.choice(dens))
                rows[i][j] = BiPoly(terms)
        rows[i][i] = rows[i][i] - VARIABLES[v]
    return PolyMatrix(rows)


def packing_matrix(rng, n, deg_y=3):
    """Sparse entries with x-degree up to 2 and y-degree up to ``deg_y``,
    each reaching both tops, so that products of n entries reach y^(n
    deg_y), the last power the packing base n deg_y + 1 keeps apart from
    the next power of x."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {(2, deg_y): rat(rng.randint(1, 5), rng.randint(1, 3)), (0, 0): rat(rng.randint(-5, 5))}
            for _ in range(3):
                terms[(rng.randint(0, 2), rng.randint(0, deg_y))] = rat(rng.randint(-5, 5), rng.randint(1, 3))
            row.append(BiPoly(terms))
        rows.append(row)
    return PolyMatrix(rows)


def hadamard(n: int) -> list:
    """Sylvester's n x n matrix of signs, n a power of 2, with |det| =
    n^(n/2), the largest a matrix of signs reaches."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-s for s in row] for row in h]
    return h


def matdet_cases():
    """(m, view, facts): view 0 for A - xI with A free of x and None for
    the general view, ``facts`` the case's own checks."""
    x, y = VARIABLES

    def case(name, m, view=None, *facts):
        return pytest.param(m, view, facts, id=name)

    yield case("identity", identity(3))
    yield case("corner", PolyMatrix([[0, 1], [y, 0]]))
    rng = random.Random(11)
    for i in range(8):
        yield case(f"4x4-{i}", random_matrix(rng, 4), None, "tall")
    for n in range(2, 7):
        yield case(f"size-{n}", random_matrix(random.Random(100 + n), n), None, "tall")
    for params in PARAM_SETS:
        state = random_state(*params, seed=3)
        m = build_monodromy(state, default_time(state)) - scale(identity(params[2]), x)
        yield case("curve-%d-%d-%d" % params, m, 0)
    for n in range(2, 7):
        rng = random.Random(700 + n)
        for i in range(12 if n < 6 else 3):
            yield case(f"tall-{n}-{i}", tall_matrix(rng, n))
    for n in range(1, 7):
        for v in (0, 1):
            rng = random.Random(900 + 10 * n + v)
            for i in range(4 if n < 6 else 2):
                yield case(f"views-{n}-{'xy'[v]}-{i}", characteristic_matrix(rng, n, v), VIEWS[v])
    for n in range(1, 5):
        rng = random.Random(980 + n)
        for deg_y in (2, 3):
            yield case(f"packs-{n}-deg{deg_y}", packing_matrix(rng, n, deg_y), None, "degree_y", "tall")
    rng = random.Random(990)
    for factor, tag in ((1, ""), (TALL_SCALE, "-tall")):
        rows = scale(packing_matrix(rng, 3), factor).rows
        rows[2] = [p * 2 - q for p, q in zip(rows[0], rows[1])]  # row 2 = 2 row 0 - row 1
        yield case("singular" + tag, PolyMatrix(rows))
        entry = packing_matrix(rng, 1).entry(0, 0) * factor
        yield case("single" + tag, PolyMatrix([[entry]]))
        free_of_x = BiPoly({key: c for key, c in entry.items() if not key[0]})
        yield case("single-x" + tag, PolyMatrix([[free_of_x - x]]), 0)
    for n in (1, 2, 3):
        zero = PolyMatrix([[0] * n for _ in range(n)])
        yield case(f"zero-{n}", zero, None, "packed")
        yield case(f"zero-{n}-x", zero.minus_diagonal(x), 0, "packed")
        yield case(f"zero-{n}-y", zero.minus_diagonal(y), None, "packed")
    entry = BiPoly({(0, 3): rat(-7, 2), (0, 1): rat(5, 3), (0, 0): rat(-1)})
    for name, p, view in (("entry", entry, None), ("entry-x", entry - x, 0), ("entry-times-x", entry * x, None)):
        yield case(name, PolyMatrix([[p]]), view, "packed")
    rows = characteristic_matrix(random.Random(1010), 4, 0).rows
    rows[3] = [p * 3 - q for p, q in zip(rows[0], rows[1])]  # row 3 = 3 row 0 - row 1
    yield case("singular-4", PolyMatrix(rows), None, "packed")
    for n in range(1, 6):
        rng = random.Random(1000 + n)
        for deg_y in (1, 2, 3):
            yield case(f"packed-{n}-deg{deg_y}", packing_matrix(rng, n, deg_y), None, "packed")
            yield case(f"packed-{n}-deg{deg_y}-x", characteristic_matrix(rng, n, 0, degree=deg_y), 0, "packed")
            yield case(f"packed-{n}-deg{deg_y}-y", characteristic_matrix(rng, n, 1, degree=deg_y), None, "packed")
    for n in (2, 4):
        for p, diagonal, view, tag in ((1 + y, x, 0, "x"), (1 + x, y, None, "y"), (1 + x + y, 0, None, "general")):
            m = PolyMatrix([[p * (s * (2**40 - 3)) for s in row] for row in hadamard(n)]).minus_diagonal(diagonal)
            yield case(f"hadamard-{n}-{tag}", m, view, "packed", "hadamard")


@pytest.mark.parametrize("m, view, facts", matdet_cases())
def test_matdet_equals_leibniz_on_every_route(m, view, facts, monkeypatch):
    """m takes its view, the integer ring while D fits the cut and the
    packed form while the slot does, and equals Leibniz and both rings in
    each view it can take, terms lex-descending.  Facts: the packed form
    runs; m scaled past the cut; det's y-degree is n deg_y; a coefficient
    of det has more than half the slot's bits (c H p, H Hadamard)."""
    d = full_denominator(m)
    ring = d if d.bit_length() <= CUT else None
    slot = slot_bits(m, view)
    form = "rational terms" if ring is None else "packed" if slot <= SLOT_CUT else "int terms"
    calls, loops = route(monkeypatch), forms(monkeypatch)
    det = matdet(m)
    assert calls == [(view, ring)] and loops == [form]
    assert form == "packed" or "packed" not in facts
    expected = leibniz_det(m)
    for v in (0, None) if view == 0 else (None,):
        by_rings = both_rings(m, v)
        assert det == expected == by_rings and list(det.items()) == list(by_rings.items())
    assert list(det.items()) == sorted(det.items(), reverse=True)
    if "tall" in facts:
        calls.clear()
        assert matdet(scale(m, TALL_SCALE)) == expected * TALL_SCALE**m.n and calls == [(None, None)]
    if "degree_y" in facts:
        assert expected.degree_y == m.n * max(e.degree_y for row in m.rows for e in row)
    if "hadamard" in facts:
        assert 2 * max(abs(c.numerator) for _, c in det.items()).bit_length() > slot


def cut_rows():
    """(m, view, D, form): D of CUT and CUT + 1 bits in both views; m
    scaled by 2^k to the largest slot within ``_PACKED_SLOT_BITS`` (at n =
    2 it steps by 2, so it meets the even cut) and one step past, in all
    three views; and matrices near A - xI, which take the general view."""
    x, y = VARIABLES
    for v in (0, 1):
        rng = random.Random(950 + v)
        for den, form in ((2**CUT - 1, "int terms"), (2**CUT + 1, "rational terms")):
            for n in (3, 5):
                corner = [[rat(-1, den) if (i, j) == (0, n - 1) else 0 for j in range(n)] for i in range(n)]
                m = add(characteristic_matrix(rng, n, v, dens=(1, den)), PolyMatrix(corner))
                yield pytest.param(m, VIEWS[v], den, form, id=f"D-{den.bit_length()}-bits-{n}-{'xy'[v]}")
    for v in (None, 0, 1):
        rng = random.Random(1020 + (v or 0))
        view, name = (None, "general") if v is None else (VIEWS[v], "xy"[v])
        base = packing_matrix(rng, 2, 2) if v is None else characteristic_matrix(rng, 2, v, dens=(1, 3))
        # 2^k A - vI for A - vI
        scaled = lambda k: scale(base, 2**k).minus_diagonal(0 if v is None else VARIABLES[v] * (1 - 2**k))
        k = 0
        while slot_bits(scaled(k + 1), view) <= SLOT_CUT:
            k += 1
        for m, form in ((scaled(k), "packed"), (scaled(k + 1), "int terms")):
            yield pytest.param(m, view, full_denominator(m), form, id=f"slot-{name}-{form.split()[0]}")
    rng = random.Random(970)
    a = characteristic_matrix(rng, 3, 0)
    corner = PolyMatrix([[0, 0, x], [0] * 3, [0] * 3])
    lead = PolyMatrix([[x, 0, 0], [0] * 3, [0] * 3])
    near = {
        "minus-2x-on-the-diagonal": scale(a, 2),
        "x-off-the-diagonal": add(a, corner),
        "a-diagonal-entry-free-of-x": add(a, lead),
        "xy-on-the-diagonal": add(a, scale(identity(3), x * y)),
        "x2-on-the-diagonal": a - scale(identity(3), x * x),
        "A-yI-A-not-free-of-y": add(characteristic_matrix(rng, 3, 1), scale(corner, y)),
        "random": random_matrix(rng, 3),
        "A-yI": characteristic_matrix(rng, 3, 1),
    }
    for name, m in near.items():
        yield pytest.param(m, None, full_denominator(m), "packed", id="near-" + name)


@pytest.mark.parametrize("m, view, d, form", cut_rows())
def test_matdet_routes_at_each_cut(m, view, d, form, monkeypatch):
    """Each row takes the route its side of each cut gives, and equals Leibniz and both rings."""
    calls, loops = route(monkeypatch), forms(monkeypatch)
    det = matdet(m)
    assert full_denominator(m) == d
    assert calls == [(view, None if form == "rational terms" else d)] and loops == [form]
    assert (slot_bits(m, view) <= SLOT_CUT) == (form == "packed")
    assert det == leibniz_det(m) == _det_berkowitz(m, view, d) == _det_berkowitz(m, view, None)


def test_determinant_paths_select_by_denominator_height(tmp_path, monkeypatch):
    calls = route(monkeypatch)
    low = random_state(3, 2, 5, seed=4)
    path = tmp_path / "low.json"
    path.write_text(low.dumps())
    assert main(["charpoly", str(path), "-o", str(tmp_path / "out.json")]) == 0
    assert [v for v, _ in calls] == [0]
    assert type(calls[0][1]) is int and calls[0][1].bit_length() <= CUT

    calls.clear()
    tall = random_state(1, 1, 3, seed=5)
    while max(v.denominator.bit_length() for v in tall.i_slice(tall.frontier)) <= 1000:
        tall.step()
    m = build_monodromy(tall, tall.frontier) - scale(identity(3), BiPoly.x())
    assert full_denominator(m).bit_length() > CUT
    assert spectral_curve(tall, tall.frontier).poly.degree_x == 3
    assert calls == [(0, None)]


@pytest.mark.parametrize("params", [(3, 2, 5), (1, 1, 8)])
def test_curves_past_the_anchor_take_berkowitz(params, monkeypatch):
    """Curves three steps past ``verify``'s anchor, where D has 150-800
    bits (226 and 654 here), past the old 64-bit cut, take the integer
    ring and equal the general view and the rational ring in value and
    term order."""
    state = random_state(*params, seed=8)
    t = default_time(state, deep=True) + 3
    m = build_monodromy(state, t) - scale(identity(params[2]), BiPoly.x())
    d = full_denominator(m)
    assert 64 < d.bit_length() <= CUT
    calls = route(monkeypatch)
    det = matdet(m)
    assert calls == [(0, d)]
    general = _det_berkowitz(m, None, d)
    assert det == general == _det_berkowitz(m, 0, None)
    assert list(det.items()) == list(general.items())
    if params[2] == 5:
        assert det == leibniz_det(m)


def test_verify_past_the_cut_takes_the_rational_ring(monkeypatch):
    """``verify`` of the tall (1,1,3) stepping window at t = 30 anchors at 31,
    on 4.5k-bit slices: each curve ``isospectrality`` builds has D past the
    cut and takes the rational ring."""
    tall = new_state(LatticeParams(1, 1, 3), {0: [2, rat(3, 2), 5]}, {0: [1, rat(7, 3), 4]})
    window = LatticeState.loads(tall.evolve_to(30).prune_below(30).dumps())
    t = default_time(window, deep=True)
    assert t == 31
    for s in range(t, t + 4):
        m = build_monodromy(window, s) - scale(identity(3), BiPoly.x())
        assert full_denominator(m).bit_length() > CUT
    calls = route(monkeypatch)
    assert dict(_suites(window))["isospectrality"]() == {"_ok": True, "times": 4}
    assert calls == [(0, None)] * 4

# the wide and widest states whose charpoly CI pins
WIDE_CI_STATE = '{"M":3,"K":2,"N":5,"frontier":0,"I":{"-2":["1/4","4/3","1/4","3/2","2"],"-1":["1","1","9/2","2","4"],"0":["9/2","2","1","2","4"]},"V":{"-1":["5/4","2","8","5/3","3"],"0":["3","1/4","2","3/2","7/2"]}}'
WIDEST_CI_STATE = '{"M":4,"K":5,"N":9,"frontier":0,"I":{"-3":["9/4","1/2","4","6","5/3","7","1/3","2","7"],"-2":["1/2","3/4","5","9/4","3/2","2","3/2","1","4"],"-1":["4","7/4","4/3","1","5/4","4","9","9","7/3"],"0":["3/4","1/2","2","2","2/3","1","1","1/2","1"]},"V":{"-4":["2","9/2","7/3","9/2","2","5/4","8/3","9","3/2"],"-3":["3/4","7/4","5/2","2","1","1","7/2","2","7"],"-2":["4","1","8","5/3","2/3","1","5/4","3/2","7/2"],"-1":["3/4","7/3","1/3","1","7","7/3","1","2","3/2"],"0":["3","1","1/3","1/2","1/2","4","1/3","5","3/2"]}}'


@pytest.mark.parametrize(
    "state, time, form",
    [(WIDE_CI_STATE, None, "packed"), (WIDEST_CI_STATE, None, "packed"), (WIDE_CI_STATE, "13", "int terms")],
    ids=["wide", "widest", "wide-t13"],
)
def test_ci_charpoly_pins_cover_both_integer_forms(state, time, form, tmp_path, monkeypatch):
    """The curves of the CI charpoly pins: the wide and widest states at
    their default times are packed, and the wide state at t = 13 (D about
    235 bits) has a slot past ``_PACKED_SLOT_BITS`` and runs the int term
    maps."""
    path = tmp_path / "state.json"
    path.write_text(state)
    calls = forms(monkeypatch)
    argv = ["charpoly", str(path), "-o", str(tmp_path / "out.json")]
    assert main(argv + (["--time", time] if time else [])) == 0
    assert calls == [form]


def test_each_determinant_caller_takes_its_path(monkeypatch):
    """The curve and the leading branch take the characteristic view;
    det(Y - yI), the stars and the cofactor matrices of the leading form
    take the general view, each equal to the Leibniz expansion; all in the
    integer ring."""
    state = random_state(2, 1, 5, seed=6)  # gcd(M+K, N) = 1: a unique branch
    t, t_deep = default_time(state), default_time(state, deep=True)
    calls = route(monkeypatch)
    traced = redkp.polymatrix._det_berkowitz

    def general_equal_to_leibniz(m, v, d):
        det = traced(m, v, d)
        if v is None:
            assert det == leibniz_det(m)
        return det

    monkeypatch.setattr(redkp.polymatrix, "_det_berkowitz", general_equal_to_leibniz)
    views = []
    for build in (
        lambda: spectral_curve(state, t),
        lambda: _leading_form(state, t, at_infinity=True),
        lambda: spectral_duality(state, t).ok,
        lambda: [matdet(star) for star in shift_stars(state, t_deep)],
    ):
        calls.clear()
        assert build()
        assert all(type(d) is int for _, d in calls)
        views.append([v for v, _ in calls])
    assert views == [[0], [None] * 5 + [0], [None], [None] * 3]


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(5):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert matdet(a @ b) == matdet(a) * matdet(b)


def test_det_with_zero_pivot_row_swap():
    zero, one = BiPoly.zero(), BiPoly.one()
    m = PolyMatrix([[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    assert matdet(m) == -BiPoly.one()
    singular = PolyMatrix([[zero, one], [zero, one]])
    assert matdet(singular).is_zero()
    for factor in (1, rat(2, 3), TALL_SCALE):
        for a in (scale(m, factor), scale(singular, factor)):
            assert matdet(a) == both_rings(a) == leibniz_det(a)


def test_leibniz_size_guard():
    with pytest.raises(LeibnizGuard):
        leibniz_det(identity(9))


def test_adjugate_inverse_relation():
    rng = random.Random(17)
    m = random_matrix(rng, 3)
    det = matdet(m)
    prod = m @ m.adjugate()
    expected = scale(identity(3), det)
    assert prod == expected


def test_matrix_associativity_spot_check():
    rng = random.Random(23)
    a, b, c = (random_matrix(rng, 3) for _ in range(3))
    assert (a @ b) @ c == a @ (b @ c)


def naive_mul(p: BiPoly, q: BiPoly) -> BiPoly:
    """A sum of monomials, one per pair of terms: a product that shares no
    code with ``bipoly._add_product``."""
    total = BiPoly.zero()
    for (px, py), pc in p.items():
        for (qx, qy), qc in q.items():
            total = total + BiPoly.monomial(px + qx, py + qy, pc * qc)
    return total


def dense_product(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The dense triple loop of products and sums: the oracle for
    ``PolyMatrix.__matmul__``."""
    n = a.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = BiPoly.zero()
            for l in range(n):
                acc = acc + naive_mul(a.entry(i, l), b.entry(l, j))
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def assert_product_matches_dense(a: PolyMatrix, b: PolyMatrix):
    prod = a @ b
    assert prod == dense_product(a, b)
    assert all(c != 0 for row in prod.rows for e in row for _, c in e.items())


@pytest.mark.parametrize("n", [3, 5])
def test_sparse_product_equals_dense_oracle(n):
    rng = random.Random(31 + n)
    for _ in range(5):
        a, b = (
            PolyMatrix([[random_bipoly(rng) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)])
            for _ in range(2)
        )
        assert_product_matches_dense(a, b)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_factor_chain_products_equal_dense_oracle(n):
    rng = random.Random(41 + n)
    chain = [build_factor([rat(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]) for _ in range(4)]
    chain += [shift_matrix(n), shift_matrix(n)]
    rng.shuffle(chain)
    prod = chain[0]
    for m in chain[1:]:
        assert_product_matches_dense(prod, m)
        prod = prod @ m


def test_product_drops_sums_that_cancel():
    x, y, one = BiPoly.x(), BiPoly.y(), BiPoly.one()
    a = PolyMatrix([[x + 1, y], [x, y]])
    b = PolyMatrix([[y, one], [-x, -one]])
    # (x+1)y - yx = y, and xy - yx = 0 cancels to the zero entry
    assert a @ b == PolyMatrix([[y, x + 1 - y], [0, x - y]])
    assert_product_matches_dense(a, b)
