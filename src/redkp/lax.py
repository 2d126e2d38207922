"""Lax factors, monodromy matrices, the spectral curve and its special points.

The monodromy at time t is the ordered product of K lower-family factors and
M upper-family factors at the times ``LatticeParams.factor_times(t)``
schedules; its characteristic polynomial is independent of t,
which is the anchor identity of the whole package.  X_t is built as its band
rows, one left update per factor, with no ``PolyMatrix`` product, and folded
into the N x N matrix over Q[y]; ``yform`` reads the rows as its band table.
Conjugation by a single factor realises the two time shifts.  Each is
checked as an exact intertwining Z a == a X_t between independently built
monodromies: a right update of Z's rows against a left update of X_t's.
The site shift, conjugation by the corner matrix S (the factor with diagonal
0), holds for any slice values, so the tests pin it and no command checks it.

The special points A, B (x = 0) and Q (y = 0) are checked on the curve's x^0
column and y^0 row, the only terms their zero coordinate keeps, by one
integer Horner pass per point.  Their coordinates are the slice products and
the site invariants, two groupings of the same factor entries, so one B
product is read off the others.

The band rows at each (t, form) and the curve at each t are built once per
state, in its cache (``LatticeState.built``).  The monodromy matrix is not
cached: the curve, its one caller on a command's path, is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import NonPolynomialResult, OffCurve
from .lattice import LatticeState
from .polymatrix import PolyMatrix, matdet
from .rational import Rational

SHIFT_MU_K = "mu_K"
SHIFT_MU_MINUS_M = "mu_minus_M"


def build_factor(values) -> PolyMatrix:
    """Banded factor: given values on the diagonal, 1 on the superdiagonal,
    the indeterminate y in the lower-left corner (band rows (d_i, 1))."""
    return _fold(tuple((Rational(v), Rational(1)) for v in values))


def shift_matrix(n: int) -> PolyMatrix:
    """The corner matrix S: the factor with diagonal 0."""
    return build_factor([0] * n)


def factor_r(state: LatticeState, t: int) -> PolyMatrix:
    return build_factor(state.i_slice(t))


def factor_l(state: LatticeState, t: int) -> PolyMatrix:
    return build_factor(state.v_slice(t))


def factor_slices(state: LatticeState, t: int, form: str = "standard") -> list:
    """The diagonals of the factors of X_t in product order, leftmost first.

    The standard form is the product ``LatticeParams.factor_times(t)``
    schedules: the lower factors (V-slices) to the left of the upper ones
    (I-slices).  The alternate form is the provably equal product with every
    factor pushed through the exchange identity: the two blocks of the
    schedule at t-MK, upper factors first."""
    if form not in ("standard", "alternate"):
        raise ValueError(f"unknown monodromy form: {form}")
    params = state.params
    i_times, v_times = params.factor_times(t if form == "standard" else t - params.M * params.K)
    lower = [state.v_slice(s) for s in v_times]
    upper = [state.i_slice(s) for s in i_times]
    return lower + upper if form == "standard" else upper + lower


def left_update(rows, d) -> tuple:
    """The band rows of F P, for P's band rows and F the factor with diagonal
    d: a'_{i,k} = d_i a_{i,k} + a_{i+1,k-1}, one column wider.  The first and
    last columns take one term each, as a_{i+1,-1} and a_{i,k} past the row
    are zero: padding the rows with zeros would add a product and a sum per
    row."""
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        below = rows[(i + 1) % n]
        out.append((d[i] * row[0], *[d[i] * a + b for a, b in zip(row[1:], below)], below[-1]))
    return tuple(out)


def right_update(rows, d) -> tuple:
    """The band rows of P F: a'_{i,k} = d_{(i+k) mod N} a_{i,k} + a_{i,k-1}."""
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        inner = [d[(i + k) % n] * a + b for k, (a, b) in enumerate(zip(row[1:], row), 1)]
        out.append((d[i] * row[0], *inner, row[-1]))
    return tuple(out)


def monodromy_bands(state: LatticeState, t: int, form: str = "standard") -> tuple:
    """The band rows a_{i,k}, k = 0..M+K, of X_t: entry (i, (i+k) mod N)
    holds a_{i,k} y^((i+k) div N).  Built once per (t, form) and state, by
    left updates from the identity, rightmost factor first."""
    return state.built(("bands", t, form), lambda: _build_bands(state, t, form))


def _build_bands(state: LatticeState, t: int, form: str) -> tuple:
    rows = ((Rational(1),),) * state.params.N
    for d in reversed(factor_slices(state, t, form)):
        rows = left_update(rows, d)
    return rows


def build_monodromy(state: LatticeState, t: int, form: str = "standard") -> PolyMatrix:
    """X_t in the given form (``factor_slices``), its band rows folded into
    the N x N matrix over Q[y]."""
    return _fold(monodromy_bands(state, t, form))


def _fold(rows) -> PolyMatrix:
    """The N x N matrix over Q[y] of band rows of Rational values."""
    n = len(rows)
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            if a:
                wrap, col = divmod(i + k, n)
                entries[i][col][(0, wrap)] = a
    return PolyMatrix([[BiPoly._raw(e) for e in row] for row in entries])


@dataclass(frozen=True)
class CompatibilityReport:
    """Exact residual matrices of the three exchange identities at one time."""

    time: int
    factor_exchange: PolyMatrix      # L_t R_t - R_{t-M} L_{t-K}
    monodromy_r: PolyMatrix          # X_t R_{t-MK} - R_{t-MK} X_{t-K}
    monodromy_l: PolyMatrix          # L_{t-MK} X_t - X_{t-M} L_{t-MK}

    @property
    def all_zero(self) -> bool:
        return (
            self.factor_exchange.is_zero()
            and self.monodromy_r.is_zero()
            and self.monodromy_l.is_zero()
        )


def verify_compatibility(state: LatticeState, t: int) -> CompatibilityReport:
    M, K = state.params.M, state.params.K
    lhs = factor_l(state, t) @ factor_r(state, t)
    rhs = factor_r(state, t - M) @ factor_l(state, t - K)
    r_mid = factor_r(state, t - M * K)
    x_t = build_monodromy(state, t)
    x_tk = build_monodromy(state, t - K)
    l_mid = factor_l(state, t - M * K)
    x_tm = build_monodromy(state, t - M)
    return CompatibilityReport(
        time=t,
        factor_exchange=lhs - rhs,
        monodromy_r=(x_t @ r_mid) - (r_mid @ x_tk),
        monodromy_l=(l_mid @ x_t) - (x_tm @ l_mid),
    )


def conjugator_times(state: LatticeState, t: int) -> tuple:
    """Times of the two factors that conjugate X_t into its time shifts: the
    rightmost factor of each form of X_t, the upper factor at t-(M-1)K
    (mu_K) and the lower factor at t-MK (mu_minus_M)."""
    params = state.params
    return params.factor_times(t)[0][-1], params.factor_times(t - params.M * params.K)[1][-1]


def apply_shift(state: LatticeState, t: int, which: str) -> tuple:
    """The band rows of the monodromy at t conjugated by a factor (time
    shift), ``a X_t a^{-1}``; ``_fold`` makes them the matrix.

    The image Z is built on its own: the monodromy at t+K for mu_K and at t-M
    for mu_minus_M.  Z's rows are returned only once ``Z a == a X_t`` holds
    exactly, as a right and a left update of band rows by a's diagonal; ``a``
    is invertible over Q(y), so that equality is the conjugation.  Raises
    NonPolynomialResult when it does not hold.
    """
    M, K = state.params.M, state.params.K
    t_upper, t_lower = conjugator_times(state, t)
    if which == SHIFT_MU_K:
        t_image, d = t + K, state.i_slice(t_upper)
    elif which == SHIFT_MU_MINUS_M:
        t_image, d = t - M, state.v_slice(t_lower)
    else:
        raise ValueError(f"unknown shift: {which}")
    z = monodromy_bands(state, t_image)
    if right_update(z, d) != left_update(monodromy_bands(state, t), d):
        raise NonPolynomialResult(f"{which} intertwining failed at t = {t}")
    return z


@dataclass(frozen=True)
class SpectralCurve:
    """det(X_t(y) - x E), normalised so the x^N coefficient is +1."""

    poly: BiPoly
    deg_x: int
    deg_y: int


def spectral_curve(state: LatticeState, t: int) -> SpectralCurve:
    """The curve of the monodromy at t, built once per t and state."""
    return state.built(("curve", t), lambda: _build_curve(state, t))


def _build_curve(state: LatticeState, t: int) -> SpectralCurve:
    params = state.params
    n = params.N
    x_t = build_monodromy(state, t)
    char = matdet(x_t.minus_diagonal(BiPoly.x()))
    if n % 2 == 1:
        char = -char
    lead = char.coefficient(n, 0)
    if lead != 1:
        raise AssertionError(f"x^{n} coefficient is {lead}, expected 1")
    curve = SpectralCurve(poly=char, deg_x=char.degree_x, deg_y=char.degree_y)
    if curve.deg_x != n or curve.deg_y != params.M + params.K:
        raise AssertionError(
            f"unexpected curve degrees ({curve.deg_x}, {curve.deg_y})"
        )
    return curve


@dataclass(frozen=True)
class SpecialPoints:
    """Distinguished finite curve points, plus the infinity-branch exponents."""

    a_points: tuple  # (0, y) with y the factor-determinant zero, j = 0..M-1
    b_points: tuple  # likewise for the lower family, j = 0..K-1
    q_points: tuple  # (U_j, 0), one per site
    p_branch: tuple | None  # (M+K, N) pole orders; present iff gcd(M+K, N) == 1

    def all_points(self):
        return list(self.a_points) + list(self.b_points) + list(self.q_points)


def special_points(state: LatticeState, t: int) -> SpecialPoints:
    """Locate the x=0 and y=0 points and verify each on the curve exactly,
    raising ``OffCurve`` for the first one that is not on it.

    The y-coordinates are the exact roots of the factor determinants
    (product of the slice plus (-1)^{N+1} y), so they carry the (-1)^N
    factor for odd N.  Each point is checked on the one edge of the curve
    its zero coordinate keeps (``_edge``, ``_vanishes``): the x^0 column for
    A and B, the y^0 row for Q.

    The B product at the earliest lower factor time, t-(K-1)M, is the
    product of the site invariants at t over the other slice products: both
    multiply every factor entry of X_t, so the quotient is exact for any
    slice values, and it spares a product of N values of the slices' height.
    """
    params = state.params
    curve = spectral_curve(state, t)
    sign = Rational(1) if params.N % 2 == 0 else Rational(-1)
    zero = Rational(0)
    i_times, v_times = params.factor_times(t)
    a_prods = [state.i_product(s) for s in i_times]
    b_prods = [state.v_product(s) for s in reversed(v_times[1:])]
    rest = math.prod(state.site_invariants(t)) / math.prod(a_prods + b_prods)
    a_pts = tuple((zero, sign * p) for p in a_prods)
    b_pts = tuple((zero, sign * p) for p in b_prods + [rest])
    q_pts = tuple((u, zero) for u in state.site_invariants())
    column, row = _edge(curve.poly, 0), _edge(curve.poly, 1)
    for points, edge, coordinate in ((a_pts + b_pts, column, 1), (q_pts, row, 0)):
        for point in points:
            if not _vanishes(edge, point[coordinate]):
                raise OffCurve(f"special point ({point[0]}, {point[1]}) not on curve")
    p_branch = (params.M + params.K, params.N) if params.gcd_mkn_ok else None
    return SpecialPoints(a_points=a_pts, b_points=b_pts, q_points=q_pts, p_branch=p_branch)


def _edge(poly: BiPoly, axis: int) -> list:
    """The terms of ``poly`` whose exponent at ``axis`` is 0 (0: the x^0
    column, a polynomial in y; 1: the y^0 row, in x), as the integers
    L c_k for k = 0 to the top degree, L the lcm of their denominators."""
    terms = {key[1 - axis]: c for key, c in poly.items() if not key[axis]}
    if not terms:
        return []
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    return [
        terms[k].numerator * (lcm // terms[k].denominator) if k in terms else 0
        for k in range(max(terms) + 1)
    ]


def _vanishes(edge: list, value) -> bool:
    """Whether the edge polynomial is zero at value = r/s: the sum of
    C_k r^k s^(top-k) by one integer Horner pass from the top degree."""
    r, s = value.numerator, value.denominator
    total, s_power = 0, 1
    for c in reversed(edge):
        total = total * r + c * s_power
        s_power *= s
    return total == 0
