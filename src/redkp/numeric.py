"""Local structure of the spectral curve: exact leading forms at infinity and
at the coincident point, exact ranks at the finite special points.

The claims at infinity and at the coincident point Q are exact.  Give the
term y^a of entry (r, c) of a monodromy the weight (c - r) + aN: weight =
band index, the k of the band row a_{r,k} of ``lax.monodromy_bands`` that
the term holds, so X_t has weights 0..M+K.  At infinity x takes the top
weight M+K, whose band row is all ones (the superdiagonals of the factors);
at Q, in case (b), x' = x - U takes the first band row of X_t - U that is
not all zero.  That band of X_t - xI is a matrix of monomials: the
Newton-polygon argument (Duval, "Rational Puiseux expansions", 1989) taken
on leading parts only (Murota, "Computing the degree of determinants via
combinatorial relaxation", 1995).  Its determinant is the leading part of
the curve, its cofactor column holds the leading forms of the eigenvector
components, and a leading form of weight w grows like k^-w along y = k^-N
at infinity and vanishes like k^w along y = k^N at Q.  Orders are ints and
limits are rationals, compared with ``==``.

The special points Q1, A_j and B_i of ``lax.special_points`` are rational,
so the uniqueness of the eigenvector there is an exact rank, of a matrix of
integers read straight off the band rows: each row of X(y0) - x0 I scaled by
the lcm of its denominators.

``fiber_x`` and ``eigenvector_at`` work in complex floating point and no
suite calls them: they remain only as the tests' float oracles and as
targets of the benchmark's tracer.  They import numpy when called, so the
package itself needs only the standard library.  Fiber roots come from the
companion matrix of the monic-in-x polynomial, ordered by (real, imag);
eigenvectors are smallest singular vectors with the largest-magnitude
component rotated to the positive real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .bipoly import BiPoly
from .errors import (
    GcdViolation,
    IllConditioned,
    MultipleEigenvalue,
    NotCaseB,
)
from .lattice import CASE_B, LatticeState
from .lax import (
    SpectralCurve,
    _fold,
    build_monodromy,
    conjugator_times,
    monodromy_bands,
    special_points,
)
from .polymatrix import PolyMatrix, matdet
from .rational import Rational, format_rational

ON_CURVE_TOL = 1e-9
EIG_TOL = 1e-9
MULTIPLE_EIG_TOL = 1e-10


@dataclass(frozen=True)
class ComplexPoint:
    x: complex
    y: complex
    residual: float


@dataclass(frozen=True)
class NumericDiag:
    """One named diagnostic: (parameter, measured, expected) samples of JSON
    scalars (floats, ints, wire-form rationals or None) and a verdict."""

    name: str
    samples: tuple
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "samples": [
                {"parameter": str(p), "measured": m, "expected": e}
                for (p, m, e) in self.samples
            ],
        }


# -- curve evaluation -----------------------------------------------------------


def _complex_value(p: BiPoly, x0: complex, y0: complex) -> complex:
    return sum((float(c) * x0**dx * y0**dy for (dx, dy), c in p.items()), 0j)


def curve_scale(curve: SpectralCurve, x0: complex, y0: complex) -> float:
    total = 0.0
    for (dx, dy), c in curve.poly.items():
        total += abs(float(c)) * abs(x0) ** dx * abs(y0) ** dy
    return total


def curve_residual(curve: SpectralCurve, x0: complex, y0: complex) -> float:
    value = _complex_value(curve.poly, complex(x0), complex(y0))
    return abs(value) / max(1.0, curve_scale(curve, x0, y0))


def fiber_x(curve: SpectralCurve, y0: complex):
    """All N roots in x of the curve over a fixed y0, with on-curve residuals."""
    import numpy as np

    n = curve.deg_x
    coeffs = np.zeros(n + 1, dtype=complex)
    for (dx, dy), c in curve.poly.items():
        coeffs[n - dx] += float(c) * complex(y0) ** dy
    if abs(coeffs[0] - 1.0) > 1e-12:
        raise IllConditioned(f"fiber polynomial not monic: lead {coeffs[0]}")
    roots = np.roots(coeffs)
    if len(roots) != n or not np.all(np.isfinite(roots)):
        raise IllConditioned("root finder returned a bad fiber")
    roots = sorted(roots, key=lambda z: (z.real, z.imag))
    points = [ComplexPoint(complex(r), complex(y0), curve_residual(curve, r, y0)) for r in roots]
    bad = [p for p in points if p.residual > ON_CURVE_TOL]
    if bad:
        raise IllConditioned(f"fiber root off curve: residual {bad[0].residual:.3g}")
    return points


# -- eigenvectors -----------------------------------------------------------------


def matrix_eval(pm: PolyMatrix, x0: complex, y0: complex):
    """The matrix of complex values of pm's entries, as a numpy array."""
    import numpy as np

    x0, y0 = complex(x0), complex(y0)
    return np.array([[_complex_value(e, x0, y0) for e in row] for row in pm.rows], dtype=complex)


def _eigvec(xnum, x0: complex):
    import numpy as np

    n = xnum.shape[0]
    shifted = xnum - x0 * np.eye(n, dtype=complex)
    scale = np.linalg.norm(xnum)
    _, sigma, vh = np.linalg.svd(shifted)
    # kernel-dimension guard on the eigenvalue scale, not the matrix norm:
    # near the infinity branch the matrix is wildly non-normal and its norm
    # dwarfs every eigenvalue gap
    if n > 1 and sigma[-2] < MULTIPLE_EIG_TOL * max(abs(x0), 1.0):
        raise MultipleEigenvalue(
            f"numerically multi-dimensional kernel at x = {x0}"
        )
    v = vh[-1].conj()
    idx = int(np.argmax(np.abs(v)))
    v = v * (abs(v[idx]) / v[idx])
    residual = np.linalg.norm(xnum @ v - x0 * v) / max(scale, 1e-300)
    if residual > EIG_TOL:
        raise IllConditioned(f"eigen-residual {residual:.3g} above tolerance")
    return v


def eigenvector_at(state: LatticeState, t: int, point: ComplexPoint):
    """Unit eigenvector of the monodromy at the given on-curve point."""
    if point.residual > ON_CURVE_TOL:
        raise IllConditioned(f"point residual {point.residual:.3g} not on curve")
    xnum = matrix_eval(build_monodromy(state, t), 0.0, point.y)
    return _eigvec(xnum, point.x)


# -- ranks at the finite special points -----------------------------------------------


def _rank(rows) -> int:
    """Rank of a matrix of integers, by fraction-free Gaussian elimination:
    each updated row is divided by its content."""
    rows = list(rows)
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            lead = rows[r][c]
            if lead:
                row = [top[c] * a - lead * b for a, b in zip(rows[r], top)]
                g = gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        rank += 1
    return rank


def _kernel_rows(rows, x0, y0) -> list:
    """X(y0) - x0 I as rows of integers, X the fold of the band rows
    ``rows``: each row is the rational row times a positive scale, the lcm
    of its terms' denominators.  a_{i,k} adds a_{i,k} y0^w to entry
    (i, (i+k) mod N), w = (i+k) div N, and each power of y0's numerator and
    denominator is taken once."""
    n = len(rows)
    p, q = y0.numerator, y0.denominator
    p_pow, q_pow = [1], [1]
    for _ in range((n + len(rows[0]) - 2) // n):  # the largest w
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)
    out = []
    for i, row in enumerate(rows):
        terms = [(i, -x0.numerator, x0.denominator)]
        for k, a in enumerate(row):
            if a:
                w, col = divmod(i + k, n)
                terms.append((col, a.numerator * p_pow[w], a.denominator * q_pow[w]))
        scale = lcm(*(den for _, _, den in terms))
        line = [0] * n
        for col, num, den in terms:
            line[col] += num * (scale // den)
        out.append(line)
    return out


def special_point_kernels(state: LatticeState, t: int) -> NumericDiag:
    """The eigenvector is unique up to scale at Q1 and at every A_j and B_i:
    X_{t'}(y0) - x0 I has rank N - 1 over Q at each of these rational points.

    t' is the time at which the point's factor is the rightmost one of the
    monodromy (``conjugator_times``): t for the corner point Q1 = (U_1, 0),
    the time whose standard form ends in an A point's upper factor, and the
    time whose alternate form ends in a B point's lower factor.  Every point
    reads the standard-form band rows at t', which equal the alternate-form
    rows as matrices, as integer rows of X_{t'}(y0) - x0 I (``_kernel_rows``).
    """
    n = state.params.N
    sp = special_points(state, t)
    i_times, v_times = state.params.factor_times(t)
    up, low = conjugator_times(state, 0)  # each rightmost factor's time at t' = 0
    points = [("Q1", t, sp.q_points[0])]
    points += [(f"A{j}", s - up, p) for j, (s, p) in enumerate(zip(i_times, sp.a_points))]
    points += [(f"B{i}", s - low, p) for i, (s, p) in enumerate(zip(v_times[::-1], sp.b_points))]
    samples = []
    for label, t_shift, (x0, y0) in points:
        rank = _rank(_kernel_rows(monodromy_bands(state, t_shift), x0, y0))
        samples.append((f"rank:{label}", rank, n - 1))
    return _exact_diag("special_point_kernels", samples)


# -- exact leading forms -------------------------------------------------------------


def _branch_point(det: BiPoly, n: int):
    """A point (1, rho) of the leading branch when det is c x^N + c' y^a:
    c' rho^a = -c has the rational root rho = -c/c' for a = 1, and rho = 1
    when c = -c'.  None otherwise."""
    terms = dict(det.items())
    others = [key for key in terms if key != (n, 0)]
    if (n, 0) not in terms or len(others) != 1 or others[0][0] != 0:
        return None
    ratio = -terms[(n, 0)] / terms[others[0]]
    if others[0][1] == 1:
        return Rational(1), ratio
    return (Rational(1), Rational(1)) if ratio == 1 else None


@dataclass(frozen=True)
class _LeadingForm:
    """Extreme band of X_t - xI at infinity, or of X_t - (U + x)I at the
    coincident point (x standing for x' = x - U), and the leading forms read
    off it."""

    matrix: PolyMatrix
    x_weight: int
    sign: int  # -1 at infinity, where weight w is order k^-w; +1 at Q
    point: tuple | None  # (1, rho) on the leading branch
    column: tuple  # column N of the adjugate: the eigenvector's leading forms

    def order(self, p: BiPoly):
        """Order in k of the leading form p on the branch; None where p
        vanishes on it."""
        if self.point is None or p.evaluate(*self.point) == 0:
            return None
        (dx, dy), _ = next(iter(p.items()))
        return self.sign * (dx * self.x_weight + dy * self.matrix.n)

    def relative_order(self, num, den):
        """Order of |num| / |den| for vectors of leading forms, each sized by
        its largest component; None unless every order involved is known."""
        orders = [[self.order(p) for p in vec] for vec in (num, den)]
        if None in orders[0] + orders[1]:
            return None
        return min(orders[0]) - min(orders[1])


def _leading_form(state: LatticeState, t: int, at_infinity: bool) -> _LeadingForm:
    """The leading form at infinity or at Q of X_t, built once per state.  Both
    need a unique branch, gcd(M+K, N) = 1, and Q needs case (b)."""
    M, K, n = state.params.M, state.params.K, state.params.N
    if not state.params.gcd_mkn_ok:
        raise GcdViolation(f"gcd(M+K, N) = {gcd(M + K, n)} != 1: no unique leading branch")
    if not at_infinity and state.classify_case() != CASE_B:
        raise NotCaseB("site invariants are not all equal")
    key = ("leading_form", t, at_infinity)
    return state.built(key, lambda: _build_leading_form(state, t, at_infinity))


def _build_leading_form(state: LatticeState, t: int, at_infinity: bool) -> _LeadingForm:
    n = state.params.N
    bands = list(zip(*monodromy_bands(state, t)))  # bands[k][i] = a_{i,k}
    if at_infinity:
        w = len(bands) - 1
    else:
        u = state.site_invariants()[0]
        bands[0] = tuple(a - u for a in bands[0])
        w = next(k for k, band in enumerate(bands) if any(band))
    part = _fold(tuple((Rational(0),) * w + (a,) for a in bands[w]))
    matrix = part.minus_diagonal(BiPoly.x())
    # the cofactors of the last row: det with that row replaced by e_i
    rows = matrix.rows[:-1]
    column = tuple(matdet(PolyMatrix(rows + [[int(c == i) for c in range(n)]])) for i in range(n))
    return _LeadingForm(
        matrix=matrix,
        x_weight=w,
        sign=-1 if at_infinity else 1,
        point=_branch_point(matdet(matrix), n),
        column=column,
    )


def _exact_diag(name: str, samples) -> NumericDiag:
    return NumericDiag(name=name, samples=tuple(samples), passed=all(m == e for _, m, e in samples))


# -- infinity branch -----------------------------------------------------------------


def infinity_asymptotics(state: LatticeState, t: int) -> NumericDiag:
    """Pole orders and eigenvector decay on the branch y = k^{-N},
    x ~ k^{-(M+K)}, read off the top-weight part of X_t - xI.

    Requires a unique infinity branch, i.e. gcd(M+K, N) = 1.  Samples: the
    pole order of x, the orders v_i/v_N ~ k^{N-i}, and the one-order growth
    of S v, R v, L v relative to v.  The three growth samples share one top
    part, S itself: band 1 of S and of every factor is all ones.  A sample
    whose leading form vanishes on the branch reads None and fails.
    """
    M, K, n = state.params.M, state.params.K, state.params.N
    lead = _leading_form(state, t, at_infinity=True)
    v = lead.column
    pole = None if lead.point is None else lead.sign * lead.x_weight
    samples = [("x_pole_order", pole, -(M + K))]
    for i in range(n - 1):
        samples.append((f"v{i + 1}/v{n}_order", lead.relative_order([v[i]], [v[-1]]), n - 1 - i))
    growth = lead.relative_order([*v[1:], v[0] * BiPoly.y()], v)  # S v
    for name in ("corner_shift_growth", "upper_factor_growth", "lower_factor_growth"):
        samples.append((name, growth, -1))
    return _exact_diag("infinity_asymptotics", samples)


# -- coincident-point structure ------------------------------------------------------


def case_b_structure(state: LatticeState, t: int) -> NumericDiag:
    """Local structure at the coincident zero-fiber point: along y = k^N the
    eigenvector components satisfy v_i/v_1 ~ k^{i-1}, read off the
    bottom-weight part of X_t - xI at Q."""
    n = state.params.N
    lead = _leading_form(state, t, at_infinity=False)
    v = lead.column
    return _exact_diag(
        "case_b_structure",
        [(f"v{i + 1}/v1_order", lead.relative_order([v[i]], [v[0]]), i) for i in range(1, n)],
    )


# -- eigenvector-ratio limits -----------------------------------------------------------


def _ratio_limit(state, t, t_other):
    """The limit of (v_1/v_N at t) / (v_1/v_N at t_other) at the coincident
    point, in wire form; None unless the leading forms fix it."""
    a, b = (_leading_form(state, s, at_infinity=False) for s in (t, t_other))
    orders = [f.relative_order([f.column[0]], [f.column[-1]]) for f in (a, b)]
    if None in orders or (a.x_weight, a.point, orders[0]) != (b.x_weight, b.point, orders[1]):
        return None
    a1, an, b1, bn = (f.column[i].evaluate(*a.point) for f in (a, b) for i in (0, -1))
    return format_rational(a1 * bn / (an * b1))


def psi_phi_ratios(state: LatticeState, t: int) -> NumericDiag:
    """The two eigenvector-ratio limits tying lattice values to special values.

    With w(p) the ratio built from times (t, t+K), the coincident-point limit
    over the infinity limit equals I_N/I_1 of the slice at t-(M-1)K; the
    (t, t-M) analogue gives V_N/V_1 of the slice at t-MK.  The limit at
    infinity is 1, as the leading form there is the same at every time, so
    each sample is the exact rational read off the leading forms at Q.
    """
    M, K, n = state.params.M, state.params.K, state.params.N
    t_upper, t_lower = conjugator_times(state, t)
    i_ref, v_ref = state.i_slice(t_upper), state.v_slice(t_lower)
    return _exact_diag(
        "psi_phi_ratios",
        [
            ("psi_ratio", _ratio_limit(state, t, t + K), format_rational(i_ref[n - 1] / i_ref[0])),
            ("phi_ratio", _ratio_limit(state, t, t - M), format_rational(v_ref[n - 1] / v_ref[0])),
        ],
    )
