"""Band coefficients and the companion (y-form) realisation of the monodromy.

The N x N eigenproblem in x unfolds into an infinite banded recursion of
width M+K whose cyclic coefficients a_{i,k} are rational numbers.  Reading
the same recursion as an eigenproblem in y yields an (M+K) x (M+K) matrix
Y = C_N...C_1, the ordered product of per-row companion matrices; the corner
and factor conjugators get matching star realisations.

The band table is the band rows of X_t that ``lax`` builds the monodromy
from, so one builder serves both forms.  Y is built from the rows as X_t is:
one row update per band row (``companion_product``), with no ``PolyMatrix``
product.  The two-letter word expansion (the literal
recursive definition, exponential in M+K) and its append rule hold for any
slice values, as does the x/y-form duality, so no ``verify`` suite runs
them: one property test each checks them over arbitrary slice windows of
every parameter set, with the word expansion of the whole table as their
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bipoly import BiPoly, _add_product, _nonzero
from .errors import ExactDivisionError, WordGuard
from .lattice import LatticeState
from .lax import conjugator_times, factor_slices, monodromy_bands, spectral_curve
from .polymatrix import PolyMatrix, matdet
from .rational import Rational

WORD_MAX_WIDTH = 8


def _levels(state: LatticeState, t: int) -> list:
    """The factor slices of X_t, rightmost (level 1) to leftmost (level M+K)."""
    return factor_slices(state, t)[::-1]


def _word_levels(state: LatticeState, t: int) -> list:
    if state.params.M + state.params.K > WORD_MAX_WIDTH:
        raise WordGuard(f"word enumeration limited to width {WORD_MAX_WIDTH}")
    return _levels(state, t)


def _word_value(levels: list, word: str, site: int):
    """Value of one {s,m}-word at a row index; the letter written first is the
    outermost (last applied) factor."""
    val = Rational(1)
    for ch, mults in zip(word, reversed(levels[: len(word)]), strict=True):
        if ch == "m":
            val *= mults[site % len(mults)]
        elif ch == "s":
            site += 1
        else:
            raise ValueError(f"bad letter {ch!r}")
    return val


def band_coefficients(state: LatticeState, t: int) -> tuple:
    """The band table a_{i,k}, k = 0..M+K, at t: the band rows of the standard
    form of X_t (``lax.monodromy_bands``), built once per t and state."""
    return monodromy_bands(state, t)


def companion_product(rows) -> PolyMatrix:
    """Y = C_N...C_1, C_i the companion matrix of band row i = (a_0, ..., a_W),
    by row updates from the W x W identity: C_i advances the window
    (g_i, ..., g_{i+W-1}) by one site, so it shifts the rows r up by one and
    appends (x - a_0) r_0 - a_1 r_1 - ... - a_{W-1} r_{W-1}, each entry summed
    in one term map, the y-side twin of ``lax.left_update``.  The full cycle
    multiplies the window by y, so Y w = y w on the curve; the product of the
    first row alone is C_1."""
    width = len(rows[0]) - 1
    terms = [[{(0, 0): Rational(1)} if i == j else {} for j in range(width)] for i in range(width)]
    for a in rows:
        coeffs = [{(1, 0): Rational(1), (0, 0): -a[0]}, *({(0, 0): -c} for c in a[1:width])]
        last = []
        for j in range(width):
            acc = {}
            for c, r in zip(coeffs, terms):
                _add_product(acc, c, r[j])
            last.append(_nonzero(acc))
        terms = terms[1:] + [last]
    return PolyMatrix([[BiPoly._raw(e) for e in row] for row in terms])


def shift_stars(state: LatticeState, t: int):
    """Star realisations (S*, R*, L*) at time t of the corner matrix and the
    two factor conjugators.  S* is the first companion C_1; R* and L* add the
    conjugating slice (at ``conjugator_times``) along its diagonal, whose
    site values wrap cyclically when M+K exceeds N."""
    t_upper, t_lower = conjugator_times(state, t)
    s_star = companion_product(monodromy_bands(state, t)[:1])

    def plus_diagonal(values):
        rows = s_star.rows
        for r in range(s_star.n):
            rows[r][r] = rows[r][r] + BiPoly.constant(values[r % len(values)])
        return PolyMatrix(rows)

    return s_star, plus_diagonal(state.i_slice(t_upper)), plus_diagonal(state.v_slice(t_lower))


@dataclass(frozen=True)
class WordAppendReport:
    """Check of the append rule <chi m> = <chi s> * I^-_{i+k} for every word."""

    width: int
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_word_append_rule(state: LatticeState, t: int) -> WordAppendReport:
    n = state.params.N
    levels = _word_levels(state, t)
    width = len(levels)
    i_ref = levels[0]  # the rightmost factor's slice, I at conjugator_times(t)[0]
    violations = []
    checked = 0
    for length in range(1, width):
        for letters in itertools.product("sm", repeat=length):
            chi = "".join(letters)
            k = chi.count("s")
            for i in range(n):
                lhs = _word_value(levels, chi + "m", i)
                rhs = _word_value(levels, chi + "s", i) * i_ref[(i + k) % n]
                checked += 1
                if lhs != rhs:
                    violations.append((chi, i))
    return WordAppendReport(width=width, checked=checked, violations=tuple(violations))


@dataclass(frozen=True)
class DualityReport:
    """Exact comparison of the two characteristic polynomials."""

    x_form: BiPoly  # det(X(y) - xE), normalised to +x^N
    y_form: BiPoly  # det(Y(x) - yE)
    ratio: BiPoly | None  # single-term quotient when the polys divide exactly

    @property
    def ok(self) -> bool:
        return self.ratio is not None and self.ratio.term_count() == 1


def spectral_duality(state: LatticeState, t: int) -> DualityReport:
    """det(Y - yE) must equal det(X - xE) up to a single-term unit; in practice
    the companion product reproduces the normalised curve polynomial exactly."""
    curve = spectral_curve(state, t).poly
    y_matrix = companion_product(monodromy_bands(state, t))
    char_y = matdet(y_matrix.minus_diagonal(BiPoly.y()))
    ratio = None
    for num, den in ((char_y, curve), (curve, char_y)):
        try:
            q = num.exact_div(den)
        except ExactDivisionError:
            continue
        if q.term_count() == 1:
            ratio = q
            break
    return DualityReport(x_form=curve, y_form=char_y, ratio=ratio)
