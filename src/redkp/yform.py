"""Band coefficients and the companion (y-form) realisation of the monodromy.

The N x N eigenproblem in x unfolds into an infinite banded recursion of
width M+K whose cyclic coefficients a_{i,k} are rational numbers.  Reading
the same recursion as an eigenproblem in y yields an (M+K) x (M+K) matrix
built as an ordered product of per-row companion matrices; the corner and
factor conjugators get matching star realisations.

The band table is the band rows of X_t that ``lax`` builds the monodromy
from, so one builder serves both forms; the companions read the rows
directly, each M+K+1 long.  The two-letter word expansion (the literal
recursive definition, exponential in M+K) and its append rule hold for any
slice values, as does the x/y-form duality, so no ``verify`` suite runs
them: one property test each checks them over arbitrary slice windows of
every parameter set, with the word expansion of the whole table as their
oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import ExactDivisionError, WordGuard
from .lattice import LatticeState
from .lax import conjugator_times, factor_slices, monodromy_bands, spectral_curve
from .polymatrix import PolyMatrix, matdet
from .rational import Rational

WORD_MAX_WIDTH = 8


@dataclass(frozen=True)
class BandCoefficients:
    """Cyclic band table a_{i,k}: N rows, columns k = 0..M+K."""

    rows: tuple  # rows[i][k]


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


def band_coefficients(state: LatticeState, t: int) -> BandCoefficients:
    """The band table at t: the band rows of the standard form of X_t
    (``lax.monodromy_bands``), built once per t and state."""
    return BandCoefficients(rows=monodromy_bands(state, t))


def _companion(row) -> PolyMatrix:
    width = len(row) - 1
    rows = [[BiPoly.zero() for _ in range(width)] for _ in range(width)]
    for r in range(width - 1):
        rows[r][r + 1] = BiPoly.one()
    rows[width - 1][0] = BiPoly.x() - BiPoly.constant(row[0])
    for k in range(1, width):
        rows[width - 1][k] = BiPoly.constant(-row[k])
    return PolyMatrix(rows)


def build_companions(rows):
    """Per-row companion matrices C_1..C_N of band rows and their ordered
    product Y = C_N...C_1.

    C_i advances the window (g_i, ..., g_{i+W-1}) by one site; the full cycle
    multiplies the window by y, so Y w = y w on the curve.  C_1 is the star
    realisation of the corner matrix.
    """
    companions = tuple(_companion(row) for row in rows)
    y_matrix = companions[0]
    for c in companions[1:]:
        y_matrix = c @ y_matrix
    return companions, y_matrix


def shift_stars(state: LatticeState, t: int):
    """Star realisations (S*, R*, L*) at time t of the corner matrix and the
    two factor conjugators.  S* is the first companion C_1; R* and L* add the
    conjugating slice (at ``conjugator_times``) along its diagonal, whose
    site values wrap cyclically when M+K exceeds N."""
    t_upper, t_lower = conjugator_times(state, t)
    s_star = _companion(monodromy_bands(state, t)[0])

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
    _, y_matrix = build_companions(monodromy_bands(state, t))
    char_y = matdet(y_matrix - PolyMatrix.identity(y_matrix.n).scale(BiPoly.y()))
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
