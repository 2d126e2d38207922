"""Identities of products of banded factors that hold for any slice values.

``verify`` checks claims about the one state it is given.  The identities
here hold for every window of nonzero slice values, lattice orbit or not, so
the tests pin them over arbitrary signed windows instead: the band table
against its word expansion and the monodromy against the dense product of
its factors, the site shift, the word append rule, the x/y-form duality,
the orders at infinity, which read only the top-weight part of X_t, and the
structure of X_t at y = 0: triangular with the site invariants on its
diagonal, the special points on the curve and the closed forms of det S* and
det R*.  Two of the package's shortcuts are pinned here against their
slow forms too: ``PolyMatrix.minus_diagonal`` against the identity oracle,
term order included, and the integer rows of ``numeric._kernel_rows``
against the evaluated fold.

Each identity has one property test here and no other test of the same
claim; each runs every entry of ``PARAM_SETS`` on every run, with the same
number of windows per set.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkp import (
    BiPoly,
    GcdViolation,
    LatticeParams,
    band_coefficients,
    build_monodromy,
    companion_product,
    infinity_asymptotics,
    matdet,
    new_state,
    rat,
    shift_matrix,
    shift_stars,
    special_points,
    spectral_duality,
    verify_word_append_rule,
)
from redkp.lattice import default_time
from redkp.lax import _fold
from redkp.numeric import _kernel_rows
from conftest import (
    bands_words,
    dense_monodromy,
    fold_at,
    fold_bands,
    identity,
    on_every_set,
    rotated,
    scale,
    values,
    windows,
)

# (1,1,2) to (3,4,5) and (2,3,7); every width M+K is within the word routes'
# limit of 8
PARAM_SETS = [
    (1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 1, 3),
    (1, 2, 5), (3, 1, 4), (3, 2, 5), (2, 3, 5), (3, 4, 5), (2, 3, 7),
]

# sets with M+K >= N, where two band entries of a row share a matrix entry,
# and N = 1, where every band wraps into the one entry
FOLD_SETS = PARAM_SETS + [(1, 1, 1), (2, 1, 1)]

def window_state(M, K, N, data):
    """The state of a drawn window, whose anchor ``default_time(deep=True)``
    is 0, so that no check steps it."""
    state = new_state(LatticeParams(M, K, N), *data.draw(windows(M, K, N)))
    assert default_time(state, deep=True) == state.frontier == 0
    return state


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_band_routes_agree_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    bands = band_coefficients(state, 0)
    assert bands == bands_words(state, 0)
    assert fold_bands(bands) == build_monodromy(state, 0) == dense_monodromy(state, 0)
    assert build_monodromy(state, 0, "alternate") == dense_monodromy(state, 0, "alternate")
    assert state.frontier == 0


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_site_shift_intertwines_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    # S X_0 == X_0(rotated) S for any slices, so ``verify`` does not check it
    s = shift_matrix(state.params.N)
    assert s @ build_monodromy(state, 0) == build_monodromy(rotated(state), 0) @ s
    assert state.frontier == 0


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_word_append_rule_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    rep = verify_word_append_rule(state, 0)
    assert rep.ok and rep.checked > 0
    assert state.frontier == 0


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_spectral_duality_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    rep = spectral_duality(state, 0)
    assert rep.ok and rep.ratio in (BiPoly.one(), -BiPoly.one())
    assert state.frontier == 0


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_orders_at_infinity_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    if state.params.gcd_mkn_ok:
        assert infinity_asymptotics(state, 0).passed
    else:
        with pytest.raises(GcdViolation):
            infinity_asymptotics(state, 0)
    assert state.frontier == 0


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_zero_fiber_structure_on_any_window(M, K, N, data):
    state = window_state(M, K, N, data)
    # X_0(0) is upper triangular with the site invariants on its diagonal, as
    # lax._fold puts every entry left of the diagonal at y^1 or higher
    n = state.params.N
    x0 = build_monodromy(state, 0)
    u = state.site_invariants(0)
    for i in range(n):
        for j in range(i + 1):
            assert x0.entry(i, j).evaluate(0, 0) == (u[i] if i == j else 0)
    special_points(state, 0)  # raises if an A, B or Q point is off the curve
    # S* is a companion matrix and R* a bidiagonal one, whatever the slices
    sign = 1 if (state.params.M + state.params.K) % 2 == 0 else -1
    s_star, r_star, _ = shift_stars(state, 0)
    assert matdet(s_star) == (BiPoly.constant(u[0]) - BiPoly.x()) * rat(sign)
    assert matdet(r_star) == BiPoly.monomial(1, 0, -sign)
    assert state.frontier == 0


def _terms(m):
    return [[list(e.items()) for e in row] for row in m.rows]


@on_every_set(PARAM_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_minus_diagonal_keeps_the_terms_of_the_identity_oracle(M, K, N, data):
    state = window_state(M, K, N, data)
    x, y = BiPoly.x(), BiPoly.y()
    x_t = build_monodromy(state, 0)
    y_matrix = companion_product(band_coefficients(state, 0))
    plus = x_t.minus_diagonal(-x)  # X_t + xI
    # v's key is absent from the diagonal of X_t (x) and of Y (y), present on
    # Y's (x) once N >= M+K, and present and cancelling on that of X_t + xI (x)
    for m, v in ((x_t, x), (y_matrix, y), (y_matrix, x), (plus, x)):
        oracle = m - scale(identity(m.n), v)
        assert _terms(m.minus_diagonal(v)) == _terms(oracle)
        assert list(matdet(m.minus_diagonal(v)).items()) == list(matdet(oracle).items())
    assert _terms(plus.minus_diagonal(x)) == _terms(x_t)
    assert state.frontier == 0


@on_every_set(FOLD_SETS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_band_rows_evaluate_as_their_fold_on_any_window(M, K, N, data):
    """Each integer row of ``numeric._kernel_rows`` is the row of X(y0) -
    x0 I times a positive scale, X(y0) read by ``fold_at`` and evaluated
    from the fold, at every special point and at a drawn point."""
    state = window_state(M, K, N, data)
    rows = band_coefficients(state, 0)
    folded = _fold(rows)
    drawn = data.draw(values), data.draw(values)
    for x0, y0 in [*special_points(state, 0).all_points(), drawn]:
        matrix = fold_at(rows, y0)
        assert matrix == [[folded.entry(r, c).evaluate(x0, y0) for c in range(N)] for r in range(N)]
        for r, (got, want) in enumerate(zip(_kernel_rows(rows, x0, y0), matrix)):
            want = [v - x0 if c == r else v for c, v in enumerate(want)]
            scale = next((g / w for g, w in zip(got, want) if w), None)
            assert all(type(g) is int for g in got)
            assert got == [0] * N if scale is None else scale > 0 and got == [scale * w for w in want]
    assert state.frontier == 0
