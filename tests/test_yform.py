import numpy as np
import pytest

import redkp.lax
import redkp.yform
from redkp import (
    BiPoly,
    PolyMatrix,
    WordGuard,
    band_coefficients,
    build_monodromy,
    companion_product,
    matdet,
    rat,
    shift_stars,
    spectral_curve,
    verify_word_append_rule,
)
from redkp.numeric import eigenvector_at, fiber_x, matrix_eval
from redkp.lattice import default_time
from redkp.verify import run_verification
from conftest import bands_words, fold_bands, identity, random_state, scale, word_value


def eigen_extension(state, t, point):
    """First M+K entries of the periodic eigenvector extension g_{i+N} = y g_i."""
    v = eigenvector_at(state, t, point)
    n = state.params.N
    width = state.params.M + state.params.K
    out = np.zeros(width, dtype=complex)
    for i in range(width):
        out[i] = v[i % n] * point.y ** (i // n)
    return out


def companion_reference_report() -> dict:
    """Fixed 3-site, width-2 reference case for the companion product.

    The band rows are (1,2,1), (3,4,1), (5,6,1).  A hand derivation of this
    Y can plausibly land on either sign of x inside the lower-right bracket,
    a2*(c1-x) - c2*(a2*b2 - b1 +- x); the companion product carries +x there
    (consistent with the top-right entry) and only the +x variant satisfies
    the x-form/y-form duality, so the report records both entries and which
    one is consistent.
    """
    a1, a2 = rat(1), rat(2)
    b1, b2 = rat(3), rat(4)
    c1, c2 = rat(5), rat(6)
    rows = (
        (a1, a2, rat(1)),
        (b1, b2, rat(1)),
        (c1, c2, rat(1)),
    )
    y_matrix = companion_product(rows)
    x = BiPoly.x()
    expected = {
        (0, 0): b2 * (BiPoly.constant(a1) - x),
        (0, 1): BiPoly.constant(a2 * b2 - b1) + x,
        (1, 0): (BiPoly.constant(a1) - x)
        * (BiPoly.constant(c1) - x - BiPoly.constant(b2 * c2)),
    }
    plus_22 = a2 * (BiPoly.constant(c1) - x) - c2 * (BiPoly.constant(a2 * b2 - b1) + x)
    minus_22 = a2 * (BiPoly.constant(c1) - x) - c2 * (BiPoly.constant(a2 * b2 - b1) - x)
    matches = {f"{i}{j}": y_matrix.entry(i, j) == expected[(i, j)] for (i, j) in expected}
    # duality check for both sign variants of the lower-right entry; the raw
    # x-form characteristic polynomial is what the companion form reproduces
    x_char = matdet(fold_bands(rows) - scale(identity(3), BiPoly.x()))
    verdicts = {}
    for label, entry in (("plus_x", plus_22), ("minus_x", minus_22)):
        rows_m = y_matrix.rows
        rows_m[1][1] = entry
        variant = PolyMatrix(rows_m)
        char_y = matdet(variant - scale(identity(2), BiPoly.y()))
        verdicts[label] = char_y == x_char
    return {
        "entries_match_display": matches,
        "product_entry_22": repr(y_matrix.entry(1, 1)),
        "plus_x_entry_22": repr(plus_22),
        "minus_x_entry_22": repr(minus_22),
        "product_uses_plus_x": y_matrix.entry(1, 1) == plus_22,
        "duality_holds": verdicts,
    }


# -- band coefficients ---------------------------------------------------------


def test_bands_smallest_case(classic_state):
    """For single factors the bands are read straight off the two-factor
    product: a_{i,0} = V_i I_i, a_{i,1} = V_i + I_{i+1}, a_{i,2} = 1."""
    bc = band_coefficients(classic_state, 0)
    i_vals, v_vals = classic_state.i_slice(0), classic_state.v_slice(0)
    n = 2
    for i in range(n):
        assert bc[i][0] == v_vals[i] * i_vals[i]
        assert bc[i][1] == v_vals[i] + i_vals[(i + 1) % n]
        assert bc[i][2] == 1


def _count_band_builds(monkeypatch):
    calls = []
    real = redkp.lax._build_bands

    def counted(state, t, form):
        calls.append((t, form))
        return real(state, t, form)

    monkeypatch.setattr(redkp.lax, "_build_bands", counted)
    return calls


def test_verify_builds_the_band_table_once(monkeypatch):
    # the monodromies, curves, stars and shifts of every suite share one
    # band table per (t, form)
    calls = _count_band_builds(monkeypatch)
    report = run_verification(random_state(2, 1, 3, seed=5), seed=7)
    assert report["passed"] is True
    assert calls and len(set(calls)) == len(calls)


def test_monodromy_and_band_table_share_one_build(monkeypatch):
    calls = _count_band_builds(monkeypatch)
    st = random_state(3, 2, 5, seed=5)
    t = default_time(st)
    x_t = build_monodromy(st, t)
    assert fold_bands(band_coefficients(st, t)) == x_t
    assert calls == [(t, "standard")]


def test_word_routes_read_the_factor_slices_once_per_call(monkeypatch):
    # the word loops are exponential in M + K; each call fetches the levels once
    calls = []
    real = redkp.yform._levels

    def counted(state, t):
        calls.append(t)
        return real(state, t)

    monkeypatch.setattr(redkp.yform, "_levels", counted)
    st = random_state(2, 3, 5, seed=13)
    t = default_time(st, deep=True)
    assert bands_words(st, t) == band_coefficients(st, t)
    assert verify_word_append_rule(st, t).ok
    assert calls == [t] * 2


def test_word_value_rejects_a_word_longer_than_the_product(classic_state):
    with pytest.raises(ValueError):
        word_value(classic_state, 0, "mmm", 0)


def test_word_guard():
    st = random_state(5, 4, 3, seed=11)
    t = default_time(st, deep=True)
    with pytest.raises(WordGuard):
        bands_words(st, t)
    with pytest.raises(WordGuard):
        verify_word_append_rule(st, t)


# -- word append rule ---------------------------------------------------------------------


def test_word_append_rule_base_case():
    st = random_state(2, 1, 2, seed=15)
    t = default_time(st, deep=True)
    i_ref = st.i_slice(t - (st.params.M - 1) * st.params.K)
    for i in range(2):
        # chi = "s": <sm> = <ss> * I^-_{i+1}
        assert word_value(st, t, "sm", i) == word_value(st, t, "ss", i) * i_ref[(i + 1) % 2]


# -- companions and duality --------------------------------------------------------------


def test_companion_reference_case():
    rep = companion_reference_report()
    assert rep["entries_match_display"] == {"00": True, "01": True, "10": True}
    assert rep["product_uses_plus_x"] is True
    assert rep["duality_holds"]["plus_x"] is True
    assert rep["duality_holds"]["minus_x"] is False


def test_companion_eigen_relation_numeric():
    """Y(x0) w = y0 w for on-curve points, w the eigenvector extension."""
    st = random_state(2, 1, 3, seed=20)
    t = default_time(st)
    curve = spectral_curve(st, t)
    y_sym = companion_product(band_coefficients(st, t))
    for y0 in (0.7 + 0.2j, 1.3 - 0.5j):
        for pt in fiber_x(curve, y0):
            w = eigen_extension(st, t, pt)
            y_num = matrix_eval(y_sym, pt.x, 0.0)
            assert np.linalg.norm(y_num @ w - pt.y * w) <= 1e-8 * np.linalg.norm(y_num)


# -- star matrices -----------------------------------------------------------------------


def test_star_shapes_smallest(classic_state):
    t = 1  # stars need the factor slice one step below the band time
    bc = band_coefficients(classic_state, t)
    s_star, r_star, l_star = shift_stars(classic_state, t)
    e1 = BiPoly.x() - BiPoly.constant(bc[0][0])
    e2 = BiPoly.constant(-bc[0][1])
    assert s_star.entry(0, 0).is_zero() and s_star.entry(0, 1) == BiPoly.one()
    assert s_star.entry(1, 0) == e1 and s_star.entry(1, 1) == e2
    # det S* = -E_1 = a_{1,0} - x = U_1 - x for width 2
    u1 = classic_state.site_invariants()[0]
    assert matdet(s_star) == BiPoly.constant(u1) - BiPoly.x()


def test_star_wraps_when_width_exceeds_period():
    # M+K = 3 > N = 2: site values repeat periodically along the diagonal
    st = random_state(2, 1, 2, seed=26)
    t = default_time(st, deep=True)
    bc = band_coefficients(st, t)
    i_vals = st.i_slice(t - (2 - 1) * 1)
    v_vals = st.v_slice(t - 2)
    s_star, r_star, l_star = shift_stars(st, t)
    assert r_star.entry(0, 0) == BiPoly.constant(i_vals[0])
    assert r_star.entry(1, 1) == BiPoly.constant(i_vals[1])
    # wrapped diagonal value on the closing row
    assert r_star.entry(2, 2) == BiPoly.constant(i_vals[0]) + BiPoly.constant(
        -bc[0][2]
    )
    assert l_star.entry(2, 2) == BiPoly.constant(v_vals[0]) + BiPoly.constant(
        -bc[0][2]
    )


def test_star_transport_numeric():
    """R* carries the y-form eigenvector to the (+K)-shifted trajectory,
    L* to the (-M)-shifted one."""
    st = random_state(1, 1, 3, seed=27)
    t = default_time(st, deep=True)
    curve = spectral_curve(st, t)
    y_t = companion_product(band_coefficients(st, t))
    y_up = companion_product(band_coefficients(st, t + st.params.K))
    y_dn = companion_product(band_coefficients(st, t - st.params.M))
    s_star, r_star, l_star = shift_stars(st, t)
    for y0 in (0.9 + 0.3j, 1.7 - 0.8j):
        for pt in fiber_x(curve, y0):
            w = eigen_extension(st, t, pt)
            for star, y_target in ((r_star, y_up), (l_star, y_dn)):
                w2 = matrix_eval(star, pt.x, 0.0) @ w
                y_num = matrix_eval(y_target, pt.x, 0.0)
                res = np.linalg.norm(y_num @ w2 - pt.y * w2)
                assert res <= 1e-8 * max(1.0, np.linalg.norm(y_num) * np.linalg.norm(w2))

