import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import redkp.numeric
from redkp import (
    BiPoly,
    DegenerateEvolution,
    InsufficientHistory,
    LatticeParams,
    NonPolynomialResult,
    PolyMatrix,
    SingularStep,
    build_factor,
    build_monodromy,
    matdet,
    new_state,
    rat,
    shift_matrix,
    special_points,
    spectral_curve,
    uniform_state,
    verify_compatibility,
)
from redkp import cli, lax, polymatrix
from redkp.errors import OffCurve
from redkp.lattice import _product, default_time
from redkp.lax import (
    SHIFT_MU_K,
    SHIFT_MU_MINUS_M,
    _fold,
    apply_shift,
    factor_l,
    factor_r,
)
from redkp.verify import run_verification
from conftest import PARAM_SETS, identity, on_every_set, random_state, rotated, scale, windows

SHIFTS = (SHIFT_MU_K, SHIFT_MU_MINUS_M)


# -- factors ------------------------------------------------------------------


def test_build_factor_shape():
    f = build_factor([1, 5])
    assert f.entry(0, 0) == BiPoly.constant(1)
    assert f.entry(0, 1) == BiPoly.one()
    assert f.entry(1, 0) == BiPoly.y()
    assert f.entry(1, 1) == BiPoly.constant(5)


def test_build_factor_uniform():
    f = build_factor([rat(7, 2)] * 4)
    for i in range(4):
        assert f.entry(i, i) == BiPoly.constant(rat(7, 2))
        for j in range(4):
            if j == i + 1:
                assert f.entry(i, j) == BiPoly.one()
            elif j not in (i, i + 1) and (i, j) != (3, 0):
                assert f.entry(i, j).is_zero()
    assert f.entry(3, 0) == BiPoly.y()


def test_factor_determinant_small():
    assert matdet(build_factor([2, 3])) == BiPoly.constant(6) - BiPoly.y()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_factor_determinant_sign(n):
    """det factor = (product of values) + (-1)^(N+1) y; the printed two-size
    shorthand 'product - y' is literally right only for even N."""
    vals = [rat(i + 2, 1 + (i % 3)) for i in range(n)]
    prod = rat(1)
    for v in vals:
        prod *= v
    sign = rat(-1) if n % 2 == 0 else rat(1)
    computed = matdet(build_factor(vals))
    assert computed == BiPoly.constant(prod) + BiPoly.monomial(0, 1, sign)
    assert (computed == BiPoly.constant(prod) - BiPoly.y()) == (n % 2 == 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shift_matrix_determinant(n):
    sign = rat(-1) if n % 2 == 0 else rat(1)  # (-1)^(N+1)
    assert matdet(shift_matrix(n)) == BiPoly.monomial(0, 1, sign)


# -- monodromy ------------------------------------------------------------------


def test_monodromy_single_factors(classic_state):
    x0 = build_monodromy(classic_state, 0)
    lhs = build_factor(classic_state.v_slice(0)) @ build_factor(classic_state.i_slice(0))
    assert x0 == lhs  # hand multiplication of the two 2x2 factors
    assert x0.entry(0, 0) == BiPoly.constant(2) + BiPoly.y()
    assert x0.entry(0, 1) == BiPoly.constant(4)
    assert x0.entry(1, 0) == BiPoly.monomial(0, 1, 7)
    assert x0.entry(1, 1) == BiPoly.y() + BiPoly.constant(15)


def test_factor_times_in_product_order():
    # X_t = L(t-(K-1)M) ... L(t-M) L(t) R(t) R(t-K) ... R(t-(M-1)K)
    assert LatticeParams(2, 3, 5).factor_times(10) == ((10, 7), (6, 8, 10))
    assert LatticeParams(3, 2, 5).factor_times(0) == ((0, -2, -4), (-3, 0))
    assert LatticeParams(1, 1, 2).factor_times(4) == ((4,), (4,))


def test_monodromy_is_the_scheduled_product():
    st = random_state(2, 3, 5, seed=6)
    t = default_time(st, deep=True)
    # hand-ordered factors: V at t-2M, t-M, t, then I at t, t-K
    mats = [factor_l(st, t - 4), factor_l(st, t - 2), factor_l(st, t)]
    mats += [factor_r(st, t), factor_r(st, t - 3)]
    expected = mats[0]
    for m in mats[1:]:
        expected = expected @ m
    assert build_monodromy(st, t) == expected
    assert lax.conjugator_times(st, t) == (t - 3, t - 6)


@pytest.mark.parametrize("long_family", ["I", "V"])
@pytest.mark.parametrize("M,K,N", [(1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 3, 5), (3, 2, 5)])
def test_default_time_is_the_earliest_buildable(M, K, N, long_family, tmp_path):
    src = random_state(M, K, N, seed=3).evolve_to(8)
    # one family keeps nine slices, the other only its stepping window
    i_from = 0 if long_family == "I" else 9 - M
    v_from = 0 if long_family == "V" else 9 - K
    st = new_state(
        src.params,
        {s: src.i_slice(s) for s in range(i_from, 9)},
        {s: src.v_slice(s) for s in range(v_from, 9)},
    )
    t = default_time(st)
    build_monodromy(st, t)
    with pytest.raises(InsufficientHistory):
        build_monodromy(st, t - 1)
    # the deep anchor is the earliest time the alternate form builds
    deep = default_time(st, deep=True)
    assert deep == t + M * K
    build_monodromy(st, deep, "alternate")
    with pytest.raises(InsufficientHistory):
        build_monodromy(st, deep - 1, "alternate")
    # and yform's default time
    path = tmp_path / "s.json"
    path.write_text(st.dumps())
    outs = [tmp_path / "default.json", tmp_path / "explicit.json"]
    assert cli.main(["yform", str(path), "-o", str(outs[0])]) == 0
    assert cli.main(["yform", str(path), "--time", str(t + M * K), "-o", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("M,K,N,seed", [(2, 1, 3, 4), (1, 2, 3, 5), (2, 3, 5, 6), (3, 2, 5, 1)])
def test_standard_equals_alternate(M, K, N, seed):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    assert build_monodromy(st, t, "standard") == build_monodromy(st, t, "alternate")


def _monodromy_oracle(st, t, form):
    """The scheduled factors multiplied as ``PolyMatrix`` products: the oracle
    for the column updates of ``build_monodromy``."""
    params = st.params
    i_times, v_times = params.factor_times(t if form == "standard" else t - params.M * params.K)
    lower = [factor_l(st, s) for s in v_times]
    upper = [factor_r(st, s) for s in i_times]
    mats = lower + upper if form == "standard" else upper + lower
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def _assert_monodromies_match_oracle(st, t, monkeypatch):
    """Both forms of X_t equal the oracle, are polynomials in y alone with no
    stored zero, and are built with no PolyMatrix product or factor."""
    forms = ("standard", "alternate")
    expected = [_monodromy_oracle(st, t, form) for form in forms]

    def forbidden(*args, **kwargs):
        raise AssertionError("build_monodromy must not multiply PolyMatrix factors")

    with monkeypatch.context() as patch:
        patch.setattr(PolyMatrix, "__matmul__", forbidden)
        patch.setattr(lax, "build_factor", forbidden)
        built = [build_monodromy(st, t, form) for form in forms]
    for x_t, oracle in zip(built, expected):
        assert x_t == oracle
        for row in x_t.rows:
            for e in row:
                assert all(key[0] == 0 and c != 0 for key, c in e.items())
    return built


@pytest.mark.parametrize(
    "M,K,N", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 3, 2), (2, 1, 3), (3, 2, 4), (2, 3, 5), (1, 2, 6)]
)
def test_monodromy_matches_factor_product_oracle(M, K, N, monkeypatch):
    st = random_state(M, K, N, seed=40 + 10 * M + N)
    t = default_time(st, deep=True)
    _assert_monodromies_match_oracle(st, t, monkeypatch)
    _assert_monodromies_match_oracle(rotated(st), t, monkeypatch)


def test_monodromy_entries_that_cancel_are_zero(monkeypatch):
    # L = [[-1, 1], [y, -1]] and R = [[1, 1], [y, 1]]: X = (y - 1) I
    st = new_state(LatticeParams(1, 1, 2), {-1: [1, 1], 0: [1, 1]}, {-1: [-1, -1], 0: [-1, -1]})
    x_t, _ = _assert_monodromies_match_oracle(st, 0, monkeypatch)
    assert x_t == scale(identity(2), BiPoly.y() - 1)


def test_monodromy_insufficient_history():
    st = random_state(2, 1, 3, seed=2)
    with pytest.raises(InsufficientHistory):
        build_monodromy(st, st.i_min - 1)


def test_pruning_drops_built_monodromies():
    st = random_state(2, 1, 3, seed=2)
    t = default_time(st)
    build_monodromy(st, t)
    st.evolve_to(t + 10)
    st.prune_below(t + 1)
    with pytest.raises(InsufficientHistory):
        build_monodromy(st, t)


@pytest.mark.parametrize("M,K,N,seed", [(1, 1, 3, 31), (2, 1, 3, 32), (2, 3, 5, 33)])
def test_form_equality_sees_a_slice_read_only_by_the_alternate_form(M, K, N, seed):
    # V at t - MK feeds the alternate product and not the standard one.  Both
    # forms are built on st first, so a cache key without the form, or a
    # copy() sharing st's cache, would hand back st's matrices here.
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    st.evolve_to(t + 4)
    std = build_monodromy(st, t, "standard")
    assert build_monodromy(st, t, "alternate") == std
    bad = _corrupted(st, t - M * K)
    assert build_monodromy(bad, t, "standard") == std
    assert build_monodromy(bad, t, "alternate") != std
    report = run_verification(bad)
    suite = next(s for s in report["suites"] if s["name"] == "monodromy_form_equality")
    assert suite["status"] == "fail"


# -- compatibility -----------------------------------------------------------------


def test_compatibility_uniform():
    st = uniform_state(LatticeParams(2, 1, 3), 3, 2)
    rep = verify_compatibility(st, default_time(st, deep=True))
    assert rep.all_zero


def test_compatibility_classic_after_steps(classic_state):
    classic_state.evolve_to(5)
    rep = verify_compatibility(classic_state, 4)
    assert rep.all_zero


def test_compatibility_negative_control():
    st = random_state(1, 1, 2, seed=8)
    st.evolve_to(6)
    corrupted = st.copy()
    vals = list(corrupted.v_slice(3))
    vals[0] += 1  # break one slice; the exchange identities must notice
    corrupted._v[3] = tuple(vals)
    rep = verify_compatibility(corrupted, 4)
    assert not rep.all_zero


def _lattice_equations_hold(st, t):
    M, K, n = st.params.M, st.params.K, st.params.N
    a, b = st.i_slice(t - M), st.v_slice(t - K)
    x, y = st.i_slice(t), st.v_slice(t)
    return all(
        x[i] == a[i - 1] + b[i] - y[i - 1] and y[i] * x[i] == a[i] * b[i] for i in range(n)
    )


def _intertwines(st, t, which):
    try:
        apply_shift(st, t, which)
    except NonPolynomialResult:
        return False
    return True


@pytest.mark.parametrize("M,K,N,seed", [(1, 1, 3, 41), (2, 1, 3, 42), (1, 2, 3, 43)])
def test_exchange_identities_are_the_lattice_equations_and_time_shifts(M, K, N, seed):
    # Each residual of verify_compatibility is zero exactly when an identity
    # checked elsewhere holds: the factor exchange at t is the lattice
    # equations at t, the monodromy exchanges are mu_{-M} at t and mu_K at
    # t - K.  One slice at a time is corrupted around t, so both outcomes occur;
    # the window reaches back to t - MK - M - K, so t sits M + K past the anchor.
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True) + M + K
    st.evolve_to(t + 2)
    outcomes = set()
    for s in range(t - M * K - M - K, t + 2):
        for kind in ("I", "V"):
            bad = _corrupted(st, s, kind)
            rep = verify_compatibility(bad, t)
            outcome = (
                _lattice_equations_hold(bad, t),
                _intertwines(bad, t, SHIFT_MU_MINUS_M),
                _intertwines(bad, t - K, SHIFT_MU_K),
            )
            residuals = (rep.factor_exchange, rep.monodromy_l, rep.monodromy_r)
            assert tuple(r.is_zero() for r in residuals) == outcome
            outcomes.add(outcome)
    for k in range(3):
        assert {o[k] for o in outcomes} == {True, False}


# -- shifts ---------------------------------------------------------------------------


def test_sigma_intertwines_site_rotation():
    # only the forward rotation: N-1 rotations are the opposite rotation,
    # which differs from it for N >= 3 and must not intertwine.  The forward
    # intertwining itself holds on any window (tests/test_identities.py)
    for (M, K, N, seed) in [(1, 1, 3, 10), (2, 1, 3, 15), (3, 2, 5, 16)]:
        st = random_state(M, K, N, seed=seed)
        t = default_time(st, deep=True)
        s = shift_matrix(N)
        x_t = build_monodromy(st, t)
        back = st
        for _ in range(N - 1):
            back = rotated(back)
        assert s @ x_t != build_monodromy(back, t) @ s


def _conjugator(st, t, which):
    M, K = st.params.M, st.params.K
    if which == SHIFT_MU_K:
        return factor_r(st, t - (M - 1) * K)
    return factor_l(st, t - M * K)


def _adjugate_oracle(a, x):
    """a x a^{-1} through the adjugate and one exact division per entry."""
    det = matdet(a)
    raw = a @ x @ a.adjugate()
    return PolyMatrix([[raw.entry(i, j).exact_div(det) for j in range(a.n)] for i in range(a.n)])


@pytest.mark.parametrize("M,K,N", PARAM_SETS)
def test_apply_shift_matches_adjugate_oracle(M, K, N, monkeypatch):
    st = random_state(M, K, N, seed=100 * M + 10 * K + N)
    t = default_time(st, deep=True)
    x_t = build_monodromy(st, t)
    expected = {which: _adjugate_oracle(_conjugator(st, t, which), x_t) for which in SHIFTS}

    def forbidden(*args, **kwargs):
        raise AssertionError("apply_shift must not take products, determinants or adjugates")

    monkeypatch.setattr(PolyMatrix, "adjugate", forbidden)
    monkeypatch.setattr(PolyMatrix, "__matmul__", forbidden)
    monkeypatch.setattr(polymatrix, "matdet", forbidden)
    monkeypatch.setattr(lax, "matdet", forbidden)
    monkeypatch.setattr(lax, "build_factor", forbidden)
    monkeypatch.setattr(lax, "shift_matrix", forbidden)
    for which in SHIFTS:
        assert _fold(apply_shift(st, t, which)) == expected[which]


def _corrupted(st, t, kind="V"):
    out = st.copy()
    vals = list(out.v_slice(t) if kind == "V" else out.i_slice(t))
    vals[0] += 1
    (out._v if kind == "V" else out._i)[t] = tuple(vals)
    return out


def test_corrupted_slice_breaks_time_shift_intertwinings():
    st = random_state(2, 1, 3, seed=17)
    t = default_time(st, deep=True)
    st.evolve_to(t + 4)
    bad = _corrupted(st, t)
    for which in (SHIFT_MU_K, SHIFT_MU_MINUS_M):
        with pytest.raises(NonPolynomialResult, match="intertwining failed"):
            apply_shift(bad, t, which)


def test_corrupted_slice_fails_shift_conjugations_suite():
    st = random_state(1, 1, 3, seed=18)
    t = default_time(st, deep=True)
    st.evolve_to(t + 8)
    report = run_verification(_corrupted(st, t))
    suite = next(s for s in report["suites"] if s["name"] == "shift_conjugations")
    assert suite["status"] == "fail"
    assert suite["reason"].startswith("NonPolynomialResult")
    assert report["passed"] is False


@pytest.mark.parametrize("offset,which", [(-3, SHIFT_MU_MINUS_M), (1, SHIFT_MU_K)])
def test_shift_conjugations_suite_checks_each_time_shift(offset, which):
    # For (2,1,3), I at t-3 feeds only X_{t-2} (the mu_{-M} image) and I at
    # t+1 only X_{t+1} (the mu_K image), so each breaks one intertwining.
    st = random_state(2, 1, 3, seed=17)
    t = default_time(st, deep=True)
    st.evolve_to(t + 8)
    bad = _corrupted(st, t + offset, "I")
    other = SHIFT_MU_K if which == SHIFT_MU_MINUS_M else SHIFT_MU_MINUS_M
    assert _intertwines(bad, t, other) and not _intertwines(bad, t, which)
    report = run_verification(bad)
    suite = next(s for s in report["suites"] if s["name"] == "shift_conjugations")
    assert suite["status"] == "fail"
    assert suite["reason"] == f"NonPolynomialResult: {which} intertwining failed at t = {t}"


@pytest.mark.parametrize("kind", ["I", "V"])
def test_corrupted_slice_fails_evolution_consistency_suite(kind):
    st = random_state(2, 1, 3, seed=19)
    t = default_time(st, deep=True)
    st.evolve_to(t + 8)
    report = run_verification(_corrupted(st, t, kind))
    suite = next(s for s in report["suites"] if s["name"] == "evolution_consistency")
    assert suite["status"] == "fail"
    assert report["passed"] is False


@pytest.mark.parametrize("broken", ["sum", "product"])
def test_evolution_consistency_checks_each_lattice_equation(broken):
    # Corrupt the frontier so that only one of the two lattice equations
    # breaks, while the slice products prod(I) and prod(V) stay the same.
    # Scaling I_0, I_1 by 2, 1/2 and V_0, V_1 by 1/2, 2 keeps every product
    # V_i I_i and breaks the sum I_1 + V_0.  Adding d_i to I_i and taking
    # d_{i+1} from V_i keeps every sum I_i + V_{i-1}; with d_0 = 0 the d_1
    # below keeps both slice products and changes V_1 I_1.
    st = random_state(2, 1, 3, seed=19)
    st.evolve_to(default_time(st, deep=True) + 3)
    bad = st.copy()
    t = bad.frontier
    x, y = list(bad.i_slice(t)), list(bad.v_slice(t))
    if broken == "sum":
        x[0], x[1], y[0], y[1] = x[0] * 2, x[1] / 2, y[0] / 2, y[1] * 2
    else:
        d1 = (y[0] * x[2] - y[1] * x[1]) / (y[1] + x[2])
        d2 = -x[2] * d1 / (x[1] + d1)
        assert d1 != 0
        x[1], x[2], y[0], y[1] = x[1] + d1, x[2] + d2, y[0] - d1, y[1] - d2
    bad._i[t], bad._v[t] = tuple(x), tuple(y)
    assert bad.i_product(t) == st.i_product(t) and bad.v_product(t) == st.v_product(t)
    assert _lattice_equations_hold(st, t) and not _lattice_equations_hold(bad, t)
    report = run_verification(bad)
    suite = next(s for s in report["suites"] if s["name"] == "evolution_consistency")
    assert suite["status"] == "fail"


# -- spectral curve ---------------------------------------------------------------------


def test_classic_curve_closed_form(classic_state):
    curve = spectral_curve(classic_state, 0)
    expected = BiPoly(
        {(0, 2): 1, (1, 1): -2, (0, 1): -11, (2, 0): 1, (1, 0): -17, (0, 0): 30}
    )
    assert curve.poly == expected
    assert curve.deg_x == 2 and curve.deg_y == 2


def test_zeta_seeded_curve_closed_form():
    zeta = rat(10)
    i1, v1 = [rat(3), rat(7)], [rat(2), rat(5)]
    st = new_state(LatticeParams(2, 1, 2), {-1: [zeta, zeta], 0: i1}, {0: v1})
    curve = spectral_curve(st, 0)
    u1 = i1[0] * i1[1] + v1[0] * v1[1]
    u2 = v1[0] * i1[0] + v1[1] * i1[1]
    u3 = i1[0] * i1[1] * v1[0] * v1[1]
    u4 = i1[0] + i1[1] + v1[0] + v1[1]
    expected = BiPoly(
        {
            (0, 3): -1,
            (0, 2): zeta * zeta + u1,
            (1, 1): -(2 * zeta + u4),
            (0, 1): -(zeta * zeta * u1 + u3),
            (2, 0): 1,
            (1, 0): -zeta * u2,
            (0, 0): zeta * zeta * u3,
        }
    )
    assert curve.poly == expected


@pytest.mark.parametrize("M,K,N,seed", [(1, 1, 2, 1), (2, 1, 3, 2), (3, 2, 5, 3)])
def test_curve_time_invariance(M, K, N, seed):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st)
    c0 = spectral_curve(st, t).poly
    for dt in range(1, 4):
        assert spectral_curve(st, t + dt).poly == c0


# -- special points -----------------------------------------------------------------------


def test_special_points_classic(classic_state):
    sp = special_points(classic_state, 0)
    assert sp.a_points == ((rat(0), rat(6)),)
    assert sp.b_points == ((rat(0), rat(5)),)
    assert set(sp.q_points) == {(rat(2), rat(0)), (rat(15), rat(0))}
    assert sp.p_branch is None  # gcd(2, 2) != 1


def test_verify_builds_the_special_points_once(monkeypatch):
    # special_point_kernels reads every point from one build
    calls = []
    real = redkp.numeric.special_points

    def counted(state, t):
        calls.append(t)
        return real(state, t)

    monkeypatch.setattr(redkp.numeric, "special_points", counted)
    report = run_verification(random_state(2, 1, 3, seed=5), seed=7)
    statuses = {s["name"]: s["status"] for s in report["suites"]}
    assert statuses["special_point_kernels"] == "pass"
    assert len(calls) == 1


def test_special_points_case_b_coincide():
    st = uniform_state(LatticeParams(1, 1, 3), 2, 1)
    sp = special_points(st, 0)
    assert len(set(sp.q_points)) == 1
    assert sp.p_branch == (2, 3)


def _assert_ys_are_slice_products(state, t):
    i_times, v_times = state.params.factor_times(t)
    sign = 1 if state.params.N % 2 == 0 else -1
    sp = special_points(state, t)
    assert all(x0 == 0 for x0, _ in sp.a_points + sp.b_points)
    assert [y0 for _, y0 in sp.a_points] == [sign * _product(state.i_slice(s)) for s in i_times]
    # B_0 is the lower factor at t, as numeric.special_point_kernels pairs them
    assert [y0 for _, y0 in sp.b_points] == [sign * _product(state.v_slice(s)) for s in reversed(v_times)]


@on_every_set(PARAM_SETS)
@given(data=hs.data())
@settings(max_examples=4, deadline=None)
def test_special_point_ys_are_the_slice_products(M, K, N, data):
    """Each A and B y-coordinate is the sign times the product of its factor
    slice, on an arbitrary window and again at the frontier after a few
    steps, with the products of earlier times in the cache.  One B product
    is read off the site invariants; mutants this catches: the B points in
    the order of ``factor_times``, and that product with one divisor left
    out."""
    state = new_state(LatticeParams(M, K, N), *data.draw(windows(M, K, N)))
    _assert_ys_are_slice_products(state, 0)
    try:
        for _ in range(data.draw(hs.integers(1, 3))):
            state.step()
    except (DegenerateEvolution, SingularStep):
        pass  # a window need not be an orbit; check the frontier reached
    _assert_ys_are_slice_products(state, state.frontier)


# A coefficient the zero coordinate of each kind of point keeps: y^1 in the
# x^0 column (A and B), x^1 in the y^0 row (Q), and one it kills on both.
CURVE_CHANGES = {"column": (0, 1), "row": (1, 0), "interior": (1, 1)}


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("change", sorted(CURVE_CHANGES))
def test_special_points_check_the_curve_in_the_cache(change, params):
    """With one curve coefficient changed by 1 in ``LatticeState.built``, a
    column change fails the first A point and a row change the first Q
    point; an interior change passes, as the full ``BiPoly.evaluate`` at
    each point would.  Mutants each case catches: A and B points left
    unchecked (column, the only test that does), Q points left unchecked
    (row), and a check of the whole cached curve against a rebuilt one
    (interior)."""
    state = random_state(*params, seed=4)
    t = default_time(state)
    genuine = special_points(state.copy(), t)
    curve = spectral_curve(state.copy(), t)
    terms = dict(curve.poly.items())
    key = CURVE_CHANGES[change]
    terms[key] = terms.get(key, 0) + 1
    changed = lax.SpectralCurve(BiPoly(terms), curve.deg_x, curve.deg_y)
    state.built(("curve", t), lambda: changed)
    assert all(changed.poly.evaluate(x0, y0) == 0 for x0, y0 in genuine.all_points()) is (change == "interior")
    if change == "interior":
        assert special_points(state, t) == genuine
        return
    x0, y0 = (genuine.a_points if change == "column" else genuine.q_points)[0]
    with pytest.raises(OffCurve) as raised:
        special_points(state, t)
    assert str(raised.value) == f"special point ({x0}, {y0}) not on curve"


def test_product_of_factor_determinants():
    st = random_state(2, 1, 3, seed=14)
    t = default_time(st)
    x_t = build_monodromy(st, t)
    det_x = matdet(x_t)
    prod = matdet(build_factor(st.v_slice(t)))
    for j in range(2):
        prod = prod * matdet(build_factor(st.i_slice(t - j)))
    assert det_x == prod
