import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import redkp.numeric
from redkp import (
    BiPoly,
    GcdViolation,
    LatticeParams,
    LatticeState,
    NotCaseB,
    PolyMatrix,
    case_b_structure,
    eigenvector_at,
    fiber_x,
    format_rational,
    infinity_asymptotics,
    matdet,
    psi_phi_ratios,
    rat,
    shift_matrix,
    special_point_kernels,
    spectral_curve,
    uniform_state,
)
from redkp.lattice import default_time
from redkp.lax import build_monodromy, factor_l, factor_r, monodromy_bands
from redkp.numeric import ON_CURVE_TOL, ComplexPoint, _leading_form, _rank, matrix_eval
from redkp.verify import run_verification
from conftest import identity, on_every_set, random_state, scale
from test_identities import PARAM_SETS, window_state


# -- fibers ------------------------------------------------------------------


def test_fiber_at_zero_is_exact_factorisation(classic_state):
    curve = spectral_curve(classic_state, 0)
    pts = fiber_x(curve, 0.0)
    roots = sorted(p.x.real for p in pts)
    assert np.allclose(roots, [2.0, 15.0], atol=1e-9)


def test_fiber_at_special_y_contains_zero(classic_state):
    curve = spectral_curve(classic_state, 0)
    pts = fiber_x(curve, 6.0)
    assert min(abs(p.x) for p in pts) <= 1e-9


def test_fiber_count_always_n():
    st = random_state(2, 1, 3, seed=1)
    curve = spectral_curve(st, default_time(st))
    rng = np.random.default_rng(0)
    for _ in range(20):
        y0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert len(fiber_x(curve, y0)) == 3


def test_fiber_points_have_small_residual():
    st = random_state(3, 2, 5, seed=2)
    curve = spectral_curve(st, default_time(st))
    for p in fiber_x(curve, 1.25 + 0.5j):
        assert p.residual <= ON_CURVE_TOL


# -- eigenvectors ---------------------------------------------------------------


def test_eigenvector_residual_uniform():
    st = uniform_state(LatticeParams(1, 1, 3), 2, 1)
    curve = spectral_curve(st, 0)
    pts = fiber_x(curve, 0.8 + 0.1j)
    x_num = matrix_eval(build_monodromy(st, 0), 0.0, 0.8 + 0.1j)
    for pt in pts:
        v = eigenvector_at(st, 0, pt)
        res = np.linalg.norm(x_num @ v - pt.x * v) / np.linalg.norm(x_num)
        assert res <= 1e-10


def test_eigenvector_phase_convention():
    st = random_state(1, 1, 3, seed=3)
    curve = spectral_curve(st, 0)
    pt = fiber_x(curve, 1.1 + 0.7j)[0]
    v = eigenvector_at(st, 0, pt)
    idx = int(np.argmax(np.abs(v)))
    assert abs(v[idx].imag) <= 1e-12 and v[idx].real > 0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_eigenvector_rejects_off_curve_point():
    st = random_state(1, 1, 3, seed=3)
    from redkp.errors import IllConditioned

    bad = ComplexPoint(x=123.0 + 0j, y=1.0 + 0j, residual=1.0)
    with pytest.raises(IllConditioned):
        eigenvector_at(st, 0, bad)


# -- ranks at special points --------------------------------------------------------


def test_kernels_classic(classic_state):
    diag = special_point_kernels(classic_state, 0)
    assert diag.passed
    assert {p: m for p, m, _ in diag.samples} == {"rank:Q1": 1, "rank:A0": 1, "rank:B0": 1}


@pytest.mark.parametrize("M,K,N,seed", [(2, 1, 3, 4), (1, 2, 3, 5), (2, 1, 2, 6)])
def test_kernels_multifactor(M, K, N, seed):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    diag = special_point_kernels(st, t)
    assert diag.passed
    names = [p for p, _, _ in diag.samples]
    # corner + every A_j + every B_i
    assert names == ["rank:Q1"] + [f"rank:A{j}" for j in range(M)] + [f"rank:B{i}" for i in range(K)]
    assert all(type(m) is int and m == e == N - 1 for _, m, e in diag.samples)


@pytest.mark.parametrize("M,K,N,seed", [(2, 1, 3, 4), (1, 2, 3, 5), (2, 3, 5, 6)])
def test_each_kernel_is_taken_where_its_factor_is_rightmost(M, K, N, seed, monkeypatch):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    times = []

    def recorded(state, s, form="standard"):
        times.append(s)
        return monodromy_bands(state, s, form)

    monkeypatch.setattr(redkp.numeric, "monodromy_bands", recorded)
    special_point_kernels(st, t)
    # R(t-jK) ends X at t+(M-1-j)K; L(t-iM) ends the alternate form of X at t+(K-i)M
    assert times == [t] + [t + (M - 1 - j) * K for j in range(M)] + [
        t + (K - i) * M for i in range(K)
    ]


# signed states on which the eigenvector is not unique at a special point
RANK_DROPS = [
    # the two I-slice products are equal, so two upper factors are singular at A
    ('{"M":2,"K":1,"N":2,"frontier":0,"I":{"-1":["1","1"],"0":["-1","-1"]},"V":{"0":["3","1"]}}', "rank:A1", 0),
    # case_b_structure skips this state: this suite is its only check at Q
    ('{"M":1,"K":1,"N":3,"frontier":0,"I":{"0":["-3/2","2","-1"]},"V":{"0":["-2","3/2","3"]}}', "rank:Q1", 1),
]


@pytest.mark.parametrize(
    "text,sample,rank", RANK_DROPS, ids=["equal_i_products_212", "signed_q1_113"]
)
def test_verify_fails_on_a_rank_drop(text, sample, rank):
    report = run_verification(LatticeState.loads(text), seed=7)
    suite = {s["name"]: s for s in report["suites"]}["special_point_kernels"]
    assert suite["status"] == "fail" and not report["passed"]
    measured = {s["parameter"]: s["measured"] for s in suite["detail"]["diag"]["samples"]}
    assert measured[sample] == rank


@pytest.mark.parametrize(
    "rows,rank",
    [
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[0, 1, 2], [3, 4, 5], [6, 7, 8]], 2),  # the first pivot sits in row 1
        ([[rat(1, 2), rat(1, 3), 1], [rat(3, 2), 1, 3], [rat(-1, 4), rat(-1, 6), rat(-1, 2)]], 1),
    ],
)
def test_rank(rows, rank):
    assert _rank(integer_rows([[rat(v) for v in row] for row in rows])) == rank


def integer_rows(rows):
    """Each row of rationals times the lcm of its denominators, the input
    ``_rank`` takes."""
    out = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def fraction_rank(rows) -> int:
    """Gaussian elimination over Q: the oracle for the integer ``_rank``."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rank_equals_fraction_elimination():
    """Random rectangular matrices of rank r (a product of n x r and r x m
    factors), with zero rows and columns and denominators up to 120 bits."""
    rng = random.Random(61)

    def value():
        if rng.random() < 0.25:
            return rat(0)
        return rat(rng.randint(-9, 9), rng.choice((1, 2, 7, 2**61 - 1, 3**75)))

    ranks = set()
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(n, m))
        left = [[value() for _ in range(r)] for _ in range(n)]
        right = [[value() for _ in range(m)] for _ in range(r)]
        rows = [[sum((a * b for a, b in zip(row, col)), rat(0)) for col in zip(*right)] for row in left]
        rank = _rank(integer_rows(rows))
        assert rank == fraction_rank(rows) <= r
        ranks.add((rank, min(n, m)))
    assert any(rank < full for rank, full in ranks) and any(rank == full for rank, full in ranks)


# -- exact leading forms: the full-cofactor oracle --------------------------------
#
# The suites read orders and limits off the extreme-weight part of X_t - xI.
# The oracle takes the full adjugate of X_t - xI (of X_t - (U + x)I at the
# coincident point) and the extreme-weight terms of each cofactor, x weighing
# M+K at infinity and 1 at Q, y weighing N; both must agree wherever N <= 5.

# the gcd(M+K, N) = 1 entry of PARAM_SETS, this file's draws and those of
# acceptance criterion 8
ORACLE_DRAWS = [
    (1, 1, 3, 0),
    (1, 1, 3, 7),
    (2, 1, 2, 8),
    (2, 1, 5, 3),
    (1, 1, 3, 3),
    (2, 1, 2, 4),
    (1, 2, 2, 5),
    (2, 1, 4, 6),
]


def _extreme_form(p, wx, n, top):
    """The terms of p of largest (``top``) or smallest weight, and that weight."""
    weights = {key: key[0] * wx + key[1] * n for key, _ in p.items()}
    w = (max if top else min)(weights.values())
    return BiPoly({key: c for key, c in p.items() if weights[key] == w}), w


class _FullCofactors:
    """Orders and leading values from the full cofactor column at t."""

    def __init__(self, st, t, at_infinity):
        M, K, n = st.params.M, st.params.K, st.params.N
        a = build_monodromy(st, t) - scale(identity(n), BiPoly.x())
        if not at_infinity:
            a = a - scale(identity(n), st.site_invariants()[0])
        self.n, self.top = n, at_infinity
        self.wx = M + K if at_infinity else 1
        curve, _ = _extreme_form(matdet(a), self.wx, n, self.top)
        if at_infinity:
            x_n, y_mk = BiPoly.monomial(n, 0), BiPoly.monomial(0, M + K)
            assert curve in (x_n - y_mk, y_mk - x_n)
            self.point = (1, 1)
        else:
            c, c_y = curve.coefficient(n, 0), curve.coefficient(0, 1)
            assert curve == BiPoly.monomial(n, 0, c) + BiPoly.monomial(0, 1, c_y)
            self.point = (1, -c / c_y)
        adj = a.adjugate()
        self.column = [adj.entry(i, n - 1) for i in range(n)]

    def lead(self, p):
        form, w = _extreme_form(p, self.wx, self.n, self.top)
        value = form.evaluate(*self.point)
        assert value != 0
        return (-w if self.top else w), value

    def norm_order(self, vec):
        return min(self.lead(p)[0] for p in vec if not p.is_zero())

    def component_orders(self, ref):
        return [self.lead(p)[0] - self.lead(self.column[ref])[0] for p in self.column]

    def end_ratio(self):
        return self.lead(self.column[0])[1] / self.lead(self.column[-1])[1]


def _oracle_infinity(st, t):
    M, K, n = st.params.M, st.params.K, st.params.N
    full = _FullCofactors(st, t, at_infinity=True)
    orders = full.component_orders(n - 1)
    out = {"x_pole_order": -(M + K)}
    out.update({f"v{i + 1}/v{n}_order": orders[i] for i in range(n - 1)})
    for name, factor in (
        ("corner_shift_growth", shift_matrix(n)),
        ("upper_factor_growth", factor_r(st, t - (M - 1) * K)),
        ("lower_factor_growth", factor_l(st, t - M * K)),
    ):
        image = [
            sum((factor.entry(r, c) * full.column[c] for c in range(n)), BiPoly.zero())
            for r in range(n)
        ]
        out[name] = full.norm_order(image) - full.norm_order(full.column)
    return out


def _oracle_ratio(st, t, t_other):
    limits = []
    for at_infinity in (False, True):
        a, b = (_FullCofactors(st, s, at_infinity) for s in (t, t_other))
        assert a.point == b.point
        limits.append(a.end_ratio() / b.end_ratio())
    return format_rational(limits[0] / limits[1])


def _samples(diag):
    return {p: m for p, m, _ in diag.samples}


@pytest.mark.parametrize("M,K,N,seed", ORACLE_DRAWS)
def test_infinity_asymptotics_equals_full_cofactor_oracle(M, K, N, seed):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    diag = infinity_asymptotics(st, t)
    assert diag.passed
    assert _samples(diag) == _oracle_infinity(st, t)


@pytest.mark.parametrize("fixture", ["case_b_113", "uniform_113", "uniform_212"])
def test_case_b_suites_equal_full_cofactor_oracle(fixture, request):
    st = request.getfixturevalue(fixture)
    M, K, n = st.params.M, st.params.K, st.params.N
    t = default_time(st, deep=True)
    st.evolve_to(t + K + 1)
    full = _FullCofactors(st, t, at_infinity=False)
    orders = full.component_orders(0)
    assert _samples(case_b_structure(st, t)) == {f"v{i + 1}/v1_order": orders[i] for i in range(1, n)}
    ratios = psi_phi_ratios(st, t)
    assert ratios.passed
    assert _samples(ratios) == {
        "psi_ratio": _oracle_ratio(st, t, t + K),
        "phi_ratio": _oracle_ratio(st, t, t - M),
    }


# -- leading forms: the weight-scan oracle ------------------------------------------
#
# ``_leading_form`` reads one band row of X_t (of X_t - U at Q).  The oracle
# scans every term of the folded N x N matrix for its weight instead.


def _extreme_part(m, top):
    """The largest (``top``) or smallest weight (c - r) + aN among the terms
    y^a of the entries (r, c) of m, and the matrix of the terms of that
    weight."""
    n = m.n
    terms = [
        (c - r + key[1] * n, r, c, key, v)
        for r in range(n)
        for c in range(n)
        for key, v in m.entry(r, c).items()
    ]
    w = (max if top else min)(term[0] for term in terms)
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for weight, r, c, key, v in terms:
        if weight == w:
            rows[r][c][key] = v
    return w, PolyMatrix([[BiPoly(e) for e in row] for row in rows])


def _assert_leading_form_is_the_weight_scan(st, t, at_infinity):
    n = st.params.N
    x_t = build_monodromy(st, t)
    if not at_infinity:
        x_t = x_t - scale(identity(n), st.site_invariants()[0])
    w, part = _extreme_part(x_t, top=at_infinity)
    lead = _leading_form(st, t, at_infinity)
    assert lead.matrix == part - scale(identity(n), BiPoly.x())
    assert lead.x_weight == w


@pytest.fixture
def case_b_214():
    """A (2,1,4) state with all site invariants equal."""
    return LatticeState.loads(
        '{"M":2,"K":1,"N":4,"frontier":0,"I":{"-1":["1","4","2","1"],"0":["5","3","3","5"]},'
        '"V":{"0":["12/5","1","2","12/5"]}}'
    )


@on_every_set([p for p in PARAM_SETS if LatticeParams(*p).gcd_mkn_ok])
@given(data=strategies.data())
@settings(max_examples=8, deadline=None)
def test_leading_form_at_infinity_is_the_top_weight_scan(M, K, N, data):
    state = window_state(M, K, N, data)
    _assert_leading_form_is_the_weight_scan(state, 0, at_infinity=True)
    assert state.frontier == 0


@pytest.mark.parametrize("fixture", ["case_b_113", "uniform_113", "uniform_212", "case_b_214"])
def test_leading_form_at_q_is_the_bottom_weight_scan(fixture, request):
    # at the three times psi_phi_ratios reads: t - M, t and t + K
    st = request.getfixturevalue(fixture)
    M, K = st.params.M, st.params.K
    assert st.classify_case() == "case_b"
    t = default_time(st, deep=True)
    st.evolve_to(t + K)
    for s in (t - M, t, t + K):
        _assert_leading_form_is_the_weight_scan(st, s, at_infinity=False)


# -- infinity branch ------------------------------------------------------------------


@pytest.mark.parametrize(
    "M,K,N", [(1, 1, 3), (2, 1, 2), (2, 1, 5), (3, 2, 7), (2, 3, 7), (3, 4, 8), (4, 5, 11)]
)
def test_top_weight_part_is_the_corner_power(M, K, N):
    st = random_state(M, K, N, seed=1)
    lead = _leading_form(st, default_time(st, deep=True), at_infinity=True)
    corner = identity(N)
    for _ in range(M + K):
        corner = corner @ shift_matrix(N)
    x_n, y_mk = BiPoly.monomial(N, 0), BiPoly.monomial(0, M + K)
    assert lead.matrix == corner - scale(identity(N), BiPoly.x())
    assert matdet(lead.matrix) in (x_n - y_mk, y_mk - x_n)
    assert lead.x_weight == M + K


def test_infinity_gcd_gate(classic_state):
    with pytest.raises(GcdViolation):
        infinity_asymptotics(classic_state, 0)


# -- coincident-point structure -------------------------------------------------------


def test_case_b_structure_uniform_113(uniform_113):
    diag = case_b_structure(uniform_113, 0)
    assert diag.passed
    assert _samples(diag) == {"v2/v1_order": 1, "v3/v1_order": 2}


def test_case_b_structure_nonuniform(case_b_113):
    t = default_time(case_b_113, deep=True)
    diag = case_b_structure(case_b_113, t)
    assert diag.passed
    # the bottom-weight part is cyclic: superdiagonal of X_t(0), the corner's
    # y coefficient and -x' on the diagonal
    lead = _leading_form(case_b_113, t, at_infinity=False)
    assert matdet(lead.matrix) == BiPoly.monomial(0, 1, 126) - BiPoly.monomial(3, 0)
    x0 = build_monodromy(case_b_113, t)
    for r in range(3):
        for c in range(3):
            expected = -BiPoly.x() if r == c else BiPoly.zero()
            if c == r + 1:
                expected = BiPoly.constant(x0.entry(r, c).coefficient(0, 0))
            if (r, c) == (2, 0):
                expected = BiPoly.monomial(0, 1, x0.entry(r, c).coefficient(0, 1))
            assert lead.matrix.entry(r, c) == expected


def test_verify_builds_each_leading_form_once(case_b_113, monkeypatch):
    # case_b_structure builds the form at Q at t_deep; psi_phi_ratios reads it
    # again and adds the ones at t_deep + K and t_deep - M.  No form at
    # infinity is built: the limit there is 1 on every state
    calls = []
    real = redkp.numeric._build_leading_form

    def counted(state, t, at_infinity):
        calls.append((t, at_infinity))
        return real(state, t, at_infinity)

    monkeypatch.setattr(redkp.numeric, "_build_leading_form", counted)
    report = run_verification(case_b_113, seed=7)
    statuses = {s["name"]: s["status"] for s in report["suites"]}
    assert [statuses[name] for name in ("case_b_structure", "psi_phi_ratios")] == ["pass"] * 2
    t = default_time(case_b_113, deep=True)
    assert sorted(calls) == [(s, False) for s in (t - 1, t, t + 1)]


def test_case_b_rejects_case_a():
    st = random_state(1, 1, 3, seed=9)
    assert st.classify_case() != "case_b"
    with pytest.raises(NotCaseB):
        case_b_structure(st, 0)


# -- ratio limits ------------------------------------------------------------------------


def _superdiagonal_ratio(st, t, t_other):
    """Product of the superdiagonal of X_t(0) over that of X_{t_other}(0)."""
    out = rat(1)
    for r in range(st.params.N - 1):
        out *= build_monodromy(st, t).entry(r, r + 1).evaluate(0, 0)
        out /= build_monodromy(st, t_other).entry(r, r + 1).evaluate(0, 0)
    return out


def test_psi_phi_uniform_is_one(uniform_113):
    t = default_time(uniform_113, deep=True)
    diag = psi_phi_ratios(uniform_113, t)
    assert diag.passed
    assert _samples(diag) == {"psi_ratio": "1", "phi_ratio": "1"}


def test_psi_phi_nonuniform_matches_exact(case_b_113):
    st = case_b_113
    t = default_time(st, deep=True)
    M, K, n = st.params.M, st.params.K, st.params.N
    i_ref = st.i_slice(t - (M - 1) * K)
    v_ref = st.v_slice(t - M * K)
    diag = psi_phi_ratios(st, t)
    assert diag.passed
    psi, phi = i_ref[n - 1] / i_ref[0], v_ref[n - 1] / v_ref[0]
    assert _samples(diag) == {"psi_ratio": format_rational(psi), "phi_ratio": format_rational(phi)}
    assert psi == _superdiagonal_ratio(st, t, t + K)
    assert phi == _superdiagonal_ratio(st, t, t - M)


def test_superdiagonal_ratio_is_special_to_case_b():
    # on case-(a) data the closed form of the limits misses I_N/I_1 and V_N/V_1
    for seed in (9, 10, 11):
        st = random_state(1, 1, 3, seed=seed)
        assert st.classify_case() == "case_a"
        t = default_time(st, deep=True)
        st.evolve_to(t + 1)
        i_ref, v_ref = st.i_slice(t), st.v_slice(t - 1)
        assert _superdiagonal_ratio(st, t, t + 1) != i_ref[2] / i_ref[0]
        assert _superdiagonal_ratio(st, t, t - 1) != v_ref[2] / v_ref[0]


def _corrupted(st, t, kind):
    out = st.copy()
    hist = out._i if kind == "I" else out._v
    vals = list(hist[t])
    vals[0] += 1
    hist[t] = tuple(vals)
    return out


@pytest.mark.parametrize("fixture", ["case_b_113", "uniform_212"])
def test_psi_phi_each_read_their_own_slice(fixture, request):
    # X_{t+K} alone reads the I-slice at t+K, X_{t-M} alone the V-slice at
    # t-MK: corrupting one breaks its own limit and leaves the other exact
    st = request.getfixturevalue(fixture)
    M, K = st.params.M, st.params.K
    t = default_time(st, deep=True)
    st.evolve_to(t + 2 * (M + K) + 2)
    for kind, s, broken in (("I", t + K, "psi_ratio"), ("V", t - M * K, "phi_ratio")):
        bad = _corrupted(st, s, kind)
        assert bad.classify_case() == "case_b"
        verdicts = {p: m == e for p, m, e in psi_phi_ratios(bad, t).samples}
        assert verdicts == {"psi_ratio": broken != "psi_ratio", "phi_ratio": broken != "phi_ratio"}


def test_psi_phi_gates(classic_state):
    with pytest.raises(GcdViolation):
        psi_phi_ratios(classic_state, 1)
    st = random_state(1, 1, 3, seed=10)
    with pytest.raises(NotCaseB):
        psi_phi_ratios(st, 1)


# -- diagnostics serialization --------------------------------------------------------------


def test_diag_json_and_csv(uniform_113):
    diag = case_b_structure(uniform_113, 0)
    doc = diag.to_json_dict()
    assert doc["name"] == "case_b_structure"
    assert doc["passed"] is True


@pytest.mark.parametrize(
    "diagnostic", [special_point_kernels, infinity_asymptotics, case_b_structure, psi_phi_ratios]
)
def test_diag_json_keys(diagnostic, uniform_113):
    t = default_time(uniform_113, deep=True)
    uniform_113.evolve_to(t + 3)
    doc = diagnostic(uniform_113, t).to_json_dict()
    assert set(doc) == {"name", "passed", "samples"}
    assert json.loads(json.dumps(doc)) == doc


def test_zero_fiber_eigenvector_support():
    """In case (a) the eigenvector at the j-th zero-fiber point is supported
    on the first j components, with the j-th one nonzero."""
    st = random_state(1, 1, 3, seed=30)
    assert st.classify_case() == "case_a"
    t = default_time(st, deep=True)
    u = st.site_invariants()
    x_num = matrix_eval(build_monodromy(st, t), 0.0, 0.0)
    from redkp.numeric import _eigvec

    for j, uj in enumerate(u, start=1):
        v = _eigvec(x_num, float(uj))
        assert all(abs(v[i]) <= 1e-9 for i in range(j, 3))
        assert abs(v[j - 1]) > 1e-6


def test_multiple_eigenvalue_guard():
    from redkp.errors import MultipleEigenvalue
    from redkp.numeric import _eigvec

    with pytest.raises(MultipleEigenvalue):
        _eigvec(np.eye(3, dtype=complex), 1.0)


def test_infinity_asymptotics_five_sites():
    # no size gate: N = 5 is exact, as N = 7 is in the property of any window
    st = random_state(2, 1, 5, seed=3)
    diag = infinity_asymptotics(st, default_time(st, deep=True))
    assert diag.passed
    assert _samples(diag) == {
        "x_pole_order": -3,
        "v1/v5_order": 4,
        "v2/v5_order": 3,
        "v3/v5_order": 2,
        "v4/v5_order": 1,
        "corner_shift_growth": -1,
        "upper_factor_growth": -1,
        "lower_factor_growth": -1,
    }
