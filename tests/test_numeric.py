import numpy as np
import pytest

from redkp import (
    GcdViolation,
    LatticeParams,
    NotCaseB,
    case_b_structure,
    eigenvector_at,
    fiber_x,
    infinity_asymptotics,
    psi_phi_ratios,
    rat,
    special_point_kernels,
    spectral_curve,
    uniform_state,
)
from redkp.lax import build_monodromy, default_time
from redkp.numeric import ON_CURVE_TOL, ComplexPoint, matrix_eval
from conftest import random_state


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


# -- kernels at special points ------------------------------------------------------


def test_kernels_classic(classic_state):
    diag = special_point_kernels(classic_state, 0, rng=np.random.default_rng(1))
    assert diag.passed
    by_name = {p: m for p, m, _ in diag.samples}
    assert by_name["ker:corner@Q1"] <= 1e-10
    assert by_name["ker:upper@A0"] <= 1e-8
    assert by_name["ker:lower@B0"] <= 1e-8
    negatives = [m for p, m, _ in diag.samples if p.startswith("gen:")]
    assert negatives and all(m >= 1e-5 for m in negatives)


@pytest.mark.parametrize("M,K,N,seed", [(2, 1, 3, 4), (1, 2, 3, 5), (2, 1, 2, 6)])
def test_kernels_multifactor(M, K, N, seed):
    st = random_state(M, K, N, seed=seed)
    t = default_time(st, deep=True)
    diag = special_point_kernels(st, t, rng=np.random.default_rng(2))
    assert diag.passed
    kers = [p for p, _, _ in diag.samples if p.startswith("ker:")]
    assert len(kers) == 1 + M + K  # corner + every A_j + every B_i


# -- infinity branch ------------------------------------------------------------------


def test_infinity_asymptotics_uniform_113():
    st = uniform_state(LatticeParams(1, 1, 3), 2, 1)
    diag = infinity_asymptotics(st, default_time(st, deep=True))
    assert diag.passed
    by_name = dict((p, (m, e)) for p, m, e in diag.samples)
    m, e = by_name["x_pole_order"]
    assert e == -2.0 and abs(m - e) <= 0.2
    assert diag.notes["scaled_error_decreasing"]


def test_infinity_asymptotics_component_orders():
    st = random_state(1, 1, 3, seed=7)
    t = default_time(st, deep=True)
    diag = infinity_asymptotics(st, t)
    assert diag.passed
    expected = {"v1/v3_order": 2.0, "v2/v3_order": 1.0}
    for p, m, e in diag.samples:
        if p in expected:
            assert e == expected[p]
            assert abs(m - e) <= 0.2


def test_infinity_asymptotics_growth_orders():
    st = random_state(2, 1, 2, seed=8)  # gcd(3, 2) = 1
    t = default_time(st, deep=True)
    diag = infinity_asymptotics(st, t)
    assert diag.passed
    for name in ("corner_shift_growth", "upper_factor_growth", "lower_factor_growth"):
        m, e = next((m, e) for p, m, e in diag.samples if p == name)
        assert e == -1.0 and -1.2 <= m <= -0.8


def test_infinity_gcd_gate(classic_state):
    with pytest.raises(GcdViolation):
        infinity_asymptotics(classic_state, 0)


# -- coincident-point structure -------------------------------------------------------


def test_case_b_structure_uniform_113(uniform_113):
    diag = case_b_structure(uniform_113, 0)
    assert diag.passed
    by_name = {p: m for p, m, _ in diag.samples}
    assert 0.8 <= by_name["v2/v1_order"] <= 1.2
    assert 1.8 <= by_name["v3/v1_order"] <= 2.2


def test_case_b_structure_nonuniform(case_b_113):
    t = default_time(case_b_113, deep=True)
    diag = case_b_structure(case_b_113, t)
    assert diag.passed


def test_case_b_rejects_case_a():
    st = random_state(1, 1, 3, seed=9)
    assert st.classify_case() != "case_b"
    with pytest.raises(NotCaseB):
        case_b_structure(st, 0)


# -- ratio limits ------------------------------------------------------------------------


def test_psi_phi_uniform_is_one(uniform_113):
    t = default_time(uniform_113, deep=True)
    diag = psi_phi_ratios(uniform_113, t)
    assert diag.passed
    for _, m, e in diag.samples:
        assert e == 1.0
        assert abs(m - 1.0) <= 1e-6


def test_psi_phi_nonuniform_matches_exact(case_b_113):
    st = case_b_113
    t = default_time(st, deep=True)
    M, K, n = st.params.M, st.params.K, st.params.N
    i_ref = st.i_slice(t - (M - 1) * K)
    v_ref = st.v_slice(t - M * K)
    diag = psi_phi_ratios(st, t)
    assert diag.passed
    by_name = {p: (m, e) for p, m, e in diag.samples}
    m, e = by_name["psi_ratio"]
    assert e == float(i_ref[n - 1] / i_ref[0])
    assert abs(m - e) <= 1e-4
    m, e = by_name["phi_ratio"]
    assert e == float(v_ref[n - 1] / v_ref[0])
    assert abs(m - e) <= 1e-4


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
    # N = 5 is the largest fit size double precision resolves reliably;
    # the default sweep widens its smallest k accordingly
    st = random_state(2, 1, 5, seed=3)
    t = default_time(st, deep=True)
    diag = infinity_asymptotics(st, t)
    assert diag.passed
    assert min(diag.notes["k_values"]) > 1e-3


def test_resolvable_sweeps_small_n_unchanged():
    from redkp.numeric import (
        DEFAULT_K_VALUES,
        RATIO_K_VALUES,
        _resolvable_k_values,
        _resolvable_ratio_ks,
    )

    assert _resolvable_k_values(3) == DEFAULT_K_VALUES
    assert _resolvable_ratio_ks(3) == RATIO_K_VALUES
    assert min(_resolvable_k_values(8)) > 1e-2
