"""Acceptance criteria, one test each, printing one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import json
import time

import pytest

from redkp import (
    BiPoly,
    DegenerateEvolution,
    DegenerationPlan,
    LatticeParams,
    band_coefficients,
    build_factor,
    build_monodromy,
    case_b_structure,
    hidden_invariant_check,
    infinity_asymptotics,
    limit_compare,
    matdet,
    monodromy_closure,
    new_state,
    psi_phi_ratios,
    rat,
    shift_matrix,
    special_point_kernels,
    spectral_curve,
    spectral_duality,
    uniform_state,
    verify_compatibility,
    verify_word_append_rule,
)
from redkp.cli import main as cli_main
from redkp.degeneration import seed_large_zeta
from redkp.lattice import default_time
from redkp.lax import SHIFT_MU_K, _fold, apply_shift
from redkp.yform import shift_stars
from conftest import (
    PARAM_SETS,
    bands_words,
    curve_closed_form_112,
    curve_closed_form_212,
    random_state,
    rotated,
)
from test_yform import companion_reference_report


def _report(num, description, passed):
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {num}: {description}"


def test_criterion_1_exact_isospectrality():
    start = time.monotonic()
    ok = True
    for (M, K, N) in PARAM_SETS:
        for seed in range(5):
            st = random_state(M, K, N, seed=1000 * seed + 7)
            t = default_time(st)
            base = spectral_curve(st, t).poly
            ok &= all(spectral_curve(st, t + dt).poly == base for dt in range(1, 6))
    elapsed = time.monotonic() - start
    _report(
        1,
        f"spectral curve structurally identical over 6 times, 5 states x "
        f"{len(PARAM_SETS)} parameter sets ({elapsed:.2f}s < 10s)",
        ok and elapsed < 10.0,
    )


def test_criterion_2_small_case_closed_forms():
    ok = True
    for seed in range(10):
        st = random_state(1, 1, 2, seed=seed)
        ok &= spectral_curve(st, 0).poly == curve_closed_form_112(
            st.i_slice(0), st.v_slice(0)
        )
    for seed in range(10):
        base = random_state(1, 1, 2, seed=100 + seed)
        zeta = rat(11 + seed, 1 + seed % 3)
        big = seed_large_zeta(DegenerationPlan("reduce_M", base), zeta)
        big.evolve_to(1)
        ok &= spectral_curve(big, 1).poly == curve_closed_form_212(
            zeta, big.i_slice(1), big.v_slice(1)
        )
    _report(2, "closed-form curve polynomials exact for 10+10 random data sets", ok)


def _site_invariants_at_anchor(state, t):
    M, K = state.params.M, state.params.K
    out = []
    for j in range(state.params.N):
        u = rat(1)
        for r in range(K):
            u *= state.v_slice(t - r * M)[j]
        for r in range(M):
            u *= state.i_slice(t - r * K)[j]
        out.append(u)
    return tuple(out)


def _product(values):
    p = rat(1)
    for v in values:
        p *= v
    return p


def test_criterion_3_conservation_over_50_steps():
    ok = True
    for (M, K, N, seed) in [(1, 1, 2, 1), (2, 1, 3, 2), (1, 2, 3, 3)]:
        st = random_state(M, K, N, seed=seed, probe=55)
        st.evolve_to(50)
        anchor0 = max(st.i_min + (M - 1) * K, st.v_min + (K - 1) * M)
        u_ref = _site_invariants_at_anchor(st, anchor0)
        for t in range(anchor0, 51):
            ok &= _site_invariants_at_anchor(st, t) == u_ref
        for t in range(st.i_min, 51 - M):
            ok &= _product(st.i_slice(t + M)) == _product(st.i_slice(t))
        for t in range(st.v_min, 51 - K):
            ok &= _product(st.v_slice(t + K)) == _product(st.v_slice(t))
    classic = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 5]})
    rep = hidden_invariant_check(classic, steps=50)
    ok &= rep.constant and rep.value == 11 and rep.times_checked >= 50
    _report(
        3,
        "site invariants, slice products and the (1,1,2) hidden sum (= 11) exact over 50 steps",
        ok,
    )


def test_criterion_4_monodromy_closure():
    ok = True
    st = random_state(2, 1, 3, seed=5, probe=55)
    st.evolve_to(50)
    M, K = 2, 1
    for t in range(1, 51):
        a, b = st.i_slice(t - M), st.v_slice(t - K)
        (t11, t12, t21, t22), pa, pb = monodromy_closure(a, b)
        ok &= t11 + t22 == pa + pb
        ok &= t11 * t22 - t12 * t21 == pa * pb
        x_n = st.i_slice(t)[-1]  # the step's closure: (T - pa I) (x_N, 1)^T == 0
        ok &= (t11 - pa) * x_n + t12 == 0 and t21 * x_n + t22 - pa == 0
    degenerate = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 6]})
    raised = False
    try:
        degenerate.step()
    except DegenerateEvolution:
        raised = True
    _report(
        4,
        "closure trace/det identities exact and x_N the prod(I) eigenvector of the "
        "monodromy at every one of 50 steps; "
        "degenerate product collision raises",
        ok and raised,
    )


def test_criterion_5_compatibility_and_conjugation():
    ok = True
    for (M, K, N) in PARAM_SETS:
        st = random_state(M, K, N, seed=11)
        t = default_time(st, deep=True)
        ok &= verify_compatibility(st, t).all_zero
        ok &= _fold(apply_shift(st, t, SHIFT_MU_K)) == build_monodromy(st, t + K)
        s = shift_matrix(N)
        ok &= s @ build_monodromy(st, t) == build_monodromy(rotated(st), t) @ s
    _report(
        5,
        "exchange identities have zero residual matrices, the (+K)-conjugation "
        "matches independent reconstruction, and S X_t = X_t(sites rotated by one) S "
        "for every parameter set",
        ok,
    )


def test_criterion_6_determinant_closed_forms():
    ok = True
    annotations = []
    for n in range(2, 7):
        sign = rat(-1) if n % 2 == 0 else rat(1)  # (-1)^(N+1)
        ok &= matdet(shift_matrix(n)) == BiPoly.monomial(0, 1, sign)
        vals = [rat(2 * i + 1, 1 + i % 2) for i in range(n)]
        det = matdet(build_factor(vals))
        expected = BiPoly.constant(_product(vals)) + BiPoly.monomial(0, 1, sign)
        ok &= det == expected
        verbatim = det == BiPoly.constant(_product(vals)) - BiPoly.y()
        ok &= verbatim == (n % 2 == 0)
        if not verbatim:
            annotations.append(n)
    for (M, K, N, seed) in [
        (1, 1, 3, 1), (2, 1, 3, 2), (1, 2, 3, 3), (3, 1, 3, 4), (1, 3, 3, 5),
        (2, 3, 5, 6), (3, 2, 5, 7), (4, 1, 3, 8), (1, 4, 3, 9),
    ]:
        st = random_state(M, K, N, seed=seed)
        t = default_time(st, deep=True)
        s_star, r_star, l_star = shift_stars(st, t)
        width = M + K
        u1 = st.site_invariants()[0]
        sign = rat(1) if width % 2 == 0 else rat(-1)  # (-1)^(M+K)
        ok &= matdet(s_star) == (BiPoly.constant(u1) - BiPoly.x()) * sign
        ok &= matdet(r_star) == BiPoly.monomial(1, 0, -sign)
        ok &= matdet(l_star) == matdet(r_star)
    _report(
        6,
        "determinant closed forms exact for N = 2..6 and M+K <= 5 "
        f"(two-size shorthand literal only for even N; odd sizes {annotations} carry the sign flip)",
        ok,
    )


def test_criterion_7_band_expansion_and_duality():
    ok = True
    for (M, K, N, seed) in [
        (1, 1, 2, 1), (2, 1, 3, 2), (1, 2, 3, 3), (3, 1, 3, 4),
        (2, 3, 5, 5), (3, 2, 5, 6), (4, 1, 4, 7),
    ]:
        st = random_state(M, K, N, seed=seed)
        t = default_time(st, deep=True)
        ok &= bands_words(st, t) == band_coefficients(st, t)
        ok &= verify_word_append_rule(st, t).ok
        dual = spectral_duality(st, t)
        ok &= dual.ok and dual.ratio in (BiPoly.one(), -BiPoly.one())
    ref = companion_reference_report()
    ok &= ref["product_uses_plus_x"] and ref["duality_holds"]["plus_x"]
    ok &= not ref["duality_holds"]["minus_x"]
    print(
        "\n  reference-case sign finding: companion product entry (2,2) = "
        f"{ref['product_entry_22']}; the minus-x display variant fails duality"
    )
    _report(
        7,
        "word expansion equals band product, append rule holds for every word, "
        "x/y-form characteristic polynomials agree by exact division",
        ok,
    )


def test_criterion_8_numeric_local_structure():
    start = time.monotonic()
    ok = True

    # infinity branch + special-point ranks on gcd-compatible parameter sets
    for (M, K, N, seed) in [(1, 1, 3, 3), (2, 1, 2, 4), (1, 2, 2, 5), (2, 1, 4, 6)]:
        st = random_state(M, K, N, seed=seed)
        t = default_time(st, deep=True)
        inf = infinity_asymptotics(st, t)
        ok &= inf.passed  # every order at infinity exact
        ker = special_point_kernels(st, t)
        ok &= ker.passed and all(m == N - 1 for _, m, _ in ker.samples)

    # the ranks are not gcd-gated; exercise one incompatible set too
    st = random_state(2, 1, 3, seed=7)
    ker = special_point_kernels(st, default_time(st, deep=True))
    ok &= ker.passed and all(m == 2 for _, m, _ in ker.samples)

    # coincident-point structure and ratio limits
    for st in (
        uniform_state(LatticeParams(1, 1, 3), 2, 1),
        new_state(LatticeParams(1, 1, 3), {0: [2, 3, 4]}, {0: [3, 2, rat(3, 2)]}),
        uniform_state(LatticeParams(2, 1, 2), 3, 2),
    ):
        t = default_time(st, deep=True)
        cb = case_b_structure(st, t)
        ok &= cb.passed  # component orders exact
        pr = psi_phi_ratios(st, t)
        ok &= pr.passed  # limits equal the exact rationals
    elapsed = time.monotonic() - start
    _report(
        8,
        f"exact infinity orders, rank N-1 at every special point, "
        f"exact coincident-point orders and ratio limits ({elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_9_degeneration_convergence():
    start = time.monotonic()
    ok = True
    sweep = [1e2, 1e3, 1e4]
    base_112 = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 5]})
    base_213 = new_state(
        LatticeParams(2, 1, 3), {-1: [2, 3, 5], 0: [1, 4, 2]}, {0: [rat(1, 2), 5, 3]}
    )
    for base in (base_112, base_213):
        plan = DegenerationPlan("reduce_M", base, horizon=12)
        table = limit_compare(plan, sweep)
        errs = [r.max_err for r in table.rows]
        ok &= all(a > b for a, b in zip(errs, errs[1:]))
        ok &= -1.3 <= table.slope <= -0.7
    elapsed = time.monotonic() - start
    _report(
        9,
        f"(2,1,2) and (3,1,3) sweeps strictly decreasing with slope in [-1.3,-0.7] "
        f"({elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_10_cli_roundtrip_and_determinism(tmp_path):
    ok = True
    st = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 5]})
    src = tmp_path / "in.json"
    src.write_text(st.dumps())
    hop1 = tmp_path / "hop1.json"
    hop2 = tmp_path / "hop2.json"
    direct = tmp_path / "direct.json"
    ok &= cli_main(["evolve", str(src), "--to", "4", "-o", str(hop1)]) == 0
    ok &= cli_main(["evolve", str(hop1), "--to", "9", "-o", str(hop2)]) == 0
    ok &= cli_main(["evolve", str(src), "--to", "9", "-o", str(direct)]) == 0
    ok &= hop2.read_text() == direct.read_text()

    rep1 = tmp_path / "rep1.json"
    rep2 = tmp_path / "rep2.json"
    ok &= cli_main(["verify", str(src), "--seed", "42", "-o", str(rep1)]) == 0
    ok &= cli_main(["verify", str(src), "--seed", "42", "-o", str(rep2)]) == 0
    ok &= rep1.read_text() == rep2.read_text()
    doc = json.loads(rep1.read_text())
    ok &= all(s["status"] in ("pass", "skipped") for s in doc["suites"])
    _report(10, "CLI round trip bit-exact; verify reports identical under a fixed seed", ok)
