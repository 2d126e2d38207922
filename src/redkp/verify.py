"""Batch verification: every exact suite applicable to one state.

Each suite reports pass, fail, or skipped; nothing is silently omitted.  A
suite is skipped when the function it calls raises a precondition error
(``PRECONDITIONS``), with that error as its reason, and fails with the
exception as its reason when it raises anything else.  Every suite is exact,
so a report is reproducible from its input alone; ``seed`` is only recorded.
Each suite reads fixed times from the anchor t = ``default_time(state,
deep=True)``, or site invariants at the frontier, which the steps conserve,
so its detail does not depend on the suites run before it.

Each identity is checked by one suite: the factor exchange is the lattice
equations (``evolution_consistency``), the monodromy exchanges are the time
shifts (``shift_conjugations``), the diagonal of X_t(0) and the special points
(U_j, 0) are the site invariants (``site_invariant_constancy``), and
``special_point_kernels`` builds the A, B and Q points, failing if one is off
the curve.  Identities that hold for every input are pinned by the tests
instead, over arbitrary slice windows: det S, det S* and det R*, the zeros
below the diagonal of X_t(0), the site shift S X_t = X_t(rotated) S, the
word expansion of the band table (``band_coefficients``), the word append rule
(``yform.verify_word_append_rule``), the x/y-form duality
(``yform.spectral_duality``) and the orders at infinity
(``numeric.infinity_asymptotics``), which read only the top band row of X_t,
all ones on every state.  For the same reason ``psi_phi_ratios`` builds no
leading form at infinity: each of its limits there is 1.  The (1,1,2) sum
``degeneration.hidden_sum`` is the lattice x-equation summed round the cycle.
"""

from __future__ import annotations

from .bipoly import BiPoly
from .errors import GcdViolation, NotCaseB
from .lattice import LatticeState, default_time
from .lax import (
    SHIFT_MU_K,
    SHIFT_MU_MINUS_M,
    apply_shift,
    build_monodromy,  # noqa: F401 (bench/tests checks the tracer rebinds it here)
    monodromy_bands,
    spectral_curve,
)
from .numeric import case_b_structure, psi_phi_ratios, special_point_kernels
from .polymatrix import matdet
from .rational import format_rational
from .yform import shift_stars

PASS, FAIL, SKIP = "pass", "fail", "skipped"

# raised by a suite's function when the state is outside the claim's domain
PRECONDITIONS = (GcdViolation, NotCaseB)


def run_verification(state: LatticeState, seed: int = 0) -> dict:
    params = state.params
    suites = [_run(name, check) for name, check in _suites(state)]
    return {
        "params": {"M": params.M, "K": params.K, "N": params.N, "gcd_MKN_ok": params.gcd_mkn_ok},
        "seed": seed,
        "suites": suites,
        "passed": all(s["status"] != FAIL for s in suites),
    }


def _run(name: str, check) -> dict:
    try:
        detail = check()
    except Exception as exc:
        status = SKIP if isinstance(exc, PRECONDITIONS) else FAIL
        return {"name": name, "status": status, "reason": f"{type(exc).__name__}: {exc}"}
    ok = detail.pop("_ok")
    return {"name": name, "status": PASS if ok else FAIL, "detail": detail}


def _suites(state: LatticeState) -> list:
    """(name, check) pairs in report order.  The checks share a copy of
    ``state`` evolved to t + 3 for the anchor t, and read fixed times."""
    state = state.copy()
    params = state.params
    M, K, n = params.M, params.K, params.N
    t_deep = default_time(state, deep=True)
    last = state.evolve_to(t_deep + 3).frontier

    # -- exact suites ------------------------------------------------------

    def evolution_consistency():
        # both lattice equations by integer cross-multiplication of the
        # reduced pairs, whose denominators are positive; the state caches
        # each slice product under its time
        first = max(state.i_min + M, state.v_min + K)
        times = range(first, last + 1)
        ok = True
        for t in times:
            slices = state.i_slice(t - M), state.v_slice(t - K), state.i_slice(t), state.v_slice(t)
            a, b, x, y = ([(v.numerator, v.denominator) for v in values] for values in slices)
            for i in range(n):
                # x_i = a_{i-1} + b_i - y_{i-1}
                (an, ad), (bn, bd), (yn, yd), (xn, xd) = a[i - 1], b[i], y[i - 1], x[i]
                ok &= xn * ad * bd * yd == xd * ((an * bd + bn * ad) * yd - yn * ad * bd)
                # y_i x_i = a_i b_i
                (an, ad), (bn, bd), (yn, yd) = a[i], b[i], y[i]
                ok &= yn * xn * ad * bd == an * bn * yd * xd
            ok &= state.i_product(t) == state.i_product(t - M)
            ok &= state.v_product(t) == state.v_product(t - K)
        return {"_ok": bool(ok and times), "steps_checked": len(times)}

    def invariant_constancy():
        u0 = state.site_invariants(t_deep)
        u1 = state.site_invariants(t_deep + 3)
        return {
            "_ok": u0 == u1,
            "values": [format_rational(u) for u in u0],
            "case": state.classify_case(),
        }

    def isospectrality():
        curves = [spectral_curve(state, t_deep + i).poly for i in range(4)]
        return {"_ok": all(c == curves[0] for c in curves), "times": 4}

    def monodromy_forms():
        # the fold sends each (i, k) to its own entry and power of y, so the
        # band rows are equal exactly when the folded matrices are
        std = monodromy_bands(state, t_deep, "standard")
        alt = monodromy_bands(state, t_deep, "alternate")
        return {"_ok": std == alt}

    def shift_conjugations():
        for which in (SHIFT_MU_K, SHIFT_MU_MINUS_M):
            apply_shift(state, t_deep, which)  # raises if an intertwining fails
        return {"_ok": True}

    def determinant_closed_forms():
        # det L* = -+x holds only on the lattice orbit; det S* and det R* take
        # their closed forms for every window, so the tests pin them instead
        _, _, l_star = shift_stars(state, t_deep)
        sign = 1 if (M + K) % 2 == 0 else -1
        return {"_ok": matdet(l_star) == BiPoly.monomial(1, 0, -sign)}

    # -- the diagnostics of ``numeric`` -----------------------------------

    def diag(fn):
        d = fn(state, t_deep)
        return {"_ok": d.passed, "diag": d.to_json_dict()}

    return [
        ("evolution_consistency", evolution_consistency),
        ("site_invariant_constancy", invariant_constancy),
        ("isospectrality", isospectrality),
        ("monodromy_form_equality", monodromy_forms),
        ("shift_conjugations", shift_conjugations),
        ("determinant_closed_forms", determinant_closed_forms),
        ("special_point_kernels", lambda: diag(special_point_kernels)),
        ("case_b_structure", lambda: diag(case_b_structure)),
        ("psi_phi_ratios", lambda: diag(psi_phi_ratios)),
    ]
