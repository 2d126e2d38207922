"""Complex floating-point diagnostics for the local analytic structure.

Everything exact lives elsewhere; this module checks the claims that are
inherently about limits: the branch at infinity (pole orders and eigenvector
component decay), kernel membership at the distinguished finite points, the
coincident-point local structure, and the two eigenvector-ratio limits that
tie lattice values to special curve values.

Conventions: fiber roots come from the companion matrix of the monic-in-x
polynomial, ordered by (real, imag); eigenvectors are smallest singular
vectors with the largest-magnitude component rotated to the positive real
axis; exponents are least-squares slopes in log-log over the k sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import (
    GcdViolation,
    IllConditioned,
    MultipleEigenvalue,
    NotCaseB,
)
from .lattice import CASE_B, LatticeState
from .lax import (
    SpectralCurve,
    build_monodromy,
    factor_l,
    factor_r,
    shift_matrix,
    spectral_curve,
)

DEFAULT_K_VALUES = (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)
RATIO_K_VALUES = (1e-2, 5e-3, 2e-3, 1e-3)


RELIABLE_FIT_SITES = 5  # exponent fits are trustworthy in doubles up to N = 5


def _resolvable_k_values(n: int):
    """Sweep for exponent fits: the smallest tracked eigenvector component
    behaves like k^(N-1), which must stay well above the double-precision
    noise floor, so large N forces a larger smallest k.  Beyond
    RELIABLE_FIT_SITES the window between resolvability and the asymptotic
    regime closes and the fits degrade regardless of the sweep."""
    k_min = 10.0 ** (-11.0 / max(n - 1, 1))
    if k_min <= 1e-3:
        return DEFAULT_K_VALUES
    return tuple(np.geomspace(10 ** -0.8, k_min, 7))


def _resolvable_ratio_ks(n: int):
    k_min = max(1e-3, 10.0 ** (-11.0 / max(n - 1, 1)))
    if k_min <= 1e-3:
        return RATIO_K_VALUES
    return tuple(np.geomspace(1e-1, k_min, 4))


ON_CURVE_TOL = 1e-9
EIG_TOL = 1e-9
KERNEL_TOL = 1e-8
EXPONENT_TOL = 0.2
RATIO_TOL = 1e-4
MULTIPLE_EIG_TOL = 1e-10


@dataclass(frozen=True)
class ComplexPoint:
    x: complex
    y: complex
    residual: float


@dataclass(frozen=True)
class NumericDiag:
    """One named diagnostic: (parameter, measured, expected) samples and a verdict."""

    name: str
    samples: tuple
    passed: bool
    tolerance: float
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "samples": [
                {"parameter": str(p), "measured": _jsonable(m), "expected": _jsonable(e)}
                for (p, m, e) in self.samples
            ],
            "notes": {k: _jsonable(v) for k, v in self.notes.items()},
        }


def _jsonable(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(item) for item in v]
    return v


# -- curve evaluation -----------------------------------------------------------


def curve_scale(curve: SpectralCurve, x0: complex, y0: complex) -> float:
    total = 0.0
    for (dx, dy), c in curve.poly.items():
        total += abs(float(c)) * abs(x0) ** dx * abs(y0) ** dy
    return total


def curve_residual(curve: SpectralCurve, x0: complex, y0: complex) -> float:
    value = curve.poly.evaluate_complex(complex(x0), complex(y0))
    return abs(value) / max(1.0, curve_scale(curve, x0, y0))


def fiber_x(curve: SpectralCurve, y0: complex):
    """All N roots in x of the curve over a fixed y0, with on-curve residuals."""
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


def matrix_eval(pm, x0: complex, y0: complex) -> np.ndarray:
    return np.array(pm.evaluate_complex(complex(x0), complex(y0)), dtype=complex)


def _eigvec(xnum: np.ndarray, x0: complex) -> np.ndarray:
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


def eigenvector_at(state: LatticeState, t: int, point: ComplexPoint) -> np.ndarray:
    """Unit eigenvector of the monodromy at the given on-curve point."""
    if point.residual > ON_CURVE_TOL:
        raise IllConditioned(f"point residual {point.residual:.3g} not on curve")
    xnum = matrix_eval(build_monodromy(state, t), 0.0, point.y)
    return _eigvec(xnum, point.x)


def _fit_slope(ks, values) -> float:
    logs = np.log(np.abs(np.asarray(values, dtype=complex)))
    return float(np.polyfit(np.log(np.asarray(ks, dtype=float)), logs.real, 1)[0])


# -- infinity branch ---------------------------------------------------------------


def infinity_asymptotics(state: LatticeState, t: int) -> NumericDiag:
    """Pole orders and eigenvector decay along y = k^{-N}, x ~ k^{-(M+K)}.

    Requires a unique infinity branch, i.e. gcd(M+K, N) = 1.  Fitted samples:
    the pole order of x, the component ratios v_i/v_N ~ k^{N-i}, and the
    one-order growth of S v, R v, L v relative to v.
    """
    params = state.params
    M, K, n = params.M, params.K, params.N
    if not params.gcd_mkn_ok:
        raise GcdViolation(f"gcd(M+K, N) = {gcd(M + K, n)} != 1: no unique infinity branch")
    curve = spectral_curve(state, t)
    s_sym = shift_matrix(n)
    r_sym = factor_r(state, t - (M - 1) * K)
    l_sym = factor_l(state, t - M * K)

    ks = list(_resolvable_k_values(n))
    xs, vecs, growth = [], [], {"corner": [], "upper": [], "lower": []}
    scaled_err = []
    for k in ks:
        y0 = k ** (-n)
        target = k ** (-(M + K))
        pts = fiber_x(curve, y0)
        point = min(pts, key=lambda p: abs(p.x - target))
        v = eigenvector_at(state, t, point)
        xs.append(point.x)
        vecs.append(v)
        scaled_err.append(abs(point.x * k ** (M + K) - 1.0))
        norm_v = np.linalg.norm(v)
        for label, sym in (("corner", s_sym), ("upper", r_sym), ("lower", l_sym)):
            mat = matrix_eval(sym, 0.0, y0)
            growth[label].append(np.linalg.norm(mat @ v) / norm_v)

    samples = [("x_pole_order", _fit_slope(ks, xs), float(-(M + K)))]
    for i in range(n - 1):
        ratios = [vec[i] / vec[n - 1] for vec in vecs]
        samples.append((f"v{i + 1}/v{n}_order", _fit_slope(ks, ratios), float(n - 1 - i)))
    for label, name in (("corner", "corner_shift_growth"),
                        ("upper", "upper_factor_growth"),
                        ("lower", "lower_factor_growth")):
        samples.append((name, _fit_slope(ks, growth[label]), -1.0))
    monotone = all(a > b for a, b in zip(scaled_err, scaled_err[1:]))
    passed = monotone and all(abs(m - e) <= EXPONENT_TOL for _, m, e in samples)
    return NumericDiag(
        name="infinity_asymptotics",
        samples=tuple(samples),
        passed=passed,
        tolerance=EXPONENT_TOL,
        notes={"k_values": ks, "x_scaled_error": scaled_err, "scaled_error_decreasing": monotone},
    )


# -- kernels at the finite special points -------------------------------------------


def special_point_kernels(state: LatticeState, t: int, rng=None) -> NumericDiag:
    """Kernel membership at the distinguished points, with negative controls.

    Samples labelled ``ker:*`` must have residual <= kernel tolerance; the
    ``gen:*`` controls at generic on-curve points must stay >= 1e3 x that
    tolerance (an invertible factor cannot annihilate an eigenvector).
    """
    params = state.params
    M, K, n = params.M, params.K, params.N
    rng = rng or np.random.default_rng(0)
    curve = spectral_curve(state, t)
    sign = 1.0 if n % 2 == 0 else -1.0
    samples = []

    def kernel_residual(factor_sym, y0, vec):
        mat = matrix_eval(factor_sym, 0.0, y0)
        return float(
            np.linalg.norm(mat @ vec) / (np.linalg.norm(mat) * np.linalg.norm(vec))
        )

    # corner matrix at the first zero-fiber point; the exact eigenvalue is the
    # first site invariant, so use it directly instead of a computed root.
    # Every point here is an exact special point, hence residual 0.
    u = state.site_invariants()
    v_q1 = eigenvector_at(state, t, ComplexPoint(float(u[0]), 0.0, 0.0))
    samples.append(
        ("ker:corner@Q1", kernel_residual(shift_matrix(n), 0.0, v_q1), 0.0)
    )

    # upper-family points (exact eigenvalue 0): shift the monodromy time so the
    # singular factor is the rightmost one; its determinant zero then forces
    # kernel membership.
    for j in range(M):
        y_a = sign * float(state.i_product(t - j * K))
        t_shift = t + (M - 1 - j) * K
        vec = eigenvector_at(state, t_shift, ComplexPoint(0.0, y_a, 0.0))
        res = kernel_residual(factor_r(state, t - j * K), y_a, vec)
        samples.append((f"ker:upper@A{j}", res, 0.0))

    # lower-family points: the alternate product form ends in the lower factor
    # at time t - MK, so the eigenvector of the monodromy at t + (K-i)M lies in
    # the kernel of the factor at t - iM.
    for i in range(K):
        y_b = sign * float(state.v_product(t - i * M))
        t_shift = t + (K - i) * M
        vec = eigenvector_at(state, t_shift, ComplexPoint(0.0, y_b, 0.0))
        res = kernel_residual(factor_l(state, t - i * M), y_b, vec)
        samples.append((f"ker:lower@B{i}", res, 0.0))

    # negative controls at generic fibers
    floor = 1e3 * KERNEL_TOL
    r_sym = factor_r(state, t - (M - 1) * K)
    for idx in range(10):
        y0 = complex(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        pts = fiber_x(curve, y0)
        point = pts[int(rng.integers(0, len(pts)))]
        vec = eigenvector_at(state, t, point)
        res = kernel_residual(r_sym, y0, vec)
        samples.append((f"gen:upper@random{idx}", res, floor))

    passed = all(
        (m <= KERNEL_TOL) if str(p).startswith("ker:") else (m >= e)
        for p, m, e in samples
    )
    return NumericDiag(
        name="special_point_kernels",
        samples=tuple(samples),
        passed=passed,
        tolerance=KERNEL_TOL,
    )


# -- coincident-point structure ------------------------------------------------------


def _branch_by_phase(state, t, y0):
    """Pick the fiber branch whose local parameter (read off v_2/v_1) is
    closest to the positive real axis."""
    pts = fiber_x(spectral_curve(state, t), y0)
    best = None
    for p in pts:
        try:
            v = eigenvector_at(state, t, p)
        except (MultipleEigenvalue, IllConditioned):
            continue
        ratio = v[1] / v[0]
        score = abs(np.angle(ratio))
        if best is None or score < best[0]:
            best = (score, p, v)
    if best is None:
        raise IllConditioned("no usable branch in the fiber")
    return best[1], best[2]


def case_b_structure(state: LatticeState, t: int) -> NumericDiag:
    """Local structure at the coincident zero-fiber point: along y = k^N the
    eigenvector components satisfy v_i/v_1 ~ k^{i-1}."""
    params = state.params
    n = params.N
    if not params.gcd_mkn_ok:
        raise GcdViolation("gcd(M+K, N) != 1")
    if state.classify_case() != CASE_B:
        raise NotCaseB("site invariants are not all equal")
    ks = list(_resolvable_k_values(n))
    vecs = []
    for k in ks:
        _, v = _branch_by_phase(state, t, k ** n)
        vecs.append(v)
    samples = []
    for i in range(1, n):
        ratios = [vec[i] / vec[0] for vec in vecs]
        samples.append((f"v{i + 1}/v1_order", _fit_slope(ks, ratios), float(i)))
    passed = all(abs(m - e) <= EXPONENT_TOL for _, m, e in samples)
    return NumericDiag(
        name="case_b_structure",
        samples=tuple(samples),
        passed=passed,
        tolerance=EXPONENT_TOL,
        notes={"k_values": ks},
    )


# -- eigenvector-ratio limits -----------------------------------------------------------


def _ratio_along_paths(state, t, t_other, k_values):
    """The scale-free ratio (g_1^t g_N^{other}) / (g_N^t g_1^{other}) measured
    along p -> coincident point (y = k^N) and p -> infinity (y = k^{-N});
    returns the two extrapolated limits."""
    params = state.params
    n, M, K = params.N, params.M, params.K
    curve = spectral_curve(state, t)
    ks = list(k_values)

    def measure(point):
        v_t = eigenvector_at(state, t, point)
        v_o = eigenvector_at(state, t_other, point)
        return (v_t[0] * v_o[n - 1]) / (v_t[n - 1] * v_o[0])

    q_vals, p_vals = [], []
    for k in ks:
        pt_q, _ = _branch_by_phase(state, t, k ** n)
        q_vals.append(measure(pt_q))
        y_inf = k ** (-n)
        pts = fiber_x(curve, y_inf)
        pt_p = min(pts, key=lambda p: abs(p.x - k ** (-(M + K))))
        p_vals.append(measure(pt_p))

    deg = min(2, len(ks) - 1)
    q_limit = complex(np.polyfit(np.asarray(ks), np.asarray(q_vals), deg)[-1])
    p_limit = complex(np.polyfit(np.asarray(ks), np.asarray(p_vals), deg)[-1])
    return q_limit, p_limit, q_vals, p_vals


def psi_phi_ratios(state: LatticeState, t: int) -> NumericDiag:
    """The two eigenvector-ratio limits tying lattice values to special values.

    With w(p) the ratio built from times (t, t+K), the coincident-point limit
    over the infinity limit equals I_N/I_1 of the slice at t-(M-1)K; the
    (t, t-M) analogue gives V_N/V_1 of the slice at t-MK.  Limits are
    polynomial extrapolations in k of the sweep values.
    """
    params = state.params
    if not params.gcd_mkn_ok:
        raise GcdViolation("gcd(M+K, N) != 1")
    if state.classify_case() != CASE_B:
        raise NotCaseB("ratio limits need all site invariants equal")
    M, K, n = params.M, params.K, params.N
    k_values = _resolvable_ratio_ks(n)

    i_ref = state.i_slice(t - (M - 1) * K)
    v_ref = state.v_slice(t - M * K)
    psi_expected = float(i_ref[n - 1] / i_ref[0])
    phi_expected = float(v_ref[n - 1] / v_ref[0])

    q_psi, p_psi, q_raw, p_raw = _ratio_along_paths(state, t, t + K, k_values)
    psi_measured = q_psi / p_psi
    q_phi, p_phi, _, _ = _ratio_along_paths(state, t, t - M, k_values)
    phi_measured = q_phi / p_phi

    samples = (
        ("psi_ratio", psi_measured, psi_expected),
        ("phi_ratio", phi_measured, phi_expected),
    )
    passed = all(abs(m - e) <= RATIO_TOL for _, m, e in samples)
    return NumericDiag(
        name="psi_phi_ratios",
        samples=samples,
        passed=passed,
        tolerance=RATIO_TOL,
        notes={
            "k_values": list(k_values),
            "raw_coincident": q_raw,
            "raw_infinity": p_raw,
        },
    )
