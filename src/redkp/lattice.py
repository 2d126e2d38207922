"""Periodic lattice data and exact time evolution.

A state holds the two families of period-N slices I and V.  Advancing one
time step solves the cyclic one-step equations

    x_n = a_{n-1} + b_n - y_{n-1},      y_n = a_n b_n / x_n

(a = I-slice M steps back, b = V-slice K steps back).  In z_i = 1/(x_i - b_i)
the step is affine, z_i = (1 + b_{i-1} z_{i-1}) / a_{i-1}, with slope
prod(b)/prod(a) round the cycle.  One Horner pass gives its finite fixed
point: the eigenvalue-prod(a) branch of the 2x2 monodromy (``monodromy_closure``).
The pass carries w = p s, s the image of z = 0 and p the partial product of
a: w <- p + b_{i-1} w, then p <- p a_{i-1}.  So it makes no division and
leaves prod(a) in p, and x_N = b_N + (prod(a) - prod(b)) / w.  z = infinity
(x = b) is the excluded trivial branch of prod(b).  Every step is exact, so
the product conservation laws hold with zero error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd, prod

from .errors import (
    DegenerateEvolution,
    GcdViolation,
    InsufficientHistory,
    SingularStep,
    SizeMismatch,
    ZeroValue,
)
from .rational import Rational, format_rational, from_coprime, parse_rational

CASE_A = "case_a"
CASE_B = "case_b"
CASE_MIXED = "mixed"


@dataclass(frozen=True)
class LatticeParams:
    M: int
    K: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.N < 1:
            raise SizeMismatch("M, K, N must be positive")
        if gcd(self.M, self.K) != 1:
            raise GcdViolation(f"gcd(M,K) = {gcd(self.M, self.K)} != 1")

    @property
    def gcd_mkn_ok(self) -> bool:
        """Recorded, not enforced: the unique-infinity-point condition."""
        return gcd(self.M + self.K, self.N) == 1

    def factor_times(self, t: int) -> tuple:
        """The factor times of the monodromy X_t in product order, as
        (i_times, v_times): X_t = L(t-(K-1)M) ... L(t-M) L(t) R(t) R(t-K) ...
        R(t-(M-1)K), L built from V-slices and R from I-slices."""
        M, K = self.M, self.K
        return tuple(t - j * K for j in range(M)), tuple(t - j * M for j in range(K - 1, -1, -1))


def default_time(state: LatticeState, deep: bool = False) -> int:
    """Earliest time at which the monodromy X_t is constructible from the
    initial data; with ``deep``, its alternate form, the schedule at t-MK, too.
    That is enough for every check at t: X at t-K and t-M and the conjugating
    factors at t-(M-1)K and t-MK belong to schedules from t-MK on."""
    i_times, v_times = state.params.factor_times(0)
    t = max(state.i_min - min(i_times), state.v_min - min(v_times))
    return t + state.params.M * state.params.K if deep else t


def _check_values(values, n: int, label: str) -> tuple:
    vals = tuple(v if type(v) is Rational else Rational(v) for v in values)
    if len(vals) != n:
        raise SizeMismatch(f"{label}: expected {n} values, got {len(vals)}")
    if any(v == 0 for v in vals):
        raise ZeroValue(f"{label}: zero lattice value")
    return vals


def _product(values):
    """The product of a slice's values, reduced once: a slice's factors
    cancel only when the cycle closes, so one gcd of the numerators'
    product with the denominators' beats a reduction per factor."""
    n = prod(v.numerator for v in values)
    d = prod(v.denominator for v in values)
    g = gcd(n, d)
    return from_coprime(n // g, d // g)


def monodromy_closure(a, b):
    """2x2 monodromy T of the cyclic step recursion: the reference the tests
    hold the step to, as each step's (x_N, 1) is an eigenvector of T for prod_a.

    Returns (T, prod_a, prod_b).  trace(T) == prod_a + prod_b and
    det(T) == prod_a * prod_b hold for every a and b: det T is the product
    of the per-site determinants a_{i-1} b_{i-1}, and x_i = b_i is a cyclic
    orbit of the recursion, so prod_b is an eigenvalue.
    """
    n = len(a)
    t11, t12, t21, t22 = Rational(1), Rational(0), Rational(0), Rational(1)
    for i in range(n):
        am1 = a[i - 1]
        m11, m12 = am1 + b[i], -am1 * b[i - 1]
        t11, t12, t21, t22 = (
            m11 * t11 + m12 * t21,
            m11 * t12 + m12 * t22,
            t11,
            t12,
        )
    return (t11, t12, t21, t22), _product(a), _product(b)


_TIME_KEY = re.compile(r"-?[0-9]+")


def _json_int(value, label: str) -> int:
    # bool is a subclass of int, and JSON true must not load as 1
    if type(value) is not int:
        raise TypeError(f"{label} must be a JSON integer, got {value!r}")
    return value


def _time_key(key) -> int:
    if not isinstance(key, str) or _TIME_KEY.fullmatch(key) is None:
        raise ValueError(f"time key {key!r} is not an integer string")
    return int(key)


def _slices(hist, label: str) -> dict:
    if type(hist) is not dict:
        raise TypeError(f"{label} must be a JSON object, got {type(hist).__name__}")
    out = {}
    for key, vals in hist.items():
        t = _time_key(key)
        if t in out:
            raise ValueError(f"{label} time key {key!r} repeats time {t}")
        if type(vals) is not list:
            # a string would iterate as one rational per character
            raise TypeError(f"{label}[{key!r}] must be a JSON list, got {type(vals).__name__}")
        out[t] = [parse_rational(v) for v in vals]
    return out


def _unique_keys(pairs) -> dict:
    # json.load keeps the last of repeated keys; a state file must not repeat one
    out = {}
    for key, value in pairs:
        if key in out:
            raise SizeMismatch(f"malformed state file: repeated key {key!r}")
        out[key] = value
    return out


class LatticeState:
    """History of I/V slices with an advancing frontier, plus a cache of the
    objects derived from it (``built``), valid until ``prune_below``.

    The cache holds the slice products and site invariants, each under its
    own time, so the special points, ``classify_case`` and ``verify`` share
    them.  A slice never changes once written, so an entry stays right
    until pruning; the step neither reads nor fills the cache, so no value
    is carried from one time to the next.

    A state is exclusively owned while being advanced.  ``copy()`` snapshots
    may be read concurrently; reading one fills its own cache, so two readers
    may build the same object twice.
    """

    def __init__(self, params: LatticeParams, i_hist: dict, v_hist: dict, frontier: int):
        self.params = params
        self._i = dict(i_hist)
        self._v = dict(v_hist)
        self.frontier = frontier
        self._built = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, params: LatticeParams, i_slices, v_slices) -> "LatticeState":
        M, K, N = params.M, params.K, params.N
        i_hist = {int(t): _check_values(vals, N, f"I[{t}]") for t, vals in dict(i_slices).items()}
        v_hist = {int(t): _check_values(vals, N, f"V[{t}]") for t, vals in dict(v_slices).items()}
        if len(i_hist) < M or len(v_hist) < K:
            raise SizeMismatch(
                f"need at least {M} I-slices and {K} V-slices, "
                f"got {len(i_hist)} and {len(v_hist)}"
            )
        fi, fv = max(i_hist), max(v_hist)
        if fi != fv:
            raise SizeMismatch(f"I and V windows end at different times ({fi} vs {fv})")
        for t in range(min(i_hist), fi + 1):
            if t not in i_hist:
                raise SizeMismatch(f"I history has a gap at time {t}")
        for t in range(min(v_hist), fv + 1):
            if t not in v_hist:
                raise SizeMismatch(f"V history has a gap at time {t}")
        return cls(params, i_hist, v_hist, fi)

    def copy(self) -> "LatticeState":
        return LatticeState(self.params, self._i, self._v, self.frontier)

    # -- access ---------------------------------------------------------------

    @property
    def i_min(self) -> int:
        return min(self._i)

    @property
    def v_min(self) -> int:
        return min(self._v)

    def _get(self, hist: dict, kind: str, t: int) -> tuple:
        if t > self.frontier:
            self.evolve_to(t)
        try:
            return hist[t]
        except KeyError:
            raise InsufficientHistory(
                f"{kind}-slice at time {t} predates the initial data"
            ) from None

    def i_slice(self, t: int) -> tuple:
        return self._get(self._i, "I", t)

    def v_slice(self, t: int) -> tuple:
        return self._get(self._v, "V", t)

    def i_product(self, t: int):
        return self.built(("i_product", t), lambda: _product(self.i_slice(t)))

    def v_product(self, t: int):
        return self.built(("v_product", t), lambda: _product(self.v_slice(t)))

    def times(self, kind: str):
        hist = self._i if kind == "I" else self._v
        return sorted(hist)

    def built(self, key, build):
        """The derived object under ``key``, made by ``build()`` on first use.
        A key names everything the object depends on, its times included;
        ``copy()`` starts empty and ``prune_below`` clears it."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    # -- evolution --------------------------------------------------------------

    def step(self) -> "LatticeState":
        """Write the slices at frontier + 1 (module docstring).  The a_i b_i
        are formed once, for y and, when M = K = 1, for prod(b) =
        prod(ab) / prod(a): there they are the site invariants, so this
        spares a product of N values of the slices' height.  Other (M, K)
        keep prod(b): there the a_i b_i are as tall as the slices, and the
        quotient measured no faster.  The step neither reads nor fills the
        ``built`` cache."""
        t1 = self.frontier + 1
        a = self._i[t1 - self.params.M]
        b = self._v[t1 - self.params.K]
        n = self.params.N
        ab = [ai * bi for ai, bi in zip(a, b)]

        # z = 1/(x - b) goes round the cycle to (pb/pa) z + s, fixed at s / (1 - pb/pa);
        # the pass runs on w = pa*s with no division, and x - b = (pa - pb) / w
        pa, w = 1, 0
        for i in range(n):
            w = pa + b[i - 1] * w
            pa = pa * a[i - 1]
        pb = _product(ab) / pa if self.params.M == self.params.K == 1 else _product(b)
        if pa == pb:
            raise DegenerateEvolution(
                f"prod(I) == prod(V) == {format_rational(pa)} at step {t1}: "
                "closure is not unique"
            )
        if w == 0:
            raise DegenerateEvolution(f"closure fixed point at infinity at step {t1}")
        x_last = b[n - 1] + (pa - pb) / w

        x = [None] * n
        y = [None] * n
        if x_last == 0:
            raise SingularStep(f"x_{n} = 0 at step {t1}")
        x[n - 1] = x_last
        y[n - 1] = ab[n - 1] / x_last
        for i in range(n - 1):
            xi = a[i - 1] + b[i] - y[i - 1]
            if xi == 0:
                raise SingularStep(f"x_{i + 1} = 0 at step {t1}")
            x[i] = xi
            y[i] = ab[i] / xi

        self._i[t1] = tuple(x)
        self._v[t1] = tuple(y)
        self.frontier = t1
        return self

    def evolve_to(self, target: int) -> "LatticeState":
        while self.frontier < target:
            self.step()
        return self

    def prune_below(self, floor: int) -> "LatticeState":
        """Drop slices strictly below ``floor``.  The history is unbounded by
        default; after pruning, a request below the floor raises
        InsufficientHistory rather than recomputing silently.  The stepping
        windows themselves are never evicted."""
        keep = min(self.frontier - self.params.M + 1, self.frontier - self.params.K + 1)
        floor = min(floor, keep)
        self._i = {t: v for t, v in self._i.items() if t >= floor}
        self._v = {t: v for t, v in self._v.items() if t >= floor}
        self._built.clear()
        return self

    # -- invariants ------------------------------------------------------------

    def site_invariants(self, t: int | None = None) -> tuple:
        """The N per-site conserved products (the diagonal of the monodromy at y=0).

        U_j multiplies the site-j values of every factor slice of X_t
        (``LatticeParams.factor_times``), at t or by default at the frontier;
        this product is exactly invariant in t, so any time from
        ``default_time`` on gives the same tuple.  Cached under its time.
        """
        if t is None:
            t = self.evolve_to(default_time(self)).frontier
        return self.built(("site_invariants", t), lambda: self._site_invariants(t))

    def _site_invariants(self, t: int) -> tuple:
        i_times, v_times = self.params.factor_times(t)
        slices = [self.i_slice(s) for s in i_times] + [self.v_slice(s) for s in v_times]
        # reduced factor by factor: a site column's neighbours cancel
        # pairwise, so each partial product stays short
        return tuple(prod((v[j] for v in slices), start=Rational(1)) for j in range(self.params.N))

    def classify_case(self) -> str:
        u = self.site_invariants()
        if all(v == u[0] for v in u):
            return CASE_B
        if len(set(u)) == len(u):
            return CASE_A
        return CASE_MIXED

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "M": self.params.M,
            "K": self.params.K,
            "N": self.params.N,
            "frontier": self.frontier,
            "I": {str(t): [format_rational(v) for v in vals] for t, vals in sorted(self._i.items())},
            "V": {str(t): [format_rational(v) for v in vals] for t, vals in sorted(self._v.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticeState":
        try:
            params = LatticeParams(*(_json_int(data[key], key) for key in ("M", "K", "N")))
            i_slices = _slices(data["I"], "I")
            v_slices = _slices(data["V"], "V")
            frontier = _json_int(data["frontier"], "frontier")
        except (KeyError, TypeError, ValueError) as exc:
            raise SizeMismatch(f"malformed state file: {exc}") from exc
        state = cls.create(params, i_slices, v_slices)
        if state.frontier != frontier:
            raise SizeMismatch(
                f"frontier {frontier} does not match slice windows (expected {state.frontier})"
            )
        return state

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=None, sort_keys=False)

    @classmethod
    def loads(cls, text: str) -> "LatticeState":
        """Parse a state file; a JSON object that repeats a key is rejected."""
        return cls.from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))


# Constructors ----------------------------------------------------------------------


def new_state(params: LatticeParams, i_slices, v_slices) -> LatticeState:
    return LatticeState.create(params, i_slices, v_slices)


def uniform_state(params: LatticeParams, i_value, v_value) -> LatticeState:
    """All-sites-equal data ending at t = 0; handy fixed point of the evolution."""
    i_val, v_val = Rational(i_value), Rational(v_value)
    i_slices = {-r: [i_val] * params.N for r in range(params.M)}
    v_slices = {-r: [v_val] * params.N for r in range(params.K)}
    return LatticeState.create(params, i_slices, v_slices)
