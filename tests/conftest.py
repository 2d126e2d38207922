import itertools
import random

import pytest
from hypothesis import strategies as st

from redkp import (
    BiPoly,
    DegenerateEvolution,
    LatticeParams,
    LatticeState,
    PolyMatrix,
    build_factor,
    new_state,
    rat,
    uniform_state,
)
from redkp.lattice import _Generation, height
from redkp.lax import factor_slices
from redkp.yform import _levels, _word_levels, _word_value

PARAM_SETS = [(1, 1, 3), (2, 1, 3), (1, 2, 3), (3, 2, 5), (2, 3, 5)]



def on_every_set(param_sets):
    """Run a hypothesis property ``prop(M, K, N, data)`` on each of
    ``param_sets`` in turn, as one test under the property's own name, so
    that every set runs its ``max_examples`` on every run."""

    def wrap(prop):
        def test():
            for M, K, N in param_sets:
                prop(M=M, K=K, N=N)

        test.__name__ = test.__qualname__ = prop.__name__
        test.__doc__ = prop.__doc__
        return test

    return wrap


values = st.builds(rat, st.integers(-9, 9).filter(bool), st.integers(1, 5))
# sums of products of +-1 and +-2 cancel often, so these windows' band rows
# hold exact zeros, which ``lax._fold`` must not store
units = st.sampled_from([rat(v) for v in (-2, -1, 1, 2)])


@st.composite
def windows(draw, M, K, N):
    """The I- and V-slices of an (M, K, N) window of arbitrary nonzero signed
    values ending at t = 0, long enough for X_0 and its alternate form.  Plain
    dicts, so that a failing example prints its values."""
    pool = draw(st.sampled_from((values, units)))

    def slices(count):
        return {-r: [draw(pool) for _ in range(N)] for r in range(count)}

    return slices(2 * M * K - K + 1), slices(2 * M * K - M + 1)


# bit height a stepped slice may reach in a test; see ``bounded_steps``
STEP_MAX_BITS = 100_000


def random_rational(rng, lo=1, hi=9, den=5):
    return rat(rng.randint(lo, hi), rng.randint(1, den))


def random_state(M, K, N, seed=0, probe=40):
    """Random positive small-rational initial data with consecutive windows
    ending at time 0.  Seeds whose data hits an exact product collision
    within the probe horizon are skipped deterministically."""
    while True:
        rng = random.Random(seed)
        i_slices = {
            -r: [random_rational(rng) for _ in range(N)] for r in range(M)
        }
        v_slices = {
            -r: [random_rational(rng) for _ in range(N)] for r in range(K)
        }
        state = new_state(LatticeParams(M, K, N), i_slices, v_slices)
        try:
            state.copy().evolve_to(probe)
        except DegenerateEvolution:
            seed += 1000003  # fixed stride keeps the retry deterministic
            continue
        return state


def word_value(state, t, word, site):
    """Value of one {s,m}-word of X_t at a row index."""
    return _word_value(_levels(state, t), word, site)


def bands_words(state, t):
    """The band rows of X_t by the word expansion: a_{i,k} sums the values at
    row i of the words of M+K letters with k letters s.  The literal
    recursive definition, exponential in M+K; the oracle for
    ``band_coefficients``."""
    n = state.params.N
    levels = _word_levels(state, t)
    acc = [[rat(0)] * (len(levels) + 1) for _ in range(n)]
    for letters in itertools.product("sm", repeat=len(levels)):
        word = "".join(letters)
        for i in range(n):
            acc[i][word.count("s")] += _word_value(levels, word, i)
    return tuple(tuple(row) for row in acc)


def fold_bands(rows):
    """The N x N matrix over Q[y] of a band table: a_{i,k} adds to entry
    (i, (i+k) mod N) at y^((i+k) div N)."""
    n = len(rows)
    out = [[BiPoly.zero() for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            out[i][(i + k) % n] += BiPoly.monomial(0, (i + k) // n, a)
    return PolyMatrix(out)


def fold_at(rows, y0) -> list:
    """The N x N matrix of rationals ``lax._fold(rows)`` takes at y = y0:
    a_{i,k} adds to entry (i, (i+k) mod N) times y0^((i+k) div N)."""
    n = len(rows)
    out = [[rat(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for k, a in enumerate(row):
            wrap, col = divmod(i + k, n)
            out[i][col] += a * y0**wrap
    return out


def curve_closed_form_112(i_values, v_values):
    """Curve polynomial of the (1,1,2) system straight from the slice data."""
    i1, i2 = (rat(v) for v in i_values)
    v1, v2 = (rat(v) for v in v_values)
    u1 = i1 * i2 + v1 * v2
    u2 = v1 * i1 + v2 * i2
    u3 = i1 * i2 * v1 * v2
    x, y = BiPoly.x(), BiPoly.y()
    return y * y - y * (x * 2 + BiPoly.constant(u1)) + x * x - x * u2 + BiPoly.constant(u3)


def curve_closed_form_212(zeta, i_values, v_values):
    """Curve polynomial of the (2,1,2) system seeded with a constant slice."""
    z = rat(zeta)
    i1, i2 = (rat(v) for v in i_values)
    v1, v2 = (rat(v) for v in v_values)
    u1 = i1 * i2 + v1 * v2
    u2 = v1 * i1 + v2 * i2
    u3 = i1 * i2 * v1 * v2
    u4 = i1 + i2 + v1 + v2
    x, y = BiPoly.x(), BiPoly.y()
    return (
        -(y * y * y)
        + (y * y) * (z * z + u1)
        - y * (x * (2 * z + u4) + BiPoly.constant(z * z * u1 + u3))
        + x * x
        - x * (z * u2)
        + BiPoly.constant(z * z * u3)
    )


def identity(n: int) -> PolyMatrix:
    return PolyMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def scale(m: PolyMatrix, factor) -> PolyMatrix:
    """m times a polynomial or scalar factor, entry by entry: with
    ``identity`` the oracle of ``PolyMatrix.minus_diagonal``."""
    return PolyMatrix([[e * factor for e in row] for row in m.rows])


def add(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return PolyMatrix([[p + q for p, q in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def rotated(state):
    """The same history shifted by one site: new site n holds old site n+1."""
    return LatticeState(
        state.params,
        {t: state.i_slice(t)[1:] + state.i_slice(t)[:1] for t in state.times("I")},
        {t: state.v_slice(t)[1:] + state.v_slice(t)[:1] for t in state.times("V")},
        state.frontier,
    )


def dense_monodromy(state, t, form="standard"):
    """X_t as the dense ``PolyMatrix`` product of its factor matrices."""
    factors = [build_factor(d) for d in factor_slices(state, t, form)]
    out = factors[0]
    for f in factors[1:]:
        out = out @ f
    return out


# the step as the library defines it, which ``bounded_steps`` wraps
LIBRARY_STEP = LatticeState.step


@pytest.fixture(autouse=True)
def bounded_steps(monkeypatch):
    """Every step a test takes fails once its slice passes STEP_MAX_BITS.

    A correct step grows heights quadratically in t, while a broken one lets
    them explode; without a budget such a test runs on instead of failing.
    A τ chain step's slices are read where the history keeps them and not
    written into it, so the tests read histories that hold unread steps."""
    step = LatticeState.step

    def bounded(self):
        t = step(self).frontier
        x, y = self._i[t], self._v[t]
        if type(x) is _Generation:
            x, y = x.read()
        bits = height(x + y)
        if bits > STEP_MAX_BITS:
            raise AssertionError(f"slice at t = {t} reaches {bits} bits, over {STEP_MAX_BITS}")
        return self

    monkeypatch.setattr(LatticeState, "step", bounded)


def read_as_stepped(state, last):
    """A copy of ``state`` stepped to ``last``, each step's slices read as
    it is made: the history as it was kept before a τ chain step's slices
    were written on first read."""
    out = state.copy()
    while out.frontier < last:
        out.step()
        out.i_slice(out.frontier)
    return out


@pytest.fixture
def unread_steps(monkeypatch):
    """The library's step in place of ``bounded_steps``, which reads every
    step it checks: a τ chain step's gcds stay untaken until a test reads
    one of its slices, as outside the tests."""
    monkeypatch.setattr(LatticeState, "step", LIBRARY_STEP)


@pytest.fixture
def classic_state():
    """The running (1,1,2) example: I = (2,3), V = (1,5)."""
    return new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 5]})


@pytest.fixture
def case_b_113():
    """Non-uniform data with all site invariants equal (gcd(M+K,N) = 1)."""
    return new_state(
        LatticeParams(1, 1, 3), {0: [2, 3, 4]}, {0: [3, 2, rat(3, 2)]}
    )


@pytest.fixture
def uniform_113():
    return uniform_state(LatticeParams(1, 1, 3), 2, 1)


@pytest.fixture
def uniform_212():
    return uniform_state(LatticeParams(2, 1, 2), 3, 2)
