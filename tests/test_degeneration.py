import hashlib
import math
import random

import pytest

from redkp import (
    DegenerationPlan,
    EmptyIndexSet,
    LatticeParams,
    LatticeState,
    WrongParams,
    ZeroValue,
    hidden_invariant_check,
    lambda_set,
    limit_compare,
    new_state,
    rat,
    seed_large_zeta,
    spectral_curve,
    uniform_state,
    xi_set,
)
from redkp.cli import main
from redkp import degeneration
from redkp.degeneration import _float_diff, _max_deviation, hidden_sum
from conftest import curve_closed_form_112, curve_closed_form_212, random_state


# -- index sets -----------------------------------------------------------------


def test_lambda_set_examples():
    assert lambda_set(2, 1, 8) == [1, 3, 5, 7]
    assert lambda_set(3, 1, 9) == [1, 2, 4, 5, 7, 8]


def test_lambda_set_skip_step_structure():
    # ordering t_1 < t_2 < ...: dropping M-K indices steps back by M
    lam = lambda_set(3, 1, 30)
    M, K = 3, 1
    for s in range(M - K, len(lam)):
        assert lam[s - (M - K)] == lam[s] - M


def test_lambda_set_closed_form():
    for (M, K) in [(2, 1), (3, 1), (3, 2), (5, 2), (7, 4)]:
        lam = lambda_set(M, K, 40)
        assert lam == [t for t in range(40) if t % M >= K]


def test_lambda_set_matches_block_definition():
    # the docstring's definition: drop the K-wide blocks {kM, ..., kM+K-1}
    for (M, K, horizon) in [(2, 1, 9), (3, 2, 17), (5, 2, 40), (7, 4, 3), (4, 3, 0)]:
        removed = {k * M + j for k in range(horizon // M + 1) for j in range(K)}
        assert lambda_set(M, K, horizon) == [t for t in range(horizon) if t not in removed]


def test_lambda_set_empty():
    with pytest.raises(EmptyIndexSet):
        lambda_set(1, 1, 10)
    with pytest.raises(EmptyIndexSet):
        lambda_set(2, 3, 10)


def test_xi_set_mirror():
    assert xi_set(1, 2, 8) == lambda_set(2, 1, 8)
    with pytest.raises(EmptyIndexSet):
        xi_set(2, 1, 8)


# -- seeding ------------------------------------------------------------------------


def test_seed_reduce_m(classic_state):
    plan = DegenerationPlan("reduce_M", classic_state)
    big = seed_large_zeta(plan, rat(1000))
    assert (big.params.M, big.params.K, big.params.N) == (2, 1, 2)
    assert big.i_slice(0) == (rat(1000), rat(1000))
    assert big.i_slice(-1) == classic_state.i_slice(0)
    assert big.v_slice(0) == classic_state.v_slice(0)
    assert big.frontier == 0


def test_seed_reduce_k(classic_state):
    plan = DegenerationPlan("reduce_K", classic_state)
    big = seed_large_zeta(plan, rat(500))
    assert (big.params.M, big.params.K, big.params.N) == (1, 2, 2)
    assert big.v_slice(0) == (rat(500), rat(500))
    assert big.v_slice(-1) == classic_state.v_slice(0)
    assert big.i_slice(0) == classic_state.i_slice(0)


def test_seed_zero_zeta_rejected(classic_state):
    with pytest.raises(ZeroValue):
        seed_large_zeta(DegenerationPlan("reduce_M", classic_state), rat(0))


def test_plan_validation(classic_state):
    with pytest.raises(ValueError):
        DegenerationPlan("sideways", classic_state)


# -- convergence --------------------------------------------------------------------


def reduce_k_base():
    return new_state(LatticeParams(1, 2, 3), {0: [2, 3, 5]}, {-1: [1, 4, 2], 0: [3, 1, 2]})


def off_set_deviations(plan, zeta):
    """At the big times up to the last kept one that the index set leaves
    out: the largest change of the frozen family against its slice one step
    of that family back (V under reduce_M, I under reduce_K), and the largest
    |value/zeta - 1| of the family seeded with zeta."""
    big = plan.big_params
    reduce_m = plan.direction == "reduce_M"
    index_set = lambda_set if reduce_m else xi_set
    kept = index_set(big.M, big.K, plan.horizon * (big.M + big.K))[: plan.horizon]
    state = seed_large_zeta(plan, zeta).evolve_to(kept[-1])
    freeze = scale = 0.0
    for t in range(big.K if reduce_m else big.M, kept[-1] + 1):
        if t in kept:
            continue
        if reduce_m:
            now, prev, scaled = state.v_slice(t), state.v_slice(t - big.K), state.i_slice(t)
        else:
            now, prev, scaled = state.i_slice(t), state.i_slice(t - big.M), state.v_slice(t)
        for n in range(big.N):
            freeze = max(freeze, abs(float(now[n] - prev[n])))
            scale = max(scale, abs(float(scaled[n]) / zeta - 1.0))
    return freeze, scale


def test_limit_compare_212(classic_state):
    plan = DegenerationPlan("reduce_M", classic_state, horizon=10)
    table = limit_compare(plan, [1e2, 1e3, 1e4])
    errs = [r.max_err for r in table.rows]
    assert all(e > 0 for e in errs)
    assert errs[0] > errs[1] > errs[2]
    # roughly one decade of error per decade of zeta
    assert errs[0] / errs[1] > 3 and errs[1] / errs[2] > 3
    assert -1.3 <= table.slope <= -0.7
    # the slope is the least-squares line of log max_err against log zeta
    xs = [math.log(r.zeta) for r in table.rows]
    ys = [math.log(e) for e in errs]
    mx, my = sum(xs) / 3, sum(ys) / 3
    fit = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    assert table.slope == pytest.approx(fit, rel=1e-12)


def test_limit_compare_off_set_behaviour(classic_state):
    for plan in (
        DegenerationPlan("reduce_M", classic_state, horizon=8),
        DegenerationPlan("reduce_K", reduce_k_base(), horizon=8),
    ):
        (freeze_1, scale_1), (freeze_2, scale_2) = (off_set_deviations(plan, z) for z in (1e2, 1e3))
        # frozen family: carries over between kept times, deviation shrinks with zeta
        assert freeze_1 > freeze_2
        # designated family stays pinned to zeta: |value/zeta - 1| -> 0
        assert scale_1 > scale_2
        assert scale_2 < 0.1


def test_limit_compare_reduce_k():
    plan = DegenerationPlan("reduce_K", reduce_k_base(), horizon=8)
    table = limit_compare(plan, [1e2, 1e3, 1e4])
    errs = [r.max_err for r in table.rows]
    assert errs[0] > errs[1] > errs[2]
    assert -1.3 <= table.slope <= -0.7


# -- closed forms ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_112(seed):
    st = random_state(1, 1, 2, seed=seed)
    expected = curve_closed_form_112(st.i_slice(0), st.v_slice(0))
    assert spectral_curve(st, 0).poly == expected


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_212_seeded(seed):
    # the closed form reads the slices one step above the constant slice
    base = random_state(1, 1, 2, seed=seed)
    zeta = rat(7 + seed, 2)
    big = seed_large_zeta(DegenerationPlan("reduce_M", base), zeta)
    big.evolve_to(1)
    expected = curve_closed_form_212(zeta, big.i_slice(1), big.v_slice(1))
    assert spectral_curve(big, 1).poly == expected


# -- hidden invariant ------------------------------------------------------------------


def test_hidden_invariant_classic(classic_state):
    rep = hidden_invariant_check(classic_state, steps=50)
    assert rep.constant
    assert rep.value == 11
    assert rep.times_checked >= 50


def test_hidden_invariant_uniform():
    st = uniform_state(LatticeParams(1, 1, 2), 3, 1)
    rep = hidden_invariant_check(st, steps=10)
    assert rep.constant
    assert rep.value == 2 * (3 + 1)


def test_hidden_invariant_wrong_params():
    st = random_state(1, 1, 3, seed=1)
    with pytest.raises(WrongParams):
        hidden_invariant_check(st)


def companion_with_same_curve(state, p):
    """A (1,1,2) state with the same spectral curve but generally a different
    hidden-sum value: the curve fixes the four products i1*i2, v1*v2, v1*i1,
    v2*i2, and p reparametrises the one-parameter family they leave free."""
    if (state.params.M, state.params.K, state.params.N) != (1, 1, 2):
        raise WrongParams("companion construction is specific to (1,1,2)")
    p = rat(p)
    if p == 0:
        raise WrongParams("parameter must be nonzero")
    t = state.frontier
    i, v = state.i_slice(t), state.v_slice(t)
    a = i[0] * i[1]
    q1, q2 = v[0] * i[0], v[1] * i[1]
    new_i = (p, a / p)
    new_v = (q1 / p, q2 * p / a)
    return LatticeState.create(state.params, {t: new_i}, {t: new_v})


def find_hidden_invariant_pair(rng, attempts=200):
    """Randomized search, drawing from ``rng.randint`` (a ``random.Random``):
    two states with exactly equal curves but different hidden sums,
    witnessing that the sum is independent of the curve data."""
    for _ in range(attempts):
        vals = [rat(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(4)]
        base = LatticeState.create(LatticeParams(1, 1, 2), {0: vals[:2]}, {0: vals[2:]})
        p = rat(rng.randint(1, 8), rng.randint(1, 4))
        other = companion_with_same_curve(base, p)
        if spectral_curve(base, 0).poly != spectral_curve(other, 0).poly:
            raise AssertionError("companion construction changed the curve")
        if hidden_sum(base, 0) != hidden_sum(other, 0):
            return base, other
    raise RuntimeError("no witness pair found")


def test_companion_same_curve_different_sum(classic_state):
    other = companion_with_same_curve(classic_state, rat(1))
    assert spectral_curve(other, 0).poly == spectral_curve(classic_state, 0).poly
    assert hidden_sum(other, 0) != hidden_sum(classic_state, 0)
    # the hidden sum is therefore not a function of the curve coefficients
    assert other.i_slice(0) == (rat(1), rat(6))


def test_find_hidden_invariant_pair():
    a, b = find_hidden_invariant_pair(random.Random(3))
    assert spectral_curve(a, 0).poly == spectral_curve(b, 0).poly
    assert hidden_sum(a, 0) != hidden_sum(b, 0)
    # both remain honest evolving states
    u4a = hidden_sum(a, 0)
    a.evolve_to(5)
    assert hidden_sum(a, 5) == u4a


def test_single_zeta_sweep_has_no_slope(classic_state):
    plan = DegenerationPlan("reduce_M", classic_state, horizon=4)
    table = limit_compare(plan, [1e3])
    assert len(table.rows) == 1
    assert math.isnan(table.slope)


def test_repeated_zeta_sweep_has_no_slope(classic_state):
    # two rows at one zeta fix no line: the slope is nan, not a fit
    plan = DegenerationPlan("reduce_M", classic_state, horizon=4)
    table = limit_compare(plan, [1e2, 1e2])
    assert len(table.rows) == 2
    assert table.rows[0] == table.rows[1]
    assert math.isnan(table.slope)
    assert not math.isnan(limit_compare(plan, [1e2, 1e2, 1e3]).slope)



def test_float_diff_equals_float_of_the_difference():
    """On fractions of 1k-20k bits: near-equal pairs, underflowing and
    subnormal differences, and differences past the float range."""
    rng = random.Random(71)
    for _ in range(200):
        bits = rng.randint(1000, 20000)
        den_a, den_b = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
        a = rat(rng.getrandbits(bits) * rng.choice((-1, 1)), den_a)
        b = rng.choice((
            rat(rng.getrandbits(bits), den_b),
            a + rat(rng.choice((-1, 1)), den_b),  # near a
            a + rat(1, 2**1070),  # a subnormal difference
            a + rat(1, 2**1200),  # below the smallest subnormal
            -a,
        ))
        assert _float_diff(a, b) == float(a - b)
        assert math.copysign(1, _float_diff(a, b)) == math.copysign(1, float(a - b))
    huge = rat(2**2000 + 1, 3)
    for a, b in ((huge, rat(1, 7)), (rat(1, 7), huge)):
        with pytest.raises(OverflowError):
            float(a - b)
        with pytest.raises(OverflowError):
            _float_diff(a, b)


def full_max(pairs):
    """The largest |float(a - b)| with every pair's ``_float_diff`` taken."""
    return max((abs(_float_diff(a, b)) for a, b in pairs), default=0.0)


def outcome_of(f, pairs):
    try:
        return f(pairs)
    except OverflowError as exc:
        return type(exc), str(exc)


def test_max_deviation_equals_the_full_max_loop():
    """On shuffled lists of 1k-20k-bit pairs, near-equal, subnormal,
    negated, tied and past the float range, and on a difference that the
    rounding of both values hides, ``_max_deviation`` returns or raises as
    the loop that takes every exact difference does."""
    rng = random.Random(72)
    huge = rat(2**2000 + 1, 3)
    for _ in range(60):
        pairs = []
        for _ in range(rng.randint(0, 12)):
            bits = rng.randint(1000, 20000)
            a = rat(rng.getrandbits(bits) * rng.choice((-1, 1)), rng.getrandbits(bits) | 1)
            d = rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((7, 2**40, 2**1070, 2**1200)))
            pairs.append(rng.choice((
                (a, a + d),
                (a, -a),
                (a, rat(rng.getrandbits(bits), rng.getrandbits(bits) | 1)),
                (a + 1, a + 1 + d),  # ties (a, a + d) when both are drawn
                (huge + d, huge),  # past the float range, with a difference within it
            )))
        if rng.random() < 0.1:
            pairs.insert(rng.randint(0, len(pairs)), (huge, rat(1, 7)))  # a difference past it
        rng.shuffle(pairs)
        assert outcome_of(_max_deviation, pairs) == outcome_of(full_max, pairs)
    a, b = rat(1, 3), rat(1, 7)
    tie = [(a, b), (a + 5, b + 5), (b, a)]
    assert _max_deviation(tie) == full_max(tie) == float(a - b)
    # both values of the second pair round to 1.0, so only the bound's
    # rounding room keeps its exact difference from being skipped
    hidden = [(rat(1, 2**61), rat(0)), (1 + rat(1, 2**60), rat(1))]
    assert _max_deviation(hidden) == full_max(hidden) == 2.0**-60
    assert _max_deviation([]) == 0.0


@pytest.mark.parametrize("direction", ["reduce_M", "reduce_K"])
def test_limit_compare_equals_the_full_max_loop(direction, classic_state, monkeypatch):
    """The tables of the classic and the uniform (1,1,2) base, whose
    max_err is 0.0, and of a (1,1,3) base equal those of the full loop."""
    bases = (classic_state, uniform_state(LatticeParams(1, 1, 2), 3, 1), random_state(1, 1, 3, seed=5))
    plans = [DegenerationPlan(direction, base) for base in bases]
    tables = [limit_compare(plan, [1e2, 1e3, 1e4]) for plan in plans]
    assert [r.max_err for r in tables[1].rows] == [0.0] * 3
    monkeypatch.setattr(degeneration, "_max_deviation", full_max)
    assert tables == [limit_compare(plan, [1e2, 1e3, 1e4]) for plan in plans]


# sha256 of `redkp degenerate` CSVs, from the Fraction differences the
# deviations were once taken as; the unreduced ones must give the same floats
DEGENERATE_CSV_SHA256 = [
    ('{"M":1,"K":1,"N":2,"frontier":0,"I":{"0":["2","3"]},"V":{"0":["1","5"]}}', "reduce_M",
     "f9a4a9f594f64189ecdf93b5b895fa9b74feb22a574a61cd5b60f7bf94163cfd"),
    ('{"M":1,"K":1,"N":2,"frontier":0,"I":{"0":["2","3"]},"V":{"0":["1","5"]}}', "reduce_K",
     "065440d8bd552d2606a70ad12f5653dd90cecc658dc5c302a1111c9582120cbe"),
    ('{"M":1,"K":1,"N":3,"frontier":0,"I":{"0":["1/3","1/4","3"]},"V":{"0":["1","1","5/2"]}}', "reduce_M",
     "5b9f628e7e259979f175c68163ecdb7f995b4657a5c8b07d037fcb0b4b249365"),
    ('{"M":1,"K":1,"N":3,"frontier":0,"I":{"0":["1/3","1/4","3"]},"V":{"0":["1","1","5/2"]}}', "reduce_K",
     "c041ffd7ddda0e4169b564b1177483b8fa9ee53e36606c5272effc3d721b1e7b"),
]


@pytest.mark.parametrize("text,direction,digest", DEGENERATE_CSV_SHA256)
def test_degenerate_csv_is_pinned(text, direction, digest, tmp_path):
    base, out = tmp_path / "base.json", tmp_path / "table.csv"
    base.write_text(text)
    assert main(["degenerate", "--base", str(base), "--direction", direction, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
