import json
import random
import sys
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redkp import rational
from redkp import (
    DegenerateEvolution,
    GcdViolation,
    InsufficientHistory,
    LatticeParams,
    LatticeState,
    Rational,
    SingularStep,
    SizeMismatch,
    ZeroValue,
    format_rational,
    monodromy_closure,
    new_state,
    parse_rational,
    rat,
    uniform_state,
)
from redkp.lattice import default_time, step_slices
from conftest import PARAM_SETS, on_every_set, random_state, rotated


def products(values):
    p = rat(1)
    for v in values:
        p *= v
    return p


# -- construction -------------------------------------------------------------------


def test_new_state_uniform():
    st = new_state(LatticeParams(1, 1, 3), {0: [2, 2, 2]}, {0: [1, 1, 1]})
    assert st.frontier == 0
    assert st.i_slice(0) == (rat(2),) * 3


def test_new_state_rejects_zero():
    with pytest.raises(ZeroValue):
        new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 0]})


def test_new_state_rejects_bad_sizes():
    with pytest.raises(SizeMismatch):
        new_state(LatticeParams(1, 1, 2), {0: [2, 3, 4]}, {0: [1, 5]})
    with pytest.raises(SizeMismatch):  # windows must end at the same time
        new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {1: [1, 5]})
    with pytest.raises(SizeMismatch):  # gap in the I window
        new_state(LatticeParams(3, 1, 2), {-3: [1, 1], -1: [2, 2], 0: [2, 3]}, {0: [1, 5]})


def test_gcd_mk_enforced():
    with pytest.raises(GcdViolation):
        LatticeParams(2, 2, 3)


def test_gcd_mkn_flag_recorded_not_enforced():
    params = LatticeParams(2, 1, 3)
    assert params.gcd_mkn_ok is False  # gcd(3, 3) = 3
    st = new_state(params, {-1: [1, 1, 1], 0: [2, 2, 2]}, {0: [1, 1, 3]})
    assert st.params.gcd_mkn_ok is False
    assert LatticeParams(1, 1, 3).gcd_mkn_ok is True


# -- stepping ------------------------------------------------------------------------


def test_uniform_step_is_fixed_point():
    st = uniform_state(LatticeParams(1, 1, 3), 2, 1)
    st.step()
    assert st.i_slice(1) == (rat(2),) * 3
    assert st.v_slice(1) == (rat(1),) * 3


def quadratic_closure_oracle(a, b):
    """Independent oracle for N=2: the closure value x_2 is a fixed point of
    the composed linear-fractional map, i.e. a root of the quadratic
    T21 x^2 + (T22 - T11) x - T12; keep the root whose cyclic orbit satisfies
    x_1 x_2 = a_1 a_2 (integer square root of the discriminant must exist
    for the data used here)."""
    (t11, t12, t21, t22), pa, pb = monodromy_closure(a, b)
    A, B, C = t21, t22 - t11, -t12
    disc = B * B - 4 * A * C
    num, den = int(disc.numerator), int(disc.denominator)
    rn, rd = isqrt(num), isqrt(den)
    assert rn * rn == num and rd * rd == den, "oracle needs a rational discriminant"
    sq = rat(rn, rd)
    for x2 in ((-B + sq) / (2 * A), (-B - sq) / (2 * A)):
        y2 = a[1] * b[1] / x2
        x1 = a[1] + b[0] - y2
        if x1 != 0 and x1 * x2 == pa:
            return (x1, x2)
    raise AssertionError("no valid closure root")


def test_classic_step_against_quadratic_oracle(classic_state):
    a = classic_state.i_slice(0)
    b = classic_state.v_slice(0)
    expected = quadratic_closure_oracle(a, b)
    classic_state.step()
    assert classic_state.i_slice(1) == expected
    assert classic_state.i_slice(1) == (rat(8, 7), rat(21, 4))
    assert classic_state.v_slice(1) == (rat(7, 4), rat(20, 7))
    assert products(classic_state.i_slice(1)) == 6
    assert products(classic_state.v_slice(1)) == 5


def test_degenerate_closure_raises():
    st = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 6]})
    with pytest.raises(DegenerateEvolution):
        st.step()


def monodromy_step_oracle(a, b, t1):
    """One step solved through the 2x2 monodromy: x_N is the fixed point of T
    for the eigenvalue prod(a), x_N = t12/(pa - t11) or (pa - t22)/t21, and the
    one-step equations carry it round the cycle.  Raises what the step raises."""
    (t11, t12, t21, t22), pa, pb = monodromy_closure(a, b)
    n = len(a)
    if pa == pb:
        raise DegenerateEvolution(
            f"prod(I) == prod(V) == {format_rational(pa)} at step {t1}: closure is not unique"
        )
    if pa != t11:
        x_last = t12 / (pa - t11)
    elif t21 != 0:
        x_last = (pa - t22) / t21
    else:
        raise DegenerateEvolution(f"closure fixed point at infinity at step {t1}")
    if x_last == 0:
        raise SingularStep(f"x_{n} = 0 at step {t1}")
    x, y = [None] * n, [None] * n
    x[n - 1], y[n - 1] = x_last, a[n - 1] * b[n - 1] / x_last
    for i in range(n - 1):
        x[i] = a[i - 1] + b[i] - y[i - 1]
        if x[i] == 0:
            raise SingularStep(f"x_{i + 1} = 0 at step {t1}")
        y[i] = a[i] * b[i] / x[i]
    return tuple(x), tuple(y)


ERRORS = (DegenerateEvolution, SingularStep)


def step_outcome(step, *args):
    try:
        return step(*args)
    except ERRORS as exc:
        return type(exc), str(exc)


def lattice_step(a, b):
    st = new_state(LatticeParams(1, 1, len(a)), {0: a}, {0: b})
    st.step()
    return st.i_slice(1), st.v_slice(1)


@pytest.mark.parametrize(
    "a,b,error,message",
    [
        (
            [2, 3], [1, 6], DegenerateEvolution,
            "prod(I) == prod(V) == 6 at step 1: closure is not unique",
        ),
        ([1, 1, 1], [-2, 1, 1], DegenerateEvolution, "closure fixed point at infinity at step 1"),
        ([1, 1, 1], [1, -2, 1], SingularStep, "x_3 = 0 at step 1"),
        ([1, 1, 1], [1, 1, -2], SingularStep, "x_1 = 0 at step 1"),
    ],
)
def test_step_error_branches(a, b, error, message):
    a, b = [rat(v) for v in a], [rat(v) for v in b]
    with pytest.raises(error) as raised:
        lattice_step(a, b)
    assert str(raised.value) == message
    assert step_outcome(monodromy_step_oracle, a, b, 1) == (error, message)


def test_step_equals_monodromy_oracle_on_signed_inputs():
    rng = random.Random(9)
    seen = set()
    for _ in range(4000):
        n = rng.randint(1, 6)
        a, b = (
            [rat(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(n)]
            for _ in range(2)
        )
        got = step_outcome(lattice_step, a, b)
        assert got == step_outcome(monodromy_step_oracle, a, b, 1)
        # the message up to its value or step: "prod(I)", "closure fixed point", "x_3 = 0"
        seen.add(got[1].split(" == ")[0].split(" at ")[0] if got[0] in ERRORS else "ok")
    assert seen >= {"ok", "prod(I)", "closure fixed point", "x_1 = 0", "x_3 = 0", "x_6 = 0"}


def test_step_equals_monodromy_oracle_past_1000_bits():
    # the last two draws reach the heights of the benchmark's deep evolutions
    for params, seed, height in (((2, 1, 3), 21, 1000), ((1, 1, 5), 22, 8000), ((1, 2, 4), 23, 8000)):
        st = random_state(*params, seed=seed)
        M, K, _ = params
        bits = 0
        while bits <= height:
            t1 = st.frontier + 1
            expected = monodromy_step_oracle(st.i_slice(t1 - M), st.v_slice(t1 - K), t1)
            st.step()
            assert (st.i_slice(t1), st.v_slice(t1)) == expected
            bits = max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in expected[0])


def test_step_kernel_on_fractions_equals_the_step():
    """``step_slices`` takes only field operations of its values: on plain
    ``Fraction`` slices with ``math.prod`` it returns ``Fraction``s equal to
    the state's own steps."""
    for M, K, N in PARAM_SETS + [(1, 1, 2), (1, 1, 5)]:
        st = random_state(M, K, N, seed=M + 3 * K + 7 * N)
        for t1 in range(1, 9):
            a, b = ([Fraction(v) for v in s] for s in (st.i_slice(t1 - M), st.v_slice(t1 - K)))
            x, y = step_slices(a, b, t1, product=prod)
            assert {type(v) for v in x + y} == {Fraction}
            assert (x, y) == (st.i_slice(t1), st.v_slice(t1))


def test_evolve_to_noop_and_uniform():
    st = uniform_state(LatticeParams(2, 1, 3), 3, 2)
    st.evolve_to(0)
    assert st.frontier == 0
    st.evolve_to(10)
    assert st.frontier == 10
    assert st.i_slice(10) == (rat(3),) * 3


def test_monodromy_identities_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        a = [rat(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        b = [rat(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        (t11, t12, t21, t22), pa, pb = monodromy_closure(a, b)
        assert t11 + t22 == pa + pb
        assert t11 * t22 - t12 * t21 == pa * pb


def test_trivial_branch_rejected():
    for seed in range(5):
        st = random_state(1, 1, 3, seed=seed)
        b = st.v_slice(0)
        try:
            st.step()
        except DegenerateEvolution:
            continue
        assert st.i_slice(1) != b  # never the trivial carry-over branch


def test_singular_history_access():
    st = random_state(2, 1, 3, seed=1)
    with pytest.raises(InsufficientHistory):
        st.i_slice(-5)
    with pytest.raises(InsufficientHistory):
        st.v_slice(-1)  # V window is only {0}


# -- invariants -------------------------------------------------------------------------


def test_site_invariants_uniform():
    st = uniform_state(LatticeParams(1, 1, 3), 2, 1)
    assert st.site_invariants() == (rat(2),) * 3


def test_site_invariants_classic(classic_state):
    u = classic_state.site_invariants()
    assert set(u) == {rat(2), rat(15)}
    # the two invariants are the roots of z^2 - 17 z + 30
    for z in u:
        assert z * z - 17 * z + 30 == 0


def test_classify_cases(classic_state):
    assert uniform_state(LatticeParams(1, 1, 3), 2, 1).classify_case() == "case_b"
    assert classic_state.classify_case() == "case_a"
    mixed = new_state(LatticeParams(1, 1, 3), {0: [1, 1, 1]}, {0: [3, 3, 7]})
    assert mixed.classify_case() == "mixed"


# -- the per-time cache of slice products and site invariants ----------------------

CACHED = ("i_product", "v_product", "site_invariants")


def _fresh(state, t):
    """The slice products and site invariants at t, multiplied out here."""
    i_times, v_times = state.params.factor_times(t)
    slices = [state.i_slice(s) for s in i_times] + [state.v_slice(s) for s in v_times]
    u = tuple(products(v[j] for v in slices) for j in range(state.params.N))
    return products(state.i_slice(t)), products(state.v_slice(t)), u


def _cached(state, t):
    return state.i_product(t), state.v_product(t), state.site_invariants(t)


def _cached_keys(state):
    return [key for key in state._built if key[0] in CACHED]


@pytest.mark.parametrize("params", PARAM_SETS)
def test_cached_products_equal_fresh_ones(params):
    """At every time of the history and of the evolution, read twice; the
    second read comes from the cache, which keys each entry by its time."""
    state = random_state(*params, seed=6)
    first = default_time(state)
    for t in range(first, first + 6):
        assert _cached(state, t) == _fresh(state, t)
        assert _cached(state, t) == _fresh(state, t)
    assert state.site_invariants() == _fresh(state, state.frontier)[2]


def test_pruning_empties_the_cache():
    state = random_state(2, 1, 3, seed=6)
    t = default_time(state)
    _cached(state, t)
    state.evolve_to(t + 6).prune_below(t + 3)
    assert _cached_keys(state) == []
    with pytest.raises(InsufficientHistory):
        state.i_product(t)
    with pytest.raises(InsufficientHistory):
        state.site_invariants(t)


def test_a_copy_stepped_further_computes_its_own_products():
    state = random_state(1, 2, 3, seed=6)
    t = state.frontier
    before = _cached(state, t)
    other = state.copy()
    assert _cached_keys(other) == []
    other.evolve_to(t + 4)
    assert _cached(other, t + 4) == _fresh(other, t + 4)
    assert _cached(other, t) == before
    # an entry the copy makes is its own
    assert _cached_keys(state) == [(name, t) for name in CACHED]


@pytest.mark.parametrize("params", PARAM_SETS)
def test_evolution_leaves_no_product_in_the_cache(params):
    state = random_state(*params, seed=6)
    state.evolve_to(state.frontier + 8)
    assert _cached_keys(state) == []


# -- serialization ------------------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    st = random_state(2, 1, 3, seed=9)
    st.evolve_to(4)
    text = st.dumps()
    st2 = LatticeState.loads(text)
    assert st2.dumps() == text
    assert st2.i_slice(4) == st.i_slice(4)
    st.evolve_to(8)
    st2.evolve_to(8)
    assert st.i_slice(8) == st2.i_slice(8)
    assert st.v_slice(8) == st2.v_slice(8)


def test_json_rejects_malformed():
    with pytest.raises(SizeMismatch):
        LatticeState.loads(json.dumps({"M": 1, "K": 1, "N": 2}))
    good = random_state(1, 1, 2, seed=2).to_json_dict()
    bad = dict(good)
    bad["frontier"] = 99
    with pytest.raises(SizeMismatch):
        LatticeState.from_json_dict(bad)


NON_WIRE_RATIONALS = [
    "1e3", "1.5", "1_000", "+3", " 3", "3/-4", "1e999999999", "4/2", "3/1", "007", "-0/5",
    "-0", "0/1", "0/7", "00", "-01", "1/01", "3/4\n",
    # Unicode digits, which int() alone accepts
    "\u0663", "\uff13/\uff14", "1\u0663", "3/1\uff14",
]


@pytest.mark.parametrize("text", NON_WIRE_RATIONALS)
def test_json_rejects_rationals_outside_wire_form(text):
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data["I"]["0"][1] = text
    with pytest.raises(SizeMismatch, match="not a rational"):
        LatticeState.from_json_dict(data)


def test_json_numerator_past_the_digit_cap_is_a_malformed_state():
    """CPython's int-from-str cap raises ValueError, reported as a malformed
    state file."""
    cap = sys.get_int_max_str_digits()
    if not cap:
        pytest.skip("no int-from-str digit cap")
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data["I"]["0"][1] = "7" * (cap + 1) + "/3"
    with pytest.raises(SizeMismatch, match="malformed state file: Exceeds the limit"):
        LatticeState.from_json_dict(data)


# magnitudes from 0 and past 1000 bits
_MAGNITUDES = st.one_of(st.integers(0, 1000), st.integers(2**1000, 2**1200))


@given(
    sign=st.sampled_from((1, -1)),
    p=_MAGNITUDES,
    q=st.one_of(st.just(1), st.integers(1, 1000), st.integers(2**1000, 2**1200)),
)
@settings(max_examples=200, deadline=None)
def test_parse_rational_inverts_format_rational(sign, p, q):
    value = rat(sign * p, q)
    parsed = parse_rational(format_rational(value))
    assert type(parsed) is Rational
    assert (parsed.numerator, parsed.denominator) == (value.numerator, value.denominator)


def _writer_ints(rng, max_bits):
    """Ints for format_rational's divide and conquer: random ones from 0 to
    ``max_bits`` bits, 10^k - 1, 10^k and 10^k + 1 around every split k (a
    power of two) and its neighbours, and the leaf size +- 1 bit."""
    ints = [rng.getrandbits(rng.randrange(max_bits + 1)) for _ in range(60)]
    for j in range(1, (max_bits * 3 // 10).bit_length()):
        for k in (2**j - 1, 2**j, 2**j + 1):
            if k * 10 // 3 < max_bits:
                ints += [10**k - 1, 10**k, 10**k + 1]
    for bits in (rational._LEAF_BITS - 1, rational._LEAF_BITS, rational._LEAF_BITS + 1):
        ints += [2 ** (bits - 1), 2**bits - 1, rng.getrandbits(bits) | 2 ** (bits - 1)]
    return ints


def _assert_writes_as_str(max_bits, seed):
    rng = random.Random(seed)
    ints = _writer_ints(rng, max_bits)
    for n in ints:
        for value in (rat(n), rat(-n), rat(n, 7), rat(-7, n or 1)):
            assert format_rational(value) == str(Fraction(value))
    for _ in range(40):
        n = rng.choice(ints)
        d = rng.choice(ints) or 1
        value = rat(rng.choice((1, -1)) * n, d)
        assert format_rational(value) == str(Fraction(value))


def test_format_rational_writes_big_parts_as_str():
    _assert_writes_as_str(14_000, seed=44)


@pytest.fixture
def digit_cap():
    """Sets CPython's int-to-str digit cap for one test and restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit cap")
    cap = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(cap)


def test_format_rational_writes_as_str_with_no_digit_cap(digit_cap):
    digit_cap(0)
    _assert_writes_as_str(60_000, seed=45)


def _outcome(write, value):
    try:
        return write(value)
    except ValueError as exc:
        return str(exc)


def test_format_rational_past_the_digit_cap_raises_str_error(digit_cap):
    """At the default cap the same values fail as with str, with the same
    text: 10^4300 - 1 is written, 10^4300 is not, in either part."""
    digit_cap(4300)
    message = _outcome(str, 10**4300)
    assert message.startswith("Exceeds the limit (4300 digits)")
    big = random.Random(46).getrandbits(15_000) | 1
    for value in (rat(big), rat(-big, 3), rat(3, big), rat(big, big + 2)):
        assert _outcome(format_rational, value) == message
    for j in range(4290, 4302):
        for n in (10**j - 1, 10**j, 10**j + 1):
            for value in (rat(n), rat(-n, 7), rat(7, n)):
                assert _outcome(format_rational, value) == _outcome(str, Fraction(value))


def test_json_wire_form_accepted_and_zero_denominator_rejected():
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data["I"]["0"] = ["-7/3", "12"]
    assert LatticeState.from_json_dict(data).i_slice(0) == (rat(-7, 3), rat(12))
    data["I"]["0"][1] = "1/0"
    with pytest.raises(SizeMismatch, match="not a rational"):
        LatticeState.from_json_dict(data)


@pytest.mark.parametrize(
    "field,value", [("M", 1.9), ("K", True), ("N", "2"), ("frontier", "0"), ("frontier", 0.0)]
)
def test_json_rejects_non_integer_fields(field, value):
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data[field] = value
    with pytest.raises(SizeMismatch, match="must be a JSON integer"):
        LatticeState.from_json_dict(data)


@pytest.mark.parametrize("key", ["+0", "0_0", " 0", "0.0", "0x0", "\u0660"])
def test_json_rejects_time_keys_outside_integer_form(key):
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data["V"][key] = data["V"].pop("0")
    with pytest.raises(SizeMismatch, match="not an integer string"):
        LatticeState.from_json_dict(data)


@pytest.mark.parametrize("section,key", [("I", "00"), ("I", "-0"), ("V", "000")])
def test_json_rejects_time_keys_naming_one_time_twice(section, key):
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data[section][key] = ["7", "9"]
    with pytest.raises(SizeMismatch, match="repeats time 0"):
        LatticeState.from_json_dict(data)


@pytest.mark.parametrize("section,value", [("I", []), ("V", "0"), ("I", {"0": "23"}), ("V", {"0": 5})])
def test_json_rejects_slice_maps_and_slices_of_other_types(section, value):
    data = random_state(1, 1, 2, seed=2).to_json_dict()
    data[section] = value
    with pytest.raises(SizeMismatch, match="must be a JSON"):
        LatticeState.from_json_dict(data)


def test_loads_rejects_repeated_json_keys():
    text = random_state(1, 1, 2, seed=2).dumps()
    assert text.startswith('{"M": 1, ')
    with pytest.raises(SizeMismatch, match="repeated key 'M'"):
        LatticeState.loads('{"M": 1, ' + text[1:])
    i_zero = '"I": {"0": '
    assert text.count(i_zero) == 1
    with pytest.raises(SizeMismatch, match="repeated key '0'"):
        LatticeState.loads(text.replace(i_zero, i_zero + '["7", "9"], "0": '))


# -- site rotation ----------------------------------------------------------------------


def test_rotated_moves_every_slice_by_one_site():
    st = random_state(2, 1, 3, seed=21)
    rot = rotated(st)
    for t in st.times("I"):
        v = st.i_slice(t)
        assert rot.i_slice(t) == v[1:] + v[:1]
    for t in st.times("V"):
        v = st.v_slice(t)
        assert rot.v_slice(t) == v[1:] + v[:1]
    # the rotation commutes with evolution: slices evolved on demand agree
    v = st.v_slice(st.frontier + 5)
    assert rot.v_slice(rot.frontier + 5) == v[1:] + v[:1]


@on_every_set([(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 1, 3), (1, 2, 3), (2, 3, 5), (3, 2, 5)])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_lattice_properties_hypothesis(M, K, N, data):
    """Residuals, conservation and invariant constancy for arbitrary data."""
    draw_q = st.builds(rat, st.integers(1, 30), st.integers(1, 10))
    i_slices = {
        -r: [data.draw(draw_q) for _ in range(N)] for r in range(M)
    }
    v_slices = {
        -r: [data.draw(draw_q) for _ in range(N)] for r in range(K)
    }
    state = new_state(LatticeParams(M, K, N), i_slices, v_slices)
    try:
        state.evolve_to(4)
    except DegenerateEvolution:
        return  # exact product collision: legitimately unsolvable data
    u0 = state.site_invariants()
    state.evolve_to(state.frontier + 2)
    assert state.site_invariants() == u0
    for t in range(1, 5):
        a, b = state.i_slice(t - M), state.v_slice(t - K)
        x, y = state.i_slice(t), state.v_slice(t)
        for n in range(N):
            assert x[n] == a[n - 1] + b[n] - y[n - 1]
            assert y[n] * x[n] == a[n] * b[n]
        assert products(x) == products(a)
        assert products(y) == products(b)


def test_prune_below_errors_instead_of_silence():
    st = random_state(2, 1, 3, seed=6)
    st.evolve_to(10)
    st.prune_below(5)
    assert st.i_slice(5) is not None
    with pytest.raises(InsufficientHistory):
        st.i_slice(4)
    # stepping windows survive pruning regardless of the requested floor
    st.prune_below(99)
    st.step()
    assert st.frontier == 11
