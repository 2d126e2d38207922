"""The τ functions of the (M, K) lattice and the integer τ chain that
``LatticeState.step`` runs on them.

With the window slices of t's phase as gauge, A = A^(t mod M) among the
last M I-slices, B = B^(t mod K) among the last K V-slices, and τ^s = 1 for
the M + K generations up to the window's end, each generation solves the
reduced Hirota-Miwa equations

    A_s τ^t_j τ^{t-M-K}_{j+1} - B_s τ^{t-M-K}_j τ^t_{j+1} = τ^{t-K}_j τ^{t-M}_{j+1},  s = 1 - j,

and I^i_t = A_i τ^{t-K}_{2-i} τ^t_{1-i} / (τ^{t-K}_{1-i} τ^t_{2-i}),
V^i_t = B_i τ^{t-M}_{1-i} τ^t_{2-i} / (τ^{t-M}_{2-i} τ^t_{1-i}) (indices
mod N).  ``tau_generations`` solves them over the rationals; the chain in
``lattice`` is held to the kernel ``step_slices`` step by step."""

import random
from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from redkp import (
    DegenerateEvolution,
    LatticeParams,
    SingularStep,
    new_state,
    rat,
    uniform_state,
)
from redkp import lattice
from redkp.lattice import height, step_slices
from conftest import on_every_set, random_state, windows

STEPS = 8
TAU_SETS = [(1, 1, n) for n in range(3, 9)] + [
    (1, 2, 2), (2, 1, 2), (1, 2, 3), (2, 1, 3), (1, 2, 4), (1, 3, 4), (2, 1, 5), (3, 2, 5),
]


def tau_generations(a, b, steps):
    """τ generations of the window a (M I-slices) and b (K V-slices), in
    time order, as rationals: the M + K anchor generations of ones, then
    one per step, with κ = 1.  Stops before a step whose phase has
    prod A = prod B, and after a generation with a zero τ."""
    M, K, n = len(a), len(b), len(a[0])
    taus = [[rat(1)] * n for _ in range(M + K)]
    for t in range(steps):
        A, B = a[t % M], b[t % K]
        closure = prod(A, start=rat(1)) - prod(B, start=rat(1))
        if closure == 0:
            break
        p, qk, qm = taus[-M - K], taus[-K], taus[-M]
        alpha = [A[1 - j] * p[(j + 1) % n] for j in range(n)]
        beta = [B[1 - j] * p[j] for j in range(n)]
        c = [qk[j] * qm[(j + 1) % n] for j in range(n)]
        s, m = rat(0), rat(1)
        for j in range(n):
            s, m = s * alpha[j] + c[j] * m, m * beta[j]
        u = [s / (closure * prod(p, start=rat(1)))]
        for j in range(n - 1):
            u.append((alpha[j] * u[j] - c[j]) / beta[j])
        taus.append(u)
        if any(v == 0 for v in u):
            break
    return taus


def smooth_over(value, base: int) -> bool:
    """Whether every prime of the integer ``value`` divides ``base``."""
    value = abs(value)
    while (g := gcd(value, base)) > 1:
        value //= g
    return value == 1


def slices_of(A, B, qk, qm, u):
    """The slices at t of the window slices A, B of t's phase and the τ
    generations t - K, t - M and t."""
    n = len(A)
    x, y = [], []
    for i in range(n):
        j, k = (1 - i) % n, (2 - i) % n
        x.append(A[i] * qk[k] * u[j] / (qk[j] * u[k]))
        y.append(B[i] * qm[j] * u[k] / (qm[k] * u[j]))
    return tuple(x), tuple(y)


def outcome(call):
    try:
        return call()
    except (DegenerateEvolution, SingularStep) as exc:
        return type(exc), str(exc)


@on_every_set(TAU_SETS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tau_chain_on_any_window(M, K, N, data):
    """On the last M I-slices and K V-slices of a window, every τ
    generation satisfies the bilinear equations exactly; every τ has only
    primes of the window values and of the phase closures prod A - prod B
    in its denominator; the slices the τ's give, and those the state
    writes with the chain anchored, equal the kernel's at every step,
    errors included."""
    i_slices, v_slices = data.draw(windows(M, K, N))
    a = [i_slices[r] for r in range(1 - M, 1)]
    b = [v_slices[r] for r in range(1 - K, 1)]
    i_win, v_win = dict(enumerate(a, 1 - M)), dict(enumerate(b, 1 - K))
    state = new_state(LatticeParams(M, K, N), i_win, v_win)
    base = prod(v.numerator * v.denominator for s in a + b for v in s)
    for A in a:
        for B in b:
            closure = prod(A, start=rat(1)) - prod(B, start=rat(1))
            base *= closure.numerator * closure.denominator or 1
    hist_i, hist_v = dict(i_win), dict(v_win)
    taus = tau_generations(a, b, STEPS)
    for t in range(1, len(taus) - M - K + 1):
        p, qk, qm, u = taus[t - 1], taus[t + M - 1], taus[t + K - 1], taus[t + M + K - 1]
        A, B = a[(t - 1) % M], b[(t - 1) % K]
        for j in range(N):
            k = (j + 1) % N
            assert A[1 - j] * u[j] * p[k] - B[1 - j] * p[j] * u[k] == qk[j] * qm[k]
        assert all(smooth_over(v.denominator, abs(base)) for v in u)
        if all(v != 0 for v in u):
            expected = step_slices(hist_i[t - M], hist_v[t - K], t)
            assert slices_of(A, B, qk, qm, u) == expected
            hist_i[t], hist_v[t] = expected
    hist_i, hist_v = dict(i_win), dict(v_win)
    for t in range(1, STEPS + 1):
        expected = outcome(lambda: step_slices(hist_i[t - M], hist_v[t - K], t))
        got = outcome(lambda: state.step() and (state.i_slice(t), state.v_slice(t)))
        assert got == expected
        if type(expected[0]) is type:
            break
        hist_i[t], hist_v[t] = expected


def count_kernel_steps(monkeypatch):
    calls = []
    kernel = lattice.step_slices

    def counted(*args, **kwargs):
        calls.append(args[2])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(lattice, "step_slices", counted)
    return calls


def error_of(state, steps):
    try:
        state.evolve_to(steps)
    except (DegenerateEvolution, SingularStep) as exc:
        return type(exc), str(exc), state.frontier + 1
    raise AssertionError("no error")


def test_chain_errors_equal_the_kernels(monkeypatch):
    """A uniform (1,1,3) state with prod I = prod V fails at its first step,
    and two (1,1,4) draws at their third, after two chain steps: with the
    same type, message and step as the kernel alone."""
    params = LatticeParams(1, 1, 3)
    assert error_of(uniform_state(params, 2, 2), 5) == (
        DegenerateEvolution,
        "prod(I) == prod(V) == 8 at step 1: closure is not unique",
        1,
    )
    draws = (
        (["-3", "2", "-1", "1"], ["-2", "2", "-1", "3"], DegenerateEvolution,
         "closure fixed point at infinity at step 3"),
        (["-3", "2", "3", "1"], ["-3", "-1", "-2", "-3"], SingularStep, "x_1 = 0 at step 3"),
    )
    calls = count_kernel_steps(monkeypatch)
    for a, b, error, message in draws:
        a, b = [rat(int(v)) for v in a], [rat(int(v)) for v in b]
        calls.clear()
        assert error_of(new_state(LatticeParams(1, 1, 4), {0: a}, {0: b}), 5) == (error, message, 3)
        assert calls == [3]  # steps 1 and 2 ran on the chain
        x, y = a, b
        for t in (1, 2):
            x, y = step_slices(x, y, t)
        assert outcome(lambda: step_slices(x, y, 3)) == (error, message)


def test_chain_leaves_only_the_degenerate_phase_to_the_kernel(monkeypatch):
    """A (2,1,3) window whose second phase pair has prod A = prod B = 4:
    the chain takes step 1, and step 2 alone goes to the kernel, which
    raises as it does with no chain."""
    i_win = {-1: [rat(1), rat(2), rat(3)], 0: [rat(2), rat(1), rat(2)]}
    v_win = {0: [rat(1), rat(4), rat(1)]}
    message = "prod(I) == prod(V) == 4 at step 2: closure is not unique"
    x, y = step_slices(i_win[-1], v_win[0], 1)
    assert outcome(lambda: step_slices(i_win[0], y, 2)) == (DegenerateEvolution, message)
    calls = count_kernel_steps(monkeypatch)
    state = new_state(LatticeParams(2, 1, 3), i_win, v_win)
    assert error_of(state, 5) == (DegenerateEvolution, message, 2)
    assert calls == [2]
    assert (state.i_slice(1), state.v_slice(1)) == (x, y)


def window_at(state, t):
    """A new state holding only the stepping window of ``state`` at t."""
    M, K = state.params.M, state.params.K
    return new_state(
        state.params,
        {s: state.i_slice(s) for s in range(t - M + 1, t + 1)},
        {s: state.v_slice(s) for s in range(t - K + 1, t + 1)},
    )


def test_which_states_take_the_chain(monkeypatch):
    """Windows of (1,1,3), (1,1,8) and general (M, K) take the chain at
    every step; (1,1,2), whose orbits have period 2, drops it after its
    first steps; a state with more history than its window takes the
    kernel; a window deep in its orbit drops the chain once its τ's
    outgrow the values."""
    general = [(1, 2, 2), (1, 2, 3), (2, 1, 3), (1, 3, 4), (2, 1, 5), (3, 2, 5)]
    windows_ = [random_state(*params, seed=4) for params in [(1, 1, 3), (1, 1, 8)] + general]
    periodic = random_state(1, 1, 2, seed=4)
    calls = count_kernel_steps(monkeypatch)
    for state in windows_:
        state.evolve_to(20)
    assert calls == []
    periodic.evolve_to(20)
    assert 1 < calls[0] and calls == list(range(calls[0], 21))
    for state in windows_[0], windows_[4]:  # (1,1,3) and (2,1,3)
        calls.clear()
        longer = lattice.LatticeState.loads(state.prune_below(15).dumps())
        assert len(longer.times("I")) > state.params.M
        longer.evolve_to(25)
        assert calls == list(range(21, 26))
        calls.clear()
        deep = window_at(longer, 25)
        deep.evolve_to(40)
        assert calls[0] > 26 and calls == list(range(calls[0], 41))


@on_every_set(TAU_SETS)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def refined_gcds_on_any_window(M, K, N, data):
    """The chain on the last M I-slices and K V-slices of a window gives the
    kernel's slices at every step, and each generation keeps gcd(τ^{t-K}_j,
    τ^t_j) and gcd(τ^{t-M}_j, τ^t_j) as ``math.gcd`` takes them."""
    i_slices, v_slices = data.draw(windows(M, K, N))
    a = [i_slices[r] for r in range(1 - M, 1)]
    b = [v_slices[r] for r in range(1 - K, 1)]
    hist_i, hist_v = dict(enumerate(a, 1 - M)), dict(enumerate(b, 1 - K))
    chain = lattice._TauChain(a, b)
    for t in range(1, STEPS + 1):
        out = chain.step()
        if out is None:
            break
        x, y, _ = out
        assert outcome(lambda: step_slices(hist_i[t - M], hist_v[t - K], t)) == (x, y)
        hist_i[t], hist_v[t] = x, y
        gens = chain.gens
        u, same_k, same_m = gens[-1][0], gens[-1][4], gens[-1][5]
        assert same_k == list(map(gcd, gens[-1 - K][0], u))
        assert same_m == list(map(gcd, gens[-1 - M][0], u))


def test_refined_gcds_on_any_window(monkeypatch):
    """``refined_gcds_on_any_window`` with every step past the cut."""
    monkeypatch.setattr(lattice, "REFINE_BITS", 0)
    refined_gcds_on_any_window()


PRIMES = (2, 3, 5, 7, 11, 13)


@given(
    exponents=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=6, max_size=6),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    extra=st.integers(1, 10**6),
)
def test_refined_gcd_is_the_gcd(exponents, signs, extra):
    """On x and y whose common primes all divide the base, to powers up to
    12 where the base holds each once, and with any signs of x, y and the
    base, ``_refined_gcd`` is ``math.gcd``; the Mersenne primes
    2^61 - 1 and 2^89 - 1 make the cofactors of x and y coprime."""
    x = signs[0] * (2**61 - 1) * prod(p**i for p, (i, _) in zip(PRIMES, exponents))
    y = signs[1] * (2**89 - 1) * prod(p**j for p, (_, j) in zip(PRIMES, exponents))
    base = signs[2] * extra * prod(p for p, (i, j) in zip(PRIMES, exponents) if i and j)
    assert lattice._refined_gcd(x, y, base) == gcd(x, y)


def count_closures(monkeypatch):
    """Counts of the chain's steps by how they closed their cycle: "2-adic"
    steps closed 2-adically, "exact" steps closed exactly with no 2-adic
    try, and "fallback" the factor f (``_closure_exact``) of each step whose
    2-adic try fell back to the exact closure."""
    paths = {"2-adic": 0, "exact": 0, "fallback": []}
    log = []
    two_adic, exact, step = lattice._closure_2adic, lattice._closure_exact, lattice._TauChain.step

    def tried(*args):
        log.append(None)
        return two_adic(*args)

    def closed(*args):
        out = exact(*args)
        log.append(out[1])
        return out

    def stepped(self):
        log.clear()
        out = step(self)
        if log == [None]:
            paths["2-adic"] += 1
        elif log[:1] == [None]:
            paths["fallback"].append(log[1])
        elif log:
            paths["exact"] += 1
        return out

    monkeypatch.setattr(lattice, "_closure_2adic", tried)
    monkeypatch.setattr(lattice, "_closure_exact", closed)
    monkeypatch.setattr(lattice._TauChain, "step", stepped)
    return paths


def test_closures_agree_on_any_window(monkeypatch):
    """The chain on the last M I-slices and K V-slices of a window of every
    set gives the same slices and generations with every step past
    ``TWO_ADIC_BITS`` as with none, with the check mod ``CHECK_PRIME`` off,
    so that the closing equation alone rejects a residue that is not the
    quotient; past the cut most steps close 2-adically, and a step falls
    back to the exact closure only when that closure is not an integer
    (f > 1), as a bound k too short would show."""
    paths = count_closures(monkeypatch)
    monkeypatch.setattr(lattice, "TWO_ADIC_BITS", 0)
    monkeypatch.setattr(lattice, "CHECK_PRIME", 1)

    @on_every_set(TAU_SETS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def closures_agree(M, K, N, data):
        i_slices, v_slices = data.draw(windows(M, K, N))
        a = [i_slices[r] for r in range(1 - M, 1)]
        b = [v_slices[r] for r in range(1 - K, 1)]
        runs = []
        for cut in (0, 10**9):
            lattice.TWO_ADIC_BITS = cut
            chain, run = lattice._TauChain(a, b), []
            for _ in range(STEPS):
                out = chain.step()
                run.append((out, chain.gens[-1]))
                if out is None:
                    break
            runs.append(run)
        assert runs[0] == runs[1]

    closures_agree()
    assert paths["2-adic"] > 2 * len(paths["fallback"]) > 0
    assert all(f > 1 for f in paths["fallback"])


def test_inverse_2adic():
    """``_inverse_2adic`` inverts odd q of either sign mod 2^k for every k
    from 1 to 4096."""
    rng = random.Random(1)
    for k in range(1, 4097):
        for q in (rng.getrandbits(k + 8) | 1, -(rng.getrandbits(k + 8) | 1), 1, -1):
            x = lattice._inverse_2adic(q, k)
            assert 0 <= x < 2**k and q * x % 2**k == 1


def test_divide_2adic():
    """``_divide_2adic`` gives h / d from h and d mod 2^(k+e) for quotients
    of either sign below 2^(k-2), an even d and an odd one; it is None when
    one of h's low e bits is set."""
    rng = random.Random(2)
    for k in (3, 10, 64, 1000):
        for e in (0, 1, 5, 70):
            d = rng.choice((1, -1)) * (rng.getrandbits(k + 40) | 1) << e
            for q in (2 ** (k - 2) - 1, 1 - 2 ** (k - 2), -rng.getrandbits(k - 2), 0):
                mask = 2 ** (k + e) - 1
                assert lattice._divide_2adic(q * d & mask, d & mask, e, k) == q
                if e:
                    assert lattice._divide_2adic(q * d + 2 ** (e - 1) & mask, d & mask, e, k) is None


def test_chain_past_the_cut_on_general_windows(monkeypatch):
    """A tall (2,1,3) and a tall (1,3,4) window step on the chain alone to
    about 8000 bits, τ's of over 3000 bits, past ``REFINE_BITS``, and a
    (1,1,8) window to about 17000 bits, τ's of over 8000; every step's
    slices equal the kernel's.  Past ``TWO_ADIC_BITS`` most steps close
    2-adically, and the (2,1,3) window's non-integral closures fall back to
    the exact closure."""
    draws = (
        (
            LatticeParams(2, 1, 3),
            {-1: [rat(2), rat(3, 2), rat(5)], 0: [rat(1, 3), rat(4), rat(7, 2)]},
            {0: [rat(1), rat(7, 3), rat(4)]},
            60,
        ),
        (
            LatticeParams(1, 3, 4),
            {0: [rat(2), rat(3, 2), rat(5), rat(1, 3)]},
            {
                -2: [rat(1), rat(7, 3), rat(4), rat(3)],
                -1: [rat(1, 2), rat(2), rat(5, 4), rat(3)],
                0: [rat(4), rat(2, 5), rat(1), rat(9, 2)],
            },
            58,
        ),
        (
            LatticeParams(1, 1, 8),
            {0: [rat(3), rat(1, 2), rat(5, 4), rat(2), rat(7, 3), rat(4), rat(3, 2), rat(5)]},
            {0: [rat(2), rat(9, 4), rat(1), rat(7, 2), rat(4, 3), rat(3), rat(5, 2), rat(6)]},
            45,
        ),
    )
    calls, paths, fallbacks = count_kernel_steps(monkeypatch), count_closures(monkeypatch), []
    for params, i_win, v_win, steps in draws:
        paths.update({"2-adic": 0, "exact": 0, "fallback": []})
        M, K = params.M, params.K
        state = new_state(params, i_win, v_win)
        for t in range(1, steps + 1):
            expected = step_slices(state.i_slice(t - M), state.v_slice(t - K), t)
            state.step()
            assert (state.i_slice(t), state.v_slice(t)) == expected
        assert height(expected[0] + expected[1]) > 7000
        assert state._tau.gens[-1][3] > 3000 > lattice.REFINE_BITS
        assert paths["2-adic"] > len(paths["fallback"])
        assert all(f > 1 for f in paths["fallback"])
        fallbacks.append(len(paths["fallback"]))
    assert calls == []
    assert fallbacks[0] > 0
