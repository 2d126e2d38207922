"""The τ functions of the M = K = 1 lattice (the discrete periodic Toda
chain) and the integer τ chain that ``LatticeState.step`` runs on them.

With the anchor slices as gauge, A = I_0, B = V_0 and τ^{-1} = τ^0 = 1,
each generation solves Hirota's bilinear equations

    A_s τ^{t+1}_j τ^{t-1}_{j+1} - B_s τ^{t+1}_{j+1} τ^{t-1}_j = τ^t_j τ^t_{j+1},  s = 1 - j,

and I^i_{t+1} = A_i τ^t_{2-i} τ^{t+1}_{1-i} / (τ^t_{1-i} τ^{t+1}_{2-i}), V^i_{t+1}
B_i times the inverse ratio (indices mod N).  ``tau_generations`` solves
them over the rationals; the chain in ``lattice`` is held to the kernel
``step_slices`` step by step."""

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
from redkp.lattice import step_slices
from conftest import on_every_set, random_state, windows

STEPS = 8


def tau_generations(a, b, steps):
    """τ^{-1}, τ^0, ... τ^steps of the anchor slices a, b as rationals, and
    per generation the Horner sum S and prod τ^{t-1}, with
    (prod a - prod b) prod τ^{t-1} τ^{t+1}_0 = S.  Stops at a zero τ."""
    n = len(a)
    taus, sums = [[rat(1)] * n, [rat(1)] * n], []
    closure = prod(a, start=rat(1)) - prod(b, start=rat(1))
    for _ in range(steps):
        p, q = taus[-2], taus[-1]
        alpha = [a[1 - j] * p[(j + 1) % n] for j in range(n)]
        beta = [b[1 - j] * p[j] for j in range(n)]
        c = [q[j] * q[(j + 1) % n] for j in range(n)]
        s, m = rat(0), rat(1)
        for j in range(n):
            s, m = s * alpha[j] + c[j] * m, m * beta[j]
        u = [s / (closure * prod(p, start=rat(1)))]
        for j in range(n - 1):
            u.append((alpha[j] * u[j] - c[j]) / beta[j])
        sums.append((s, prod(p, start=rat(1))))
        taus.append(u)
        if any(v == 0 for v in u):
            break
    return taus, sums


def smooth_over(value, base: int) -> bool:
    """Whether every prime of the integer ``value`` divides ``base``."""
    value = abs(value)
    while (g := gcd(value, base)) > 1:
        value //= g
    return value == 1


def slices_of(a, b, q, u):
    n = len(a)
    ratio = [q[(2 - i) % n] * u[(1 - i) % n] / (q[(1 - i) % n] * u[(2 - i) % n]) for i in range(n)]
    return tuple(ai * r for ai, r in zip(a, ratio)), tuple(bi / r for bi, r in zip(b, ratio))


def outcome(call):
    try:
        return call()
    except (DegenerateEvolution, SingularStep) as exc:
        return type(exc), str(exc)


@on_every_set([(1, 1, n) for n in range(3, 9)])
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_tau_chain_on_any_window(M, K, N, data):
    """Every τ generation satisfies the bilinear equations exactly; the
    Horner sum over prod τ^{t-1}, and every τ, has only primes of A, B and
    prod A - prod B in its denominator; the slices the τ's give, and those
    the state writes with the chain anchored, equal the kernel's at every
    step, errors included."""
    i_slices, v_slices = data.draw(windows(M, K, N))
    a, b = i_slices[0], v_slices[0]
    state = new_state(LatticeParams(M, K, N), {0: a}, {0: b})
    pa, pb = prod(a, start=rat(1)), prod(b, start=rat(1))
    x, y = a, b
    if pa != pb:
        base = prod(v.numerator * v.denominator for v in a + b) * (pa - pb).numerator
        base *= (pa - pb).denominator
        taus, sums = tau_generations(a, b, STEPS)
        for t in range(1, len(taus) - 1):
            p, q, u = taus[t - 1], taus[t], taus[t + 1]
            for j in range(N):
                k = (j + 1) % N
                assert a[1 - j] * u[j] * p[k] - b[1 - j] * u[k] * p[j] == q[j] * q[k]
            s, pp = sums[t - 1]
            assert smooth_over((s / pp).denominator, abs(base))
            assert all(smooth_over(v.denominator, abs(base)) for v in u)
            if all(v != 0 for v in u):
                assert slices_of(a, b, q, u) == step_slices(x, y, t)
                x, y = slices_of(a, b, q, u)
    x, y = a, b
    for t in range(1, STEPS + 1):
        expected = outcome(lambda: step_slices(x, y, t))
        got = outcome(lambda: state.step() and (state.i_slice(t), state.v_slice(t)))
        assert got == expected
        if type(expected[0]) is type:
            break
        x, y = expected


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


def test_which_states_take_the_chain(monkeypatch):
    """(1,1,3) and (1,1,8) windows take the chain at every step; (1,1,2),
    whose τ's are pure powers of small primes, and a state with more
    history than its window take the kernel; a window deep in its orbit
    drops the chain once its τ's outgrow the values."""
    windows_ = [random_state(*params, seed=4) for params in ((1, 1, 3), (1, 1, 8), (1, 1, 2))]
    calls = count_kernel_steps(monkeypatch)
    for state in windows_[:2]:
        state.evolve_to(20)
    assert calls == []
    windows_[2].evolve_to(20)
    assert calls == list(range(1, 21))
    calls.clear()
    longer = lattice.LatticeState.loads(windows_[0].prune_below(15).dumps())
    assert len(longer.times("I")) > 1
    longer.evolve_to(25)
    assert calls == list(range(21, 26))
    calls.clear()
    deep = lattice.LatticeState.loads(longer.prune_below(25).dumps())
    deep.evolve_to(40)
    assert calls[0] > 26 and calls == list(range(calls[0], 41))
