import random

import pytest

from redkp import DegenerateEvolution, LatticeParams, LatticeState, new_state, rat, uniform_state

PARAM_SETS = [(1, 1, 3), (2, 1, 3), (1, 2, 3), (3, 2, 5), (2, 3, 5)]

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


@pytest.fixture(autouse=True)
def bounded_steps(monkeypatch):
    """Every step a test takes fails once its slice passes STEP_MAX_BITS.

    A correct step grows heights quadratically in t, while a broken one lets
    them explode; without a budget such a test runs on instead of failing."""
    step = LatticeState.step

    def bounded(self):
        t = step(self).frontier
        bits = max(
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in self.i_slice(t) + self.v_slice(t)
        )
        if bits > STEP_MAX_BITS:
            raise AssertionError(f"slice at t = {t} reaches {bits} bits, over {STEP_MAX_BITS}")
        return self

    monkeypatch.setattr(LatticeState, "step", bounded)


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
