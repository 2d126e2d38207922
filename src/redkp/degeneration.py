"""Large-parameter degeneration: tracing a lattice to a lower-order one.

Seeding one slice family with a large constant zeta makes the trajectory,
restricted to a thinned set of times, converge (as zeta grows) to a
trajectory of the system with the corresponding parameter reduced.  The big
and the reduced systems both evolve in exact arithmetic; only the error
norms of the comparison and their log-log slope (a least-squares line from
``statistics``) are floats, so the o(1) measurement carries no drift of its
own.  The (1,1,2) hidden sum, the step's x-equation summed round the cycle,
is stated by the acceptance criteria; no command checks it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .errors import EmptyIndexSet, WrongParams
from .lattice import LatticeParams, LatticeState
from .rational import Rational

REDUCE_M = "reduce_M"
REDUCE_K = "reduce_K"


def lambda_set(M: int, K: int, horizon: int) -> list:
    """Times kept under the M-reduction: the complement of the K-wide blocks
    {kM, ..., kM+K-1} below the horizon.  Closed form: t mod M >= K."""
    if K >= M:
        raise EmptyIndexSet(f"index set empty: K = {K} >= M = {M}")
    return [t for t in range(horizon) if t % M >= K]


def xi_set(M: int, K: int, horizon: int) -> list:
    """Times kept under the K-reduction; the mirror of lambda_set."""
    return lambda_set(K, M, horizon)


@dataclass(frozen=True)
class DegenerationPlan:
    direction: str
    base: LatticeState  # initial data of the reduced system
    horizon: int = 20

    def __post_init__(self):
        if self.direction not in (REDUCE_M, REDUCE_K):
            raise ValueError(f"unknown direction: {self.direction}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    @property
    def big_params(self) -> LatticeParams:
        Mr, Kr = self.base.params.M, self.base.params.K
        n = self.base.params.N
        if self.direction == REDUCE_M:
            return LatticeParams(Mr + Kr, Kr, n)
        return LatticeParams(Mr, Kr + Mr, n)


def _windows_at_zero(state: LatticeState):
    """The defining slice windows re-keyed to end at time 0."""
    M, K = state.params.M, state.params.K
    f = state.frontier
    i_win = {s: state.i_slice(f + s) for s in range(-M + 1, 1)}
    v_win = {s: state.v_slice(f + s) for s in range(-K + 1, 1)}
    return i_win, v_win


def seed_large_zeta(plan: DegenerationPlan, zeta) -> LatticeState:
    """Big-system initial state: the designated slices set to the constant
    zeta at every site, the remaining windows copied from the reduced base.

    Time alignment (reduce_M, reduced (M', K')): base I-slices occupy big
    times -M'..-1, the K' zeta I-slices times 0..K'-1, base V-slices times
    0..K'-1; the kept-times comparison then matches reduced time s >= 1 with
    the s-th kept big time.  reduce_K mirrors the roles.
    """
    zeta = Rational(zeta)
    n = plan.base.params.N
    Mr, Kr = plan.base.params.M, plan.base.params.K
    i_win, v_win = _windows_at_zero(plan.base)
    big = plan.big_params
    if plan.direction == REDUCE_M:
        i_slices = {s - 1: i_win[s] for s in i_win}  # big times -M'..-1
        for u in range(big.K):
            i_slices[u] = [zeta] * n
        v_slices = {s + Kr - 1: v_win[s] for s in v_win}  # big times 0..K'-1
    else:
        v_slices = {s - 1: v_win[s] for s in v_win}  # big times -K'..-1
        for u in range(big.M):
            v_slices[u] = [zeta] * n
        i_slices = {s + Mr - 1: i_win[s] for s in i_win}  # big times 0..M'-1
    return LatticeState.create(big, i_slices, v_slices)


@dataclass(frozen=True)
class ConvergenceRow:
    zeta: float
    max_err: float  # sup over kept times and sites of |big - reduced|


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    slope: float  # log-log fit of max_err against zeta


def _float_diff(a, b) -> float:
    """float(a - b), without reducing a - b: int true division rounds
    correctly, so the quotient of the unreduced fraction is the same float."""
    num = a.numerator * b.denominator - b.numerator * a.denominator
    return num / (a.denominator * b.denominator)


def _max_deviation(pairs) -> float:
    """The largest |float(a - b)| over the rational ``pairs``, 0.0 for none.

    A pair takes the exact ``_float_diff`` only if its float bound can reach
    the largest deviation so far.  With fa = float(a), fb = float(b) and
    d = |fa - fb| in floats, each conversion, the subtraction and the
    rounding of a - b is off by at most 2^-53 of its value, so
    |float(a - b)| <= d + 2^-51 (|fa| + |fb| + d), with room for the
    rounding of the bound itself; 2^-1070 covers subnormal values, whose
    error is absolute.  A value past float range takes the exact path, which
    returns or raises as it does for every pair."""
    err = 0.0
    for a, b in pairs:
        try:
            fa, fb = a.numerator / a.denominator, b.numerator / b.denominator
        except OverflowError:
            pass
        else:
            d = abs(fa - fb)
            if d + 2**-51 * (abs(fa) + abs(fb) + d) + 2**-1070 < err:
                continue
        err = max(err, abs(_float_diff(a, b)))
    return err


def limit_compare(plan: DegenerationPlan, zeta_sweep) -> ConvergenceTable:
    """Exact big-system runs over the zeta sweep against the exact reduced run:
    per zeta, the largest deviation over the kept times and sites."""
    reduced = LatticeState.create(plan.base.params, *_windows_at_zero(plan.base))
    reduced.evolve_to(plan.horizon)

    big = plan.big_params
    index_set = lambda_set if plan.direction == REDUCE_M else xi_set
    # every M+K consecutive times keep at least one, so this horizon suffices
    kept = index_set(big.M, big.K, plan.horizon * (big.M + big.K))[: plan.horizon]
    rows = []
    for z in zeta_sweep:
        # floats like 1e3 convert exactly; arbitrary rationals pass through
        state = seed_large_zeta(plan, z)
        state.evolve_to(kept[-1])
        pairs = []
        for s, t_big in enumerate(kept, start=1):
            pairs += zip(state.i_slice(t_big), reduced.i_slice(s))
            pairs += zip(state.v_slice(t_big), reduced.v_slice(s))
        rows.append(ConvergenceRow(zeta=float(Rational(z)), max_err=_max_deviation(pairs)))

    if len({r.zeta for r in rows}) >= 2:
        slope = statistics.linear_regression(
            [math.log(r.zeta) for r in rows],
            [math.log(max(r.max_err, 1e-300)) for r in rows],
        ).slope
    else:
        slope = float("nan")  # a slope needs two distinct sweep points
    return ConvergenceTable(rows=tuple(rows), slope=slope)


# -- the (1,1,2) hidden invariant ---------------------------------------------------


def hidden_sum(state: LatticeState, t: int):
    """Sum of all four lattice values of the (1,1,2) system at one time."""
    if (state.params.M, state.params.K, state.params.N) != (1, 1, 2):
        raise WrongParams("hidden invariant is specific to (M,K,N) = (1,1,2)")
    i, v = state.i_slice(t), state.v_slice(t)
    return i[0] + i[1] + v[0] + v[1]


@dataclass(frozen=True)
class HiddenInvariantReport:
    value: object
    times_checked: int
    constant: bool


def hidden_invariant_check(state: LatticeState, steps: int = 50) -> HiddenInvariantReport:
    """The four-value sum is exactly constant along the (1,1,2) evolution, at
    every time from the frontier to the frontier + ``steps``; ``hidden_sum``
    raises ``WrongParams`` off (1,1,2)."""
    values = [hidden_sum(state, t) for t in range(state.frontier, state.frontier + steps + 1)]
    return HiddenInvariantReport(
        value=values[0],
        times_checked=len(values),
        constant=all(v == values[0] for v in values),
    )
