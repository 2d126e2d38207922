"""The four benchmark workloads: seeded inputs, the op each client request
runs, and the exact check of each op's output.

Inputs come only from the benchmark seed.  Lattice data are small positive
rationals p/q with p in 1..9 and q in 1..5, as in the package's own tests; a
seed whose data hits an exact product collision (``DegenerateEvolution``)
within the probe horizon is retried at a fixed stride, and for no other
reason.  Sizes and targets are fixed per workload, never adjusted per seed.

An op's ``run()`` is the timed client request.  Its ``check()`` runs after
the timer stops.  The first output of an op that passes is kept as a digest
(or object); later runs of the same op must reproduce it exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random

from redkp import cli, lax
from redkp.bipoly import BiPoly
from redkp.errors import DegenerateEvolution
from redkp.lattice import LatticeParams, LatticeState
from redkp.rational import parse_rational, rat

RETRY_STRIDE = 1000003

# -- seeded inputs ------------------------------------------------------------


def random_rational(rng):
    return rat(rng.randint(1, 9), rng.randint(1, 5))


def seeded_state(params: tuple, seed: int, probe: int) -> LatticeState:
    """Random initial windows ending at time 0 for (M, K, N) = ``params``.

    Retries with seed + RETRY_STRIDE only when evolving a copy to ``probe``
    raises DegenerateEvolution."""
    M, K, N = params
    while True:
        rng = random.Random(seed)
        i_slices = {-r: [random_rational(rng) for _ in range(N)] for r in range(M)}
        v_slices = {-r: [random_rational(rng) for _ in range(N)] for r in range(K)}
        state = LatticeState.create(LatticeParams(M, K, N), i_slices, v_slices)
        try:
            state.copy().evolve_to(probe)
        except DegenerateEvolution:
            seed += RETRY_STRIDE
            continue
        return state


def slice_bits(state: LatticeState, t: int) -> int:
    """Largest numerator or denominator bit length in the slices at time t."""
    return max(
        max(v.numerator.bit_length(), v.denominator.bit_length())
        for v in state.i_slice(t) + state.v_slice(t)
    )


def sub_seed(seed: int, slot: int) -> int:
    return 1000 * seed + slot


def write_state(state: LatticeState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state.to_json_dict(), fh)


# -- ops ----------------------------------------------------------------------


class Outcome:
    """What one op returned: ``error`` is None on success."""

    __slots__ = ("error", "value", "bytes_out")

    def __init__(self, error=None, value=None, bytes_out=0):
        self.error = error
        self.value = value
        self.bytes_out = bytes_out


class CliOp:
    """One in-process ``redkp`` CLI invocation writing to ``out_path``.

    ``verify(data)`` returns None when the output bytes are correct, else a
    reason."""

    def __init__(self, label, argv, out_path, verify, steps=0):
        self.label = label
        self.argv = list(argv) + ["--output", out_path]
        self.out_path = out_path
        self.verify = verify
        self.steps = steps  # lattice steps the op performs when it succeeds
        self.reference = None

    def run(self) -> Outcome:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # an uncaught error is a failed op, not a crash
            return Outcome(f"{type(exc).__name__}: {exc}")
        try:
            size = os.path.getsize(self.out_path)
        except FileNotFoundError:
            size = 0
        if code != 0:
            return Outcome(f"exit {code}: {err.getvalue().strip()[:300]}", bytes_out=size)
        return Outcome(bytes_out=size)

    def check(self, outcome: Outcome):
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is not None:
            return None if digest == self.reference else "output differs from an earlier run"
        problem = self.verify(data)
        if problem is None:
            self.reference = digest
        return problem


class LibraryOp:
    """One call sequence into the library; ``verify(value)`` as for CliOp."""

    def __init__(self, label, call, verify, same):
        self.label = label
        self.call = call
        self.verify = verify
        self.same = same  # equality of two results
        self.steps = 0
        self.reference = None

    def run(self) -> Outcome:
        try:
            return Outcome(value=self.call())
        except Exception as exc:  # an uncaught error is a failed op, not a crash
            return Outcome(f"{type(exc).__name__}: {exc}")

    def check(self, outcome: Outcome):
        if self.reference is not None:
            return None if self.same(outcome.value, self.reference) else "result differs from an earlier run"
        problem = self.verify(outcome.value)
        if problem is None:
            self.reference = outcome.value
        return problem


# -- shared output checks ----------------------------------------------------


def curve_problem(poly: BiPoly, points, state: LatticeState, t: int):
    """The curve must equal the one built at t+1, and every special point
    must lie on it exactly."""
    if poly != lax.spectral_curve(state.copy(), t + 1).poly:
        return f"curve at t={t} differs from the curve at t={t + 1}"
    for x0, y0 in points:
        if poly.evaluate(x0, y0) != 0:
            return f"special point ({x0}, {y0}) is not on the curve"
    return None


def conserved(state: LatticeState) -> tuple:
    """Site invariants, and the I (V) slice products by time mod M (mod K),
    which the evolution keeps constant."""
    M, K = state.params.M, state.params.K
    f = state.frontier
    return (
        state.site_invariants(),
        {(f - r) % M: state.i_product(f - r) for r in range(M)},
        {(f - r) % K: state.v_product(f - r) for r in range(K)},
    )


# -- evolve-deep ----------------------------------------------------------------

# (M, K, N) and target bit height, cheapest first (the first op is the
# warm-up).  CPython >= 3.10.7 refuses int<->str conversions above 4300
# decimal digits, about 14 284 bits.  Eight targets sit below that cap and
# one above it, each at least 20% away, so which ops fail at the write does
# not depend on the seed.  The seven middle targets are set so that their
# ops cost about the same on the reference host; with one cheap and one
# heavy op per pass, the median and the tail of the 27 samples of three
# passes fall inside that group of 21 rather than on the edge between two
# groups of different cost.
DEEP_SLOTS = (
    ((1, 1, 5), 8000),
    ((1, 1, 5), 10900),
    ((1, 2, 3), 10000),
    ((2, 1, 3), 10000),
    ((1, 2, 4), 10000),
    ((2, 1, 4), 9900),
    ((1, 3, 4), 9200),
    ((2, 1, 5), 8600),
    ((1, 1, 3), 30000),
)
DEEP_PROBE = 20


def deep_target(state: LatticeState, bits: int) -> int:
    """Time at which the height reaches ``bits``, from the quadratic growth
    measured on a probe evolution."""
    probe = state.copy().evolve_to(DEEP_PROBE)
    rate = slice_bits(probe, DEEP_PROBE) / DEEP_PROBE**2
    return max(DEEP_PROBE, math.ceil(math.sqrt(bits / rate)))


def evolve_deep(seed: int, workdir: str, passes: int) -> list:
    """Every pass draws fresh data: the steps needed to reach a height vary
    by up to 1.8x with the data."""
    out = []
    for pass_index in range(passes):
        ops = []
        for slot, (params, bits) in enumerate(DEEP_SLOTS):
            index = pass_index * len(DEEP_SLOTS) + slot
            state = seeded_state(params, sub_seed(seed, index), DEEP_PROBE)
            target = deep_target(state, bits)
            src = os.path.join(workdir, f"deep{index}.json")
            write_state(state, src)
            expected = conserved(state.copy())

            def verify(data, state=state, target=target, expected=expected):
                evolved = LatticeState.from_json_dict(json.loads(data))
                if evolved.frontier != target:
                    return f"frontier {evolved.frontier}, expected {target}"
                for t in state.times("I"):
                    if evolved.i_slice(t) != state.i_slice(t):
                        return f"input I slice at t={t} changed"
                if conserved(evolved) != expected:
                    return "site invariants or slice products changed"
                return None

            ops.append(
                CliOp(
                    f"evolve {params} to t={target} (~{bits} bits)",
                    ["evolve", src, "--to", str(target)],
                    os.path.join(workdir, f"deep{index}.out.json"),
                    verify,
                    steps=target - state.frontier,
                )
            )
        out.append(ops)
    return out


# -- charpoly-wide ----------------------------------------------------------------

# Five cheap, five middle, three upper and two heavy systems.  With three
# passes the median of the 45 samples is the middle one of the middle
# group, and the tail (the 35th) the middle one of the upper group, so
# neither sits on the edge between two groups of different cost.
WIDE_SLOTS = (
    (3, 2, 5), (2, 3, 5), (3, 2, 7), (2, 3, 7), (3, 4, 6),
    (3, 4, 7), (4, 3, 7), (2, 5, 7), (5, 2, 7), (3, 2, 9),
    (3, 5, 8), (5, 3, 8), (3, 4, 9),
    (4, 5, 9), (5, 4, 9),
)


def _charpoly_verify(state: LatticeState):
    def verify(data):
        doc = json.loads(data)
        poly = BiPoly.from_records(doc["poly"])
        sp = doc["special_points"]
        points = [
            (parse_rational(x), parse_rational(y)) for key in ("A", "B", "Q") for x, y in sp[key]
        ]
        return curve_problem(poly, points, state, doc["time"])

    return verify


def charpoly_wide(seed: int, workdir: str, passes: int) -> list:
    """Every pass draws fresh data, so the median averages over draws."""
    out = []
    for pass_index in range(passes):
        ops = []
        for slot, params in enumerate(WIDE_SLOTS):
            M, K, _ = params
            index = pass_index * len(WIDE_SLOTS) + slot
            state = seeded_state(params, sub_seed(seed, index), 2 * M * K)
            src = os.path.join(workdir, f"wide{index}.json")
            write_state(state, src)
            ops.append(
                CliOp(
                    f"charpoly {params}",
                    ["charpoly", src],
                    os.path.join(workdir, f"wide{index}.out.json"),
                    _charpoly_verify(state),
                )
            )
        out.append(ops)
    return out


# -- charpoly-tall ----------------------------------------------------------------

# (M, K, N) and the bit heights at which a window is taken.  One evolution
# per system serves all of its windows.
TALL_SYSTEMS = (
    ((1, 1, 3), (1000, 2000, 4000, 8000, 16000, 30000)),
    ((1, 1, 5), (1500, 4000, 10000)),
    ((1, 2, 4), (2000, 6000)),
    ((2, 1, 3), (1200, 5000)),
)


def _window(state: LatticeState, t: int):
    """The slices that the monodromy and special points at t read."""
    M, K = state.params.M, state.params.K
    i_win = {s: state.i_slice(s) for s in range(t - (M - 1) * K, t + 1)}
    v_win = {s: state.v_slice(s) for s in range(t - (K - 1) * M, t + 1)}
    return i_win, v_win


def _tall_call(params, i_win, v_win, t):
    def call():
        state = LatticeState.create(params, i_win, v_win)
        return lax.spectral_curve(state, t), lax.special_points(state, t)

    return call


def _tall_verify(state, t):
    def verify(value):
        curve, sp = value
        return curve_problem(curve.poly, sp.all_points(), state, t)

    return verify


def _tall_same(a, b):
    return a[0].poly == b[0].poly and a[1] == b[1]


def charpoly_tall(seed: int, workdir: str, passes: int) -> list:
    """Every pass repeats the same windows; evolving them is the set-up."""
    ops = []
    for slot, (params, heights) in enumerate(TALL_SYSTEMS):
        M, K, _ = params
        state = seeded_state(params, sub_seed(seed, slot), 2 * M * K)
        for bits in heights:
            while slice_bits(state, state.frontier) < bits:
                state.step()
            t = state.frontier
            state.step()  # the check compares with the curve at t+1
            i_win, v_win = _window(state, t)
            ops.append(
                LibraryOp(
                    f"curve {params} at t={t} (~{bits} bits)",
                    _tall_call(state.params, i_win, v_win, t),
                    _tall_verify(state, t),
                    _tall_same,
                )
            )
    return [ops] * passes


# -- check-claims ----------------------------------------------------------------

# A verify op's cost depends on its draw: by up to 1.4x for (2,3,7), which
# costs more than three of the others.  Two passes run each verify twice,
# as the byte-identity check needs; the draws go into more ops of middle
# cost instead of more passes, so a run averages over ten draws.  Per pass,
# four cheap ops, nine middle ones ((3,2,5), (1,1,8) and the (1,1,3)
# sweeps) and one (2,3,7) put the median and the tail of the 28 samples
# inside the middle group.
VERIFY_PARAMS = (
    (1, 1, 2), (1, 1, 3),
    (3, 2, 5), (3, 2, 5), (3, 2, 5), (3, 2, 5), (1, 1, 8), (1, 1, 8), (1, 1, 8),
    (2, 3, 7),
)
DEGENERATE_BASES = (
    ((1, 1, 2), "reduce_M"),
    ((1, 1, 2), "reduce_K"),
    ((1, 1, 3), "reduce_M"),
    ((1, 1, 3), "reduce_K"),
)


def _verify_report(data):
    report = json.loads(data)
    if not report["passed"]:
        failed = [s["name"] for s in report["suites"] if s["status"] == "fail"]
        return f"report not passed: {failed}"
    return None


def _degenerate_table(data):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    errors = [float(row[1]) for row in rows]
    if len(errors) < 2 or not all(a > b for a, b in zip(errors, errors[1:])):
        return f"max_err not strictly decreasing: {errors}"
    return None


def check_claims(seed: int, workdir: str, passes: int) -> list:
    """Every pass repeats the same verify runs, whose reports must be
    byte-identical, and draws fresh bases for the degenerate sweeps."""
    verify_ops = []
    for slot, params in enumerate(VERIFY_PARAMS):
        M, K, _ = params
        # verify evolves to its deep time plus a few steps, (1,1,2) 20 more
        probe = max(1 - M, 1 - K) + 2 * (M * K + M + K) + 26
        state = seeded_state(params, sub_seed(seed, slot), probe)
        src = os.path.join(workdir, f"claims{slot}.json")
        write_state(state, src)
        verify_ops.append(
            CliOp(
                f"verify {params} #{slot}",
                ["verify", src, "--seed", str(seed)],
                os.path.join(workdir, f"claims{slot}.out.json"),
                _verify_report,
            )
        )
    out = []
    for pass_index in range(passes):
        ops = list(verify_ops)
        for slot, (params, direction) in enumerate(DEGENERATE_BASES):
            index = len(VERIFY_PARAMS) + pass_index * len(DEGENERATE_BASES) + slot
            state = seeded_state(params, sub_seed(seed, index), 30)
            src = os.path.join(workdir, f"claims{index}.json")
            write_state(state, src)
            ops.append(
                CliOp(
                    f"degenerate {params} {direction}",
                    ["degenerate", "--base", src, "--direction", direction],
                    os.path.join(workdir, f"claims{index}.out.csv"),
                    _degenerate_table,
                )
            )
        out.append(ops)
    return out


# name -> (seed, workdir, passes) -> one op list per pass
WORKLOADS = {
    "evolve-deep": evolve_deep,
    "charpoly-wide": charpoly_wide,
    "charpoly-tall": charpoly_tall,
    "check-claims": check_claims,
}
