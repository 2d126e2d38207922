"""redkp benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, no threads: the next op starts only when the
previous one has returned.  A run does a fixed amount of work: a number of
passes over the workload's seeded op lists, chosen from --seconds and the
workload's PASS_SECONDS so that a run measures about --seconds on the
reference host (2 CPUs, Python 3.11).  Fixing the work, not the time, keeps
the sample count and therefore the tail percentile the same on both sides
of a comparison.  End-to-end times are in reference seconds; see
normalised().

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics from the traced ones;
end-to-end numbers never come from a traced pass.  The last line of stdout
is the JSON result; a full record of the run is appended to
bench/.results/runs.jsonl, and a traced run writes its spans next to it.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, ".results")

# Seconds budgeted for one pass over each op list.  A pass takes about this
# long on the reference host when other tenants slow it down (by up to 1.8x)
# and about 60% of it when they do not.  At --seconds 20 this gives 3, 3, 21
# and 2 passes.  The op lists are laid out so that, with these pass counts,
# the median and the tail sample fall inside one group of ops of similar
# cost rather than between two (see workloads.py).
PASS_SECONDS = {
    "evolve-deep": 6.5,
    "charpoly-wide": 6.5,
    "charpoly-tall": 0.95,
    "check-claims": 9.0,
}
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Fixed pieces of CPU work that run no redkp code.  The host slows
# interpreter-bound work more than big-integer work, so each workload is
# calibrated with the kind of work that dominates it (see normalised()).
_CAL_POLY = tuple(
    {(i, j): Fraction(i + 2 * j + 1, j + 2) for i in range(5) for j in range(4)} for _ in range(2)
)
_CAL_BIG = (Fraction(3**9000 + 7, 5**6000 + 11), Fraction(7**5000 + 1, 3**8500 + 2))


def _interpreter_work():
    """A product of two small-coefficient sparse polynomials."""
    a, b = _CAL_POLY
    product = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            key = (ax + bx, ay + by)
            product[key] = product.get(key, 0) + ac * bc


def _bigint_work():
    """Fraction arithmetic on numbers of about 14 000 bits."""
    x, y = _CAL_BIG
    x * y / (x + 1)


# kind -> (work, repeats, seconds one repeat takes on the reference host
# when no other tenant slows it down).  A calibration takes about 20 ms per
# kind: long enough that its own jitter is small next to the host's drift.
CAL_KINDS = {"interpreter": (_interpreter_work, 14, 0.0014), "bigint": (_bigint_work, 8, 0.0025)}
CALIBRATION = {
    "evolve-deep": ("bigint",),
    "charpoly-wide": ("interpreter",),
    "charpoly-tall": ("interpreter", "bigint"),
    "check-claims": ("interpreter", "bigint"),
}
# Op seconds after which the next calibration is taken.  Ops shorter than
# this share calibrations, so short-op workloads spend little time on them.
CAL_EVERY = 0.25
# A run stops after the pass during which its op loop passed this many times
# --seconds, if it has done at least two passes.  It bounds a run's length
# when the host is far slower than the PASS_SECONDS estimates allow.
MAX_OVERRUN = 1.5


class Calibration:
    """Times a workload's calibration work; ``reference`` is its quiet time."""

    def __init__(self, kinds):
        self.works = [CAL_KINDS[k][:2] for k in kinds]
        self.reference = sum(CAL_KINDS[k][1] * CAL_KINDS[k][2] for k in kinds)

    def __call__(self) -> float:
        start = time.perf_counter()
        for work, repeats in self.works:
            for _ in range(repeats):
                work()
        return time.perf_counter() - start


class Sample:
    """One timed op."""

    __slots__ = ("index", "pass_index", "label", "traced", "seconds", "calibration",
                 "error", "problem", "bytes_out", "steps", "unique", "calls", "bits")

    def __init__(self, index, pass_index, label, traced):
        self.index = index
        self.pass_index = pass_index
        self.label = label
        self.traced = traced
        self.seconds = 0.0
        self.calibration = 0.0  # mean of the calibrations around the op
        self.error = None    # the op raised or the CLI exited nonzero
        self.problem = None  # the op returned a wrong output
        self.bytes_out = 0
        self.steps = 0
        self.unique = {}
        self.calls = {}
        self.bits = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.problem is None


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / PASS_SECONDS[workload]))


def measure(passes, calibrate, tracer=None, budget=math.inf) -> list:
    """Run each pass's op list in turn; with a tracer, odd passes are traced.

    ``calibrate()`` is timed at the start, after every CAL_EVERY seconds of
    op time and after the last op; each sample's ``calibration`` is the mean
    of the two calibrations around it.  After two passes, no pass starts
    once ``budget`` seconds have gone by.  Every op attempted is returned as
    a Sample, failed or not."""
    samples, before = [], []
    cals = [calibrate()]
    since = 0.0
    start_all = time.perf_counter()
    for pass_index, ops in enumerate(passes):
        if pass_index >= 2 and time.perf_counter() - start_all >= budget:
            break
        traced = tracer is not None and pass_index % 2 == 1
        for op in ops:
            sample = Sample(len(samples), pass_index, op.label, traced)
            if traced:
                tracer.begin_op(sample.index)
                tracer.install()
                root = tracer.open("op")
            start = time.perf_counter()
            outcome = op.run()
            sample.seconds = time.perf_counter() - start
            if traced:
                tracer.close(root)
                tracer.uninstall()
                sample.unique = {k: len(v) for k, v in tracer.op_keys.items()}
                sample.calls = dict(tracer.op_calls)
                sample.bits = tracer.op_bits
            sample.error = outcome.error
            sample.bytes_out = outcome.bytes_out
            if outcome.error is None:
                try:
                    sample.problem = op.check(outcome)
                except Exception as exc:  # a check that cannot read the output fails the op
                    sample.problem = f"check raised {type(exc).__name__}: {exc}"
                if sample.problem is None:
                    sample.steps = op.steps
            samples.append(sample)
            before.append(len(cals) - 1)
            since += sample.seconds
            if since >= CAL_EVERY:
                cals.append(calibrate())
                since = 0.0
    if since or len(cals) == 1:
        cals.append(calibrate())
    for sample, b in zip(samples, before):
        sample.calibration = (cals[b] + cals[b + 1]) / 2
    return samples


def tail(values):
    """(value, percentile, sample count) at the highest nearest-rank
    percentile that has at least TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def normalised(samples, reference: float) -> list:
    """Op times in reference seconds.

    The host's speed changes by up to 2x, within seconds and for tens of
    seconds at a time, while other tenants load the shared cores.  Each op's
    wall time is scaled by ``reference`` over the calibration taken around
    it, which removes most of that drift; the raw times stay in the run
    record."""
    return [s.seconds * reference / s.calibration for s in samples]


def end_to_end(samples, setup_s: float, times=None) -> dict:
    """End-to-end metrics from ``times`` (default: the raw op seconds)."""
    if times is None:
        times = [s.seconds for s in samples]
    wall = sum(times)
    passed = sum(s.ok for s in samples)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail(times)[0], "s"),
        "ops_per_s": (passed / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(samples, tracer, times) -> dict:
    """Per-pass medians over the traced passes of a --trace 1 run.

    ``times`` are the op times in reference seconds, as for wall_s; self
    times are raw span seconds."""
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    pass_of = {s.index: s.pass_index for s in traced}
    traced_passes = sorted(set(pass_of.values()))
    calls = defaultdict(lambda: defaultdict(int))
    own = defaultdict(lambda: defaultdict(int))
    for span, self_ns in zip(tracer.spans, tracing.self_times(tracer.spans)):
        pass_index = pass_of[span[4]]
        calls[span[0]][pass_index] += 1
        own[span[0]][pass_index] += self_ns

    def med(per_pass):
        return statistics.median(per_pass.get(p, 0) for p in traced_passes)

    def pass_walls(group):
        walls = defaultdict(float)
        for s in group:
            walls[s.pass_index] += times[s.index]
        return statistics.median(walls.values())

    out = {}
    for name in tracing.TARGETS:
        out[f"{name}.calls"] = (med(calls[name]), "count")
        out[f"{name}.self_s"] = (med(own[name]) / 1e9, "s")
    for name in tracing.UNIQUE_TARGETS:
        ratios = {}
        for p in traced_passes:
            group = [s for s in traced if s.pass_index == p]
            made = sum(s.calls[name] for s in group)
            ratios[p] = sum(s.unique[name] for s in group) / made if made else 0.0
        out[f"{name}.unique_ratio"] = (med(ratios), "ratio")
    out["rational.max_bits"] = (max(s.bits for s in traced), "bits")
    out["cli.bytes_out"] = (sum(s.bytes_out for s in samples) / len(samples), "bytes")
    out["steps_per_s"] = (sum(s.steps for s in plain) / sum(times[s.index] for s in plain), "1/s")
    out["tracing.overhead_s"] = (pass_walls(traced) - pass_walls(plain), "s")
    return out


def environment() -> dict:
    import numpy
    from redkp.rational import Rational

    return {
        "python": platform.python_version(),
        "rational_backend": "gmpy2" if Rational.__module__.startswith("gmpy2") else "Fraction",
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def import_redkp() -> None:
    """Put this checkout's src/ first on the path and import the package
    from there, or exit nonzero without a result."""
    if not os.path.isfile(os.path.join(SRC, "redkp", "__init__.py")):
        print(f"redkp sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import redkp

    if os.path.dirname(os.path.dirname(os.path.abspath(redkp.__file__))) != SRC:
        print(f"imported redkp from {redkp.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def failure_summary(samples) -> list:
    counts = defaultdict(int)
    for s in samples:
        if not s.ok:
            counts[(s.label, s.error or s.problem)] += 1
    return [
        {"op": label, "reason": reason, "count": n} for (label, reason), n in counts.items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_redkp()
    import workloads

    imported = time.perf_counter() - PROCESS_START
    pass_count = passes_for(args.workload, args.seconds)
    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        calibrate = Calibration(CALIBRATION[args.workload])
        setups, cals = [], [calibrate()]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            if args.trace:
                # traced and untraced passes repeat the same ops, so their
                # times differ only by the tracing overhead
                passes = workloads.WORKLOADS[args.workload](args.seed, workdir, 1) * pass_count
            else:
                passes = workloads.WORKLOADS[args.workload](args.seed, workdir, pass_count)
            passes[0][0].run()  # warm-up, neither timed nor counted
            setups.append(time.perf_counter() - start)
            cals.append(calibrate())
        raw_setup_s = imported + statistics.median(setups)
        setup_s = statistics.median(
            (imported + s) * calibrate.reference * 2 / (cals[i] + cals[i + 1])
            for i, s in enumerate(setups)
        )

        tracer = tracing.Tracer() if args.trace else None
        samples = measure(passes, calibrate, tracer, MAX_OVERRUN * args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = end_to_end(samples, raw_setup_s)
    times = normalised(samples, calibrate.reference)
    if args.trace:
        metrics = per_layer(samples, tracer, times)
    else:
        metrics = end_to_end(samples, setup_s, times)
    value, percentile, count = tail(s.seconds for s in samples)
    result = {
        "correct": all(s.problem is None for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    failures = failure_summary(samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": samples[-1].pass_index + 1,
        "passes_planned": pass_count,
        "ops_per_pass": len(passes[0]),
        "op_tail": {"percentile": percentile, "samples": count, "value": value},
        "raw_seconds": {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"},
        "samples": [[s.label, s.pass_index, s.traced, s.seconds, s.calibration] for s in samples],
        "env": env,
        "failures": failures,
        "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write(os.path.join(RESULTS_DIR, f"spans-{args.workload}-s{args.seed}.jsonl.gz"))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={samples[-1].pass_index + 1}/{pass_count} "
          f"ops/pass={len(passes[0])} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"op_tail_s is the p{percentile:.1f} of {count} op samples; raw wall-clock "
          + " ".join(f"{k}={v:.4f}" for k, (v, _) in raw.items() if k != "peak_rss_mb"))
    for f in failures:
        print(f"failed x{f['count']}: {f['op']}: {f['reason']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
