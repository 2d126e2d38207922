"""Tests of the benchmark's own arithmetic, seeding and failure accounting.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import os

import run
import tracing
import workloads
from redkp import lax
from redkp.lattice import LatticeState


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0, 100, -1),
        span("child", 10, 40, 0),
        span("grandchild", 20, 30, 1),
        span("child", 50, 70, 0),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 50, 0),
        span("b", 30, 60, 0),     # overlaps a: together they cover 10..60
        span("c", 90, 120, 0),    # runs past its parent: only 90..100 counts
        span("d", 200, 300, 0),   # outside its parent: covers nothing
    ]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_tail_has_ten_samples_beyond_it():
    value, percentile, count = run.tail(float(v) for v in range(1, 31))
    assert (value, count) == (20.0, 30)
    assert round(percentile, 1) == 66.7
    assert run.tail([3.0, 1.0])[0] == 1.0  # too few samples: the smallest


def test_each_op_is_scaled_by_the_calibrations_around_it(monkeypatch):
    monkeypatch.setattr(run, "CAL_EVERY", 0.0)  # calibrate after every op
    readings = iter([1.0, 3.0, 5.0, 5.0])
    samples = run.measure([[FakeOp("a"), FakeOp("b"), FakeOp("c")]], calibrate=lambda: next(readings))
    assert [s.calibration for s in samples] == [2.0, 4.0, 5.0]
    for s in samples:
        s.seconds = 4.0
    assert run.normalised(samples, reference=0.5) == [1.0, 0.5, 0.4]
    calibrate = run.Calibration(("interpreter", "bigint"))
    assert calibrate() > 0 and calibrate.reference > 0


def test_short_ops_share_a_calibration():
    readings = iter([2.0, 6.0])
    samples = run.measure([[FakeOp("a"), FakeOp("b")]], calibrate=lambda: next(readings))
    assert [s.calibration for s in samples] == [4.0, 4.0]


def test_a_slow_run_stops_after_two_passes():
    samples = run.measure([[FakeOp("a")]] * 5, calibrate=lambda: 1.0, budget=0.0)
    assert [s.pass_index for s in samples] == [0, 1]


def test_seeded_inputs_repeat_exactly(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = [op for ops in workloads.WORKLOADS["evolve-deep"](7, str(a), 2) for op in ops]
    ops_b = [op for ops in workloads.WORKLOADS["evolve-deep"](7, str(b), 2) for op in ops]
    assert [op.argv[3] for op in ops_a] == [op.argv[3] for op in ops_b]  # --to targets
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # the second pass draws fresh data
    assert (a / "deep0.json").read_bytes() != (a / f"deep{len(workloads.DEEP_SLOTS)}.json").read_bytes()

    first = workloads.seeded_state((2, 1, 3), 11, 20).to_json_dict()
    assert first == workloads.seeded_state((2, 1, 3), 11, 20).to_json_dict()
    assert first != workloads.seeded_state((2, 1, 3), 12, 20).to_json_dict()


class FakeOp:
    steps = 3

    def __init__(self, label, error=None, problem=None, check_raises=False):
        self.label = label
        self.error = error
        self.problem = problem
        self.check_raises = check_raises

    def run(self):
        return workloads.Outcome(error=self.error)

    def check(self, outcome):
        if self.check_raises:
            raise ValueError("unreadable output")
        return self.problem


def test_failed_ops_are_counted_not_dropped():
    ops = [
        FakeOp("good"),
        FakeOp("exits", error="exit 2: too many digits"),
        FakeOp("wrong", problem="curve differs"),
        FakeOp("unreadable", check_raises=True),
    ]
    samples = run.measure([ops] * 3, calibrate=lambda: 1.0)
    assert len(samples) == 12
    assert [s.label for s in samples] == ["good", "exits", "wrong", "unreadable"] * 3
    assert sum(not s.ok for s in samples) == 9
    assert [s.ok for s in samples[:4]] == [True, False, False, False]
    assert samples[1].problem is None and samples[1].error.startswith("exit 2")
    assert samples[3].problem.startswith("check raised ValueError")
    assert sum(s.steps for s in samples) == 3 * 3  # only the good op's steps count
    metrics = run.end_to_end(samples, setup_s=1.0)
    wall = metrics["wall_s"][0]
    assert metrics["ops_per_s"][0] == 3 / wall
    summary = run.failure_summary(samples)
    assert [(f["op"], f["count"]) for f in summary] == [("exits", 3), ("wrong", 3), ("unreadable", 3)]


def test_cli_exit_code_past_the_digit_cap_is_a_failure(tmp_path):
    state = workloads.seeded_state((1, 1, 5), 3, 20)
    src = tmp_path / "in.json"
    workloads.write_state(state, str(src))
    op = workloads.CliOp("deep", ["evolve", str(src), "--to", "40"], str(tmp_path / "out.json"), None)
    outcome = op.run()
    assert outcome.error.startswith("exit 2:")
    assert "4300 digits" in outcome.error


def test_tracer_rebinds_imported_names_and_restores_them():
    import redkp.numeric
    import redkp.verify

    original = lax.build_monodromy
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        assert redkp.verify.build_monodromy is lax.build_monodromy is redkp.numeric.build_monodromy
        assert lax.build_monodromy is not original
        state = workloads.seeded_state((3, 2, 5), 1, 12)
        lax.special_points(state, 2)
    finally:
        tracer.uninstall()
    assert lax.build_monodromy is original and redkp.verify.build_monodromy is original
    names = [span[0] for span in tracer.spans]
    assert names.count("lax.spectral_curve") == 1
    assert names.count("polymatrix.matdet") == 1
    assert tracer.op_calls["lax.spectral_curve"] == 1
    assert len(tracer.op_keys["lax.build_monodromy"]) == 1
    assert all(own >= 0 for own in tracing.self_times(tracer.spans))


def test_traced_passes_alternate_and_report_every_layer(tmp_path):
    ops = workloads.WORKLOADS["charpoly-tall"](2, str(tmp_path), 1)[0][:2]
    tracer = tracing.Tracer()
    samples = run.measure([ops] * 2, calibrate=lambda: 1.0, tracer=tracer)
    assert [s.traced for s in samples] == [False, False, True, True]
    assert all(s.ok for s in samples)
    metrics = run.per_layer(samples, tracer, [s.seconds for s in samples])
    assert metrics["lax.spectral_curve.calls"][0] == 4  # special_points rebuilds the curve
    assert metrics["lax.spectral_curve.unique_ratio"][0] == 0.5
    assert metrics["cli.main.calls"][0] == 0
    assert {f"{name}.self_s" for name in tracing.TARGETS} <= set(metrics)
    json.dumps(metrics)
    spans_path = tmp_path / "spans.jsonl.gz"
    tracer.write(str(spans_path))
    assert spans_path.stat().st_size > 0


def test_conserved_quantities_survive_a_round_trip():
    state = workloads.seeded_state((2, 1, 3), 5, 20)
    expected = workloads.conserved(state.copy())
    out = LatticeState.from_json_dict(json.loads(json.dumps(state.copy().evolve_to(9).to_json_dict())))
    assert workloads.conserved(out) == expected
