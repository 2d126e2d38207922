import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redkp.errors
import redkp.lax
import redkp.verify
from redkp import (
    GcdViolation,
    LatticeParams,
    LatticeState,
    NotCaseB,
    WordGuard,
    WrongParams,
    case_b_structure,
    hidden_invariant_check,
    infinity_asymptotics,
    matdet,
    new_state,
    psi_phi_ratios,
    rat,
)
from redkp import cli
from redkp.cli import build_parser, main
from redkp.lattice import default_time
from redkp.verify import _run, _suites, run_verification
from redkp.yform import verify_word_append_rule
from conftest import PARAM_SETS, random_state


@pytest.fixture
def classic_file(tmp_path, classic_state):
    path = tmp_path / "classic.json"
    path.write_text(classic_state.dumps())
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# -- evolve ---------------------------------------------------------------------


def test_evolve_roundtrip_bit_exact(tmp_path, classic_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    out3 = tmp_path / "c.json"
    assert run_cli("evolve", classic_file, "--to", "3", "-o", str(out1)) == 0
    assert run_cli("evolve", str(out1), "--to", "6", "-o", str(out2)) == 0
    assert run_cli("evolve", classic_file, "--to", "6", "-o", str(out3)) == 0
    direct = json.loads(out3.read_text())
    via = json.loads(out2.read_text())
    assert direct == via  # two-hop equals one-hop, bit for bit


def test_evolve_errors(tmp_path, capsys):
    bad = tmp_path / "deg.json"
    st = new_state(LatticeParams(1, 1, 2), {0: [2, 3]}, {0: [1, 6]})
    bad.write_text(st.dumps())
    assert run_cli("evolve", str(bad), "--to", "1") == 3  # degenerate closure
    missing = tmp_path / "missing.json"
    assert run_cli("evolve", str(missing), "--to", "1") == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    capsys.readouterr()
    assert run_cli("evolve", str(garbage), "--to", "1") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "JSONDecodeError"


@pytest.fixture
def tall_file(tmp_path):
    """The (1,1,3) state whose slices reach 1125 bits at t = 15 and 1997 bits at t = 20."""
    st = new_state(LatticeParams(1, 1, 3), {0: [2, rat(3, 2), 5]}, {0: [1, rat(7, 3), 4]})
    path = tmp_path / "tall.json"
    path.write_text(st.dumps())
    return str(path)


def test_evolve_max_bits_stops_before_writing(tmp_path, tall_file, capsys):
    out = tmp_path / "out.json"
    assert run_cli("evolve", tall_file, "--to", "20", "--max-bits", "1000", "-o", str(out)) == 3
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "HeightBudgetExceeded",
        "message": "t = 15 reaches 1125 bits, over --max-bits 1000",
    }


def test_evolve_max_bits_at_the_final_height_writes_the_default_output(tmp_path, tall_file):
    default, budget = tmp_path / "default.json", tmp_path / "budget.json"
    assert run_cli("evolve", tall_file, "--to", "20", "-o", str(default)) == 0
    assert run_cli("evolve", tall_file, "--to", "20", "--max-bits", "1997", "-o", str(budget)) == 0
    assert budget.read_bytes() == default.read_bytes()


def test_evolve_to_before_the_frontier_exits_2_without_output(tmp_path, tall_file, capsys):
    evolved, out = tmp_path / "evolved.json", tmp_path / "out.json"
    assert run_cli("evolve", tall_file, "--to", "5", "-o", str(evolved)) == 0
    assert run_cli("evolve", str(evolved), "--to", "3", "-o", str(out)) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "target 3 is before the frontier 5",
    }


@pytest.mark.parametrize("params", PARAM_SETS)
def test_evolve_writes_the_bytes_of_json_dumps(params, tmp_path, capsys):
    """The file holds json.dumps(state, indent=2) byte for byte, and stdout
    the same text and a newline."""
    state = random_state(*params, seed=2)
    src, out = tmp_path / "state.json", tmp_path / "out.json"
    src.write_text(state.dumps())
    expected = json.dumps(state.evolve_to(4).to_json_dict(), indent=2)
    assert run_cli("evolve", str(src), "--to", "4", "-o", str(out)) == 0
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert run_cli("evolve", str(src), "--to", "4") == 0
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("command", ["charpoly", "yform", "verify"])
def test_commands_write_the_bytes_of_json_dumps(command, params, tmp_path, capsys, monkeypatch):
    """charpoly, yform and verify write the bytes that json.dumps(doc,
    indent=2) gives (sort_keys for verify), to a file and to stdout."""
    src = tmp_path / "state.json"
    src.write_text(random_state(*params, seed=2).dumps())
    argv = [command, str(src)] + (["--seed", "7"] if command == "verify" else [])

    def outputs():
        out = tmp_path / "out.json"
        assert run_cli(*argv, "-o", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*argv) == 0
        return out.read_bytes(), capsys.readouterr().out

    written = outputs()
    monkeypatch.setattr(
        cli, "_json_text", lambda doc, sort_keys=False: json.dumps(doc, indent=2, sort_keys=sort_keys)
    )
    assert written == outputs()
    assert written[1] == written[0].decode() + "\n"


_JSON_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600"]),
    st.integers(),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24,
)


@given(value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_equals_json_dumps(value):
    """Nested str-keyed dicts and lists, empty ones too, of every JSON
    scalar: the writer gives json.dumps's text with and without sort_keys."""
    for sort_keys in (False, True):
        assert cli._json_text(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


def test_evolve_past_the_digit_cap_exits_2_before_opening_the_output(tmp_path, tall_file, capsys):
    """At CPython's lowest int-to-str cap, 640 digits, the slices at t = 22
    cannot be formatted: exit 2 with no output file."""
    out = tmp_path / "out.json"
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli("evolve", tall_file, "--to", "22", "-o", str(out)) == 2
    finally:
        sys.set_int_max_str_digits(cap)
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "text", ["1e3", "1.5", "1_000", "+3", "1e999999999", "4/2", "3/1", "007", "-0/5"]
)
def test_evolve_rejects_rationals_outside_wire_form(tmp_path, classic_state, text, capsys):
    data = classic_state.to_json_dict()
    data["V"]["0"][0] = text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("evolve", str(path), "--to", "1") == 2
    assert "not a rational" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [(None, "M", 1.9), (None, "K", True), (None, "frontier", "0"), ("I", "+0", None), ("V", "0_0", None)],
)
def test_evolve_rejects_state_fields_outside_documented_form(
    tmp_path, classic_state, section, key, value, capsys
):
    data = classic_state.to_json_dict()
    if section is None:
        data[key] = value
    else:
        data[section][key] = data[section].pop("0")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run_cli("evolve", str(path), "--to", "1") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeMismatch"


@pytest.mark.parametrize(
    "old,new",
    [
        ('"0": ["2", "3"]', '"0": ["2", "3"], "00": ["7", "9"]'),
        ('"0": ["2", "3"]', '"0": ["2", "3"], "0": ["7", "9"]'),
        ('{"M": 1,', '{"M": 1, "M": 1,'),
    ],
    ids=["time-00", "repeated-0", "repeated-M"],
)
def test_evolve_rejects_state_file_naming_one_key_twice(tmp_path, classic_state, old, new, capsys):
    text = classic_state.dumps()
    assert text.count(old) == 1
    path = tmp_path / "bad.json"
    path.write_text(text.replace(old, new))
    assert run_cli("evolve", str(path), "--to", "1") == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SizeMismatch"


# -- charpoly ---------------------------------------------------------------------


def test_charpoly_output(tmp_path, classic_file):
    out = tmp_path / "curve.json"
    assert run_cli("charpoly", classic_file, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["deg_x"] == 2 and doc["deg_y"] == 2
    terms = {(r["dx"], r["dy"]): r["c"] for r in doc["poly"]}
    assert terms[(2, 0)] == "1"
    assert terms[(0, 1)] == "-11"
    assert terms[(0, 0)] == "30"
    sp = doc["special_points"]
    assert sp["A"] == [["0", "6"]]
    assert sp["B"] == [["0", "5"]]
    assert sorted(sp["Q"]) == [["15", "0"], ["2", "0"]]
    assert sp["P"] == {"present": False}
    # records arrive sorted by (dx, dy)
    keys = [(r["dx"], r["dy"]) for r in doc["poly"]]
    assert keys == sorted(keys)


def test_charpoly_p_branch_present(tmp_path):
    st = random_state(1, 1, 3, seed=4)
    path = tmp_path / "s.json"
    path.write_text(st.dumps())
    out = tmp_path / "c.json"
    assert run_cli("charpoly", str(path), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["special_points"]["P"] == {
        "present": True,
        "x_pole_order": 2,
        "y_pole_order": 3,
    }


# history before the frontier that is not one lattice orbit: the site
# invariants at t = -1 (the curve's default time) and at t = 0 differ
NON_ORBIT = (
    '{"M":1,"K":1,"N":3,"frontier":0,"I":{"-1":["1","2","3"],"0":["2","3/2","5"]},'
    '"V":{"-1":["4","1","2"],"0":["1","7/3","4"]}}'
)


def test_charpoly_off_curve_point_exits_2_with_one_json_line(tmp_path, capsys):
    """A special point off the curve is one JSON error line and exit 2, not a
    traceback, with no output file.  Verify fails the history's lattice
    equations, and reports an off-curve point as a failed kernel suite."""
    path = tmp_path / "non_orbit.json"
    path.write_text(NON_ORBIT)
    out = tmp_path / "curve.json"
    assert run_cli("charpoly", str(path), "-o", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "OffCurve", "message": "special point (7/2, 0) not on curve"}
    assert not out.exists()
    by_name = {s["name"]: s for s in run_verification(LatticeState.loads(NON_ORBIT))["suites"]}
    assert by_name["evolution_consistency"]["status"] == "fail"
    st = CORRUPTION_BASES["113"]()
    st.evolve_to(default_time(st, deep=True) + 3)
    _corrupt(st, "I", 4, 2)
    by_name = {s["name"]: s for s in run_verification(st)["suites"]}
    assert by_name["special_point_kernels"]["status"] == "fail"
    assert by_name["special_point_kernels"]["reason"].startswith("OffCurve: special point (")


# -- yform -------------------------------------------------------------------------


def test_yform_output(tmp_path, classic_file):
    out = tmp_path / "y.json"
    assert run_cli("yform", classic_file, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    n, width = 2, 2
    assert len(doc["bands"]) == n * (width + 1)
    row0 = {rec["k"]: rec["a"] for rec in doc["bands"] if rec["i"] == 1}
    assert row0[width] == "1"
    for key in ("S_star", "R_star", "L_star", "Y"):
        mat = doc[key]
        assert len(mat) == width and all(len(r) == width for r in mat)


# -- verify ------------------------------------------------------------------------


def test_verify_deterministic_under_seed(tmp_path, classic_file):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("verify", classic_file, "--seed", "7", "-o", str(out1)) == 0
    assert run_cli("verify", classic_file, "--seed", "7", "-o", str(out2)) == 0
    assert out1.read_text() == out2.read_text()


def test_verify_gcd_gating_reports_skipped(tmp_path, classic_file):
    out = tmp_path / "r.json"
    assert run_cli("verify", classic_file, "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    by_name = {s["name"]: s for s in doc["suites"]}
    assert by_name["case_b_structure"]["status"] == "skipped"
    assert "gcd" in by_name["case_b_structure"]["reason"]
    assert doc["passed"] is True
    statuses = {s["status"] for s in doc["suites"]}
    assert statuses <= {"pass", "skipped"}


def test_verify_reports_crashing_suite_as_fail(tmp_path, classic_state, classic_file, monkeypatch):
    def broken_curve(state, t):
        raise AssertionError("unexpected curve degrees")

    monkeypatch.setattr(redkp.verify, "spectral_curve", broken_curve)
    report = run_verification(classic_state, seed=7)
    statuses = {s["name"]: s["status"] for s in report["suites"]}
    assert len(statuses) == 9
    assert [name for name, status in statuses.items() if status == "fail"] == ["isospectrality"]
    by_name = {s["name"]: s for s in report["suites"]}
    assert by_name["isospectrality"]["reason"] == "AssertionError: unexpected curve degrees"
    assert statuses["evolution_consistency"] == "pass"
    assert report["passed"] is False
    assert run_cli("verify", classic_file, "-o", str(tmp_path / "r.json")) == 1


def test_each_curve_takes_one_determinant(tmp_path, monkeypatch):
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(m.n)
        return matdet(m, *args, **kwargs)

    monkeypatch.setattr(redkp.lax, "matdet", counted)
    path = tmp_path / "s.json"
    path.write_text(random_state(3, 2, 5, seed=4).dumps())
    assert run_cli("charpoly", str(path), "-o", str(tmp_path / "c.json")) == 0
    assert calls == [5]  # special_points reuses the curve
    calls.clear()
    # isospectrality builds four curves; every other suite reuses the one at t_deep
    report = run_verification(random_state(2, 3, 7, seed=7), seed=7)
    assert report["passed"] is True
    assert calls == [7] * 4


def test_verify_enumerates_all_suites(tmp_path, classic_file):
    out = tmp_path / "r.json"
    run_cli("verify", classic_file, "-o", str(out))
    doc = json.loads(out.read_text())
    assert [s["name"] for s in doc["suites"]] == [
        "evolution_consistency",
        "site_invariant_constancy",
        "isospectrality",
        "monodromy_form_equality",
        "shift_conjugations",
        "determinant_closed_forms",
        "special_point_kernels",
        "case_b_structure",
        "psi_phi_ratios",
    ]


# One slice value times 3/2 on which each suite fails: (suite, base, family,
# time, site).  Each base is evolved to verify's anchor plus 3 first, so the
# corrupted slice is stored history that verify reads and does not recompute.
CORRUPTION_BASES = {
    "113": lambda: random_state(1, 1, 3, seed=113),
    "112": lambda: random_state(1, 1, 2, seed=112),
    "case_b": lambda: new_state(LatticeParams(1, 1, 3), {0: [2, 3, 4]}, {0: [3, 2, rat(3, 2)]}),
}
CORRUPTIONS = [
    ("evolution_consistency", "113", "I", 3, 0),
    ("site_invariant_constancy", "113", "I", 4, 1),
    ("isospectrality", "113", "V", 3, 2),
    ("monodromy_form_equality", "113", "I", 0, 1),
    ("shift_conjugations", "113", "I", 2, 2),
    ("determinant_closed_forms", "113", "V", 0, 0),
    ("special_point_kernels", "113", "V", 2, 0),
    ("case_b_structure", "case_b", "I", 1, 2),
    ("psi_phi_ratios", "case_b", "V", 2, 1),
]


def test_every_suite_has_a_corruption(classic_state):
    assert [row[0] for row in CORRUPTIONS] == [name for name, _ in _suites(classic_state)]


@pytest.mark.parametrize("suite,base,family,t,site", CORRUPTIONS, ids=[row[0] for row in CORRUPTIONS])
def test_each_suite_fails_on_its_corruption(suite, base, family, t, site):
    def status(state):
        return {s["name"]: s["status"] for s in run_verification(state, seed=7)["suites"]}[suite]

    st = CORRUPTION_BASES[base]()
    st.evolve_to(default_time(st, deep=True) + 3)
    assert status(st) == "pass"
    _corrupt(st, family, t, site)
    assert status(st) == "fail"


def test_no_two_suites_share_a_failure_set():
    """Over every x3/2 corruption of the stored window of the (1,1,3) base, no
    two suites fail on the same set of states: each checks its own identity.
    A special point off the curve (I, 4, 2) and the diagonal of X_t(0) off
    the site invariants (V, 4, 1) fail both the invariants and the kernels."""
    base = CORRUPTION_BASES["113"]()
    base.evolve_to(default_time(base, deep=True) + 3)
    failures = {}
    for family, hist in (("I", base._i), ("V", base._v)):
        for t in sorted(hist):
            for site in range(base.params.N):
                st = base.copy()
                _corrupt(st, family, t, site)
                for s in run_verification(st, seed=7)["suites"]:
                    if s["status"] == "fail":
                        failures.setdefault(s["name"], set()).add((family, t, site))
    assert sum(map(len, failures.values())) > 0
    sets = [frozenset(v) for v in failures.values()]
    assert len(set(sets)) == len(sets), failures
    for corruption in (("I", 4, 2), ("V", 4, 1)):
        assert corruption in failures["site_invariant_constancy"]
        assert corruption in failures["special_point_kernels"]


def test_evolution_consistency_fails_on_every_corruption_of_112():
    """Every x3/2 corruption of the stored (1,1,2) window fails
    evolution_consistency.  Its x-equation, summed round the cycle, is the
    (1,1,2) hidden sum, which verify does not check on its own."""
    base = CORRUPTION_BASES["112"]()
    base.evolve_to(default_time(base, deep=True) + 3)
    corruptions = [
        (family, t, site)
        for family, hist in (("I", base._i), ("V", base._v))
        for t in sorted(hist)
        for site in range(base.params.N)
    ]
    assert len(corruptions) == 20 and ("I", 3, 0) in corruptions

    def status(state):
        return _run("evolution_consistency", dict(_suites(state))["evolution_consistency"])["status"]

    assert status(base) == "pass"
    for corruption in corruptions:
        st = base.copy()
        _corrupt(st, *corruption)
        assert status(st) == "fail", corruption


def _corrupt(state, family, t, site):
    """Multiply the stored value at (family, t, site) by 3/2."""
    hist = state._i if family == "I" else state._v
    vals = list(hist[t])
    vals[site] *= rat(3, 2)
    hist[t] = tuple(vals)


def _classic_corrupted(classic_state):
    # one V value off the orbit inside the checked window: the site
    # invariants then differ between times
    st = classic_state.copy()
    t = default_time(st, deep=True) + 1
    st.evolve_to(t)
    _corrupt(st, "V", t, 0)
    return st


@pytest.mark.parametrize(
    "make",
    [
        lambda classic: classic,
        _classic_corrupted,
        lambda classic: random_state(1, 1, 3, seed=3),
        lambda classic: random_state(3, 2, 5, seed=4),
    ],
    ids=["classic", "classic_corrupted", "113", "325"],
)
def test_each_suite_reads_fixed_times(classic_state, make, monkeypatch):
    """A suite's entry is the same run alone on its own copy of the state as
    in the full list, in either order.  Verify evolves to t + 3 (the curves
    and invariants) or t + MK (the kernels), and no further."""
    st = make(classic_state)
    reached = []
    step = LatticeState.step

    def traced_step(self):
        reached.append(self.frontier + 1)
        return step(self)

    monkeypatch.setattr(LatticeState, "step", traced_step)
    full = run_verification(st)["suites"]
    t_deep = default_time(st, deep=True)
    reach = t_deep + max(3, st.params.M * st.params.K)
    assert max(reached, default=st.frontier) == max(st.frontier, reach)
    assert [_run(*_suites(st)[i]) for i in range(len(full))] == full
    assert [_run(name, check) for name, check in reversed(_suites(st))][::-1] == full


@pytest.mark.parametrize(
    "params,suite,call,error",
    [
        ((1, 2, 3), "infinity_asymptotics", infinity_asymptotics, GcdViolation),
        ((1, 1, 3), "case_b_structure", case_b_structure, NotCaseB),
        ((1, 8, 2), "word_append_rule", verify_word_append_rule, WordGuard),
        ((1, 1, 3), "hidden_invariant", lambda st, t: hidden_invariant_check(st), WrongParams),
        ((1, 2, 3), "case_b_structure", case_b_structure, GcdViolation),
        ((1, 2, 3), "psi_phi_ratios", psi_phi_ratios, GcdViolation),
        ((1, 1, 3), "psi_phi_ratios", psi_phi_ratios, NotCaseB),
    ],
)
def test_verify_skip_reason_is_the_precondition_error(params, suite, call, error):
    st = random_state(*params, seed=3)
    t = default_time(st, deep=True)
    evolved = st.copy()
    evolved.evolve_to(t + 3)
    with pytest.raises(error) as info:
        call(evolved, t)
    exc = info.value
    by_name = {s["name"]: s for s in run_verification(st, seed=7)["suites"]}
    if suite in ("word_append_rule", "infinity_asymptotics", "hidden_invariant"):
        # identities of any slice values, which tests/test_identities.py pins,
        # and the (1,1,2) sum, which evolution_consistency covers: verify does
        # not run them, so only the function's guard is left
        assert suite not in by_name
    else:
        assert by_name[suite] == {"name": suite, "status": "skipped", "reason": f"{type(exc).__name__}: {exc}"}


def test_verify_case_b_runs_every_suite(tmp_path):
    # gcd-compatible coincident-invariant input: nothing numeric is gated
    st = new_state(LatticeParams(1, 1, 3), {0: [2, 3, 4]}, {0: [3, 2, rat(3, 2)]})
    path = tmp_path / "caseb.json"
    path.write_text(st.dumps())
    out = tmp_path / "rep.json"
    assert run_cli("verify", str(path), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    statuses = {s["name"]: s["status"] for s in doc["suites"]}
    assert statuses["psi_phi_ratios"] == "pass"
    assert statuses["case_b_structure"] == "pass"
    skipped = [n for n, s in statuses.items() if s == "skipped"]
    assert skipped == []


# -- degenerate ----------------------------------------------------------------------


def test_degenerate_csv(tmp_path, classic_file):
    out = tmp_path / "table.csv"
    assert (
        run_cli(
            "degenerate",
            "--base",
            classic_file,
            "--direction",
            "reduce_M",
            "--zeta-sweep",
            "1e2,1e3",
            "--horizon",
            "6",
            "-o",
            str(out),
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "zeta,max_err,fitted_slope"
    assert len(lines) == 3
    z1, e1, s1 = (float(v) for v in lines[1].split(","))
    z2, e2, s2 = (float(v) for v in lines[2].split(","))
    assert (z1, z2) == (100.0, 1000.0)
    assert e1 > e2 > 0
    assert s1 == s2


def test_degenerate_repeated_zeta_has_no_slope(tmp_path, classic_file):
    out = tmp_path / "table.csv"
    argv = ["degenerate", "--base", classic_file, "--direction", "reduce_M"]
    assert run_cli(*argv, "--zeta-sweep", "1e2,1e2", "--horizon", "6", "-o", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "zeta,max_err,fitted_slope"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["100.0", "100.0"]
    assert rows[0][1] == rows[1][1]
    assert all(math.isnan(float(row[2])) for row in rows)


@pytest.mark.parametrize("sweep", ["inf", "1e999", "nan", "1e2,-inf", ","])
def test_degenerate_rejects_non_finite_zeta(classic_file, sweep, capsys):
    argv = ["degenerate", "--base", classic_file, "--direction", "reduce_M"]
    assert run_cli(*argv, "--zeta-sweep", sweep, "--horizon", "6") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "ValueError",
        "message": f"zeta sweep needs one or more finite values: {sweep!r}",
    }


@pytest.mark.parametrize("sweep", ["-1e2,-1e3", "0", "1e2,-0.0"])
def test_degenerate_rejects_non_positive_zeta_before_evolving(
    classic_file, sweep, capsys, monkeypatch
):
    def no_step(self):
        raise AssertionError("a rejected sweep must not evolve")

    monkeypatch.setattr(LatticeState, "step", no_step)
    argv = ["degenerate", "--base", classic_file, "--direction", "reduce_M"]
    # the = form lets argparse take a value that starts with a minus sign
    assert run_cli(*argv, f"--zeta-sweep={sweep}", "--horizon", "6") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "ValueError",
        "message": f"zeta sweep values must be positive: {sweep!r}",
    }


def test_unknown_flag_rejected(classic_file):
    with pytest.raises(SystemExit):
        run_cli("charpoly", classic_file, "--bogus")


@pytest.mark.parametrize(
    "argv,argument",
    [
        (["evolve", "STATE", "--to", "abc"], "--to"),
        # a value that starts with a minus sign reads as an option when given apart
        (
            ["degenerate", "--base", "STATE", "--direction", "reduce_M", "--zeta-sweep", "-1e2,-1e3"],
            "--zeta-sweep",
        ),
    ],
)
def test_usage_errors_are_one_json_line(classic_file, argv, argument, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*(classic_file if a == "STATE" else a for a in argv))
    assert info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "ArgumentError" and doc["message"].startswith(f"argument {argument}:")


def test_one_parser_serves_every_call(tmp_path, classic_file, capsys):
    assert build_parser() is build_parser()
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    assert run_cli("verify", classic_file, "--seed", "7", "-o", str(seeded)) == 0
    assert run_cli("verify", classic_file, "-o", str(unseeded)) == 0
    # no value of one call leaks into the next as a default
    assert json.loads(seeded.read_text())["seed"] == 7
    assert json.loads(unseeded.read_text())["seed"] == 0
    with pytest.raises(SystemExit) as info:
        run_cli("evolve", classic_file, "--to", "abc")
    assert info.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ArgumentError"


def test_evolve_to_frontier_is_noop(tmp_path, classic_file):
    out = tmp_path / "same.json"
    assert run_cli("evolve", classic_file, "--to", "0", "-o", str(out)) == 0
    assert json.loads(out.read_text()) == json.loads(open(classic_file).read())


def test_evolve_backward_rejected(tmp_path, classic_file):
    fwd = tmp_path / "fwd.json"
    run_cli("evolve", classic_file, "--to", "3", "-o", str(fwd))
    assert run_cli("evolve", str(fwd), "--to", "1") == 2


# -- without numpy --------------------------------------------------------------------

_WITHOUT_NUMPY = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from redkp.cli import main

state, out = sys.argv[1], sys.argv[2]
runs = {
    "evolve": ["evolve", state, "--to", "5"],
    "charpoly": ["charpoly", state],
    "yform": ["yform", state],
    "verify": ["verify", state, "--seed", "7"],
    "degenerate": ["degenerate", "--base", state, "--direction", "reduce_M", "--horizon", "6"],
}
for name, argv in runs.items():
    code = main(argv + ["-o", f"{out}/{name}.out"])
    if code != 0:
        sys.exit(f"{name} exited {code}")
"""


def test_every_command_runs_without_numpy(tmp_path, classic_file):
    src = os.path.dirname(os.path.dirname(os.path.abspath(redkp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, classic_file, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    in_process = tmp_path / "verify.json"
    assert run_cli("verify", classic_file, "--seed", "7", "-o", str(in_process)) == 0
    assert (tmp_path / "verify.out").read_bytes() == in_process.read_bytes()


# -- the one number type --------------------------------------------------------------

_CI_STATE = '{"M":1,"K":1,"N":2,"frontier":0,"I":{"0":["2","3"]},"V":{"0":["1","5"]}}'

_SLOT_RATIONAL = """
from fractions import Fraction
from redkp.rational import Rational

assert Rational.__mro__[1] is Fraction, Rational.__mro__
assert Rational.__add__ is not Fraction.__add__
"""


def test_an_importable_backend_module_leaves_the_rational_type(tmp_path):
    """With a stand-in for the third-party rational module whose import once
    replaced ``Rational`` first on the path, ``Rational`` is still the
    ``Fraction`` subclass that runs on the slots, and ``charpoly`` of CI's
    (1,1,2) state writes the same bytes as without it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(redkp.__file__)))
    stand_in = tmp_path / "stand_in"
    stand_in.mkdir()
    (stand_in / "gmpy2.py").write_text("from fractions import Fraction as mpq\n")
    state = tmp_path / "state.json"
    state.write_text(_CI_STATE + "\n")
    outputs = []
    for path in (os.pathsep.join([str(stand_in), src]), src):
        env = dict(os.environ, PYTHONPATH=path)
        for argv in (["-c", _SLOT_RATIONAL], ["-m", "redkp.cli", "charpoly", str(state), "-o", str(tmp_path / "curve.json")]):
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs.append((tmp_path / "curve.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_every_error_class_is_exported():
    """Each ``RedkpError`` subclass that ``redkp.errors`` defines is an
    attribute of the package."""
    missing = [
        name for name, obj in vars(redkp.errors).items()
        if isinstance(obj, type) and issubclass(obj, redkp.errors.RedkpError) and getattr(redkp, name, None) is not obj
    ]
    assert missing == []
