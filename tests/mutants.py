"""Mutants of ``src/`` that named tests must fail, run as one check:

    python tests/mutants.py [name ...]

Each row of ``MUTANTS`` names a mutant, the module it changes, an exact old
text of that module, the new text and the tests that must fail on it.  Each
row of ``SURVIVORS`` is a known survivor in the same form, with the tests
that must still pass on it and why the code keeps what the mutant drops.
For each row (or each row named on the command line) the script copies ``src/``
and ``tests/`` to a temporary directory, replaces the old text there, and
runs pytest on the named tests alone, with the copy first on ``PYTHONPATH``
and hypothesis's seed fixed (``--hypothesis-seed=0``), so each run draws the
same examples and writes no example database into the repository.

It exits 1 if a mutant's old text is not found exactly once, so a refactor
updates its rows in the same change, if a mutant survives: its tests all
pass, or if a known survivor is caught: one of its tests fails, so that
row moves to ``MUTANTS``.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TAU = "tests/test_tau.py::"
LATTICE = "tests/test_lattice.py::"
DEGENERATION = "tests/test_degeneration.py::"
CLI = "tests/test_cli.py::"

# (name, module, old text, new text, tests that must fail)
MUTANTS = [
    # the τ chain's generations: slices written on first read
    (
        "drop test on the site-1 values alone",
        "redkp/lattice.py",
        "outgrown = height(gen.value(1)) < bits and height(sum(gen.read(), ())) < bits",
        "outgrown = height(gen.value(1)) < bits",
        [TAU + "test_the_chain_drops_at_the_same_step"],
    ),
    (
        "an untaken refinement base read as 1",
        "redkp/lattice.py",
        "x, w, old = q.u[j], self.u[j], q.same[1 - kind][j]",
        "x, w, old = q.u[j], self.u[j], q.same[1 - kind][j] or 1",
        [TAU + "test_reads_on_any_window"],
    ),
    (
        "a read generation keeps the older ones",
        "redkp/lattice.py",
        "            self.older = None\n",
        "",
        [TAU + "test_a_read_step_holds_no_older_generation"],
    ),
    (
        "copy() without the unread steps",
        "redkp/lattice.py",
        "return LatticeState(self.params, self._i, self._v, self.frontier)",
        "return LatticeState(self.params, {t: v for t, v in self._i.items() if type(v) is tuple}, "
        "{t: v for t, v in self._v.items() if type(v) is tuple}, self.frontier)",
        [
            TAU + "test_reads_on_any_window",
            LATTICE + "test_a_slice_written_over_an_unread_step_stays",
        ],
    ),
    (
        "a new chain started on the raw history",
        "redkp/lattice.py",
        "[self.i_slice(t1 - M + r) for r in range(M)],\n"
        "                    [self.v_slice(t1 - K + r) for r in range(K)],",
        "[self._i[t1 - M + r] for r in range(M)],\n"
        "                    [self._v[t1 - K + r] for r in range(K)],",
        [LATTICE + "test_a_pruned_copy_steps_from_its_window"],
    ),
    (
        "prune_below keeps unread steps below the floor",
        "redkp/lattice.py",
        "self._i = {t: v for t, v in self._i.items() if t >= floor}",
        "self._i = {t: v for t, v in self._i.items() if t >= floor or type(v) is _Generation}",
        [LATTICE + "test_prune_below_drops_unread_steps"],
    ),
    # the refinement base of the same-site gcds
    (
        "refinement base without the content g",
        "redkp/lattice.py",
        "_refined_gcd(x, w, self.g * coef * old * self.pair(e)[0])",
        "_refined_gcd(x, w, coef * old * self.pair(e)[0])",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the equation's coefficient",
        "redkp/lattice.py",
        "_refined_gcd(x, w, self.g * coef * old * self.pair(e)[0])",
        "_refined_gcd(x, w, self.g * old * self.pair(e)[0])",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the older same-site gcd",
        "redkp/lattice.py",
        "_refined_gcd(x, w, self.g * coef * old * self.pair(e)[0])",
        "_refined_gcd(x, w, self.g * coef * self.pair(e)[0])",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the adjacent gcd",
        "redkp/lattice.py",
        "_refined_gcd(x, w, self.g * coef * old * self.pair(e)[0])",
        "_refined_gcd(x, w, self.g * coef * old)",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    # the 2-adic closure
    (
        "no closing equation after a 2-adic closure",
        "redkp/lattice.py",
        "if alpha[-1] * u[-1] - beta[-1] * u[0] != kappa * c[-1]:",
        "if False:",
        [TAU + "test_closures_agree_on_any_window"],
    ),
    (
        "no low-bit test in the 2-adic division",
        "redkp/lattice.py",
        "    if h & ((1 << e) - 1):\n        return None",
        "    if False:\n        return None",
        [TAU + "test_divide_2adic"],
    ),
    (
        "no sign lift of the 2-adic quotient",
        "redkp/lattice.py",
        "return v - (1 << k) if v >> (k - 1) else v",
        "return v",
        [TAU + "test_divide_2adic", TAU + "test_closures_agree_on_any_window"],
    ),
    (
        "the 2-adic precision k cut by 8 bits",
        "redkp/lattice.py",
        "k = max(top + n.bit_length() + pb.bit_length() + 2 + n - sum(bb), 1)",
        "k = max(top + n.bit_length() + pb.bit_length() + 2 + n - sum(bb) - 8, 1)",
        [
            TAU + "test_closures_agree_on_any_window",
            TAU + "test_chain_past_the_cut_on_general_windows",
        ],
    ),
    # the writer of big parts and the digit cap
    (
        "no zero padding of lo",
        "redkp/rational.py",
        "_split((lo << k) | (n & ((1 << k) - 1))).zfill(k)",
        "_split((lo << k) | (n & ((1 << k) - 1)))",
        [
            LATTICE + "test_format_rational_writes_big_parts_as_str",
            LATTICE + "test_format_rational_writes_as_str_with_no_digit_cap",
            LATTICE + "test_format_rational_past_the_digit_cap_raises_str_error",
        ],
    ),
    (
        "a split at k + 1 digits padded to k",
        "redkp/rational.py",
        "    hi, lo = divmod(n >> k, power)\n"
        "    return _split(hi) + _split((lo << k) | (n & ((1 << k) - 1))).zfill(k)",
        "    hi, lo = divmod(n, 10 ** (k + 1))\n"
        "    return _split(hi) + _split(lo).zfill(k)",
        [
            LATTICE + "test_format_rational_writes_big_parts_as_str",
            LATTICE + "test_format_rational_writes_as_str_with_no_digit_cap",
            LATTICE + "test_format_rational_past_the_digit_cap_raises_str_error",
        ],
    ),
    (
        "no cap guard in the writer",
        "redkp/rational.py",
        "    if may_pass_digit_cap(n.bit_length()):\n        return str(n)",
        "    if False:\n        return str(n)",
        [LATTICE + "test_format_rational_past_the_digit_cap_raises_str_error"],
    ),
    (
        "no step check past the digit cap",
        "redkp/cli.py",
        "        elif may_pass_digit_cap(bits):",
        "        elif False:",
        [
            CLI + "test_evolve_stops_at_the_first_step_past_the_digit_cap",
            CLI + "test_evolve_stops_where_the_writer_fails",
        ],
    ),
    (
        "the digit-cap step check taken under --max-bits",
        "redkp/cli.py",
        "        elif may_pass_digit_cap(bits):",
        "        if may_pass_digit_cap(bits):",
        [
            CLI + "test_evolve_max_bits_outranks_the_digit_cap",
            CLI + "test_evolve_within_max_bits_past_the_digit_cap_fails_at_the_write",
        ],
    ),
]

# (name, module, old text, new text, tests that must pass, why it is kept)
SURVIVORS = [
    (
        "_max_deviation's bound without |fa - fb|",
        "redkp/degeneration.py",
        "2**-51 * (abs(fa) + abs(fb) + d)",
        "2**-51 * (abs(fa) + abs(fb))",
        [
            DEGENERATION + "test_max_deviation_equals_the_full_max_loop",
            DEGENERATION + "test_limit_compare_equals_the_full_max_loop",
        ],
        "the bound's factor-4 room nearly covers the term; it is kept so the "
        "bound stays provably safe",
    ),
]


def run(module, old, new, tests, survives) -> list:
    """The problems with one mutant: an old text not found exactly once,
    a copy that does not import, or tests that pass on it, or for a known
    survivor (``survives``) tests that fail on it."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, part),
                os.path.join(tmp, part),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        path = os.path.join(tmp, "src", module)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            return [f"old text found {text.count(old)} times in {module}: {old!r}"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import redkp; print(redkp.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(tmp):
            found = where.stdout.strip() or where.stderr.strip()
            return [f"the copy's redkp was not imported: {found}"]
        problems = []
        for test in tests:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", test],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            if done.returncode not in (0, 1):
                problems.append(f"{test} did not run (pytest exit {done.returncode})")
            elif (done.returncode == 0) != survives:
                problems.append(f"{'is caught by' if survives else 'survives'} {test}")
        return problems


def main(names) -> int:
    rows = [(row, None) for row in MUTANTS] + [(row[:5], row[5]) for row in SURVIVORS]
    rows = [(row, why) for row, why in rows if not names or row[0] in names]
    if len(rows) != len(names or rows):
        print(f"unknown mutant among {names!r}", file=sys.stderr)
        return 2
    bad = [0, 0]  # mutants that survive, known survivors that are caught
    for (name, module, old, new, tests), why in rows:
        survives = why is not None
        problems = run(module, old, new, tests, survives)
        kind = f" (known survivor: {why})" if survives else ""
        print(f"{'FAIL' if problems else 'ok'}  {name}{kind}", flush=True)
        for problem in problems:
            print(f"      {problem}")
        bad[survives] += bool(problems)
    known = sum(why is not None for _, why in rows)
    print(
        f"{len(rows) - known - bad[0]} of {len(rows) - known} mutants caught by every named "
        f"test, {known - bad[1]} of {known} known survivors surviving"
    )
    return 1 if any(bad) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
