"""Mutants of ``src/`` that named tests must fail, run as one check:

    python tests/mutants.py [name ...]

Each row of ``MUTANTS`` names a mutant, the module it changes, an exact old
text of that module, the new text and the tests that must fail on it.  For
each row (or each row named on the command line) the script copies ``src/``
and ``tests/`` to a temporary directory, replaces the old text there, and
runs pytest on the named tests alone, with the copy first on ``PYTHONPATH``
and hypothesis's seed fixed (``--hypothesis-seed=0``), so each run draws the
same examples and writes no example database into the repository.

It exits 1 if a mutant's old text is not found exactly once, so a refactor
updates its rows in the same change, or if a mutant survives: its tests
all pass.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TAU = "tests/test_tau.py::"
LATTICE = "tests/test_lattice.py::"

# (name, module, old text, new text, tests that must fail)
MUTANTS = [
    # the τ chain's read-out: slices written on first read
    (
        "drop test on the site-1 values alone",
        "redkp/lattice.py",
        "outgrown = height(out.value(1)) < bits and height(sum(out.read(), ())) < bits",
        "outgrown = height(out.value(1)) < bits",
        [TAU + "test_the_chain_drops_at_the_same_step"],
    ),
    (
        "an untaken refinement base read as 1",
        "redkp/lattice.py",
        "x, w, old = q.u[j], gen.u[j], q.same[1 - kind][j]",
        "x, w, old = q.u[j], gen.u[j], q.same[1 - kind][j] or 1",
        [TAU + "test_reads_on_any_window"],
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
        "self._i = {t: v for t, v in self._i.items() if t >= floor or type(v) is _ReadOut}",
        [LATTICE + "test_prune_below_drops_unread_steps"],
    ),
    # the refinement base of the same-site gcds
    (
        "refinement base without the content g",
        "redkp/lattice.py",
        "_refined_gcd(x, w, gen.g * coef * old * gen.adjacent(e))",
        "_refined_gcd(x, w, coef * old * gen.adjacent(e))",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the equation's coefficient",
        "redkp/lattice.py",
        "_refined_gcd(x, w, gen.g * coef * old * gen.adjacent(e))",
        "_refined_gcd(x, w, gen.g * old * gen.adjacent(e))",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the older same-site gcd",
        "redkp/lattice.py",
        "_refined_gcd(x, w, gen.g * coef * old * gen.adjacent(e))",
        "_refined_gcd(x, w, gen.g * coef * gen.adjacent(e))",
        [TAU + "test_refined_gcds_on_any_window"],
    ),
    (
        "refinement base without the adjacent gcd",
        "redkp/lattice.py",
        "_refined_gcd(x, w, gen.g * coef * old * gen.adjacent(e))",
        "_refined_gcd(x, w, gen.g * coef * old)",
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
]


def run(name, module, old, new, tests) -> list:
    """The problems with one mutant: an old text not found exactly once,
    a copy that does not import, or tests that pass on it."""
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
            if done.returncode == 0:
                problems.append(f"survives {test}")
            elif done.returncode != 1:
                problems.append(f"{test} did not run (pytest exit {done.returncode})")
        return problems


def main(names) -> int:
    rows = [row for row in MUTANTS if not names or row[0] in names]
    if len(rows) != len(names or rows):
        print(f"unknown mutant among {names!r}", file=sys.stderr)
        return 2
    failed = 0
    for name, module, old, new, tests in rows:
        problems = run(name, module, old, new, tests)
        print(f"{'FAIL' if problems else 'ok'}  {name}", flush=True)
        for problem in problems:
            print(f"      {problem}")
        failed += bool(problems)
    print(f"{len(rows) - failed} of {len(rows)} mutants caught by every named test")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
