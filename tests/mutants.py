"""Mutants of ``src/`` that named tests must fail, run as one check:

    python tests/mutants.py [name ...]

Each row of ``MUTANTS`` names a mutant, the module it changes, an exact old
text of that module, the new text and the tests that must fail on it.  Each
row of ``SURVIVORS`` is a known survivor in the same form, with the tests
that must still pass on it and why the code keeps what the mutant drops.
For each row (or each row named on the command line) the script copies ``src/``
and ``tests/`` to a temporary directory, replaces the old text there, and
runs the named tests alone in one pytest run, with the copy first on
``PYTHONPATH`` and hypothesis's seed fixed (``--hypothesis-seed=0``), so each
run draws the same examples and writes no example database into the
repository.  A test named without its parameters is caught if any of its
cases fails.

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
ALGEBRA = "tests/test_algebra.py::"
EVERY_ROUTE = ALGEBRA + "test_matdet_equals_leibniz_on_every_route"
AT_EACH_CUT = ALGEBRA + "test_matdet_routes_at_each_cut"

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
    (
        "prune_below reading no chain generation",
        "redkp/lattice.py",
        "        if self._tau:\n            for gen in self._tau.gens:",
        "        if False:\n            for gen in self._tau.gens:",
        [TAU + "test_prune_below_holds_only_the_chain_generations"],
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
    # matdet: its views, rings, packed form and cuts
    (
        "the packing base without its +1",
        "redkp/polymatrix.py",
        "base = n * max(0, *(e.degree_y for row in m._rows for e in row)) + 1",
        "base = n * max(0, *(e.degree_y for row in m._rows for e in row))",
        [
            EVERY_ROUTE + "[identity]",
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-2-1-3]",
            EVERY_ROUTE + "[tall-2-0]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[single]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[zero-1-x]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[D-1024-bits-3-y]",
            AT_EACH_CUT + "[near-A-yI-A-not-free-of-y]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "the packing base without its factor n",
        "redkp/polymatrix.py",
        "base = n * max(0, *(e.degree_y for row in m._rows for e in row)) + 1",
        "base = max(0, *(e.degree_y for row in m._rows for e in row)) + 1",
        [
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[tall-2-0]",
            EVERY_ROUTE + "[views-2-x-0]",
            EVERY_ROUTE + "[packs-2-deg2]",
            EVERY_ROUTE + "[packed-2-deg1]",
            EVERY_ROUTE + "[zero-2-y]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[D-1024-bits-3-y]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        ">= for > at the 1024-bit D cut",
        "redkp/polymatrix.py",
        "if d.bit_length() > _INTEGER_DENOMINATOR_BITS:",
        "if d.bit_length() >= _INTEGER_DENOMINATOR_BITS:",
        [AT_EACH_CUT + "[D-1024-bits-3-x]"],
    ),
    (
        "the rational ring without its sign",
        "redkp/polymatrix.py",
        "terms = {key: sign * c for key, _, c in keyed}",
        "terms = {key: c for key, _, c in keyed}",
        [
            EVERY_ROUTE + "[size-3]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[tall-3-0]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[single]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[zero-1-x]",
            AT_EACH_CUT + "[D-1024-bits-3-x]",
        ],
    ),
    (
        "the general view's constant coefficient negated",
        "redkp/polymatrix.py",
        "keyed = [(divmod(key, base), n, c) for",
        "keyed = [(divmod(key, base), n, -c) for",
        [
            EVERY_ROUTE + "[identity]",
            EVERY_ROUTE + "[corner]",
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[tall-2-0]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[single]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[zero-1-x]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[D-1024-bits-3-y]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "the slot without its factor n",
        "redkp/polymatrix.py",
        "slot = n * (n * e).bit_length() + 2",
        "slot = (n * e).bit_length() + 2",
        [
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[views-2-x-0]",
            EVERY_ROUTE + "[packs-2-deg2]",
            EVERY_ROUTE + "[packed-2-deg1]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "slot as n bit_length(e) + 2",
        "redkp/polymatrix.py",
        "slot = n * (n * e).bit_length() + 2",
        "slot = n * e.bit_length() + 2",
        [
            EVERY_ROUTE + "[hadamard-4-x]",
            AT_EACH_CUT + "[slot-general-int]",
        ],
    ),
    (
        "the slot without its +2",
        "redkp/polymatrix.py",
        "slot = n * (n * e).bit_length() + 2",
        "slot = n * (n * e).bit_length()",
        [
            EVERY_ROUTE + "[views-1-x-1]",
            EVERY_ROUTE + "[single-x]",
            EVERY_ROUTE + "[packed-1-deg1-x]",
            EVERY_ROUTE + "[zero-1]",
            AT_EACH_CUT + "[slot-general-int]",
        ],
    ),
    (
        "< for <= at the slot cut",
        "redkp/polymatrix.py",
        "if slot <= _PACKED_SLOT_BITS:",
        "if slot < _PACKED_SLOT_BITS:",
        [AT_EACH_CUT + "[slot-general-packed]"],
    ),
    (
        "_unpack without its balanced correction",
        "redkp/polymatrix.py",
        "if c >= half:",
        "if False:",
        [
            EVERY_ROUTE + "[identity]",
            EVERY_ROUTE + "[corner]",
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[single]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[entry]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "_unpack dropping its top digit",
        "redkp/polymatrix.py",
        "for k in range(abs(p).bit_length() // slot + 1):",
        "for k in range(abs(p).bit_length() // slot):",
        [
            EVERY_ROUTE + "[identity]",
            EVERY_ROUTE + "[corner]",
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[single]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[zero-1-x]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "the int term maps without negation",
        "redkp/polymatrix.py",
        "_INTEGER_TERMS = ({0: 1}, _negate, _dot)",
        "_INTEGER_TERMS = ({0: 1}, dict, _dot)",
        [
            AT_EACH_CUT + "[D-1024-bits-3-x]",
            AT_EACH_CUT + "[slot-x-int]",
        ],
    ),
    (
        "_dot keeping zero sums",
        "redkp/polymatrix.py",
        "return _nonzero(acc)",
        "return acc",
        [
            EVERY_ROUTE + "[tall-3-0]",
            EVERY_ROUTE + "[views-2-x-1]",
            EVERY_ROUTE + "[packs-2-deg2]",
            EVERY_ROUTE + "[singular]",
            EVERY_ROUTE + "[packed-2-deg1-y]",
            EVERY_ROUTE + "[singular-4]",
            EVERY_ROUTE + "[hadamard-2-x]",
            AT_EACH_CUT + "[D-1024-bits-3-x]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    (
        "the characteristic view taken for A - yI",
        "redkp/polymatrix.py",
        "        return 0\n    return None",
        "        return 0\n"
        "    if all(rows[i][i]._terms.get((0, 1)) == -1 for i in range(n)) and all(\n"
        "        not key[1] or (i == j and key == (0, 1)) for i in range(n) for j in range(n) for key in rows[i][j]._terms\n"
        "    ):\n"
        "        return 0\n"
        "    return None",
        [
            EVERY_ROUTE + "[views-1-y-0]",
            EVERY_ROUTE + "[packed-1-deg1-y]",
            EVERY_ROUTE + "[zero-1-y]",
            EVERY_ROUTE + "[hadamard-2-y]",
            AT_EACH_CUT + "[D-1024-bits-3-y]",
            AT_EACH_CUT + "[near-A-yI]",
            AT_EACH_CUT + "[slot-y-packed]",
        ],
    ),
    (
        "coefficients built without the gcd",
        "redkp/polymatrix.py",
        "g = math.gcd(scales[k], c)",
        "g = 1",
        [
            EVERY_ROUTE + "[4x4-0]",
            EVERY_ROUTE + "[size-2]",
            EVERY_ROUTE + "[curve-1-1-3]",
            EVERY_ROUTE + "[views-1-x-0]",
            EVERY_ROUTE + "[packs-1-deg2]",
            EVERY_ROUTE + "[packed-1-deg1]",
            EVERY_ROUTE + "[entry]",
            AT_EACH_CUT + "[D-1024-bits-3-x]",
            AT_EACH_CUT + "[near-minus-2x-on-the-diagonal]",
            AT_EACH_CUT + "[slot-general-packed]",
        ],
    ),
    # the float screen of _max_deviation
    (
        "_max_deviation skipping every pair once a deviation is found",
        "redkp/degeneration.py",
        "if d + 2**-51 * (abs(fa) + abs(fb) + d) + 2**-1070 < err:",
        "if err:",
        [
            DEGENERATION + "test_max_deviation_equals_the_full_max_loop",
            DEGENERATION + "test_limit_compare_equals_the_full_max_loop",
        ],
    ),
    (
        "_max_deviation skipping with no rounding room",
        "redkp/degeneration.py",
        "if d + 2**-51 * (abs(fa) + abs(fb) + d) + 2**-1070 < err:",
        "if d < err:",
        [DEGENERATION + "test_max_deviation_equals_the_full_max_loop"],
    ),
    # BiPoly.evaluate and PolyMatrix.__matmul__ as plain sums
    (
        "evaluate with x0 and y0 swapped in the powers",
        "redkp/bipoly.py",
        "c * x0**dx * y0**dy for",
        "c * y0**dx * x0**dy for",
        [ALGEBRA + "test_eval_examples", ALGEBRA + "test_evaluate_equals_naive_term_sum"],
    ),
    (
        "evaluate returning a Fraction",
        "redkp/bipoly.py",
        "return sum((c * x0**dx * y0**dy for (dx, dy), c in self._terms.items()), _ZERO)",
        'return __import__("fractions").Fraction(sum((c * x0**dx * y0**dy for (dx, dy), c in self._terms.items()), _ZERO))',
        [ALGEBRA + "test_evaluate_equals_naive_term_sum"],
    ),
    (
        "__matmul__ pairing each row with the rows of other",
        "redkp/polymatrix.py",
        "cols = list(zip(*other._rows))",
        "cols = other._rows",
        [
            ALGEBRA + "test_sparse_product_equals_dense_oracle",
            ALGEBRA + "test_factor_chain_products_equal_dense_oracle",
            ALGEBRA + "test_adjugate_inverse_relation",
            ALGEBRA + "test_matrix_associativity_spot_check",
            "tests/test_acceptance.py::test_criterion_5_compatibility_and_conjugation",
        ],
    ),
    # the kernel's prod(b) and the chain's ratios
    (
        "the kernel's prod(b) without / prod(a)",
        "redkp/lattice.py",
        "pb = product(ab) / pa",
        "pb = product(ab)",
        [
            LATTICE + "test_step_kernel_on_fractions_equals_the_step",
            LATTICE + "test_step_equals_monodromy_oracle_on_signed_inputs",
        ],
    ),
    (
        "the M = K read-out building y with (rn, rd)",
        "redkp/lattice.py",
        "y = rational._product(*b[i], rd, rn)",
        "y = rational._product(*b[i], rn, rd)",
        [
            TAU + "test_tau_chain_on_any_window",
            TAU + "test_chain_errors_equal_the_kernels",
            TAU + "test_which_states_take_the_chain",
        ],
    ),
    (
        "_ratio returning its pair swapped",
        "redkp/lattice.py",
        "return n1 * n2, d1 * d2",
        "return d1 * d2, n1 * n2",
        [
            TAU + "test_tau_chain_on_any_window",
            TAU + "test_chain_errors_equal_the_kernels",
            TAU + "test_chain_leaves_only_the_degenerate_phase_to_the_kernel",
            TAU + "test_which_states_take_the_chain",
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
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
             "--hypothesis-seed=0", *tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if done.returncode not in (0, 1):
            return [f"the tests did not run (pytest exit {done.returncode})"]
        # the short summary's lines: "FAILED <node id> - <message>"
        failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
        return [
            f"{'is caught by' if survives else 'survives'} {test}"
            for test in tests
            if any(f == test or f.startswith(test + "[") for f in failed) == survives
        ]


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
