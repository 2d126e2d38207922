"""Span tracing of the redkp layers, installed from outside the package.

``Tracer.install()`` wraps the public functions and methods named in
``TARGETS`` and rebinds every name that refers to them in every loaded
``redkp`` module (``verify`` does ``from .lax import build_monodromy``, so
patching ``lax`` alone would miss its calls).  ``uninstall()`` restores the
originals, so untraced passes run the unmodified code.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; spans stay in
memory until the run writes them out.  A span's self time is its duration
minus the part of it that its child spans cover (see ``self_times``).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute path).  The prefix is the module name
# the per-layer metrics are reported under.
TARGETS = {
    "cli.main": ("redkp.cli", "main"),
    "verify.run_verification": ("redkp.verify", "run_verification"),
    "degeneration.limit_compare": ("redkp.degeneration", "limit_compare"),
    "degeneration.seed_large_zeta": ("redkp.degeneration", "seed_large_zeta"),
    "degeneration.hidden_invariant_check": ("redkp.degeneration", "hidden_invariant_check"),
    "numeric.fiber_x": ("redkp.numeric", "fiber_x"),
    "numeric.eigenvector_at": ("redkp.numeric", "eigenvector_at"),
    "numeric.special_point_kernels": ("redkp.numeric", "special_point_kernels"),
    "numeric.infinity_asymptotics": ("redkp.numeric", "infinity_asymptotics"),
    "numeric.case_b_structure": ("redkp.numeric", "case_b_structure"),
    "numeric.psi_phi_ratios": ("redkp.numeric", "psi_phi_ratios"),
    "yform.band_coefficients": ("redkp.yform", "band_coefficients"),
    "yform.shift_stars": ("redkp.yform", "shift_stars"),
    "yform.spectral_duality": ("redkp.yform", "spectral_duality"),
    "yform.verify_word_append_rule": ("redkp.yform", "verify_word_append_rule"),
    "lax.build_monodromy": ("redkp.lax", "build_monodromy"),
    "lax.spectral_curve": ("redkp.lax", "spectral_curve"),
    "lax.special_points": ("redkp.lax", "special_points"),
    "lax.apply_shift": ("redkp.lax", "apply_shift"),
    "lax.verify_compatibility": ("redkp.lax", "verify_compatibility"),
    "polymatrix.matdet": ("redkp.polymatrix", "matdet"),
    "polymatrix.matmul": ("redkp.polymatrix", "PolyMatrix.__matmul__"),
    "polymatrix.adjugate": ("redkp.polymatrix", "PolyMatrix.adjugate"),
    "bipoly.mul": ("redkp.bipoly", "BiPoly.__mul__"),
    "bipoly.exact_div": ("redkp.bipoly", "BiPoly.exact_div"),
    "lattice.step": ("redkp.lattice", "LatticeState.step"),
    "lattice.monodromy_closure": ("redkp.lattice", "monodromy_closure"),
    "lattice.to_json_dict": ("redkp.lattice", "LatticeState.to_json_dict"),
    "lattice.from_json_dict": ("redkp.lattice", "LatticeState.from_json_dict"),
    "rational.format_rational": ("redkp.rational", "format_rational"),
    "rational.parse_rational": ("redkp.rational", "parse_rational"),
}

# Names whose distinct (state, t, form) arguments are counted per op.
UNIQUE_TARGETS = ("lax.build_monodromy", "lax.spectral_curve")


def rational_bits(value) -> int:
    """Largest bit length of the numerator and denominator."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, each clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _resolve(module, path: str):
    """(owner, original callable) for ``path``; a method is read from the
    class dict so that a classmethod stays unbound."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, raw


class Tracer:
    """Collects spans and per-op argument statistics while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1
        self._saved = []
        # per-op observations, reset by begin_op()
        self.op_keys = {name: set() for name in UNIQUE_TARGETS}
        self.op_calls = {name: 0 for name in UNIQUE_TARGETS}
        self.op_bits = 0
        self._keep_alive = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> list:
        stack = self._stack
        record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op_id]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        for keys in self.op_keys.values():
            keys.clear()
        for name in self.op_calls:
            self.op_calls[name] = 0
        self.op_bits = 0
        self._keep_alive.clear()

    # -- wrappers -----------------------------------------------------------------

    def _observe(self, name, args, kwargs):
        if name == "rational.format_rational":
            self.op_bits = max(self.op_bits, rational_bits(args[0]))
            return
        state, t = args[0], args[1]
        form = args[2] if len(args) > 2 else kwargs.get("form", "standard")
        # holding the state keeps its id unique for the rest of the op
        self._keep_alive.append(state)
        self.op_keys[name].add((id(state), t, form))
        self.op_calls[name] += 1

    def _wrap(self, name: str, fn):
        tracer = self
        observed = name in UNIQUE_TARGETS or name == "rational.format_rational"
        parses = name == "rational.parse_rational"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observed:
                tracer._observe(name, args, kwargs)
            record = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(record)
            if parses:
                tracer.op_bits = max(tracer.op_bits, rational_bits(result))
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "redkp" or n.startswith("redkp.")]
        for name, (module_name, path) in TARGETS.items():
            owner, raw = _resolve(sys.modules[module_name], path)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._saved.append((holder, key, raw))
                        setattr(holder, key, replacement)

    def uninstall(self) -> None:
        for holder, key, raw in reversed(self._saved):
            setattr(holder, key, raw)
        self._saved.clear()

    # -- output ---------------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
