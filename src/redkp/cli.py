"""Command-line front end: evolve, charpoly, yform, verify, degenerate.

State files are JSON with every rational as a "p/q" string; diagnostic
outputs may contain floats.  Exit codes: 0 success / all checks passed,
1 failed checks, 2 input validation error, 3 evolution error.  Errors are
reported as one JSON object on stderr.  Every JSON output is the text of
``json.dumps(doc, indent=2)`` (``sort_keys`` for verify), written by
``_json_text``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .degeneration import DegenerationPlan, limit_compare
from .errors import (
    DegenerateEvolution,
    HeightBudgetExceeded,
    InsufficientHistory,
    RedkpError,
    SingularStep,
)
from .lattice import LatticeState, default_time, height
from .lax import special_points, spectral_curve
from .polymatrix import PolyMatrix
from .rational import format_rational
from .verify import run_verification
from .yform import band_coefficients, companion_product, shift_stars

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_VALIDATION = 2
EXIT_EVOLUTION = 3

_EVOLUTION_ERRORS = (DegenerateEvolution, SingularStep, InsufficientHistory, HeightBudgetExceeded)


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _load_state(path: str) -> LatticeState:
    with open(path, "r", encoding="utf-8") as fh:
        return LatticeState.loads(fh.read())


def _json_text(doc, sort_keys: bool = False) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=sort_keys)`` for a
    tree of str-keyed dicts and lists (or tuples): strings by
    ``encode_basestring_ascii``, ints by ``int.__repr__`` and every other
    value (float, bool, None) by ``json.dumps``, all collected in one list
    and joined once.  ``json.dumps`` with an indent runs the pure-Python
    encoder's generators instead."""
    parts = []
    _emit(doc, "\n", sort_keys, parts.append)
    return "".join(parts)


def _emit(value, newline: str, sort_keys: bool, put) -> None:
    if isinstance(value, str):
        put(_encode_str(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        put(int.__repr__(value))
    elif not isinstance(value, (list, tuple, dict)):
        put(json.dumps(value))
    elif not value:
        put("{}" if isinstance(value, dict) else "[]")
    else:
        inner = newline + "  "
        is_dict = isinstance(value, dict)
        items = (sorted(value.items()) if sort_keys else value.items()) if is_dict else value
        put("{" if is_dict else "[")
        sep, comma = inner, "," + inner
        for item in items:
            put(sep)
            sep = comma
            if is_dict:
                put(_encode_str(item[0]) + ": ")
                item = item[1]
            _emit(item, inner, sort_keys, put)
        put(newline + ("}" if is_dict else "]"))


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_records(m: PolyMatrix) -> list:
    return [[entry.to_records() for entry in row] for row in m.rows]


def _point(p) -> list:
    return [format_rational(p[0]), format_rational(p[1])]


def cmd_evolve(args) -> int:
    state = _load_state(args.input)
    if args.to < state.frontier:
        raise ValueError(f"target {args.to} is before the frontier {state.frontier}")
    while state.frontier < args.to:
        t = state.step().frontier
        if args.max_bits is None:
            continue
        bits = height(state.i_slice(t) + state.v_slice(t))
        if bits > args.max_bits:
            raise HeightBudgetExceeded(
                f"t = {t} reaches {bits} bits, over --max-bits {args.max_bits}"
            )
    _write(_json_text(state.to_json_dict()), args.output)
    return EXIT_OK


def cmd_charpoly(args) -> int:
    state = _load_state(args.input)
    t = args.time if args.time is not None else default_time(state)
    curve = spectral_curve(state, t)
    sp = special_points(state, t)
    doc = {
        "time": t,
        "poly": curve.poly.to_records(),
        "deg_x": curve.deg_x,
        "deg_y": curve.deg_y,
        "special_points": {
            "A": [_point(p) for p in sp.a_points],
            "B": [_point(p) for p in sp.b_points],
            "Q": [_point(p) for p in sp.q_points],
            "P": (
                {"present": True, "x_pole_order": sp.p_branch[0], "y_pole_order": sp.p_branch[1]}
                if sp.p_branch
                else {"present": False}
            ),
        },
    }
    _write(_json_text(doc), args.output)
    return EXIT_OK


def cmd_yform(args) -> int:
    state = _load_state(args.input)
    t = args.time if args.time is not None else default_time(state, deep=True)
    rows = band_coefficients(state, t)
    s_star, r_star, l_star = shift_stars(state, t)
    doc = {
        "time": t,
        "bands": [
            {"i": i + 1, "k": k, "a": format_rational(a)}
            for i, row in enumerate(rows)
            for k, a in enumerate(row)
        ],
        "S_star": _matrix_records(s_star),
        "R_star": _matrix_records(r_star),
        "L_star": _matrix_records(l_star),
        "Y": _matrix_records(companion_product(rows)),
    }
    _write(_json_text(doc), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    state = _load_state(args.input)
    report = run_verification(state, seed=args.seed)
    _write(_json_text(report, sort_keys=True), args.output)
    return EXIT_OK if report["passed"] else EXIT_CHECKS_FAILED


def cmd_degenerate(args) -> int:
    base = _load_state(args.base)
    sweep = [float(z) for z in args.zeta_sweep.split(",") if z.strip()]
    if not sweep or not all(math.isfinite(z) for z in sweep):
        raise ValueError(f"zeta sweep needs one or more finite values: {args.zeta_sweep!r}")
    if min(sweep) <= 0:
        raise ValueError(f"zeta sweep values must be positive: {args.zeta_sweep!r}")
    plan = DegenerationPlan(direction=args.direction, base=base, horizon=args.horizon)
    table = limit_compare(plan, sweep)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["zeta", "max_err", "fitted_slope"])
    for row in table.rows:
        writer.writerow((row.zeta, row.max_err, table.slope))
    _write(buf.getvalue(), args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors as the one-line JSON error and exit 2, in every subcommand."""

    def error(self, message):
        self.exit(_fail(argparse.ArgumentError(None, message), EXIT_VALIDATION))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and each
    ``main`` call parses into a fresh namespace."""
    parser = _Parser(
        prog="redkp",
        description="Exact evolution and spectral analysis of the reduced discrete periodic KP lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="advance a state file to a target time")
    p.add_argument("input")
    p.add_argument("--to", type=int, required=True, help="target frontier time")
    p.add_argument("--max-bits", type=int, default=None, help="exit 3 past this slice height")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("charpoly", help="spectral curve and special points")
    p.add_argument("input")
    p.add_argument("--time", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_charpoly)

    p = sub.add_parser("yform", help="band table and companion-form matrices")
    p.add_argument("input")
    p.add_argument("--time", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_yform)

    p = sub.add_parser("verify", help="run every applicable exact and numeric suite")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("degenerate", help="large-parameter convergence sweep")
    p.add_argument("--base", required=True, help="reduced-system state file")
    p.add_argument("--direction", choices=["reduce_M", "reduce_K"], required=True)
    p.add_argument("--zeta-sweep", default="1e2,1e3,1e4")
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(fn=cmd_degenerate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _EVOLUTION_ERRORS as exc:
        return _fail(exc, EXIT_EVOLUTION)
    except (RedkpError, ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        return _fail(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
