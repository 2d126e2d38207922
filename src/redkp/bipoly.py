"""Sparse bivariate polynomials over exact rationals.

Terms are stored as a map from exponent pairs ``(deg_x, deg_y)`` to nonzero
rational coefficients, so equality is structural and the spectral curves of
banded matrix products stay sparse.  Values are immutable after construction.
"""

from __future__ import annotations

from .errors import ExactDivisionError
from .rational import Rational, format_rational, parse_rational

_ZERO = Rational(0)
_ONE = Rational(1)


def _divide_terms(num: dict, den: dict) -> dict:
    """Exact quotient over Q of two term maps (nonzero Rational
    coefficients, ``den`` not empty); raises ExactDivisionError on a
    remainder."""
    lead_d = max(den)  # lex order on (deg_x, deg_y)
    cd = den[lead_d]
    rest = [(key, c) for key, c in den.items() if key != lead_d]
    rem = dict(num)
    quot = {}
    while rem:
        lead_r = max(rem)
        qx, qy = lead_r[0] - lead_d[0], lead_r[1] - lead_d[1]
        if qx < 0 or qy < 0:
            raise ExactDivisionError("leading term not divisible")
        qc = rem.pop(lead_r) / cd
        quot[(qx, qy)] = qc
        for (dx, dy), c in rest:
            key = (dx + qx, dy + qy)
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            else:
                del rem[key]
    return quot


def _nonzero(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def _add_product(acc: dict, p: dict, q: dict) -> dict:
    """acc += p*q on term maps over any coefficient ring; sums that cancel
    stay in acc as 0."""
    get = acc.get
    for (px, py), pc in p.items():
        for (qx, qy), qc in q.items():
            key = (px + qx, py + qy)
            cur = get(key)
            acc[key] = pc * qc if cur is None else cur + pc * qc
    return acc


def _coerce(value) -> "BiPoly":
    if isinstance(value, BiPoly):
        return value
    return BiPoly.constant(value)


class BiPoly:
    """Polynomial in the indeterminates x and y with Rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (dx, dy), c in dict(terms).items():
                if dx < 0 or dy < 0:
                    raise ValueError("negative exponent")
                c = Rational(c)
                if c != 0:
                    data[(int(dx), int(dy))] = c
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "BiPoly":
        # internal: data already canonical (no zeros, int keys, Rational values)
        obj = cls.__new__(cls)
        obj._terms = data
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BiPoly":
        return cls._raw({(0, 0): _ONE})

    @classmethod
    def constant(cls, c) -> "BiPoly":
        c = Rational(c)
        return cls._raw({(0, 0): c} if c != 0 else {})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls._raw({(1, 0): _ONE})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls._raw({(0, 1): _ONE})

    @classmethod
    def monomial(cls, dx: int, dy: int, c=1) -> "BiPoly":
        c = Rational(c)
        if dx < 0 or dy < 0:
            raise ValueError("negative exponent")
        return cls._raw({(dx, dy): c} if c != 0 else {})

    # -- structure ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, dx: int, dy: int):
        return self._terms.get((dx, dy), _ZERO)

    @property
    def degree_x(self) -> int:
        return max((dx for dx, _ in self._terms), default=-1)

    @property
    def degree_y(self) -> int:
        return max((dy for _, dy in self._terms), default=-1)

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = _coerce(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, _ZERO) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return BiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "BiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "BiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "BiPoly":
        other = _coerce(other)
        return BiPoly._raw(_nonzero(_add_product({}, self._terms, other._terms)))

    __rmul__ = __mul__

    def exact_div(self, divisor: "BiPoly") -> "BiPoly":
        """Exact quotient over Q; raises ExactDivisionError on remainder."""
        divisor = _coerce(divisor)
        if divisor.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        return BiPoly._raw(_divide_terms(self._terms, divisor._terms))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x0, y0):
        """Exact value at a rational point, the term sum of c*x0**dx*y0**dy
        over ``Rational`` (0**0 = 1 keeps the constant term); a ring
        homomorphism."""
        x0, y0 = Rational(x0), Rational(y0)
        return sum((c * x0**dx * y0**dy for (dx, dy), c in self._terms.items()), _ZERO)

    # -- serialization -------------------------------------------------------

    def to_records(self) -> list:
        return [
            {"dx": dx, "dy": dy, "c": format_rational(c)}
            for (dx, dy), c in sorted(self._terms.items())
        ]

    @classmethod
    def from_records(cls, records) -> "BiPoly":
        """Inverse of ``to_records``: each exponent pair once, as JSON ints >= 0
        (not ``true``, ``1.9``, ``"2"``), with a nonzero wire-form rational."""
        data = {}
        for rec in records:
            key, c = (rec["dx"], rec["dy"]), parse_rational(rec["c"])
            if not all(type(e) is int and e >= 0 for e in key) or key in data or c == 0:
                raise ValueError(f"not a wire-form term, or a repeated one: {rec!r}")
            data[key] = c
        return cls._raw(data)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Rational)):
            return self._terms == BiPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self):
        if self._terms.keys() <= {(0, 0)}:  # equals its scalar, so hashes as it
            return hash(self.coefficient(0, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dx, dy), c in sorted(self._terms.items(), reverse=True):
            mono = "".join(
                f"{v}^{d}" if d > 1 else v
                for v, d in (("x", dx), ("y", dy))
                if d > 0
            )
            if not mono:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{format_rational(c)}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
