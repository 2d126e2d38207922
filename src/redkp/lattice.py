"""Periodic lattice data and exact time evolution.

A state holds the two families of period-N slices I and V.  Advancing one
time step solves the cyclic one-step equations

    x_n = a_{n-1} + b_n - y_{n-1},      y_n = a_n b_n / x_n

(a = I-slice M steps back, b = V-slice K steps back).  In z_i = 1/(x_i - b_i)
the step is affine, z_i = (1 + b_{i-1} z_{i-1}) / a_{i-1}, with slope
prod(b)/prod(a) round the cycle.  One Horner pass gives its finite fixed
point: the eigenvalue-prod(a) branch of the 2x2 monodromy (``monodromy_closure``).
The pass carries w = p s, s the image of z = 0 and p the partial product of
a: w <- p + b_{i-1} w, then p <- p a_{i-1}.  So it makes no division and
leaves prod(a) in p, and x_N = b_N + (prod(a) - prod(b)) / w.  z = infinity
(x = b) is the excluded trivial branch of prod(b).  ``step_slices`` is that
step, the kernel, on any field.  Every step is exact, so the product
conservation laws hold with zero error.

Every value is also a ratio of four τ functions of the (M,K)-reduced
Hirota-Miwa equation (Miwa, Proc. Japan Acad. 58A (1982) 9; for M = K = 1
Hirota's discrete Toda equation, J. Phys. Soc. Jpn. 43 (1977) 2074),
integers of about half the values' height.  A state with N >= 2 whose
history is its stepping window at its first step anchors a τ chain there
(``_TauChain``): with the window slices of t's phase as the gauge,
A = A^(t mod M), B = B^(t mod K), and τ^s = 1 for the M + K generations up
to the anchor,

    I^i_t = A_i τ^{t-K}_{j+1} τ^t_j / (τ^{t-K}_j τ^t_{j+1}),
    V^i_t = B_i τ^{t-M}_j τ^t_{j+1} / (τ^{t-M}_{j+1} τ^t_j),   j = 1 - i,

and each step solves A_s τ^t_j τ^{t-M-K}_{j+1} - B_s τ^{t-M-K}_j τ^t_{j+1}
= κ_t τ^{t-K}_j τ^{t-M}_{j+1} (s = 1 - j, indices mod N) for the next τ
generation on integers, with no gcd of two full-height values.  The chain
is dropped for good once τ^{t-K} or τ^{t-M} outgrows the slices at t (as
on a window anchored deep in its orbit, or on (1,1,2), whose orbits have
period 2); every other state and step, any step whose phase has
prod(A) = prod(B) and any step with a zero τ take the kernel, so an error
keeps its type, message and step, and the slices stay the one source of
truth.

The bilinear equations confine the primes that τ^t_j shares with
τ^{t-K}_j and τ^{t-M}_j to a short known product, so from ``REFINE_BITS``
on the chain finds those same-site gcds by factor refinement over it
(``_TauChain``), linear in the τ's length where a gcd is quadratic; below
the cut the plain gcd is quicker.  The chain's step time with refinement
against plain gcds, by the larger bit length of τ^{t-K} and τ^{t-M}, over
the chains of the ``evolve-deep``, ``verify`` and ``degenerate`` draws of
bench seeds 5-7 (best of 5 per step, interleaved, Python 3.11.7, x86-64):

    τ bits from  0      100    200    300    400    500    600    1000   2000   5000
    time        x1.15  x1.06  x0.98  x0.94  x0.92  x0.90  x0.88  x0.87  x0.88  x0.93

Each generation's cycle closes on τ^t_0 = S / prod τ^{t-M-K}, an integer
on all but a few percent of steps, 151 of the 2761 past the cut in the
table below (``_TauChain``).  The exact closure (``_closure_exact``) sums
S by a Horner pass whose partial sums grow to N + 1 times τ's length,
about N^2 / 2 τ-sized products, and divides by the N τ-long product by
long division, quadratic in its length; it holds over any ring with
exact division.  From ``TWO_ADIC_BITS`` on N - 1 times the larger bit
length of τ^{t-K} and τ^{t-M}, the chain first takes the quotient
2-adically (``_closure_2adic``): an integer quotient is fixed by its
residue mod 2^k, k a bound on its length from the operands' (exact
division, Jebelean, J. Symbolic Comput. 15 (1993) 169), so the Horner
pass runs mod 2^(k+e), e the divisor's 2-adic valuation, and one Newton
inverse of the divisor's odd part gives the residue: O(N) τ-sized
products.  A quotient that is not an integer shows in the dividend's low
e bits, in the same pass mod a one-digit prime, or else in the closing
equation j = N - 1 once the recurrence has given τ^t_1 .. τ^t_{N-1}: that
equation and the N - 1 the recurrence solves make τ^t the system's one
solution, as prod A != prod B.  Any failure sends the step to the exact
closure, so both paths give every generation alike.  The closure and
recurrence's time, 2-adic path against exact, by N - 1 times the τ bit
length, over the chain steps of the ``evolve-deep`` draws below the digit
cap, of (1,1,N) draws to t = 32 for N = 6-9 and of the ``check-claims``
degenerate sweeps, for bench seeds 5-8 (best of 5 per step, Python
3.11.7, x86-64).  On N τ the break-even falls from about 6000 bits at
N = 3 to 4000 at N >= 4, and N = 2 stays slower to 6000; on (N - 1) τ it
is near 3000-4000 for every N:

    (N-1) τ bits from  2000   3000   4000   5000   6000   8000   12000  20000
    N = 2             x1.21  x1.08
    N = 3             x1.21  x1.05  x0.94  x0.88  x0.88  x0.84  x0.93
    N = 4, 5          x1.23  x0.97  x0.81  x0.73  x0.72  x0.66  x0.57  x0.50
    N >= 6            x1.33  x0.99  x0.82  x0.69  x0.62  x0.52  x0.44  x0.36
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import floordiv, mul

from . import rational
from .errors import (
    DegenerateEvolution,
    GcdViolation,
    InsufficientHistory,
    SingularStep,
    SizeMismatch,
    ZeroValue,
)
from .rational import Rational, format_rational, from_coprime, parse_rational

CASE_A = "case_a"
CASE_B = "case_b"
CASE_MIXED = "mixed"

# τ bit length from which the τ chain takes its same-site gcds by factor
# refinement (module docstring)
REFINE_BITS = 200

# N - 1 times the τ bit length from which the τ chain closes each
# generation's cycle 2-adically first (module docstring)
TWO_ADIC_BITS = 4000

# the largest prime below 2^30, one digit of CPython's ints
CHECK_PRIME = 2**30 - 35


@dataclass(frozen=True)
class LatticeParams:
    M: int
    K: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.N < 1:
            raise SizeMismatch("M, K, N must be positive")
        if gcd(self.M, self.K) != 1:
            raise GcdViolation(f"gcd(M,K) = {gcd(self.M, self.K)} != 1")

    @property
    def gcd_mkn_ok(self) -> bool:
        """Recorded, not enforced: the unique-infinity-point condition."""
        return gcd(self.M + self.K, self.N) == 1

    def factor_times(self, t: int) -> tuple:
        """The factor times of the monodromy X_t in product order, as
        (i_times, v_times): X_t = L(t-(K-1)M) ... L(t-M) L(t) R(t) R(t-K) ...
        R(t-(M-1)K), L built from V-slices and R from I-slices."""
        M, K = self.M, self.K
        return tuple(t - j * K for j in range(M)), tuple(t - j * M for j in range(K - 1, -1, -1))


def default_time(state: LatticeState, deep: bool = False) -> int:
    """Earliest time at which the monodromy X_t is constructible from the
    initial data; with ``deep``, its alternate form, the schedule at t-MK, too.
    That is enough for every check at t: X at t-K and t-M and the conjugating
    factors at t-(M-1)K and t-MK belong to schedules from t-MK on."""
    i_times, v_times = state.params.factor_times(0)
    t = max(state.i_min - min(i_times), state.v_min - min(v_times))
    return t + state.params.M * state.params.K if deep else t


def _check_values(values, n: int, label: str) -> tuple:
    vals = tuple(v if type(v) is Rational else Rational(v) for v in values)
    if len(vals) != n:
        raise SizeMismatch(f"{label}: expected {n} values, got {len(vals)}")
    if any(v == 0 for v in vals):
        raise ZeroValue(f"{label}: zero lattice value")
    return vals


def height(values) -> int:
    """The largest numerator or denominator bit length of ``values``."""
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values)


def _product(values):
    """The product of a slice's values, reduced once: a slice's factors
    cancel only when the cycle closes, so one gcd of the numerators'
    product with the denominators' beats a reduction per factor."""
    n = prod(v.numerator for v in values)
    d = prod(v.denominator for v in values)
    g = gcd(n, d)
    return from_coprime(n // g, d // g)


def monodromy_closure(a, b):
    """2x2 monodromy T of the cyclic step recursion: the reference the tests
    hold the step to, as each step's (x_N, 1) is an eigenvector of T for prod_a.

    Returns (T, prod_a, prod_b).  trace(T) == prod_a + prod_b and
    det(T) == prod_a * prod_b hold for every a and b: det T is the product
    of the per-site determinants a_{i-1} b_{i-1}, and x_i = b_i is a cyclic
    orbit of the recursion, so prod_b is an eigenvalue.
    """
    n = len(a)
    t11, t12, t21, t22 = Rational(1), Rational(0), Rational(0), Rational(1)
    for i in range(n):
        am1 = a[i - 1]
        m11, m12 = am1 + b[i], -am1 * b[i - 1]
        t11, t12, t21, t22 = (
            m11 * t11 + m12 * t21,
            m11 * t12 + m12 * t22,
            t11,
            t12,
        )
    return (t11, t12, t21, t22), _product(a), _product(b)


def step_slices(a, b, t1, product=_product) -> tuple:
    """The slices (x, y) one step after a (the I-slice M steps back) and b
    (the V-slice K steps back), the step at time t1 (module docstring).

    Only + - * /, tests against zero and ``product``, the product of a
    slice, are taken of the values, so any field serves; ``product``
    defaults to the one-gcd product of ``Rational`` slices.  The a_i b_i are
    formed once, for y and for prod(b) = prod(ab) / prod(a), as the pass
    leaves prod(a).  Raises ``DegenerateEvolution`` when the closure is not
    unique or lies at infinity, and ``SingularStep`` on a zero x_i, naming
    the step t1."""
    n = len(a)
    ab = [ai * bi for ai, bi in zip(a, b)]

    # z = 1/(x - b) goes round the cycle to (pb/pa) z + s, fixed at s / (1 - pb/pa);
    # the pass runs on w = pa*s with no division, and x - b = (pa - pb) / w
    pa, w = 1, 0
    for i in range(n):
        w = pa + b[i - 1] * w
        pa = pa * a[i - 1]
    pb = product(ab) / pa
    if pa == pb:
        raise DegenerateEvolution(
            f"prod(I) == prod(V) == {format_rational(pa)} at step {t1}: "
            "closure is not unique"
        )
    if w == 0:
        raise DegenerateEvolution(f"closure fixed point at infinity at step {t1}")
    x_last = b[n - 1] + (pa - pb) / w

    x = [None] * n
    y = [None] * n
    if x_last == 0:
        raise SingularStep(f"x_{n} = 0 at step {t1}")
    x[n - 1] = x_last
    y[n - 1] = ab[n - 1] / x_last
    for i in range(n - 1):
        xi = a[i - 1] + b[i] - y[i - 1]
        if xi == 0:
            raise SingularStep(f"x_{i + 1} = 0 at step {t1}")
        x[i] = xi
        y[i] = ab[i] / xi
    return tuple(x), tuple(y)


def _exact_quotient(num, den):
    """(q, f) with q = num f / den exact, f >= 1 the least such factor."""
    q, r = divmod(num, den)
    if not r:
        return q, 1
    f = abs(den) // gcd(r, den)
    return num * f // den, f


class _TauChain:
    """The τ functions of an (M, K) orbit with N >= 2, carried as integers,
    in the gauge of its window (module docstring).

    In the τ form x y = a b holds identically, and x_n - b_n = a_{n-1} -
    y_{n-1} holds as the equations at j = 1 - n and 2 - n share κ_t; for
    M = K = 1 V's ratio is the inverse of I's.  A scalar κ_t and one per
    generation change no ratio, so the equations run on A, B times the lcm
    of the window's denominators, and each generation is divided by its
    content.  The equations are a cyclic linear recursion in τ^t; round the
    cycle it closes on τ^t_0 = S / ((prod A - prod B) prod τ^{t-M-K}), with
    S the sum of one Horner pass, so κ = prod A - prod B and the rest
    follow by division by B_s τ^{t-M-K}_j.  These divisions are exact up to
    small factors (the Laurent phenomenon); where one is not, the
    generation and κ are scaled by the least factor that makes it so.
    prod A = prod B makes the closure zero, exactly where the kernel
    raises.  S / prod τ^{t-M-K} is taken exactly (``_closure_exact``) or,
    from ``TWO_ADIC_BITS`` on, 2-adically first (``_closure_2adic``), a
    generation the closing equation j = N - 1 then accepts or sends back
    to the exact closure (module docstring).

    The τ's stay near half the values' height, so a value is reduced by
    gcds of half-height τ's: of adjacent τ's of a generation, taken once
    as it is made, and of τ^t_j with τ^{t-K}_j and τ^{t-M}_j, each shared
    by two values.  With u = τ^t after its content g is divided out, p =
    τ^{t-M-K}, qk = τ^{t-K} and qm = τ^{t-M}, equation j reads
    g (ca_j p_{j+1} u_j - cb_j p_j u_{j+1}) = κ qk_j qm_{j+1}.  So a prime
    of qk_j and u_j divides g cb_j p_j u_{j+1}, and with it g cb_j
    gcd(p_j, qk_j) adj_j, adj_j = gcd(u_j, u_{j+1}); by equation j - 1 a
    prime of qm_j and u_j divides g ca_{j-1} gcd(p_j, qm_j) adj_{j-1}.
    gcd(p, qk) and gcd(p, qm) are the same-site gcds taken when qk and qm
    were made, kept in ``gens`` (ones for the anchor generations).  From
    ``REFINE_BITS`` on (module docstring) each same-site gcd is taken by
    ``_refined_gcd`` over that product; the adjacent gcds stay full gcds,
    as the argument needs them."""

    __slots__ = ("a", "b", "gens", "steps")

    def __init__(self, a, b):
        """``a`` and ``b``: the window's I- and V-slices in time order."""
        a = [[v.as_integer_ratio() for v in s] for s in a]
        b = [[v.as_integer_ratio() for v in s] for s in b]
        d = lcm(*(q for s in a + b for _, q in s))
        self.a, self.b = _phases(a, d), _phases(b, d)
        ones = [1] * len(a[0])
        # (τ, num, den, largest bit length of τ, same_k, same_m), oldest
        # first, with τ_j / τ_{j+1} = num_j / den_j in lowest terms and
        # same_k_j, same_m_j the gcds of τ_j with τ^{-K}_j and τ^{-M}_j
        self.gens = [(ones, ones, ones, 1, ones, ones)] * (len(a) + len(b))
        self.steps = 0

    def step(self):
        """The next slices (x, y) and whether the chain is outgrown: τ^{t-K}
        or τ^{t-M} is taller than every numerator and denominator of x and
        y.  None when the phase's closure or a τ of the new generation is
        zero."""
        M, K, gens = len(self.a), len(self.b), self.gens
        ca, pa, a = self.a[self.steps % M]
        cb, pb, b = self.b[self.steps % K]
        if pa == pb:
            return None
        p = gens[-M - K][0]
        # gcd(p_j, qk_j) and gcd(p_j, qm_j), taken when qk and qm were made
        qk, kn, kd, bits_k, _, old_m = gens[-K]
        qm, mn, md, bits_m, old_k, _ = gens[-M]
        n = len(p)
        # indices mod n: j + 1 - n is j + 1's negative index
        c = [qk[j] * qm[j + 1 - n] for j in range(n)]
        alpha = [ca[j] * p[j + 1 - n] for j in range(n)]
        beta = list(map(mul, cb, p))
        bits = max(bits_k, bits_m)
        u = None
        if (n - 1) * bits >= TWO_ADIC_BITS:
            v = _closure_2adic(alpha, beta, c, pb)
            if v is not None:
                u, kappa = _recurrence(alpha, beta, c, pa - pb, v)
                # equation n - 1, the one the recurrence does not solve
                if alpha[-1] * u[-1] - beta[-1] * u[0] != kappa * c[-1]:
                    u = None
        if u is None:
            v, f = _closure_exact(alpha, beta, c, p)
            u, kappa = _recurrence(alpha, beta, c, (pa - pb) * f, v)
        if 0 in u:
            return None
        adj = list(map(gcd, u, u[1:] + u[:1]))
        g = gcd(*adj)
        if g > 1:
            u = [w // g for w in u]
            adj = [w // g for w in adj]
        un = list(map(floordiv, u, adj))
        ud = list(map(floordiv, u[1:] + u[:1], adj))
        if bits < REFINE_BITS:
            same_k = list(map(gcd, qk, u))
            same_m = same_k if M == K else list(map(gcd, qm, u))
        else:
            # the primes the bilinear equations j and j - 1 allow (class docstring)
            same_k = [
                _refined_gcd(x, w, g * c * o * e) for x, w, c, o, e in zip(qk, u, cb, old_m, adj)
            ]
            same_m = same_k if M == K else [
                _refined_gcd(x, w, g * c * o * e)
                for x, w, c, o, e in zip(qm, u, ca[-1:] + ca[:-1], old_k, adj[-1:] + adj[:-1])
            ]
        # at index j, the gcds at site j + 1
        next_k, next_m = same_k[1:] + same_k[:1], same_m[1:] + same_m[:1]

        x, y = [None] * n, [None] * n
        outgrown = True
        for i in range(n):
            j = 1 - i  # in range(2 - n, 2) as n >= 2
            # τ^{t-K}_{j+1} τ^t_j / (τ^{t-K}_j τ^t_{j+1})
            rn, rd = _ratio(kd[j], un[j], kn[j], ud[j], next_k[j], same_k[j])
            x[i] = rational._product(*a[i], rn, rd)
            if M == K:
                y[i] = rational._product(*b[i], rd, rn)
            else:
                # τ^{t-M}_j τ^t_{j+1} / (τ^{t-M}_{j+1} τ^t_j)
                rn, rd = _ratio(mn[j], ud[j], md[j], un[j], same_m[j], next_m[j])
                y[i] = rational._product(*b[i], rn, rd)
            outgrown = outgrown and height((x[i], y[i])) < bits
        gens.append((u, un, ud, max(map(int.bit_length, u)), same_k, same_m))
        del gens[0]
        self.steps += 1
        return tuple(x), tuple(y), outgrown


def _closure_exact(alpha, beta, c, p):
    """(u_0, f): the closure u_0 = f S / prod(p) of a generation's cycle,
    f >= 1 the least factor that makes it an integer, with S = sum_j c_j
    prod_{i<j} beta_i prod_{i>j} alpha_i by one Horner pass (class
    docstring)."""
    h, m = 0, 1
    for a, b, x in zip(alpha, beta, c[:-1]):
        h = h * a + x * m
        m *= b
    return _exact_quotient(h * alpha[-1] + c[-1] * m, prod(p))


def _closure_2adic(alpha, beta, c, pb):
    """The closure S / prod(p) = S pb / prod(beta) of ``_closure_exact``,
    pb = prod(beta) / prod(p), when it is an integer, from the Horner pass
    mod 2^(k+e): e = v2(prod(beta)), and k is 2 more than a bound on the
    quotient's bit length, as |S| < n 2^top, top the largest of the terms'
    bit length bounds, and |prod(beta)| >= 2^(sum of bit lengths of beta -
    n).  None when S pb's low e bits are not zero or the residue fails the
    check mod ``CHECK_PRIME``; some other residue, rarely, when the quotient
    is not an integer."""
    n = len(beta)
    ab = [x.bit_length() for x in alpha]
    bb = [x.bit_length() for x in beta]
    top = max(x.bit_length() + sum(bb[:j]) + sum(ab[j + 1:]) for j, x in enumerate(c))
    k = max(top + n.bit_length() + pb.bit_length() + 2 + n - sum(bb), 1)
    e = sum((x & -x).bit_length() - 1 for x in beta)
    mask = (1 << k + e) - 1
    h, m = 0, 1
    for a, b, x in zip(alpha, beta, c[:-1]):
        h = (h * a + (x & mask) * m) & mask
        m = m * b & mask
    h = (h * alpha[-1] + (c[-1] & mask) * m) & mask
    v = _divide_2adic(h * pb & mask, m * beta[-1] & mask, e, k)
    if v is None:
        return None
    # the same pass mod the prime CHECK_PRIME, linear in the operands'
    # length: a residue that is not the quotient fails S pb = v prod(beta)
    # there but by a chance near 1 / CHECK_PRIME, and skips the recurrence
    h, m = 0, 1
    for a, b, x in zip(alpha, beta, c):
        h = (h * (a % CHECK_PRIME) + x % CHECK_PRIME * m) % CHECK_PRIME
        m = m * (b % CHECK_PRIME) % CHECK_PRIME
    return v if (h * pb - v * m) % CHECK_PRIME == 0 else None


def _divide_2adic(h, d, e, k):
    """h / d for an integer quotient of absolute value below 2^(k-2), from
    h and d mod 2^(k+e), e = v2(d) (exact division, Jebelean, J. Symbolic
    Comput. 15 (1993) 169): None when h's low e bits are not zero; some
    other residue when the quotient is not such an integer."""
    if h & ((1 << e) - 1):
        return None
    mask = (1 << k) - 1
    v = (h >> e) * _inverse_2adic(d >> e, k) & mask
    # the signed residue
    return v - (1 << k) if v >> (k - 1) else v


def _inverse_2adic(q, k):
    """The inverse of the odd q mod 2^k by Newton's iteration: from x q =
    1 + 2^b t mod 2^(2b), x - 2^b x t is the inverse mod 2^(2b), and q q =
    1 mod 8 starts it at b = 3."""
    # the precisions, each at most twice the last, down from k to 3
    steps = [k]
    while steps[-1] > 3:
        steps.append((steps[-1] + 1) // 2)
    x, b = q & 7, 3
    for c in reversed(steps[:-1]):
        t = ((q & ((1 << c) - 1)) * x >> b) & ((1 << c - b) - 1)
        x = (x - (x * t << b)) & ((1 << c) - 1)
        b = c
    return x & ((1 << k) - 1)


def _recurrence(alpha, beta, c, kappa, v):
    """The generation u from u_0 = v by the equations j < n - 1, alpha_j
    u_j - beta_j u_{j+1} = κ c_j, and its κ: where a quotient is not exact,
    u and κ are scaled by the least factor that makes it so."""
    u = [v]
    for a, b, x in zip(alpha, beta, c[:-1]):
        v, f = _exact_quotient(a * u[-1] - kappa * x, b)
        if f > 1:
            u = [w * f for w in u]
            kappa *= f
        u.append(v)
    return u, kappa


def _refined_gcd(x, y, base):
    """gcd(x, y) for nonzero x and y whose common primes all divide
    ``base``, by factor refinement (Bach, Driscoll and Shallit, J.
    Algorithms 15 (1993) 199): d = gcd(x, y, base), then x and y divided by
    d and d in place of ``base`` until d = 1.  Each round takes a gcd with
    a short operand, linear in x's and y's length, where gcd(x, y) is
    quadratic."""
    out = 1
    d = gcd(gcd(x, base), y)
    while d != 1:
        out *= d
        x //= d
        y //= d
        d = gcd(gcd(x, d), y)
    return out


def _phases(slices, d):
    """For each window slice, given as (numerator, denominator) pairs: the
    coefficient of each equation j, its value at site 1 - j times d, their
    product, and the pairs."""
    out = []
    for s in slices:
        coef = [n * (d // q) for n, q in s[1::-1] + s[:1:-1]]
        out.append((coef, prod(coef), s))
    return out


def _ratio(n1, n2, d1, d2, g1, g2):
    """n1 n2 / (d1 d2) in lowest terms, for n1, d1 coprime and n2, d2
    coprime, with either sign: ``rational._product`` fixes it.  g1 and g2
    are known multiples of gcd(n1, d2) and gcd(n2, d1), mostly 1 or small,
    so those gcds are taken from them."""
    if g1 != 1:
        g = gcd(gcd(n1, g1), d2)
        n1 //= g
        d2 //= g
    if g2 != 1:
        g = gcd(gcd(n2, g2), d1)
        n2 //= g
        d1 //= g
    return n1 * n2, d1 * d2


_TIME_KEY = re.compile(r"-?[0-9]+")


def _json_int(value, label: str) -> int:
    # bool is a subclass of int, and JSON true must not load as 1
    if type(value) is not int:
        raise TypeError(f"{label} must be a JSON integer, got {value!r}")
    return value


def _time_key(key) -> int:
    if not isinstance(key, str) or _TIME_KEY.fullmatch(key) is None:
        raise ValueError(f"time key {key!r} is not an integer string")
    return int(key)


def _slices(hist, label: str) -> dict:
    if type(hist) is not dict:
        raise TypeError(f"{label} must be a JSON object, got {type(hist).__name__}")
    out = {}
    for key, vals in hist.items():
        t = _time_key(key)
        if t in out:
            raise ValueError(f"{label} time key {key!r} repeats time {t}")
        if type(vals) is not list:
            # a string would iterate as one rational per character
            raise TypeError(f"{label}[{key!r}] must be a JSON list, got {type(vals).__name__}")
        out[t] = [parse_rational(v) for v in vals]
    return out


def _unique_keys(pairs) -> dict:
    # json.load keeps the last of repeated keys; a state file must not repeat one
    out = {}
    for key, value in pairs:
        if key in out:
            raise SizeMismatch(f"malformed state file: repeated key {key!r}")
        out[key] = value
    return out


class LatticeState:
    """History of I/V slices with an advancing frontier, plus a cache of the
    objects derived from it (``built``), valid until ``prune_below``.

    The cache holds the slice products and site invariants, each under its
    own time, so the special points, ``classify_case`` and ``verify`` share
    them.  A slice never changes once written, so an entry stays right
    until pruning; the step neither reads nor fills the cache, so no value
    is carried from one time to the next.  The step's τ chain (module
    docstring) carries τ's, which the slices are read off, and no value.

    A state is exclusively owned while being advanced.  ``copy()`` snapshots
    may be read concurrently; reading one fills its own cache, so two readers
    may build the same object twice.
    """

    def __init__(self, params: LatticeParams, i_hist: dict, v_hist: dict, frontier: int):
        self.params = params
        self._i = dict(i_hist)
        self._v = dict(v_hist)
        self.frontier = frontier
        self._built = {}
        self._tau = None  # the τ chain: None before the first step, False off it

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, params: LatticeParams, i_slices, v_slices) -> "LatticeState":
        M, K, N = params.M, params.K, params.N
        i_hist = {int(t): _check_values(vals, N, f"I[{t}]") for t, vals in dict(i_slices).items()}
        v_hist = {int(t): _check_values(vals, N, f"V[{t}]") for t, vals in dict(v_slices).items()}
        if len(i_hist) < M or len(v_hist) < K:
            raise SizeMismatch(
                f"need at least {M} I-slices and {K} V-slices, "
                f"got {len(i_hist)} and {len(v_hist)}"
            )
        fi, fv = max(i_hist), max(v_hist)
        if fi != fv:
            raise SizeMismatch(f"I and V windows end at different times ({fi} vs {fv})")
        for t in range(min(i_hist), fi + 1):
            if t not in i_hist:
                raise SizeMismatch(f"I history has a gap at time {t}")
        for t in range(min(v_hist), fv + 1):
            if t not in v_hist:
                raise SizeMismatch(f"V history has a gap at time {t}")
        return cls(params, i_hist, v_hist, fi)

    def copy(self) -> "LatticeState":
        return LatticeState(self.params, self._i, self._v, self.frontier)

    # -- access ---------------------------------------------------------------

    @property
    def i_min(self) -> int:
        return min(self._i)

    @property
    def v_min(self) -> int:
        return min(self._v)

    def _get(self, hist: dict, kind: str, t: int) -> tuple:
        if t > self.frontier:
            self.evolve_to(t)
        try:
            return hist[t]
        except KeyError:
            raise InsufficientHistory(
                f"{kind}-slice at time {t} predates the initial data"
            ) from None

    def i_slice(self, t: int) -> tuple:
        return self._get(self._i, "I", t)

    def v_slice(self, t: int) -> tuple:
        return self._get(self._v, "V", t)

    def i_product(self, t: int):
        return self.built(("i_product", t), lambda: _product(self.i_slice(t)))

    def v_product(self, t: int):
        return self.built(("v_product", t), lambda: _product(self.v_slice(t)))

    def times(self, kind: str):
        hist = self._i if kind == "I" else self._v
        return sorted(hist)

    def built(self, key, build):
        """The derived object under ``key``, made by ``build()`` on first use.
        A key names everything the object depends on, its times included;
        ``copy()`` starts empty and ``prune_below`` clears it."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    # -- evolution --------------------------------------------------------------

    def step(self) -> "LatticeState":
        """Write the slices at t = frontier + 1.  A state with N >= 2 whose
        history is its stepping window at its first step anchors a
        ``_TauChain`` there, in the gauge A = A^(t mod M), B = B^(t mod K)
        of the window slices and τ = 1 on the M + K generations up to it,
        and reads each slice off three τ generations,

            I^i_t = A_i τ^{t-K}_{j+1} τ^t_j / (τ^{t-K}_j τ^t_{j+1}),
            V^i_t = B_i τ^{t-M}_j τ^t_{j+1} / (τ^{t-M}_{j+1} τ^t_j),  j = 1 - i,

        each generation solving A_s τ^t_j τ^{t-M-K}_{j+1} - B_s τ^{t-M-K}_j
        τ^t_{j+1} = κ_t τ^{t-K}_j τ^{t-M}_{j+1}, s = 1 - j.  The chain is
        dropped for good once τ^{t-K} or τ^{t-M} outgrows the slices at t.
        Every other state and step, any step whose phase has prod(A) ==
        prod(B) and any step with a zero τ take ``step_slices``, so each
        error keeps its type, message and step.  The step neither reads nor
        fills the ``built`` cache."""
        t1 = self.frontier + 1
        M, K = self.params.M, self.params.K
        if self._tau is None:
            self._tau = (
                self.params.N >= 2
                and len(self._i) == M
                and len(self._v) == K
                and _TauChain(
                    [self._i[t1 - M + r] for r in range(M)],
                    [self._v[t1 - K + r] for r in range(K)],
                )
            )
        out = self._tau.step() if self._tau else None
        if out is None:
            self._tau = False
            x, y = step_slices(self._i[t1 - M], self._v[t1 - K], t1)
        else:
            x, y, outgrown = out
            if outgrown:
                self._tau = False
        self._i[t1] = x
        self._v[t1] = y
        self.frontier = t1
        return self

    def evolve_to(self, target: int) -> "LatticeState":
        while self.frontier < target:
            self.step()
        return self

    def prune_below(self, floor: int) -> "LatticeState":
        """Drop slices strictly below ``floor``.  The history is unbounded by
        default; after pruning, a request below the floor raises
        InsufficientHistory rather than recomputing silently.  The stepping
        windows themselves are never evicted."""
        keep = min(self.frontier - self.params.M + 1, self.frontier - self.params.K + 1)
        floor = min(floor, keep)
        self._i = {t: v for t, v in self._i.items() if t >= floor}
        self._v = {t: v for t, v in self._v.items() if t >= floor}
        self._built.clear()
        return self

    # -- invariants ------------------------------------------------------------

    def site_invariants(self, t: int | None = None) -> tuple:
        """The N per-site conserved products (the diagonal of the monodromy at y=0).

        U_j multiplies the site-j values of every factor slice of X_t
        (``LatticeParams.factor_times``), at t or by default at the frontier;
        this product is exactly invariant in t, so any time from
        ``default_time`` on gives the same tuple.  Cached under its time.
        """
        if t is None:
            t = self.evolve_to(default_time(self)).frontier
        return self.built(("site_invariants", t), lambda: self._site_invariants(t))

    def _site_invariants(self, t: int) -> tuple:
        i_times, v_times = self.params.factor_times(t)
        slices = [self.i_slice(s) for s in i_times] + [self.v_slice(s) for s in v_times]
        # reduced factor by factor: a site column's neighbours cancel
        # pairwise, so each partial product stays short
        return tuple(prod((v[j] for v in slices), start=Rational(1)) for j in range(self.params.N))

    def classify_case(self) -> str:
        u = self.site_invariants()
        if all(v == u[0] for v in u):
            return CASE_B
        if len(set(u)) == len(u):
            return CASE_A
        return CASE_MIXED

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "M": self.params.M,
            "K": self.params.K,
            "N": self.params.N,
            "frontier": self.frontier,
            "I": {str(t): [format_rational(v) for v in vals] for t, vals in sorted(self._i.items())},
            "V": {str(t): [format_rational(v) for v in vals] for t, vals in sorted(self._v.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticeState":
        try:
            params = LatticeParams(*(_json_int(data[key], key) for key in ("M", "K", "N")))
            i_slices = _slices(data["I"], "I")
            v_slices = _slices(data["V"], "V")
            frontier = _json_int(data["frontier"], "frontier")
        except (KeyError, TypeError, ValueError) as exc:
            raise SizeMismatch(f"malformed state file: {exc}") from exc
        state = cls.create(params, i_slices, v_slices)
        if state.frontier != frontier:
            raise SizeMismatch(
                f"frontier {frontier} does not match slice windows (expected {state.frontier})"
            )
        return state

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=None, sort_keys=False)

    @classmethod
    def loads(cls, text: str) -> "LatticeState":
        """Parse a state file; a JSON object that repeats a key is rejected."""
        return cls.from_json_dict(json.loads(text, object_pairs_hook=_unique_keys))


# Constructors ----------------------------------------------------------------------


def new_state(params: LatticeParams, i_slices, v_slices) -> LatticeState:
    return LatticeState.create(params, i_slices, v_slices)


def uniform_state(params: LatticeParams, i_value, v_value) -> LatticeState:
    """All-sites-equal data ending at t = 0; handy fixed point of the evolution."""
    i_val, v_val = Rational(i_value), Rational(v_value)
    i_slices = {-r: [i_val] * params.N for r in range(params.M)}
    v_slices = {-r: [v_val] * params.N for r in range(params.K)}
    return LatticeState.create(params, i_slices, v_slices)
