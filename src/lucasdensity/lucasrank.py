"""Empirical side: prime sieving, rank of appearance, and density estimates.

The rank of appearance of a prime p in the recurrence U(a1, a2) is the least
n >= 1 with p | U_n.  For p not dividing 2*a2*Delta it equals the
multiplicative order of the norm-1 root quotient gamma modulo a prime above p,
which is also the form used for elements given directly as u + v*sqrt(disc).
quadfield.root_quotient refuses any other input before a prime is touched.
Both inputs therefore reduce to one Lucas-V chain in t = tr(gamma) mod p:
V_n(t) = gamma^n + gamma^-n, and gamma^n = 1 exactly when V_n(t) = 2.  The
order divides m = p - chi(p), with chi(p) the Legendre symbol (D/p) of the
discriminant D, so d | rank(p) is decided without factoring m: for each
q^k || d, q^k must divide m and gamma^m' must differ from 1, where m' is m with
its q-part cut down to q^(k-1).

The counter needs only the primes.  They come from spf_sieve, the package's one
source of primes: a sieve of Eratosthenes over the odd numbers that keeps its
last sieve, so counts at one x share it.  The counter works on a chunk of them
at a time in numpy int64.  The primes of the excluded locus (2*a2*Delta, or
2*D*b*c for an element (a + b*sqrt(D))/c) drop out by one residue test per
chunk, with no factoring; the rest are eligible.  As m is p - 1 or p + 1, a prime can count only if
p = +-1 mod q^k for every q^k || d, and the others leave before any ladder
runs.  The survivors get chi(p) and t from one power ladder: with t = num/den
and b = D*den^2, f = b^((p-3)/2) satisfies f*b = chi(p), den^2 being a square,
and chi(p)*f*D*den = 1/den.  One mask then keeps the primes with q^k | m for
every q^k, and the Lucas-V ladders run largest q^k first, each on the primes
the mask and the ladders before it kept.  The q-part of m is cut with no loop
over the primes: by the lowest set bit for q = 2, and over a shrinking set of
still divisible entries for odd q.  The ladders select each step by arithmetic
on the 0/1 bit rather than np.where.  A d with some q^k > x + 1 counts nothing,
since no p <= x has q^k | p +- 1, and its q^k may not fit in int64.

rank() and dump_ranks() run the full order descent on the scalar chain, over
the primes of m from arith.factorize, so they reach any prime.  The dump is a
separate pass over the same eligible primes, from the same kept sieve, and
takes no part in the count.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .arith import (factorize, is_probable_prime, jacobi, prime_factors, validate_int,
                    validate_positive)
from .errors import LimitError, LucasDensityError
from .quadfield import SequenceContext, Target, qf_trace, root_quotient

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that count, so that the exact layer
# (dispatch and the CLI's exact subcommands) runs without loading it.

# A sieve past this ceiling is almost certainly a mistyped limit rather than a
# real request.  It also keeps every prime below 2^28, so int64 never overflows
# in the vectorised residues (r * 2^24 + limb) and ladders (a product of two
# residues).
SIEVE_CEILING = 200_000_000

# Primes per vectorised pass: the temporaries stay a few MB whatever x is.
CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# prime sieve
# ---------------------------------------------------------------------------


def spf_sieve(limit: int) -> np.ndarray:
    """Every prime in 2..limit, ascending, as a read-only int64 array.

    The last sieve is kept, so calls at one limit share it.
    """
    validate_positive(limit=limit)
    if limit < 2:
        raise LimitError(f"sieve limit must be at least 2, got {limit}")
    if limit > SIEVE_CEILING:
        raise LimitError(f"sieve limit {limit} exceeds the ceiling {SIEVE_CEILING}")
    return _sieve(limit)


# The checks above stay outside the cache: 1000.0 == 1000 and hashes alike, and
# a lowered SIEVE_CEILING must refuse a limit sieved before.
@functools.lru_cache(maxsize=1)
def _sieve(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes over the odd numbers."""
    import numpy as np
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1
    odd[0] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    primes = np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64, copy=False)
    primes.flags.writeable = False  # every caller shares it
    return primes


# ---------------------------------------------------------------------------
# the Lucas-V chain
# ---------------------------------------------------------------------------


def lucas_v_mod(n: int, p: int, trace: Union[Fraction, int]) -> int:
    """V_n(t) mod p for V_0 = 2, V_1 = t, V_{k+1} = t*V_k - V_{k-1}, t = trace mod p.

    A ladder over the bits of n, O(log n) steps.  For t = tr(gamma) with
    N(gamma) = 1, V_n(t) = gamma^n + gamma^-n.
    """
    if n < 0:
        raise LucasDensityError(f"index must be nonnegative, got {n}")
    if p < 3 or trace.denominator % p == 0:
        raise LucasDensityError(
            f"p = {p} must be odd and prime to the denominator of the trace {trace}"
        )
    t = trace.numerator * pow(trace.denominator, -1, p) % p
    v0, v1 = 2, t  # (V_k, V_{k+1}), k = the bits of n read so far
    for bit in bin(n)[2:]:
        if bit == "1":
            v0, v1 = (v0 * v1 - t) % p, (v1 * v1 - 2) % p
        else:
            v0, v1 = (v0 * v0 - 2) % p, (v0 * v1 - t) % p
    return v0


def _residues(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p for every entry of p, exact for integers of any size."""
    import numpy as np
    mag = abs(n)
    r = np.zeros_like(p)
    for shift in range(24 * ((mag.bit_length() - 1) // 24), -1, -24):
        r = (r * (1 << 24) + ((mag >> shift) & 0xFFFFFF)) % p
    return r if n >= 0 else (p - r) % p


# The ladders select by arithmetic on the 0/1 bit: np.where costs more than an
# int64 %.  Every product stays below p^2 < 2^56.


def _pow_many(base: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^e mod p elementwise, with a separate exponent for every entry."""
    import numpy as np
    out = np.ones_like(p)
    for j in range(int(e.max()).bit_length()):
        out = out * (1 + ((e >> j) & 1) * (base - 1)) % p
        base = base * base % p
    return out


def _lucas_v_many(n: np.ndarray, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """lucas_v_mod elementwise over residues t, with a separate n for every entry."""
    import numpy as np
    v0, v1 = np.full_like(t, 2), t
    for j in range(int(n.max()).bit_length() - 1, -1, -1):
        bit = (n >> j) & 1
        cross = (v0 * v1 - t) % p
        a = v0 + bit * (v1 - v0)
        square = (a * a - 2) % p
        v0 = square + bit * (cross - square)
        v1 = cross + square - v0
    return v0


def _chi_and_trace(num: int, den: int, char_disc: int, p: np.ndarray) -> tuple:
    """(chi(p), num/den mod p) for odd primes p prime to char_disc * den, by one ladder."""
    import numpy as np
    den_r = _residues(den, p)
    disc_den = _residues(char_disc, p) * den_r % p
    b = disc_den * den_r % p
    f = _pow_many(b, (p - 3) // 2, p)
    chi = f * b % p  # 1 or p - 1
    t = _residues(num, p) * chi % p * f % p * disc_den % p
    return np.where(chi == 1, 1, -1), t


# ---------------------------------------------------------------------------
# rank of appearance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Chain:
    """What the counter and rank() need of a target, computed once per target."""

    trace: Fraction  # t = tr(gamma), the V-chain parameter
    char_disc: int  # chi(p) is its Legendre symbol mod p
    locus: int  # the excluded primes are the ones dividing it


def _chain(target: Target) -> _Chain:
    gamma = root_quotient(target, "rank")
    if isinstance(target, SequenceContext):
        char_disc, locus = target.delta, 2 * target.a2 * target.delta
    else:
        (_, b, c), char_disc = gamma.abc, gamma.disc_k
        locus = 2 * char_disc * b * c
    return _Chain(trace=qf_trace(gamma), char_disc=char_disc, locus=locus)


def _order(p: int, m: int, trace: Fraction) -> int:
    """Order of gamma above p, by descent from its multiple m = p - chi(p)."""
    order = m
    for q in prime_factors(m):
        while order % q == 0 and lucas_v_mod(order // q, p, trace) == 2:
            order //= q
    return order


def rank(p: int, target: Target) -> int:
    """Least n >= 1 with p | U_n, equivalently the order of gamma above p."""
    validate_positive(p=p)
    if p < 3 or not is_probable_prime(p):
        raise LucasDensityError(f"rank needs an odd prime, got {p}")
    chain = _chain(target)
    if chain.locus % p == 0:
        raise LucasDensityError(f"p = {p} divides the excluded locus of the input")
    return _order(p, p - jacobi(chain.char_disc % p, p), chain.trace)


# ---------------------------------------------------------------------------
# empirical densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalReport:
    """Counts and ratios of primes p <= x with d | rank(p).

    counted_minus and the ratios over eligible (0 when none is) are derived.
    """

    d: int
    x: int
    counted: int
    counted_plus: int
    counted_minus: int = field(init=False)
    eligible: int
    ratio: Fraction = field(init=False)
    ratio_plus: Fraction = field(init=False)
    ratio_minus: Fraction = field(init=False)

    def __post_init__(self) -> None:
        validate_positive(**{f"EmpiricalReport.{n}": getattr(self, n) for n in ("d", "x")})
        validate_int(**{f"EmpiricalReport.{n}": getattr(self, n)
                        for n in ("counted", "counted_plus", "eligible")})
        if not 0 <= self.counted_plus <= self.counted <= self.eligible:
            raise LucasDensityError(f"EmpiricalReport needs 0 <= counted_plus={self.counted_plus}"
                                    f" <= counted={self.counted} <= eligible={self.eligible}")
        object.__setattr__(self, "counted_minus", self.counted - self.counted_plus)
        over = self.eligible or 1  # every count is 0 when eligible is
        object.__setattr__(self, "ratio", Fraction(self.counted, over))
        object.__setattr__(self, "ratio_plus", Fraction(self.counted_plus, over))
        object.__setattr__(self, "ratio_minus", Fraction(self.counted_minus, over))


def _divisible(
    t: np.ndarray, m: np.ndarray, p: np.ndarray, powers: list[tuple[int, int]]
) -> np.ndarray:
    """d | order of gamma for every prime, given (q, q^k) for each q^k || d."""
    import numpy as np
    hit = np.ones(len(p), dtype=bool)
    for _, qk in powers:
        hit &= m % qk == 0
    for q, qk in sorted(powers, key=lambda power: power[1], reverse=True):
        idx = np.flatnonzero(hit)
        if not len(idx):
            break
        cut = m[idx] // qk
        if q == 2:
            cut //= cut & -cut
        else:
            live = np.flatnonzero(cut % q == 0)
            while len(live):
                cut[live] //= q
                live = live[cut[live] % q == 0]
        # m' = the q-free part of m times q^(k-1)
        hit[idx] = _lucas_v_many(cut * (qk // q), t[idx], p[idx]) != 2
    return hit


def empirical_density(target: Target, d: int, x: int) -> EmpiricalReport:
    """Count primes p <= x with d | rank(p), split by the character of p."""
    validate_positive(d=d, x=x)
    chain = _chain(target)
    primes = spf_sieve(max(x, 2))  # at x = 1 the one prime, 2, divides the locus
    powers = [(q, q**k) for q, k in factorize(d)]
    reachable = all(qk <= x + 1 for _, qk in powers)
    trace = chain.trace

    counted = plus = eligible = 0
    for lo in range(0, len(primes), CHUNK):
        p = primes[lo : lo + CHUNK]
        p = p[_residues(chain.locus, p) != 0]  # 2 divides the locus
        eligible += len(p)
        if not reachable:
            continue
        for _, qk in powers:  # q^k | p - chi(p) needs p = +-1 mod q^k
            res = p % qk
            p = p[(res == 1) | (res == qk - 1)]
        if not len(p):  # the ladders need at least one prime
            continue
        chi, t = _chi_and_trace(trace.numerator, trace.denominator, chain.char_disc, p)
        hit = _divisible(t, p - chi, p, powers)
        counted += int(hit.sum())
        plus += int((hit & (chi == 1)).sum())
    return EmpiricalReport(d, x, counted, plus, eligible)


def dump_ranks(target: Target, d: int, x: int, path: str) -> None:
    """Write a ``p,rank,jacobi,divisible`` CSV row for every eligible prime p <= x.

    The rows come from the scalar Legendre symbol and the order descent that
    rank() uses, so the ``divisible`` column sums to empirical_density's count.
    """
    validate_positive(d=d, x=x)
    chain = _chain(target)
    primes = spf_sieve(max(x, 2)).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "rank", "jacobi", "divisible"])
        for p in primes:
            if chain.locus % p:
                side = jacobi(chain.char_disc % p, p)
                r = _order(p, p - side, chain.trace)
                writer.writerow((p, r, side, int(r % d == 0)))
