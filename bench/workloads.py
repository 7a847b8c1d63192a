"""Seeded inputs for the benchmark workloads.

Nothing here imports lucasdensity: every input is built from plain integers
and fractions, so one seed gives the same inputs on every commit.  The
composition of each workload is fixed; the seed picks only its members.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

D_MAX = 60  # exact ops take d from 1..D_MAX, so odd d reaches the oracle

# One exact_fresh block: stratum -> ops per block.  The counts are fixed
# because the per-op cost differs by two orders of magnitude between strata
# (a Gaussian element's quartic conductor against a random pair's quick
# route), so sampling them would move the median from seed to seed.
FRESH_BLOCK = (("pair", 34), ("powered", 10), ("gauss", 8), ("eisen", 8))
PAIR_BITS = 32  # |a1|, |a2| log-uniform below 2**32
POWERED_H = (2, 3, 4, 6, 8)
POWERED_BITS = 32  # base coefficients below 2**(POWERED_BITS // h)
FIELD_BITS = 8  # Gaussian/Eisenstein base a + b*w with |a|, b below 2**8
FIELD_H = (1, 2, 3, 4)
# A draw that keeps meeting used elements widens its range by one bit per
# this many tries, so a long or fast run cannot exhaust a small stratum.
WIDEN_AFTER = 64

# verify_1e6 draws one member from each pool; the Fibonacci pair keeps the
# coefficient-pair rank path in every run
FIB_D = (2, 3, 4, 5, 6, 8, 12)
VERIFY_KINDS = ("pair", "real", "gauss", "eisen")

Elem = tuple  # (disc, u, v): u + v*sqrt(disc) with Fraction u, v


@dataclass(frozen=True)
class ExactOp:
    """One dispatch(target, d): target is ("pair", a1, a2) or ("elem", disc, u, v)."""

    stratum: str
    target: tuple
    d: int


# ---------------------------------------------------------------------------
# quadratic-field arithmetic on (disc, u, v) triples


def _mul(x: Elem, y: Elem) -> Elem:
    disc, u1, v1 = x
    _, u2, v2 = y
    return (disc, u1 * u2 + disc * v1 * v2, u1 * v2 + u2 * v1)


def _pow(x: Elem, n: int) -> Elem:
    out = (x[0], Fraction(1), Fraction(0))
    for _ in range(n):
        out = _mul(out, x)
    return out


def _torsion_generator(disc: int) -> Elem:
    if disc == -4:
        return (disc, Fraction(0), Fraction(1, 2))  # i
    if disc == -3:
        return (disc, Fraction(1, 2), Fraction(1, 2))  # primitive sixth root
    return (disc, Fraction(-1), Fraction(0))


def _torsion_order(disc: int) -> int:
    return {-4: 4, -3: 6}.get(disc, 2)


def twist_traces(x: Elem) -> set:
    """Traces of every torsion twist of a norm-1 element.

    A norm-1 element is fixed up to conjugation by its trace, and the package
    caches per element and per normal-form twist, so two inputs whose twist
    traces meet could share a cache entry.
    """
    gen = _torsion_generator(x[0])
    out = set()
    for _ in range(_torsion_order(x[0])):
        out.add(2 * x[1])
        x = _mul(gen, x)
    return out


def _is_torsion_trace(t: Fraction) -> bool:
    # a norm-1 element is a root of unity iff it is integral, i.e. t in Z,
    # and |t| <= 2
    return t.denominator == 1 and abs(t) <= 2


# ---------------------------------------------------------------------------
# exact_fresh


def _log_uniform(rng: random.Random, bits: int) -> int:
    return int(2 ** rng.uniform(0, bits))


def _signed(rng: random.Random, bits: int) -> int:
    return _log_uniform(rng, bits) * rng.choice((1, -1))


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _pair_trace(a1: int, a2: int) -> Optional[Fraction]:
    """Trace of the root quotient, or None when the pair is out of stratum.

    Out of stratum: a zero parameter, a characteristic polynomial that splits
    over Q, a root of unity, or a Gaussian/Eisenstein field (those fields
    have their own strata).
    """
    if a1 == 0 or a2 == 0:
        return None
    delta = a1 * a1 - 4 * a2
    if _is_square(delta) or _is_square(-delta) or (-delta % 3 == 0 and _is_square(-delta // 3)):
        return None
    t = Fraction(a1 * a1, a2) - 2
    return None if _is_torsion_trace(t) else t


def lucas_v(h: int, b1: int, b2: int) -> int:
    """V_h of the recurrence (b1, b2): V_0 = 2, V_1 = b1."""
    v0, v1 = 2, b1
    for _ in range(h):
        v0, v1 = v1, b1 * v1 - b2 * v0
    return v0


def _field_base(rng: random.Random, disc: int, bits: int) -> Elem:
    """(a + b*w) / conj(a + b*w), w = i or (-1 + sqrt(-3))/2, gcd(a, b) = 1."""
    while True:
        a, b = _signed(rng, bits), _log_uniform(rng, bits)
        if math.gcd(a, b) != 1:
            continue
        if disc == -4:
            p, q = Fraction(a), Fraction(b, 2)  # a + b*i = p + q*sqrt(-4)
        else:
            p, q = Fraction(2 * a - b, 2), Fraction(b, 2)
        norm = p * p - disc * q * q
        return (disc, (p * p + disc * q * q) / norm, 2 * p * q / norm)


class FreshStream:
    """Endless exact_fresh blocks; no element (or twist of one) repeats."""

    def __init__(self, seed: int, reserved: Iterable[Elem] = ()):
        self.rng = random.Random(seed)
        self.seen: set = set()
        for x in reserved:
            self.seen |= twist_traces(x)
        self.slots = {name: 0 for name, _ in FRESH_BLOCK}
        self.pattern = block_pattern()
        self.blocks = 0

    def _fresh(self, traces: set) -> bool:
        if traces & self.seen:
            return False
        self.seen |= traces
        return True

    def _pair(self) -> tuple:
        for tries in itertools.count():
            bits = PAIR_BITS + tries // WIDEN_AFTER
            a1, a2 = _signed(self.rng, bits), _signed(self.rng, bits)
            t = _pair_trace(a1, a2)
            if t is not None and self._fresh({t, -t}):
                return ("pair", a1, a2)

    def _powered(self, h: int) -> tuple:
        for tries in itertools.count():
            bits = POWERED_BITS // h + tries // WIDEN_AFTER
            b1, b2 = _signed(self.rng, bits), _signed(self.rng, bits)
            if _pair_trace(b1, b2) is None:
                continue
            a1, a2 = lucas_v(h, b1, b2), b2**h
            t = Fraction(a1 * a1, a2) - 2
            if self._fresh({t, -t}):
                return ("pair", a1, a2)

    def _element(self, disc: int, h: int, j: int) -> tuple:
        for tries in itertools.count():
            base = _field_base(self.rng, disc, FIELD_BITS + tries // WIDEN_AFTER)
            x = _mul(_pow(_torsion_generator(disc), j), _pow(base, h))
            if not _is_torsion_trace(2 * x[1]) and self._fresh(twist_traces(x)):
                return ("elem",) + x

    def _target(self, stratum: str) -> tuple:
        k = self.slots[stratum]
        self.slots[stratum] += 1
        if stratum == "pair":
            return self._pair()
        if stratum == "powered":
            return self._powered(POWERED_H[k % len(POWERED_H)])
        disc = -4 if stratum == "gauss" else -3
        # h cycles fastest, then the twist, so every (h, twist) pair recurs
        return self._element(disc, FIELD_H[k % len(FIELD_H)],
                             k // len(FIELD_H) % _torsion_order(disc))

    def block(self) -> list:
        # d is fixed by position and block number, not by the seed: which d
        # meets which stratum moves the cost as much as the stratum does.
        # Each block holds every d once; a position steps through all d
        # over D_MAX blocks.
        k = self.blocks
        self.blocks += 1
        return [ExactOp(s, self._target(s), (7 * i + 11 * k) % D_MAX + 1)
                for i, s in enumerate(self.pattern)]

    def __iter__(self) -> Iterator[list]:
        while True:
            yield self.block()


def block_pattern() -> list:
    """Stratum of each position in a block, spread evenly over the block."""
    keyed = [((k + 0.5) / n, i, name)
             for i, (name, n) in enumerate(FRESH_BLOCK) for k in range(n)]
    return [name for _, _, name in sorted(keyed)]


# ---------------------------------------------------------------------------
# exact_sweep and verify_1e6


def sweep_plan(seed: int, n_fixed: int, reserved: Iterable[Elem] = ()) -> tuple:
    """Two seeded coefficient pairs, and the shuffled (element index, d) order.

    Elements 0..n_fixed-1 are the caller's fixed ones; the pairs follow.
    """
    stream = FreshStream(seed, reserved)
    pairs = [stream._pair(), stream._pair()]
    order = [(i, d) for i in range(n_fixed + len(pairs)) for d in range(1, D_MAX + 1)]
    stream.rng.shuffle(order)
    return pairs, order


def verify_plan(seed: int, pools: dict) -> list:
    """One member per kind in VERIFY_KINDS, drawn from the caller's pools."""
    rng = random.Random(seed)
    return [(kind, rng.choice(pools[kind])) for kind in VERIFY_KINDS]
