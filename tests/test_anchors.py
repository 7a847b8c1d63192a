"""Anchors from outside the package: published closed forms and symmetries of U(a1, a2).

Cubre and Rouse (Proc. AMS 142, 2014) give the density of primes p whose
Fibonacci rank of appearance is divisible by d in closed form.  Independently
of any table, U(k*a1, k^2*a2) has root quotient gamma for k > 0 and its
conjugate (gamma's inverse, which has the same orders) for k < 0, so every
such pair must share the density of (a1, a2) at every d.  On the counter the
rank is the same at every prime p not dividing k, so the counts agree once the
primes of k, which the scaled pair excludes, come out of the base's.
"""

from fractions import Fraction

import pytest

from lucasdensity.arith import factorize, jacobi
from lucasdensity.density import dispatch
from lucasdensity.lucasrank import empirical_density, rank
from lucasdensity.quadfield import make_context, qf_conj


def _cubre_rouse(d: int) -> Fraction:
    """c(d) * prod over q^k || d of q^(2-k) / (q^2 - 1) for the Fibonacci sequence."""
    if d % 20 == 0:
        out = Fraction(1, 2)
    elif d % 20 == 10:
        out = Fraction(5, 4)
    else:
        out = Fraction(1)
    for q, k in factorize(d):
        out *= Fraction(q * q, q ** k * (q * q - 1))
    return out


def test_fibonacci_matches_cubre_rouse():
    fib = make_context(1, -1)
    bad = [d for d in range(1, 1001) if dispatch(fib, d).delta != _cubre_rouse(d)]
    assert not bad, bad[:10]


@pytest.mark.parametrize("a1, a2", [(1, -1), (2, -1), (1, 3), (5, 3)])
def test_scaled_and_sign_flipped_pairs_share_the_density(a1, a2):
    base = make_context(a1, a2)
    for k in (-3, -2, -1, 2, 3):
        ctx = make_context(k * a1, k * k * a2)
        assert ctx.delta == k * k * base.delta and ctx.disc_k == base.disc_k
        assert ctx.gamma == (base.gamma if k > 0 else qf_conj(base.gamma)), k
        for d in range(1, 121):
            assert dispatch(ctx, d).delta == dispatch(base, d).delta, (k, d)


@pytest.mark.parametrize("a1, a2", [(1, -1), (2, -1), (1, 3), (5, 3)])
def test_scaled_and_sign_flipped_pairs_share_the_counts(a1, a2):
    x = 10**5
    base = make_context(a1, a2)
    reports = {d: empirical_density(base, d, x) for d in range(1, 13)}
    for k in (-1, 2, 3):
        ctx = make_context(k * a1, k * k * a2)
        # the primes of k outside the base's excluded locus 2*a2*delta, with
        # their rank and character in the base sequence
        dropped = [(rank(p, base), jacobi(base.delta % p, p))
                   for p, _ in factorize(abs(k)) if 2 * a2 * base.delta % p]
        for d, want in reports.items():
            got = empirical_density(ctx, d, x)
            hits = [chi for r, chi in dropped if r % d == 0]
            assert (got.eligible, got.counted, got.counted_plus) == (
                want.eligible - len(dropped), want.counted - len(hits),
                want.counted_plus - hits.count(1)), (k, d)
