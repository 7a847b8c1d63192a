"""Exact arithmetic in real and imaginary quadratic fields.

Elements are stored over the fundamental discriminant of their field.  On top
of the field arithmetic this module builds the three nontrivial computations
everything else depends on: exact n-th-power testing (p-adic candidates from
Hensel lifting and rational reconstruction, exact certificates), fundamental
units by continued fractions, and the power index of a norm-one element under
all torsion twists.  root_quotient is the one check of what a target is, for
the power index, the counter and the CLI.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .arith import (divisors, factorize, is_probable_prime, jacobi, prime_factors,
                    squarefree_kernel, validate_int)
from .errors import (
    DiscMismatchError,
    DivisionByZeroError,
    LucasDensityError,
    ReducibleError,
    TorsionError,
    ZeroParameterError,
)

# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadElem:
    """u + v*sqrt(disc_k): an int fundamental discriminant, int or Fraction u and v."""

    disc_k: int
    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        validate_int(disc_k=self.disc_k)
        for name in ("u", "v"):
            val = getattr(self, name)
            if not isinstance(val, Fraction):
                if not isinstance(val, int) or isinstance(val, bool):
                    raise LucasDensityError(
                        f"QuadElem.{name} must be an int or a Fraction, got {val!r}")
                object.__setattr__(self, name, Fraction(val))
        d = self.disc_k
        if d % 4 not in (0, 1) or d == 0:
            raise LucasDensityError(f"not a discriminant: {d}")
        if d > 0 and math.isqrt(d) ** 2 == d:
            raise LucasDensityError(f"square discriminant: {d}")

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.disc_k, -self.u, -self.v)

    def __str__(self) -> str:
        """ASCII form (a+b*sqrt(D))/c over the common denominator; b always shown."""
        c = math.lcm(self.u.denominator, self.v.denominator)
        a, b = self.u * c, self.v * c
        core = f"{a}{'+' if b >= 0 else '-'}{abs(b)}*sqrt({self.disc_k})"
        return f"({core})/{c}" if c != 1 else core


def qf_one(disc_k: int) -> QuadElem:
    return QuadElem(disc_k, Fraction(1), Fraction(0))


def qf_norm(x: QuadElem) -> Fraction:
    """Field norm: u**2 - disc_k * v**2."""
    return x.u * x.u - x.disc_k * x.v * x.v


def qf_trace(x: QuadElem) -> Fraction:
    return 2 * x.u


def qf_conj(x: QuadElem) -> QuadElem:
    return QuadElem(x.disc_k, x.u, -x.v)


def qf_mul(x: QuadElem, y: QuadElem) -> QuadElem:
    if x.disc_k != y.disc_k:
        raise DiscMismatchError(f"cannot multiply over discs {x.disc_k} and {y.disc_k}")
    return QuadElem(
        x.disc_k,
        x.u * y.u + x.disc_k * x.v * y.v,
        x.u * y.v + x.v * y.u,
    )


def qf_inv(x: QuadElem) -> QuadElem:
    n = qf_norm(x)
    if n == 0:
        raise DivisionByZeroError("inverse of zero (or of a zero-norm element)")
    return QuadElem(x.disc_k, x.u / n, -x.v / n)


def qf_pow(x: QuadElem, k: int) -> QuadElem:
    if k < 0:
        return qf_pow(qf_inv(x), -k)
    # square and multiply on the integer coordinates of x = (a + b*sqrt(D))/c
    c = math.lcm(x.u.denominator, x.v.denominator)
    a, b, disc, den = int(x.u * c), int(x.v * c), x.disc_k, c ** k
    ra, rb = 1, 0
    while k:
        if k & 1:
            ra, rb = ra * a + disc * rb * b, ra * b + rb * a
        k >>= 1
        if k:
            a, b = a * a + disc * b * b, 2 * a * b
    return QuadElem(disc, Fraction(ra, den), Fraction(rb, den))


def disc_and_scale(q: Fraction | int) -> tuple[int, Fraction]:
    """Fundamental discriminant of Q(sqrt(q)) and the scale with sqrt(q) = scale*sqrt(disc).

    The discriminant is 1 when q is a rational square.

    >>> [disc_and_scale(q)[0] for q in (Fraction(-4, 5), Fraction(1, 40), Fraction(9, 4))]
    [-20, 40, 1]
    >>> disc_and_scale(-12)
    (-3, Fraction(2, 1))
    """
    s, t = squarefree_kernel(Fraction(q))
    return (s, t) if s % 4 == 1 else (4 * s, t / 2)


def gamma_from_radicand(u: Fraction, v: Fraction, radicand: int) -> QuadElem:
    """Rewrite u + v*sqrt(radicand) over the fundamental discriminant."""
    validate_int(radicand=radicand)
    if radicand == 0 or math.isqrt(abs(radicand)) ** 2 == radicand:
        raise ReducibleError(f"radicand {radicand} is a perfect square: no quadratic field")
    disc, scale = disc_and_scale(radicand)
    return QuadElem(disc, Fraction(u), Fraction(v) * scale)


# ---------------------------------------------------------------------------
# sequence contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceContext:
    """The recurrence x_{n+2} = a1*x_{n+1} - a2*x_n, built from (a1, a2) alone.

    delta = a1**2 - 4*a2, its fundamental discriminant disc_k and the norm-1
    root quotient gamma over disc_k are derived once, here.
    """

    a1: int
    a2: int
    delta: int = field(init=False)
    disc_k: int = field(init=False)
    gamma: QuadElem = field(init=False)

    def __post_init__(self) -> None:
        a1, a2 = self.a1, self.a2
        validate_int(a1=a1, a2=a2)
        if a1 == 0 or a2 == 0:
            raise ZeroParameterError(f"parameters must be nonzero, got ({a1}, {a2})")
        delta = a1 * a1 - 4 * a2
        if delta >= 0 and math.isqrt(delta) ** 2 == delta:
            raise ReducibleError(f"characteristic polynomial splits over Q (delta = {delta})")
        disc, scale = disc_and_scale(delta)
        gamma = QuadElem(disc, Fraction(a1 * a1 - 2 * a2, 2 * a2), Fraction(a1, 2 * a2) * scale)
        assert qf_norm(gamma) == 1, "root quotient must have norm 1"
        if is_torsion(gamma):
            raise TorsionError(f"root quotient of ({a1}, {a2}) is a root of unity")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "disc_k", disc)
        object.__setattr__(self, "gamma", gamma)


# what the density and rank layers accept: a recurrence or its root quotient
Target = Union[SequenceContext, QuadElem]

_HALF = Fraction(1, 2)

# (label, u, v) of the #mu(K) consecutive powers of the torsion generator: i for
# D = -4, the primitive 6th root (1 + sqrt(-3))/2 for D = -3, -1 in every other field
_TORSION = {
    -4: (("1", 1, 0), ("i", 0, _HALF), ("-1", -1, 0), ("-i", 0, -_HALF)),
    -3: (("1", 1, 0), ("zeta6", _HALF, _HALF), ("omega", -_HALF, _HALF), ("-1", -1, 0),
         ("omega^2", -_HALF, -_HALF), ("zeta6^-1", _HALF, -_HALF)),
}
_SIGNS = (("1", 1, 0), ("-1", -1, 0))


def _torsion(disc_k: int) -> tuple:
    return _TORSION.get(disc_k, _SIGNS)


def torsion_units(disc_k: int) -> list[QuadElem]:
    """The roots of unity of Q(sqrt(disc_k)), as consecutive powers of a generator."""
    return [QuadElem(disc_k, Fraction(u), Fraction(v)) for _, u, v in _torsion(disc_k)]


def zeta_label(disc_k: int, exp: int) -> str:
    """Display string for the torsion unit of exponent `exp` in the field."""
    return _torsion(disc_k)[exp][0]


def is_torsion(x: QuadElem) -> bool:
    """True when x is a root of unity.

    By Kronecker, exactly when x is an algebraic integer whose conjugates all
    have absolute value 1: N(x) = 1 with trace 2u an integer and |2u| <= 2.
    """
    trace = 2 * x.u
    return trace.denominator == 1 and abs(trace) <= 2 and qf_norm(x) == 1


def element_of(target: Target, layer: str) -> QuadElem:
    """The element a context or element stands for; anything else is refused by name.

    The type half of root_quotient, for callers that test the rest later.
    """
    gamma = target.gamma if isinstance(target, SequenceContext) else target
    if not isinstance(gamma, QuadElem):
        raise LucasDensityError(
            f"{layer} needs a sequence context or field element, got {target!r}")
    return gamma


def root_quotient(target: Target, layer: str) -> QuadElem:
    """The norm-1 element a context or element stands for: the one check of a target.

    Refuses a non-target, a norm other than 1 and a root of unity (TorsionError),
    naming the input and the calling ``layer``.  disc_k is not tested.

    >>> root_quotient(QuadElem(5, 2, 0), "rank")
    Traceback (most recent call last):
    ...
    lucasdensity.errors.LucasDensityError: rank needs a norm-1 element, got 2+0*sqrt(5) of norm 4
    """
    gamma = element_of(target, layer)
    if (norm := qf_norm(gamma)) != 1:
        raise LucasDensityError(f"{layer} needs a norm-1 element, got {gamma} of norm {norm}")
    if is_torsion(gamma):
        raise TorsionError(f"{layer} is undefined for the root of unity {gamma}")
    return gamma


def make_context(a1: int, a2: int) -> SequenceContext:
    """Build the context for the recurrence with parameters (a1, a2)."""
    return SequenceContext(a1, a2)


# ---------------------------------------------------------------------------
# n-th power testing
# ---------------------------------------------------------------------------

_CANDIDATE_PRIMES = 4  # split primes compared when choosing the p-adic modulus


def _lift_root(z: int, alpha: int, n: int, p: int, exp: int) -> int:
    """Newton-lift z with z**n = alpha mod p to a root mod p**exp (p not dividing n*z)."""
    steps = []
    while exp > 1:
        steps.append(exp)
        exp = (exp + 1) // 2
    for e in reversed(steps):
        mod = p ** e
        zn1 = pow(z, n - 1, mod)
        z = (z - (zn1 * z - alpha) * pow(n * zn1, -1, mod)) % mod
    return z


def _iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for an integer m >= 0."""
    if m < 2:
        return m
    z = 1 << -(-m.bit_length() // n)  # above the root
    while True:
        w = ((n - 1) * z + m // z ** (n - 1)) // n
        if w >= z:
            return z
        z = w


def _rational_root(q: Fraction, n: int) -> Optional[Fraction]:
    """The real r with r**n == q when it is rational (r > 0 for even n), else None."""
    num, den = _iroot(abs(q.numerator), n), _iroot(q.denominator, n)
    if num ** n != abs(q.numerator) or den ** n != q.denominator or (q < 0 and n % 2 == 0):
        return None
    return Fraction(-num if q < 0 else num, den)


def _choose_prime(disc: int, n: int, excluded: int) -> tuple[int, int, int]:
    """(p, g, sylow): a split odd prime p not dividing ``excluded``, with
    g = gcd(n, p-1) as small as the first few candidates allow, and sylow the
    part of p-1 built from the primes of n."""
    floor = math.gcd(n, len(_torsion(disc)))
    best, seen = None, 0
    for p in filter(is_probable_prime, itertools.count(3, 2)):
        if excluded % p == 0 or jacobi(disc % p, p) != 1:
            continue
        rest = p - 1
        while (t := math.gcd(n, rest)) > 1:
            rest //= t
        g, sylow = math.gcd(n, p - 1), (p - 1) // rest
        if best is None or (g, sylow) < best[1:]:
            best = (p, g, sylow)
        seen += 1
        if g == floor or seen == _CANDIDATE_PRIMES:
            return best


def _roots_mod_prime(alpha: int, n: int, p: int, sylow: int, qs: tuple[int, ...]) -> list[int]:
    """Every z with z**n = alpha mod p, for an alpha that has one.

    F_p^* is the product of its subgroup S of order ``sylow`` (the primes of n
    dividing p - 1, which ``qs`` lists) and a complement R of order r prime to n.
    On R the n-th root is unique; on the cyclic S it comes from a discrete log,
    which takes at most ``sylow`` steps.
    """
    r = (p - 1) // sylow
    gen = next(c for c in (pow(h, r, p) for h in range(2, p))
               if all(pow(c, sylow // q, p) != 1 for q in qs))
    z_r = pow(pow(alpha, sylow * pow(sylow, -1, r), p), pow(n, -1, r), p)
    alpha_s, acc, j = pow(alpha, r * pow(r, -1, sylow), p), 1, 0
    while acc != alpha_s:
        acc, j = acc * gen % p, j + 1
    g = math.gcd(n, sylow)
    step = sylow // g
    i0 = j // g * pow(n // g, -1, step) % step
    return [z_r * pow(gen, i0 + t * step, p) % p for t in range(g)]


def _rational_reconstruct(a: int, mod: int, num_bound: int, den_bound: int) -> Optional[Fraction]:
    """The unique r/t = a mod ``mod`` with |r| <= num_bound and 0 < t <= den_bound,
    when 2*num_bound*den_bound < mod; None if there is none."""
    r0, r1, t0, t1 = mod, a % mod, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > den_bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _sigma1_positive(y: QuadElem) -> bool:
    """Exact sign of u + v*sqrt(D) for a nonzero y of a real field."""
    u, v = y.u, y.v
    if u * v >= 0:
        return u + v > 0
    return (u * u > y.disc_k * v * v) == (u > 0)


def _angle(x: QuadElem) -> float:
    """arg of x in (-pi, pi] for an imaginary field, with no float overflow."""
    c = math.lcm(x.u.denominator, x.v.denominator)
    a, b = int(x.u * c), int(x.v * c)
    shift = max(0, max(abs(a), abs(b)).bit_length() - 64)
    # >> rounds toward -inf, so a negative b stays negative and v = 0 gives +0.0
    return math.atan2((b >> shift) * math.sqrt(-x.disc_k), a >> shift)


def _rotation_index(y: QuadElem, x: QuadElem, n: int) -> int:
    """k in [0, n) with arg(y) = (Arg(x) + 2*pi*k)/n mod 2*pi, for y**n == x."""
    turns = (n * _angle(y) - _angle(x)) / (2 * math.pi)
    k = round(turns)
    if abs(turns - k) > 0.25:
        raise LucasDensityError(f"cannot place the {n}-th root {y} of {x} on the circle")
    return k % n


def _preferred_root(y: QuadElem, x: QuadElem, n: int) -> QuadElem:
    """The root of x that the principal-root convention picks among y*zeta, zeta**n = 1.

    Real fields: the root with u + v*sqrt(D) > 0.  Imaginary fields: the first
    root met rotating from the principal root, whose argument is Arg(x)/n.
    """
    disc = x.disc_k
    if disc > 0:
        return y if n % 2 or _sigma1_positive(y) else -y
    nmu = len(_torsion(disc))
    m = math.gcd(n, nmu)  # the roots are y * zeta**(t*nmu/m), t < m, zeta = e^(2*pi*i/nmu)
    # each step of t moves the rotation index by n/m; step back to the smallest
    t = -(_rotation_index(y, x, n) // (n // m)) % m
    if t == 0:
        return y
    return -y if 2 * t == m else qf_mul(torsion_units(disc)[t * nmu // m], y)


def is_nth_power(x: QuadElem, n: int) -> Optional[QuadElem]:
    """Some y with y**n == x exactly, or None if x is not an n-th power in K.

    A split prime p proposes: x has no n-th root in F_p under either embedding
    (a certified None), or the roots mod p are Hensel-lifted to p**k and read
    back as rationals.  Acceptance is by exact re-powering.  Which root comes
    back is fixed by _preferred_root.
    """
    if n < 1:
        raise LucasDensityError(f"is_nth_power needs n >= 1, got {n}")
    if x.u == 0 and x.v == 0:
        raise LucasDensityError("is_nth_power(0, n) is not meaningful here")
    if n == 1:
        return x
    disc, norm = x.disc_k, qf_norm(x)
    if disc > 0 and n % 2 == 0 and (norm < 0 or x.u < 0):
        return None  # even powers are totally positive
    du, dv = x.u.denominator, x.v.denominator
    p, g, sylow = _choose_prime(disc, n, 2 * n * disc * du * dv * norm.numerator)
    s = _roots_mod_prime(disc % p, 2, p, (p - 1) & (1 - p), (2,))[0]  # sylow: the 2-part of p - 1
    u_p = x.u.numerator * pow(du, -1, p)
    v_p = x.v.numerator * pow(dv, -1, p) * s
    alpha = (u_p + v_p) % p
    if any(pow(a, (p - 1) // g, p) != 1 for a in (alpha, (u_p - v_p) % p)):
        return None  # no n-th root in F_p under one embedding
    norm_root = _rational_root(norm, n)
    if norm_root is None:
        return None  # N(y)**n == N(x) has no rational solution
    # |u_y|, |v_y| <= max |sigma(y)| <= H and their denominators are <= B
    den_bound = 2 * du * dv * abs(disc)
    height = -(-(abs(x.u.numerator) * dv + abs(x.v.numerator) * du * (math.isqrt(abs(disc)) + 1))
               // (du * dv))
    num_bound = (_iroot(height, n) + 1) * den_bound
    k, mod = 1, p
    while mod <= 2 * num_bound * den_bound:
        k, mod = k + 1, mod * p
    s = _lift_root(s, disc % mod, 2, p, k)  # the same square root of disc, mod p**k
    alpha = (x.u.numerator * pow(du, -1, mod) + x.v.numerator * pow(dv, -1, mod) * s) % mod
    half, half_s = pow(2, -1, mod), pow(2 * s, -1, mod)
    norms = (norm_root, -norm_root) if disc > 0 and n % 2 == 0 else (norm_root,)
    norms_mod = [nr.numerator * pow(nr.denominator, -1, mod) % mod for nr in norms]
    qs = tuple(q for q in prime_factors(n) if sylow % q == 0)
    for z in _roots_mod_prime(alpha % p, n, p, sylow, qs):
        y1 = _lift_root(z, alpha, n, p, k)
        y1_inv = pow(y1, -1, mod)
        for nm in norms_mod:
            y2 = nm * y1_inv
            cu = _rational_reconstruct((y1 + y2) * half, mod, num_bound, den_bound)
            cv = _rational_reconstruct((y1 - y2) * half_s, mod, num_bound, den_bound)
            if cu is None or cv is None:
                continue
            y = QuadElem(disc, cu, cv)
            # the norm test is cheap and rejects most wrong candidates
            if qf_norm(y) ** n == norm and qf_pow(y, n) == x:
                return _preferred_root(y, x, n)
    return None


# ---------------------------------------------------------------------------
# fundamental units (continued fractions)
# ---------------------------------------------------------------------------


def _pell_fundamental(d: int) -> tuple[int, int]:
    """Smallest (x, y), x, y >= 1, with x**2 - d*y**2 = +-1, for non-square d > 1."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0 and den == 1:
            return p, q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def fundamental_unit(disc_k: int) -> QuadElem:
    """Fundamental unit > 1 of the maximal order of the real field of disc_k."""
    if disc_k <= 0:
        raise LucasDensityError("fundamental_unit needs a positive discriminant")
    d = disc_k if disc_k % 4 == 1 else disc_k // 4
    px, py = _pell_fundamental(d)
    if disc_k % 4 == 1:
        eps = QuadElem(disc_k, Fraction(px), Fraction(py))
        # the order Z[sqrt(d)] may sit at index 3 below the maximal order's units
        cube = is_nth_power(eps, 3)
        if cube is not None:
            eps = cube
    else:
        eps = QuadElem(disc_k, Fraction(px), Fraction(py, 2))
    assert qf_norm(eps) in (1, -1), "unit must have norm +-1"
    return eps


# ---------------------------------------------------------------------------
# power index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerIndexData:
    """h(zeta) for every torsion twist, with the maximising twist singled out.

    ``table`` is keyed by the exponent j of the torsion generator (the one
    returned by torsion_units); gamma_tilde = zeta^j * gamma for j =
    zeta_star_exp, and gamma0 is an h-th root of gamma_tilde.
    """

    table: dict[int, int]
    h: int
    zeta_star_exp: int
    gamma_tilde: QuadElem
    gamma0: QuadElem


def _tie_break_order(nmu: int) -> tuple[int, ...]:
    # by multiplicative order nmu / gcd(j, nmu), then j: ties between twists
    # differing by -1 (inevitable whenever the maximum is odd) must resolve to
    # the lower-order root, so the density formulas need no extra sign switch
    return tuple(sorted(range(nmu), key=lambda j: (nmu // math.gcd(j, nmu), j)))


def _support_exponents(x: QuadElem) -> list[tuple[int, int]]:
    """(p, |v_P(x)|) over the primes P | p where x's fractional ideal is nontrivial.

    Write x = (a + b*sqrt(D))/c in lowest terms, so a**2 - D*b**2 = c**2.  An
    odd p | c cannot divide both a and b, so D = (a/b)**2 mod p: p splits, and
    a + b*sqrt(D), of norm c**2, is prime to one of the two primes above p, so
    |v_P(x)| = v_p(c).  At a split 2 (D = 1 mod 8) the same equation forces a
    and b odd and 4 | c, and the integral element (a + b*sqrt(D))/2 is prime to
    one prime above 2, so |v_P(x)| = v_2(c) - 1.  Norm 1 makes the valuation
    vanish at every inert or ramified prime, 2 included.
    """
    disc = x.disc_k
    c = math.lcm(x.u.denominator, x.v.denominator)
    a, b = int(x.u * c), int(x.v * c)
    assert a * a - disc * b * b == c * c, "norm-1 element expected"
    return [(p, e - (p == 2)) for p, e in factorize(c) if p != 2 or disc % 8 == 1]


def _log_sigma1(unit: QuadElem) -> float:
    """log|u + v*sqrt(D)| for a unit of a real field, from its larger conjugate.

    |u| + |v|*sqrt(D) has no cancellation; since the conjugates multiply to +-1,
    sigma_1 is the larger one exactly when u and v have the same sign.
    """
    c = math.lcm(unit.u.denominator, unit.v.denominator)
    a, b = abs(int(unit.u * c)), abs(int(unit.v * c))
    scaled = (a << 64) + math.isqrt((b * b * unit.disc_k) << 128)  # 2^64*c*larger
    log_larger = math.log(scaled) - 64 * math.log(2) - math.log(c)
    return log_larger if (unit.u > 0) == (unit.v > 0) else -log_larger


def power_index(gamma: QuadElem) -> PowerIndexData:
    """h(zeta) for all torsion zeta, and the data of the maximising twist.

    gamma.disc_k must be fundamental (see disc_and_scale): over another
    discriminant the index can be silently wrong.
    """
    gamma = root_quotient(gamma, "power index")
    disc = gamma.disc_k
    exps = [e for _, e in _support_exponents(gamma)]
    if exps:
        cap = math.gcd(*exps)
    else:
        # gamma is a unit; norm-1 units of imaginary fields are torsion, so
        # the field is real and +-gamma is a power of the fundamental unit
        assert disc > 0, "unit branch reached with an imaginary discriminant"
        eps = fundamental_unit(disc)
        k0 = round(_log_sigma1(gamma) / _log_sigma1(eps))
        k = next(
            (k for k in range(k0 - 2, k0 + 3)
             if k and qf_pow(eps, k) in (gamma, -gamma)),
            None,
        )
        if k is None:
            raise LucasDensityError(
                f"the unit {gamma} is not +- a power of the fundamental unit of "
                f"disc {disc}; disc_k may not be fundamental"
            )
        cap = 2 * abs(k)
    units = torsion_units(disc)
    table: dict[int, int] = {}
    roots: dict[int, QuadElem] = {}
    for j, zeta in enumerate(units):
        twisted = qf_mul(zeta, gamma)
        for n in sorted(divisors(cap), reverse=True):
            root = is_nth_power(twisted, n)
            if root is not None:
                table[j], roots[j] = n, root
                break
    h = max(table.values())
    j_star = next(j for j in _tie_break_order(len(units)) if table[j] == h)
    return PowerIndexData(
        table=table,
        h=h,
        zeta_star_exp=j_star,
        gamma_tilde=qf_mul(units[j_star], gamma),
        gamma0=roots[j_star],
    )
