"""Square-root data, quartic/cubic conductors, Kummer degrees, sigma existence.

The membership machinery: given the normalised root z of a norm-one element,
decide in which cyclotomic extensions of K its square/cube/fourth roots live,
and from that compute [K(zeta_n, gamma^(1/d)) : Q] exactly.  The quartic and
cubic conductors are closed forms returning one integer: the tamely ramified
primes are read off the root's denominator, the 2- or 3-part off one
congruence.  poly_field_disc (round two, every linear solve an integer forward
substitution against a Hermite basis) stays as the reference the tests
compare them with.  A KummerProfile carries the invariants of one normal form
(power index, square-root data, conductor) and is the one input of
kummer_degree and sigma_exists; it derives the last two and checks them
once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .arith import divisors, euler_phi, factorize, gcd_power_infinity
from .errors import LucasDensityError, ReducibleError
from .quadfield import PowerIndexData, QuadElem, _support_exponents, disc_and_scale, qf_norm

# ---------------------------------------------------------------------------
# square-root data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqrtData:
    """Where the square root of z = u + v*sqrt(disc_k) lives.

    With norm(z) = 1: sqrt(z) generates Q(sqrt c) and Q(sqrt(c/disc_k)) over Q
    for c = (u-1)/2, and lies in K(zeta_n) iff delta1 | n or delta2 | n.
    A norm of -1 (q_flag False) rules the square root out of every cyclotomic
    extension, and the remaining fields stay unset.
    """

    q_flag: bool
    c: Optional[Fraction] = None
    delta1: Optional[int] = None
    delta2: Optional[int] = None
    c_positive: Optional[bool] = None


def sqrt_data(root: QuadElem) -> SqrtData:
    """Square-root data of the normalised h2-th root of gamma-tilde."""
    norm = qf_norm(root)
    if norm not in (1, -1) or root.v == 0:  # v = 0 leaves the torsion +-1, and c = 0 at 1
        raise LucasDensityError(
            f"sqrt_data needs a root of norm +-1 off Q, got {root} of norm {norm}")
    if norm == -1:
        return SqrtData(q_flag=False)
    c = (root.u - 1) / 2
    return SqrtData(
        q_flag=True,
        c=c,
        delta1=disc_and_scale(c)[0],
        delta2=disc_and_scale(c / root.disc_k)[0],
        c_positive=c > 0,
    )


# ---------------------------------------------------------------------------
# field discriminants of small defining polynomials
# ---------------------------------------------------------------------------


def _poly_mul_mod(a: list, b: list, f: Sequence[int]) -> list:
    """a*b reduced mod the monic polynomial f (all ascending coefficients)."""
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for d in range(len(prod) - 1, n - 1, -1):
        lead = prod[d]
        if lead:
            prod[d] = 0
            for j in range(n + 1):
                prod[d - n + j] -= lead * f[j]
    prod = prod[:n]
    return prod + [0] * (n - len(prod))


def _int_det(mat: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _poly_discriminant(f: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial via the Sylvester resultant."""
    n = len(f) - 1
    df = [i * f[i] for i in range(1, n + 1)]
    size = 2 * n - 1
    rows = []
    for i in range(n - 1):  # shifted copies of f
        row = [0] * size
        for j, cf in enumerate(reversed(f)):
            row[i + j] = cf
        rows.append(row)
    for i in range(n):  # shifted copies of f'
        row = [0] * size
        for j, cf in enumerate(reversed(df)):
            row[i + j] = cf
        rows.append(row)
    res = _int_det(rows)
    return res if (n * (n - 1) // 2) % 2 == 0 else -res


def _eval(f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _root_floors(f: Sequence[int]) -> set[int]:
    """A set of integers holding floor(r) for every real root r of f.

    The floors of the roots of f' cut the line into integer intervals on which
    f is monotone; integer bisection inside the Cauchy bound finds the one sign
    change each of them can hold.  Only exact integer evaluations decide.
    """
    if len(f) == 2:
        return {-f[0] // f[1]}
    crit = sorted(_root_floors([i * c for i, c in enumerate(f) if i]))
    bound = max(abs(c) for c in f[:-1]) // abs(f[-1]) + 2
    out = set(crit)
    for lo, hi in zip([-bound] + [c + 1 for c in crit], crit + [bound]):
        if lo > hi:
            continue
        s_lo, s_hi = _eval(f, lo) > 0, _eval(f, hi) > 0
        if s_lo == s_hi:
            out.update(m for m in (lo, hi) if _eval(f, m) == 0)
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (_eval(f, mid) > 0) == s_lo:
                lo = mid
            else:
                hi = mid
        out.update((lo, hi))
    return out


def _has_rational_root(f: Sequence[int]) -> bool:
    # a rational root of a monic integer polynomial is an integer
    return f[0] == 0 or any(_eval(f, m) == 0 for m in _root_floors(f))


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _splits_into_quadratics(f: Sequence[int]) -> bool:
    """Whether a monic integer quartic is a product of two integer quadratics.

    By Gauss's lemma any rational split (x^2+ax+b)(x^2+cx+d) is integral, and
    then y = b + d is an integer root of the resolvent cubic.  Each candidate
    y fixes {b, d} as the roots of t^2 - y*t + a0 and {a, c} as those of
    t^2 - a3*t + (a2 - y); a split is accepted only when the product is exact.
    """
    a0, a1, a2, a3 = f[0], f[1], f[2], f[3]
    resolvent = [-(a1 * a1 + a0 * a3 * a3 - 4 * a0 * a2), a1 * a3 - 4 * a0, -a2, 1]
    for y in _root_floors(resolvent):
        disc_bd, disc_ac = y * y - 4 * a0, a3 * a3 - 4 * (a2 - y)
        if not (_is_square(disc_bd) and _is_square(disc_ac)):
            continue
        # both discriminants have the parity of y and a3 squared: halving is exact
        b = (y + math.isqrt(disc_bd)) // 2
        d = y - b
        for a in {(a3 + math.isqrt(disc_ac)) // 2, (a3 - math.isqrt(disc_ac)) // 2}:
            c = a3 - a
            if (b * d, a * d + b * c, b + d + a * c, a + c) == (a0, a1, a2, a3):
                return True
    return False


def _check_irreducible(f: Sequence[int]) -> None:
    n = len(f) - 1
    if _has_rational_root(f):
        raise ReducibleError(f"polynomial {list(f)} has a rational root")
    if n == 4 and _splits_into_quadratics(f):
        raise ReducibleError(f"polynomial {list(f)} splits into two quadratics")


def _nullspace_mod_p(rows: list[list[int]], width: int, p: int) -> list[list[int]]:
    """Basis of {x : x*M = 0 mod p} for the matrix with the given rows."""
    dim = len(rows)
    aug = [[rows[i][j] % p for j in range(width)] + [1 if k == i else 0 for k in range(dim)]
           for i in range(dim)]
    pivot_row = 0
    for col in range(width):
        piv = next((r for r in range(pivot_row, dim) if aug[r][col] % p), None)
        if piv is None:
            continue
        aug[pivot_row], aug[piv] = aug[piv], aug[pivot_row]
        inv = pow(aug[pivot_row][col], -1, p)
        aug[pivot_row] = [x * inv % p for x in aug[pivot_row]]
        for r in range(dim):
            if r != pivot_row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == dim:
            break
    return [row[width:] for row in aug[pivot_row:]]


def _row_hnf(gens: list[list[int]]) -> list[list[int]]:
    """Hermite form (upper triangular, positive diagonal) of a full-rank lattice."""
    n = len(gens[0])
    rows = [r[:] for r in gens if any(r)]
    out: list[list[int]] = []
    for col in range(n):
        while True:
            nz = [r for r in rows if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = r[col] // r0[col]
                for j in range(n):
                    r[j] -= q * r0[j]
        nz = [r for r in rows if r[col] != 0]
        assert nz, "generators do not span a full-rank lattice"
        piv = nz[0]
        rows.remove(piv)
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
    for i in range(n - 1, -1, -1):
        for k in range(i):
            q = out[k][i] // out[i][i]
            if q:
                out[k] = [a - q * b for a, b in zip(out[k], out[i])]
    return out


def _solve_upper(y: Sequence[int], mat: list[list[int]], what: str) -> list[int]:
    """The integer x with x*mat = y, for upper-triangular mat with positive diagonal.

    Forward substitution; a remainder means x is not integral, which the
    caller's invariant (``what``) rules out.
    """
    x: list[int] = []
    for j in range(len(y)):
        q, r = divmod(y[j] - sum(x[i] * mat[i][j] for i in range(j)), mat[j][j])
        assert r == 0, what
        x.append(q)
    return x


def _structure_constants(mat: list[list[int]], den: int, f: Sequence[int]) -> list[list[list[int]]]:
    """T[i][j] = coordinates of b_i*b_j in the order basis; must be integral."""
    n = len(f) - 1
    what = "order is not multiplicatively closed"
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = _poly_mul_mod(mat[i], mat[j], f)  # den^2 * b_i b_j in power coords
            coords = []
            for c in _solve_upper(prod, mat, what):  # den * (b_i b_j in the order basis)
                q, r = divmod(c, den)
                assert r == 0, what
                coords.append(q)
            row.append(coords)
        table.append(row)
    return table


def _algebra_pow_p(vec: list[int], table, p: int, n: int) -> list[int]:
    """vec^p in the mod-p structure-constant algebra."""

    def mul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        tij = table[i][j]
                        for k in range(n):
                            out[k] = (out[k] + xi * yj * tij[k]) % p
        return out

    result = None
    base = [x % p for x in vec]
    e = p
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def poly_field_disc(coeffs: Sequence[int]) -> int:
    """Discriminant of the number field defined by a monic integer polynomial.

    ``coeffs`` lists ascending coefficients including the leading 1, e.g.
    X^2 - 2 is [-2, 0, 1].  Degree must be 2, 3 or 4 and the polynomial
    irreducible over Q.
    """
    f = [int(c) for c in coeffs]
    n = len(f) - 1
    if n not in (2, 3, 4) or f[-1] != 1:
        raise LucasDensityError("need a monic polynomial of degree 2, 3 or 4")
    _check_irreducible(f)
    poly_disc = _poly_discriminant(f)
    assert poly_disc != 0, "irreducible polynomial cannot have a zero discriminant"
    den, mat = 1, [[int(i == j) for j in range(n)] for i in range(n)]
    for p, e in factorize(poly_disc):
        if e < 2:
            continue
        while True:
            table = _structure_constants(mat, den, f)
            # radical of the mod-p algebra = kernel of the iterated Frobenius
            frob = [_algebra_pow_p([int(i == j) for j in range(n)], table, p, n)
                    for i in range(n)]
            k = 1
            while p ** k < n:
                k += 1
            power = frob
            for _ in range(k - 1):
                power = [[sum(power[i][t] * frob[t][j] for t in range(n)) % p
                          for j in range(n)] for i in range(n)]
            radical = _nullspace_mod_p(power, n, p)
            ideal = _row_hnf([[p * int(i == j) for j in range(n)] for i in range(n)]
                             + [r[:] for r in radical])
            # multiplier test: which x in O/pO send the radical ideal into p*ideal
            mult_rows = []
            for i in range(n):
                flat = []
                for jrow in ideal:
                    prod = [0] * n  # b_i * (ideal row) in order coordinates
                    for t, ct in enumerate(jrow):
                        if ct:
                            for k2 in range(n):
                                prod[k2] += ct * table[i][t][k2]
                    flat.extend(_solve_upper(prod, ideal, "ideal is not stable under the order"))
                mult_rows.append(flat)
            kernel = _nullspace_mod_p(mult_rows, n * n, p)
            if not kernel:
                break
            gens = [[p * x for x in row] for row in mat]
            for v in kernel:
                gens.append([sum(v[i] * mat[i][j] for i in range(n)) for j in range(n)])
            mat = _row_hnf(gens)
            den *= p
    det = 1
    for i in range(n):
        det *= mat[i][i]
    index, rem = divmod(den ** n, det)
    assert rem == 0, "index must be integral"
    assert poly_disc % (index * index) == 0, "index squared must divide the discriminant"
    return poly_disc // (index * index)


# ---------------------------------------------------------------------------
# conductors
# ---------------------------------------------------------------------------


def _tame_part(root: QuadElem, disc: int, n: int, name: str) -> int:
    """Product of the primes p not dividing n over which K(root^(1/n)) ramifies.

    By Kummer theory a prime P over such a p ramifies exactly when n does not
    divide v_P(root); for a norm-1 root every such P lies over its denominator.
    """
    if root.disc_k != disc or root.v == 0 or qf_norm(root) != 1:
        raise LucasDensityError(f"{name} needs a norm-1 root over disc {disc} off Q, got {root}")
    return math.prod(p for p, e in _support_exponents(root) if e % n)


def quartic_conductor(root: QuadElem) -> int:
    """Conductor of the degree-8 field containing the fourth root of the twist.

    ``root`` = u + v*sqrt(-4) is the h-th root of a normal form, of norm 1
    and not a square.  The conductor is 2^max(2, 4 - v_2(u - 1)) times the
    tame primes.  The 2-part depends only on root mod 32, since a 2-adic unit
    = 1 mod 32 of Z_2[i] is a fourth power, and the tests check it on every
    norm-1 class.
    """
    tame = _tame_part(root, -4, 4, "quartic_conductor")
    # u has an odd denominator, and u != 1 since v != 0
    low = (root.u - 1).numerator
    return tame << max(2, 4 - ((low & -low).bit_length() - 1))


def cubic_conductor(root: QuadElem) -> int:
    """Conductor of the cubic-root tower over disc -3.

    ``root`` = u + v*sqrt(-3) is the h-th root of a normal form.  The
    conductor is the product of the tame primes, times 9 unless 3 divides the
    numerator of v.  The 3-part depends only on root mod 27, since a 3-adic
    unit = 1 mod 27 of Z_3[omega] is a cube, and the tests check it on every
    norm-1 class.
    """
    tame = _tame_part(root, -3, 3, "cubic_conductor")
    return tame if root.v.numerator % 3 == 0 else 9 * tame


# ---------------------------------------------------------------------------
# Kummer degrees and sigma existence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KummerProfile:
    """Everything the degree and fixed-point formulas need about one normal form.

    Built from gamma and its power index ``pix`` alone: ``sqrt`` is the
    square-root data of the h-th root pix.gamma0, ``conductor`` its quartic
    (disc -4) or cubic (disc -3) conductor and None elsewhere.  The constructor
    refuses a gamma that is not a normal form (zeta* = 1, so h = h(1)) and the
    pix of another element; kummer_degree, sigma_exists and _membership rely on both.
    """

    gamma: QuadElem
    pix: PowerIndexData
    sqrt: SqrtData = field(init=False)
    conductor: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        gamma, pix = self.gamma, self.pix
        if pix.zeta_star_exp != 0:
            raise LucasDensityError(
                f"{gamma} is not in normal form: pass normal_form(gamma), "
                "whose density can differ from the twisted element's"
            )
        if pix.gamma_tilde != gamma:
            raise LucasDensityError(
                f"the profile of {gamma} needs its own power index, got that of {pix.gamma_tilde}")
        root, disc = pix.gamma0, gamma.disc_k
        object.__setattr__(self, "sqrt", sqrt_data(root))
        object.__setattr__(self, "conductor", quartic_conductor(root) if disc == -4
                           else cubic_conductor(root) if disc == -3 else None)

    @property
    def h(self) -> int:
        return self.pix.h


def _membership(m: int, n: int, profile: KummerProfile) -> bool:
    """Whether the m-twisted root of gamma lies in K(zeta_n)."""
    sq = profile.sqrt
    if m == 2:
        return sq.q_flag and (n % abs(sq.delta1) == 0 or n % abs(sq.delta2) == 0)
    if m == 4:
        return _membership(2, n, profile) and math.lcm(4, n) % profile.conductor == 0
    if m == 3:
        return n % profile.conductor == 0
    if m == 6:
        return _membership(2, n, profile) and _membership(3, n, profile)
    raise LucasDensityError(f"no twisted-root membership test for m={m}")


def kummer_degree(n: int, dd: int, profile: KummerProfile) -> int:
    """[K(zeta_n, gamma^(1/dd)) : Q] for the normal form gamma of the profile."""
    if n < 1 or dd < 1 or n % dd:
        raise LucasDensityError(f"need dd | n, got dd={dd}, n={n}")
    h = profile.h
    t = 1
    for m in divisors(len(profile.pix.table)):
        # h_m is the m-smooth part of h: the saturation depth at which the
        # zeta_m ambiguity of the dd-th root can be absorbed
        if m == 1 or dd % (m * gcd_power_infinity(h, m)):
            continue
        if _membership(m, n, profile):
            t = m
    degree = dd * euler_phi(n) // (math.gcd(dd, h) * t)
    if n % abs(profile.gamma.disc_k):
        degree *= 2
    return degree


def sigma_exists(dv: int, uv: int, profile: KummerProfile) -> bool:
    """Whether Gal(K_{dv,uv}/Q) contains the inverting automorphism.

    Always true for imaginary fields.  For real fields the obstruction depends
    on whether the normalised square-root element becomes a square in
    K(zeta_dv), per the two-branch criterion.
    """
    if dv < 1 or uv < 1 or dv % uv:
        raise LucasDensityError(f"need uv | dv, got uv={uv}, dv={dv}")
    disc_k = profile.gamma.disc_k
    if disc_k < 0:
        return True
    # 2-smooth part of the power index, same normalisation as the degree
    # formula's t-condition: the square-root tower over gamma only reaches
    # depth v2(h), and an odd factor in h must not enter the 2-adic test.
    h2 = gcd_power_infinity(profile.h, 2)
    sq = profile.sqrt
    if uv % (2 * h2) or not _membership(2, dv, profile):
        return dv % disc_k != 0 and (uv % h2 != 0 or sq.q_flag)
    return dv % disc_k != 0 and (
        (not sq.c_positive and dv % abs(sq.delta1) == 0)
        or (sq.c_positive and dv % abs(sq.delta2) == 0)
    )
