"""Number-theoretic helpers, cyclotomic polynomials and minimal polynomials.

Cyclotomic polynomials are computed once over the integers (coefficients are
exact Python ints) by recursive division of x^n - 1 by its cofactor, the
product of the Q_d for proper divisors d, then reduced mod p for a concrete
field.  The cofactor is kept too: it is the check polynomial of <Q_n>.  Its
products are field._int_mul, the schoolbook product Poly also uses over F_p.
The q-cyclotomic cosets behind orders, minimal polynomials and defining sets
come from one walk, _coset, which is also the one check of s and q.  Every n
goes through check_n: profile, Q_n, its cofactor and the cosets refuse one
that is not an int of at least 1 with the same message.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import CycloError, InvalidArgument
from .field import _int_mul, check_n, factorize, is_int, make_extension, nth_root_of_unity
from .poly import Poly


class ArithmeticProfile(NamedTuple):
    n: int
    phi: int
    omega: int
    lpf: int | None  # None for n = 1
    divisors: tuple
    factorization: tuple

    def to_dict(self):
        return self._asdict()  # the tuples are JSON lists


def profile(n):
    check_n(n)
    fact = tuple(factorize(n))
    phi = n
    for p, _ in fact:
        phi -= phi // p
    divs = sorted(
        d for d in range(1, n + 1) if n % d == 0
    )
    return ArithmeticProfile(
        n=n,
        phi=phi,
        omega=len(fact),
        lpf=fact[0][0] if fact else None,
        divisors=tuple(divs),
        factorization=fact,
    )


# -- integer cyclotomic polynomials ------------------------------------------

def _int_divexact(a, b):
    """Exact division of integer polynomials (remainder must vanish)."""
    a = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        f, r = divmod(a[i + db], b[-1])
        if r:
            raise CycloError("integer polynomial division is not exact")
        quot[i] = f
        if f:
            for j, bc in enumerate(b):
                a[i + j] -= f * bc
    if any(a):
        raise CycloError("integer polynomial division is not exact")
    return quot


@lru_cache(maxsize=None)
def cofactor_int(n):
    """(x^n - 1) / Q_n over the integers, ascending: the product of Q_d over
    the divisors d < n of n, and the check polynomial of C_n = <Q_n>."""
    out = (1,)
    for d in profile(n).divisors[:-1]:
        out = _int_mul(out, cyclotomic_int(d))
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_int(n):
    """Coefficients of Q_n over the integers, ascending.

    Q_n = (x^n - 1) / cofactor_int(n) by exact division, which raises
    CycloError on a remainder, so Q_n * cofactor = x^n - 1 holds over the
    integers, and hence modulo every prime.
    """
    return tuple(_int_divexact([-1] + [0] * (n - 1) + [1], cofactor_int(n)))


def _check_length(n, ctx):
    check_n(n)
    if n % ctx.p == 0:
        raise InvalidArgument(
            f"characteristic {ctx.p} divides n = {n}"
        )


def _reduce(coeffs, ctx):
    """An integer polynomial mod p, over ctx (prime-subfield constants encode as
    themselves)."""
    return Poly(ctx, [c % ctx.p for c in coeffs])


def cyclotomic_poly(n, ctx):
    """Q_n over the given field; requires gcd(n, char) = 1."""
    _check_length(n, ctx)
    return _reduce(cyclotomic_int(n), ctx)


def cyclotomic_cofactor(n, ctx, without_q1=False):
    """(x^n - 1) / Q_n over the given field, or (x^n - 1) / (Q_n Q_1) when
    without_q1 (n > 1): cofactor_int(n), divided exactly by x - 1 over the
    integers for without_q1, then reduced mod p."""
    _check_length(n, ctx)
    coeffs = cofactor_int(n)
    if without_q1:
        coeffs = _int_divexact(coeffs, cyclotomic_int(1))
    return _reduce(coeffs, ctx)


def verify_factorization(n, ctx):
    """Check x^n - 1 = prod over d | n of Q_d, exactly over the field."""
    prod = Poly.one(ctx)
    for d in profile(n).divisors:
        prod = prod * cyclotomic_poly(d, ctx)
    return prod == Poly.x_n_minus_1(ctx, n)


# -- cyclotomic cosets and minimal polynomials --------------------------------

class CyclotomicCoset(NamedTuple):
    n: int
    q: int
    representative: int
    members: tuple


def _coset(s, n, q):
    """The sorted q-cyclotomic coset of s, from the one walk s, sq, sq^2, ... mod n;
    its checks (integers, n >= 1, gcd(n, q) = 1) make the walk return to s."""
    check_n(n)
    if not (is_int(s) and is_int(q)):
        raise InvalidArgument(f"s and q must be integers, got {s!r} and {q!r}")
    if math.gcd(n, q) != 1:
        raise InvalidArgument(f"gcd({n}, {q}) != 1")
    members = [s % n]
    while (j := members[-1] * q % n) != members[0]:
        members.append(j)
    return tuple(sorted(members))


def cosets(n, q):
    """The q-cyclotomic cosets partitioning Z_n, sorted by representative."""
    # the coset of 0 is {0}; walking it first checks n and q before range(n)
    out = [CyclotomicCoset(n=n, q=q, representative=0, members=_coset(0, n, q))]
    covered = {0}
    for i in range(1, n):
        if i not in covered:
            members = _coset(i, n, q)
            covered.update(members)
            out.append(CyclotomicCoset(n=n, q=q, representative=i, members=members))
    return out


def multiplicative_order_mod(q, n):
    """Order of q in the unit group of Z_n: the size of the coset of 1."""
    return len(_coset(1, n, q))


def minimal_poly(s, n, ctx):
    """M^(s) = prod over j in the coset of s of (x - zeta^j), as a base-field Poly."""
    coset = _coset(s, n, ctx.q)  # checks s, n and q first
    ext = make_extension(ctx, multiplicative_order_mod(ctx.q, n))
    big = ext.field
    zeta = nth_root_of_unity(big, n)
    prod = Poly.one(big)
    for j in coset:
        prod = prod * Poly(big, [big.neg(big.pow(zeta, j)), 1])
    return Poly(ctx, [ext.retract(c) for c in prod.coeffs])
