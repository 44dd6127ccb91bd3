"""Finite fields F_{p^l} with exact element arithmetic.

Elements of a field of order q = p^l are plain ints in [0, q).  The base-p
digits of the int are the polynomial-basis coordinates (digit i is the
coefficient of u^i, ascending), so the integer ordering of encodings is the
canonical lexicographic ordering used for every "smallest" tie-break.
Prime-subfield constants encode as themselves (values < p).
"""

from functools import lru_cache

import numpy as np

from .errors import CycloError, InvalidArgument

# Fields up to this order keep full q x q add/mul tables, built with
# whole-array maps from the log/antilog of the primitive element, as numpy
# arrays for whole-array arithmetic and as flat lists for scalar look-ups;
# larger contexts fall back to digit arithmetic per operation.
TABLE_LIMIT = 512

# Support contract: a context itself never exceeds 2^16 elements unless it
# was created as an ambient extension for root searches, capped at 2^24.
CONTEXT_LIMIT = 1 << 16
ROOT_SEARCH_LIMIT = 1 << 24


def is_int(v):
    """The package's integer rule: an int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_n(n):
    """The one rule for n, a length or an order: raise InvalidArgument unless
    n is an int (not a bool) of at least 1."""
    if not is_int(n) or n < 1:
        raise InvalidArgument(f"n must be an integer >= 1, got {n!r}")


def _read_only(self, *args):
    """__setattr__ and __delattr__ of the types whose values caches share."""
    raise CycloError(f"{type(self).__name__} is read-only")


def is_prime(n):
    """Whether n is prime, read off factorize; inputs are desk-scale."""
    return n > 1 and factorize(n) == [(n, 1)]


def factorize(n):
    """Prime factorization of n >= 1 as a list of (prime, exponent)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _int_mul(a, b):
    """Schoolbook product of ascending integer coefficient lists, unreduced:
    exact over the integers, and reduced mod p by a caller over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _power(x, e, mul, one):
    """x^e for an int e >= 0 by square-and-multiply, where mul multiplies
    and one is its identity: the one power rule of fields and polynomials."""
    r = one
    while e:
        if e & 1:
            r = mul(r, x)
        x = mul(x, x)
        e >>= 1
    return r


def _digits(v, p, l):
    """The l base-p digits of v, ascending."""
    digits = []
    for _ in range(l):
        v, r = divmod(v, p)
        digits.append(r)
    return digits


def _digit_sum(a, b, p):
    """(a + b) mod p for unsigned arrays of digits below p, in a dtype that
    holds 2(p - 1), with no integer division: s = a + b is below 2p, and
    where s < p, s - p wraps around above s, so min(s, s - p) is exact."""
    s = a + b
    return np.minimum(s, s - p)


class FieldCtx:
    """A concrete finite field F_{p^l}; immutable after construction."""
    __setattr__ = __delattr__ = _read_only

    def __init__(self, p, l=1, modulus=None):
        _check_prime(p, l)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "q", p ** l)
        if l == 1:
            object.__setattr__(self, "modulus", None)
        else:
            if modulus is None or len(modulus) != l + 1 or modulus[-1] != 1:
                raise InvalidArgument("modulus must be monic of degree l")
            object.__setattr__(self, "modulus", tuple(c % p for c in modulus[:-1]) + (1,))
            if self.q > TABLE_LIMIT:
                self._check_irreducible()
        object.__setattr__(self, "_add_table", None)
        object.__setattr__(self, "_mul_table", None)
        object.__setattr__(self, "_add_array", None)
        object.__setattr__(self, "_mul_array", None)
        object.__setattr__(self, "_primitive", None)
        if self.q <= TABLE_LIMIT:
            self._build_tables()

    def _check_irreducible(self):
        """Rabin's test on the modulus. Below TABLE_LIMIT the table build finds
        a reducible one out, as it has no primitive element; above, nothing
        else would, and the context would silently be a ring."""
        from .poly import Poly, is_irreducible

        if not is_irreducible(Poly(make_prime_field(self.p), self.modulus)):
            raise InvalidArgument(
                f"modulus {self.modulus} is not irreducible over F_{self.p}"
            )

    # -- representation helpers ------------------------------------------

    def decode(self, a):
        """Base-p digits of the encoding, ascending, length l."""
        return _digits(a, self.p, self.l)

    def encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + (d % self.p)
        return v

    # -- arithmetic -------------------------------------------------------

    def _build_tables(self):
        """Fill the q x q add/mul tables from the log/antilog of gamma.

        gamma = primitive_element() is found by digit arithmetic, as no table
        is set yet; it raises for a reducible modulus. a -> a*gamma is
        F_p-linear, so its image of all q elements is one digit-matrix product
        mod p, from the l products gamma*u^j; exp[i] = gamma^i is the walk
        1 -> gamma -> gamma^2 ... over that permutation, and log is its
        inverse, so a*b = exp[(log a + log b) mod (q - 1)] for nonzero a, b.
        Sums act digit by digit: XOR for p = 2, otherwise _digit_sum of one
        digit plane at a time. Both tables are kept as q x q arrays of the
        smallest dtype holding q - 1, for add_array/mul_array, and as flat
        lists, so add/mul stay one list index.
        """
        q, p, l = self.q, self.p, self.l
        gamma = self.primitive_element()
        # log sums and digit sums reach 2(q - 2), so hold them in a type for 2q
        dt = np.min_scalar_type(2 * q)
        digits = np.indices((p,) * l, dtype=dt).reshape(l, q)[::-1]  # [t, a]: digit t of a
        places = [p ** t for t in range(l)]
        image = [_digits(self._mul_raw(u, gamma), p, l) for u in places]
        times = (digits.T.astype(np.int64) @ image % p @ places).tolist()
        exp = [1]
        for _ in range(q - 2):
            exp.append(times[exp[-1]])
        exp = np.array(exp + exp[:-1], dtype=dt)  # doubled: no reduction mod q - 1
        log = np.zeros(q, dtype=dt)
        log[exp[: q - 1]] = np.arange(q - 1, dtype=dt)
        mul = exp[np.add.outer(log, log)]
        mul[0, :] = 0
        mul[:, 0] = 0
        if p == 2:
            elems = np.arange(q, dtype=dt)
            add = np.bitwise_xor.outer(elems, elems)
        else:
            add = np.zeros((q, q), dtype=dt)
            for place, digit in zip(places, digits):
                add += _digit_sum(digit[:, None], digit, p) * place
        elem = np.min_scalar_type(q - 1)
        object.__setattr__(self, "_add_array", add.astype(elem))
        object.__setattr__(self, "_mul_array", mul.astype(elem))
        object.__setattr__(self, "_add_table", _flat_list(self._add_array))
        object.__setattr__(self, "_mul_table", _flat_list(self._mul_array))

    def _add_raw(self, a, b):
        if self.l == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da = self.decode(a)
        db = self.decode(b)
        return self.encode([x + y for x, y in zip(da, db)])

    def _mul_raw(self, a, b):
        p = self.p
        if self.l == 1:
            return (a * b) % p
        prod = _int_mul(self.decode(a), self.decode(b))
        # reduce modulo the defining polynomial
        mod = self.modulus
        for i in range(len(prod) - 1, self.l - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.l):
                    prod[i - self.l + j] = (prod[i - self.l + j] - c * mod[j]) % p
        return self.encode(prod[: self.l])

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a):
        return self.mul(self.p - 1, a)

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_raw(a, b)

    def add_array(self, a, b):
        """Element-wise sum of two broadcastable arrays of elements."""
        if self._add_array is not None:
            return self._add_array[a, b]
        return np.frompyfunc(self.add, 2, 1)(a, b).astype(np.int64)

    def mul_array(self, a, b):
        """Element-wise product of two broadcastable arrays of elements."""
        if self._mul_array is not None:
            return self._mul_array[a, b]
        return np.frompyfunc(self.mul, 2, 1)(a, b).astype(np.int64)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return _power(a, e, self.mul, 1)

    def inv(self, a):
        if a == 0:
            raise InvalidArgument("0 has no multiplicative inverse")
        if self.l == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    # -- multiplicative structure ------------------------------------------

    def primitive_element(self):
        """Canonically-least a with a^(q-1) = 1 and a^((q-1)/r) != 1 for each
        prime r | q - 1; none exists when the modulus is reducible."""
        if self._primitive is None:
            e = self.q - 1
            primes = [r for r, _ in factorize(e)] if e > 1 else []
            for a in range(1, self.q):
                if self.pow(a, e) == 1 and all(self.pow(a, e // r) != 1 for r in primes):
                    object.__setattr__(self, "_primitive", a)
                    break
            else:
                raise InvalidArgument(f"modulus {self.modulus} is not irreducible over F_{self.p}")
        return self._primitive

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.p, self.l, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.l == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.l}"

    def literal(self):
        return str(self.p) if self.l == 1 else f"{self.p}^{self.l}"


def _flat_list(table):
    """The entries of a q x q table of field elements as one flat list.

    CPython keeps a single object for each int up to 256, but tolist() makes
    a new int for every larger entry, so bigger fields share the q objects
    of range(q) instead of holding q^2 ints.
    """
    q = len(table)
    if q <= 257:
        return table.ravel().tolist()
    elems = list(range(q))
    return [elems[v] for row in table for v in row.tolist()]


class Extension:
    """A field F_{q^m} together with the embedding of a base field into it,
    built whole by make_extension: the images of the base's elements and the
    map back, both None when the embedding is the identity."""
    __setattr__ = __delattr__ = _read_only

    def __init__(self, base, field, table=None, inverse=None):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_inverse", inverse)

    def embed(self, a):
        return a if self._table is None else self._table[a]

    def retract(self, b):
        """Inverse of embed; raises if b is outside the embedded base field."""
        a = b if self._inverse is None else self._inverse.get(b)
        if a not in range(self.base.q):
            raise InvalidArgument(f"{b} is not in the embedded base field")
        return a


def make_prime_field(p):
    """The prime field F_p, for p up to CONTEXT_LIMIT."""
    return _checked_field(p, 1)


def _canonical_modulus(p, d):
    """First monic irreducible of degree d >= 2 over F_p in canonical order.

    A candidate with a root in F_p has a linear factor, so the p evaluations
    skip it before Rabin's test, which decides the rest.
    """
    from .poly import Poly, is_irreducible

    _check_prime(p, d)  # before F_p is built, so that the hint names F_(p^d)
    ctx = make_prime_field(p)
    for low in range(p ** d):
        f = Poly._of(ctx, _digits(low, p, d) + [1])
        if all(f.eval(a) for a in range(p)) and is_irreducible(f):
            return f.coeffs
    raise CycloError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _extension_field(p, l):
    return FieldCtx(p) if l == 1 else FieldCtx(p, l, _canonical_modulus(p, l))


@lru_cache(maxsize=None)
def make_extension(base, m):
    """F_{q^m} as a single F_p-extension of degree l*m, with base embedded.

    Each (base, m) is built once, embedding included, and shared.  q^m may
    not exceed ROOT_SEARCH_LIMIT.
    """
    if m < 1:
        raise InvalidArgument("extension degree must be >= 1")
    if base.q ** m > ROOT_SEARCH_LIMIT:
        raise InvalidArgument(
            f"q^m = {base.q}^{m} exceeds the support cap {ROOT_SEARCH_LIMIT}"
        )
    big = base if m == 1 else _extension_field(base.p, base.l * m)
    if big is base or base.l == 1:  # base's elements encode as themselves in big
        return Extension(base, big)
    return Extension(base, big, *_embedding(base, big))


def _embedding(base, big):
    """The images in big of base's elements, and the map back from them.

    u goes to the canonically-least root of base's modulus among the
    elements of order dividing q - 1, and sum d_i u^i to sum d_i root^i.
    """
    from .poly import Poly

    zeta = nth_root_of_unity(big, base.q - 1)  # F_q* is the group it generates
    f = Poly(big, base.modulus)  # prime-subfield coefficients encode as themselves
    candidates = [0, 1]
    for _ in range(base.q - 2):
        candidates.append(big.mul(candidates[-1], zeta))
    root = min((x for x in candidates if f.eval(x) == 0), default=None)
    if root is None:
        raise CycloError("base modulus has no root in the extension")
    table = [0]
    for i in range(base.l):  # table[a] for every a < p^(i + 1), digit i major
        power = big.pow(root, i)
        table = [big.add(t, big.mul(d, power)) for d in range(base.p) for t in table]
    return table, {img: a for a, img in enumerate(table)}


def nth_root_of_unity(ctx, n):
    """The canonical primitive n-th root of unity gamma^((q-1)/n)."""
    if n < 1 or (ctx.q - 1) % n != 0:
        raise InvalidArgument(f"{n} does not divide q-1 = {ctx.q - 1}")
    return ctx.pow(ctx.primitive_element(), (ctx.q - 1) // n)


def _prime_power_hint(p, l):
    """"; write F_4 as 2^2" when a literal's base p = r^e is a prime power,
    as F_(p^l) is then r^(e l); "" for any other p that is not prime."""
    fact = factorize(p)
    if len(fact) != 1:
        return ""
    (r, e), = fact
    name = p if l == 1 else f"{{{p}^{l}}}"
    return f"; write F_{name} as {r}^{e * l}"


def _check_ints(p, l):
    """Refuse a p or l that is not an integer, before any comparison or
    primality test sees it (is_prime(2.0) is True), and an l below 1."""
    if not (is_int(p) and is_int(l)):
        raise InvalidArgument(f"p and l must be integers, got p = {p!r}, l = {l!r}")
    if l < 1:
        raise InvalidArgument(f"l must be >= 1, got {l}")


def _check_prime(p, l):
    """FieldCtx's check of p, bounded before the trial division; the hint names F_(p^l)."""
    _check_ints(p, l)
    if p > ROOT_SEARCH_LIMIT:
        raise InvalidArgument(f"characteristic {p} exceeds {ROOT_SEARCH_LIMIT}")
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not prime{_prime_power_hint(p, l)}")


def _checked_field(p, l):
    """F_(p^l) for a prime p and p^l <= CONTEXT_LIMIT; else InvalidArgument.

    A large order is refused before FieldCtx's check of p, and before
    p ** l, which a large l makes too long to print. As p >= 2, any l > 16
    already gives an order above 2^16. A float p is refused before the
    shared fields are looked up, where 2.0 would find F_2."""
    _check_ints(p, l)
    if p > 1 and (p > CONTEXT_LIMIT or l > 16 or p ** l > CONTEXT_LIMIT):
        order = p if l == 1 else f"{p}^{l}"
        raise InvalidArgument(f"field order {order} exceeds {CONTEXT_LIMIT}")
    return _extension_field(p, l)


def parse_field(literal):
    """Field literal: "5" for F_5, "2^3" for F_8."""
    s = str(literal).strip()
    p_str, caret, l_str = s.partition("^")
    try:
        p, l = int(p_str), int(l_str) if caret else 1
    except ValueError:
        raise InvalidArgument(f"field literal {s!r} is not p or p^l") from None
    if l < 1:
        raise InvalidArgument(f"field literal {s!r} needs an exponent l >= 1")
    return _checked_field(p, l)
