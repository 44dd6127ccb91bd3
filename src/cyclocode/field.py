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

# Extension fields up to this order keep full q x q add/mul tables, built
# with whole-array maps from the log/antilog of the primitive element, as
# numpy arrays for whole-array arithmetic and as flat lists for scalar
# look-ups; larger ones add and multiply by one digit rule, _add_raw and
# _mul_raw. A prime field is ints mod p. At 512, F_{2^9} holds about 13 MB
# of tables; a limit of 256 would make the zeros of C_511 over F_2, which
# live in F_{2^9}, take 15-20x as long.
TABLE_LIMIT = 512

# Support contract: FieldCtx(p, l) is always the canonical F_(p^l), and two caps
# decide which fields exist: parse_field and make_prime_field name fields of at
# most 2^16 elements; FieldCtx and make_extension build them up to 2^24.
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


def check_type(value, kind, name):
    """Raise InvalidArgument unless value is a kind; the message calls it name."""
    if not isinstance(value, kind):
        raise InvalidArgument(f"{name} must be a {kind.__name__}, got {value!r}")


def check_field(ctx, name="field"):
    """Raise InvalidArgument unless ctx is a FieldCtx; the message calls it name."""
    check_type(ctx, FieldCtx, name)


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


def _from_digits(digits, p):
    """The int whose ascending base-p digits are digits reduced mod p: the
    inverse of _digits."""
    v = 0
    for d in reversed(digits):
        v = v * p + d % p
    return v


def _digit_array(v, p, l):
    """Array form of _digits: the l base-p digits of each element of v, as
    int64, ascending along a new last axis."""
    return np.asarray(v)[..., None] // p ** np.arange(l, dtype=np.int64) % p


def _from_digit_array(digits, p):
    """Array form of _from_digits: the elements whose ascending base-p digits,
    along the last axis, are digits reduced mod p."""
    return digits % p @ p ** np.arange(digits.shape[-1], dtype=np.int64)


def _digit_sum(a, b, p):
    """(a + b) mod p for unsigned arrays of digits below p, in a dtype that
    holds 2(p - 1), with no integer division: s = a + b is below 2p, and
    where s < p, s - p wraps around above s, so min(s, s - p) is exact."""
    s = a + b
    return np.minimum(s, s - p)


class FieldCtx:
    """The finite field F_{p^l}, always on _canonical_modulus(p, l); immutable
    after construction; a prime field is ints mod p. An order above
    ROOT_SEARCH_LIMIT, make_extension's cap too, is refused before the modulus search."""
    __setattr__ = __delattr__ = _read_only
    # None until set: extension fields' tables by _build_tables; gamma on first use
    _add_table = _mul_table = _add_grid = _mul_grid = _primitive = None

    def __init__(self, p, l=1):
        _check_prime(p, l)
        _check_order(p, l, ROOT_SEARCH_LIMIT)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "q", p ** l)
        object.__setattr__(self, "modulus", None if l == 1 else _canonical_modulus(p, l))
        self._build_tables()

    # -- arithmetic -------------------------------------------------------

    def _build_tables(self):
        """Fill the q x q add/mul tables from the log/antilog of gamma, for an
        extension field up to TABLE_LIMIT; a prime or larger field keeps none.

        gamma = primitive_element() is found by digit arithmetic, as no table
        is set yet. a -> a*gamma is F_p-linear, so its image of all q elements
        is one digit-matrix product mod p, by _expand([[gamma]]), the digits of
        the l products gamma*u^j; exp[i] = gamma^i is the walk
        1 -> gamma -> gamma^2 ... over that permutation, and log is its
        inverse, so a*b = exp[(log a + log b) mod (q - 1)] for nonzero a, b.
        Sums act digit by digit: XOR for p = 2, otherwise _digit_sum of one
        digit plane at a time. Both tables are kept as q x q arrays of the
        smallest dtype holding q - 1, for _add_array/_mul_array, and as flat
        lists, so add/mul stay one list index.
        """
        q, p, l = self.q, self.p, self.l
        if l == 1 or q > TABLE_LIMIT:
            return
        gamma = self.primitive_element()
        # log sums and digit sums reach 2(q - 2), so hold them in a type for 2q
        dt = np.min_scalar_type(2 * q)
        digits = _digit_array(np.arange(q), p, l)  # [a, t]: digit t of a
        times = _from_digit_array(digits @ self._expand([[gamma]]), p).tolist()
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
            for t, digit in enumerate(digits.T.astype(dt)):
                add += _digit_sum(digit[:, None], digit, p) * p ** t
        elem = np.min_scalar_type(q - 1)
        object.__setattr__(self, "_add_grid", add.astype(elem))
        object.__setattr__(self, "_mul_grid", mul.astype(elem))
        object.__setattr__(self, "_add_table", self._add_grid.ravel().tolist())
        object.__setattr__(self, "_mul_table", self._mul_grid.ravel().tolist())

    def _add_raw(self, a, b):
        """a + b by the digit rule of every extension field without tables:
        the base-p digits added one by one, mod p."""
        p, l = self.p, self.l
        return _from_digits([x + y for x, y in zip(_digits(a, p, l), _digits(b, p, l))], p)

    def _mul_raw(self, a, b):
        """a * b by the digit rule of every extension field without tables:
        the schoolbook product of the digit vectors, reduced by the modulus
        (u^l = -(modulus without its leading 1))."""
        p, l = self.p, self.l
        prod = _int_mul(_digits(a, p, l), _digits(b, p, l))
        mod = self.modulus
        for i in range(len(prod) - 1, l - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(l):
                    prod[i - l + j] = (prod[i - l + j] - c * mod[j]) % p
        return _from_digits(prod[:l], p)

    def _add(self, a, b):
        """a + b, unchecked: the look-up of the loops over elements that the
        package computed or checked already."""
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        if self.l == 1:
            return (a + b) % self.p
        return self._add_raw(a, b)

    def _mul(self, a, b):
        """a * b, unchecked: the look-up of the loops over elements that the
        package computed or checked already."""
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        if self.l == 1:
            return a * b % self.p
        return self._mul_raw(a, b)

    def check_element(self, a):
        """Raise InvalidArgument unless a is an int (not a bool) in [0, q)."""
        if not (is_int(a) and 0 <= a < self.q):
            raise InvalidArgument(f"{a!r} is not an element of {self!r}")

    def add(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._add(a, b)

    def neg(self, a):
        self.check_element(a)
        return self._mul(self.p - 1, a)

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return self._mul(a, b)

    def _add_array(self, a, b):
        """Element-wise sum of two broadcastable arrays of elements, unchecked."""
        if self._add_grid is not None:
            return self._add_grid[a, b]
        if self.l == 1:
            return (a + b) % self.p
        return np.frompyfunc(self._add, 2, 1)(a, b).astype(np.int64)

    def _mul_array(self, a, b):
        """Element-wise product of two broadcastable arrays of elements, unchecked."""
        if self._mul_grid is not None:
            return self._mul_grid[a, b]
        if self.l == 1:
            return a * b % self.p
        return np.frompyfunc(self._mul, 2, 1)(a, b).astype(np.int64)

    def _expand(self, rows):
        """The k x n array rows over F_{p^l} as the (k l) x (n l) array over
        F_p of its digits: row r l + s, column j l + t holds digit t of
        u^s * rows[r, j], so a prime field's rows are their own digits.  They
        are in the least unsigned dtype holding a sum of two, uint8 for p <= 128."""
        p, l = self.p, self.l
        rows = np.asarray(rows)
        dtype = np.min_scalar_type(2 * (p - 1))
        if l == 1:
            return rows.astype(dtype)
        multiples = self._mul_array(p ** np.arange(l)[:, None], rows[:, None, :])  # [r, s, j]
        digits = _digit_array(multiples, p, l).reshape(len(rows) * l, rows.shape[1] * l)
        return digits.astype(dtype)

    def pow(self, a, e):
        self.check_element(a)
        if not is_int(e):
            raise InvalidArgument(f"exponent must be an integer, got {e!r}")
        if e < 0:
            a, e = self.inv(a), -e
        return _power(a, e, self._mul, 1)

    def inv(self, a):
        """a^(q - 2), the inverse of an element a in 1 .. q - 1."""
        if not (is_int(a) and 0 < a < self.q):
            raise InvalidArgument(f"{a!r} has no multiplicative inverse in {self!r}")
        return _power(a, self.q - 2, self._mul, 1)

    # -- multiplicative structure ------------------------------------------

    def primitive_element(self):
        """Canonically-least a with a^(q-1) = 1 and a^((q-1)/r) != 1 for each
        prime r | q - 1; one exists, as the modulus is irreducible."""
        if self._primitive is None:
            e = self.q - 1
            primes = [r for r, _ in factorize(e)] if e > 1 else []
            for a in range(1, self.q):
                if self.pow(a, e) == 1 and all(self.pow(a, e // r) != 1 for r in primes):
                    object.__setattr__(self, "_primitive", a)
                    break
            else:
                raise CycloError(f"{self!r} has no primitive element")  # unreachable
        return self._primitive

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.p, self.l)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"F_{self.literal()}"

    def literal(self):
        return str(self.p) if self.l == 1 else f"{self.p}^{self.l}"


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

    ctx = make_prime_field(p)
    for low in range(p ** d):
        f = Poly._of(ctx, _digits(low, p, d) + [1])
        if all(f.eval(a) for a in range(p)) and is_irreducible(f):
            return f.coeffs
    raise CycloError("no irreducible polynomial found")  # unreachable


# The shared F_(p^l): one FieldCtx(p, l) per (p, l), on its canonical modulus.
_extension_field = lru_cache(maxsize=None)(FieldCtx)


def make_extension(base, m):
    """F_{q^m} as a single F_p-extension of degree l*m, with base embedded.

    Each (base, m) is built once, embedding included, and shared.  The
    arguments are checked before the cache is looked up, so an unhashable m
    or base, or m = 2.0 or True, is refused rather than hashed or taken for
    the entry of 2 or 1.  A q^m above ROOT_SEARCH_LIMIT is refused by
    FieldCtx, as the order p^(l m), before q^m is computed.
    """
    check_field(base, "base")
    if not is_int(m):
        raise InvalidArgument(f"extension degree must be an integer, got m = {m!r}")
    if m < 1:
        raise InvalidArgument("extension degree must be >= 1")
    return _extension(base, m)


@lru_cache(maxsize=None)
def _extension(base, m):
    """make_extension's shared build, for arguments it has checked."""
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
    f = Poly._of(big, list(base.modulus))  # prime-subfield coefficients encode as themselves
    candidates = [0, 1]
    for _ in range(base.q - 2):
        candidates.append(big._mul(candidates[-1], zeta))
    root = min((x for x in candidates if f.eval(x) == 0), default=None)
    if root is None:
        raise CycloError("base modulus has no root in the extension")
    table = [0]
    for i in range(base.l):  # table[a] for every a < p^(i + 1), digit i major
        power = big.pow(root, i)
        table = [big._add(t, big._mul(d, power)) for d in range(base.p) for t in table]
    return table, {img: a for a, img in enumerate(table)}


def nth_root_of_unity(ctx, n):
    """The canonical primitive n-th root of unity gamma^((q-1)/n)."""
    check_field(ctx)
    check_n(n)
    if (ctx.q - 1) % n != 0:
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


def _check_order(p, l, limit):
    """Refuse an order p^l above limit without computing p ** l for a large l:
    as p >= 2, any l above log2(limit) already gives an order above it."""
    if p > limit or l > limit.bit_length() - 1 or p ** l > limit:
        order = p if l == 1 else f"{p}^{l}"
        raise InvalidArgument(f"field order {order} exceeds {limit}")


def _checked_field(p, l):
    """F_(p^l) for a prime p and p^l <= CONTEXT_LIMIT; else InvalidArgument.

    A large order is refused before FieldCtx's check of p. A float p is
    refused before the shared fields are looked up, where 2.0 would find F_2."""
    _check_ints(p, l)
    if p > 1:
        _check_order(p, l, CONTEXT_LIMIT)
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
