"""Dense univariate polynomials over a FieldCtx.

Coefficients are stored ascending as field-element encodings (ints), with no
trailing zeros; the zero polynomial is the empty tuple.  All operations are
schoolbook and exact -- lengths here stay in the hundreds.
"""

from operator import index

from .errors import InvalidArgument
from .field import _int_mul, _power, _read_only, check_n, factorize


def _stripped(cs):
    """cs without trailing zeros, as a tuple."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Poly:
    __slots__ = ("ctx", "coeffs")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, ctx, coeffs):
        # normalize: integers only (Python or numpy, not bool, which index()
        # reads as 0 or 1), reduced mod p over a prime field, zeros stripped;
        # an extension-field one must be in [0, q) already
        try:
            cs = [index(c) % ctx.p for c in coeffs] if ctx.l == 1 else [index(c) for c in coeffs]
        except TypeError:
            cs = None
        if cs is None or bool in map(type, coeffs):
            raise InvalidArgument(f"coefficients over {ctx!r} must be integers")
        if ctx.l > 1 and cs and (min(cs) < 0 or max(cs) >= ctx.q):
            raise InvalidArgument(f"coefficients {cs} are not all in {ctx!r}")
        _set_ctx(self, ctx)
        _set_coeffs(self, _stripped(cs))

    @classmethod
    def _of(cls, ctx, cs):
        """The polynomial of a list of elements of ctx that the arithmetic
        here computed, so it skips __init__'s checks."""
        f = cls.__new__(cls)
        _set_ctx(f, ctx)
        _set_coeffs(f, _stripped(cs))
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, ctx):
        return cls(ctx, [1])

    @classmethod
    def x(cls, ctx):
        return cls(ctx, [0, 1])

    @classmethod
    def x_n_minus_1(cls, ctx, n):
        check_n(n)
        return cls(ctx, [ctx.neg(1)] + [0] * (n - 1) + [1])

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial (callers must check is_zero)."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def _check(self, other):
        if self.ctx != other.ctx:
            raise InvalidArgument("polynomials over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __reduce__(self):
        # copy and pickle would set the slots, which __setattr__ refuses
        return Poly, (self.ctx, self.coeffs)

    def __repr__(self):
        return f"Poly({self.ctx!r}, {list(self.coeffs)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly._of(ctx, out)

    def __neg__(self):
        ctx = self.ctx
        return Poly._of(ctx, [ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if ctx.l == 1:
            p = ctx.p
            return Poly._of(ctx, [c % p for c in _int_mul(a, b)])
        out = [0] * (len(a) + len(b) - 1)
        add, mul = ctx.add, ctx.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = add(out[i + j], mul(x, y))
        return Poly._of(ctx, out)

    def scale(self, c):
        ctx = self.ctx
        return Poly._of(ctx, [ctx.mul(c, x) for x in self.coeffs])

    def monic(self):
        if self.is_zero:
            raise InvalidArgument("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return self.scale(self.ctx.inv(lead))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise InvalidArgument("polynomial division by zero")
        ctx = self.ctx
        add, mul = ctx.add, ctx.mul
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = ctx.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1 - db, -1, -1):
            c = rem[i + db]
            if c == 0:
                continue
            f = mul(c, inv_lead)
            quot[i] = f
            minus_f = mul(ctx.p - 1, f)  # one negation per step; the loop only adds
            for j, bc in enumerate(other.coeffs):
                rem[i + j] = add(rem[i + j], mul(minus_f, bc))
        return Poly._of(ctx, quot), Poly._of(ctx, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def pow_mod(self, e, mod):
        """self^e modulo mod, by the field's square-and-multiply."""
        return _power(self % mod, e, lambda a, b: (a * b) % mod, Poly.one(self.ctx))

    # -- evaluation ----------------------------------------------------------

    def eval(self, a):
        """Horner evaluation at an element a of this polynomial's field.

        To evaluate at an element of an extension, embed the coefficients
        first, as Poly(ext.field, [ext.embed(c) for c in f.coeffs]).
        """
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, a), c)
        return acc


_set_ctx, _set_coeffs = Poly.ctx.__set__, Poly.coeffs.__set__


def reciprocal(f):
    """x^deg(f) * f(1/x): reversed coefficients, trailing zeros stripped."""
    if f.is_zero:
        raise InvalidArgument("zero polynomial has no reciprocal")
    return Poly._of(f.ctx, list(reversed(f.coeffs)))


def is_irreducible(f):
    """Rabin irreducibility test over the polynomial's field."""
    if f.is_zero or f.degree < 1:
        raise InvalidArgument("irreducibility needs degree >= 1")
    ctx = f.ctx
    q = ctx.q
    m = f.degree
    x = Poly.x(ctx)
    if m == 1:
        return True
    # x^(q^m) == x (mod f)
    if x.pow_mod(q ** m, f) != x % f:
        return False
    for r, _ in factorize(m):
        h = x.pow_mod(q ** (m // r), f) - (x % f)
        if h.gcd(f).degree != 0:
            return False
    return True

