"""Cyclic codes, duals, canonical matrix forms and exhaustive distances.

A cyclic code keeps its generator g and check polynomial h = (x^n - 1) / g.
The builders take h from exact identities, never by dividing x^n - 1: C_n
and C_{n,1} from the integer cofactor of Q_n in cyclotomic.py, R_n as x - 1,
and a dual as -h(0) g* from the code it dualises.  Only from_generator, for
a g the caller supplies, divides, to check that g | x^n - 1.  The public
CyclicCode constructor checks g h = x^n - 1 by one product, which the codes
made here skip through CyclicCode._of.

Matrices hold field-element encodings in int64 numpy arrays; row reduction
acts on whole rows through the field's add/mul tables, for prime and
extension fields alike.  A cyclic code's generator matrix is its canonical
RREF [I_k | P], read off g by systematic encoding, so it is never
row-reduced.  The builders share one code per (n, field), and a code keeps
its matrix and its dual once made; codes, matrices and their rows are
read-only, so no holder of a shared one can change it, and only the RREFs
made here are marked canonical.  same_code compares rows that prove their
own rank with an [I_k | P] by membership, with no row reduction.  Minimum
distances and weight distributions come from one meet-in-the-middle
enumeration over the prime subfield, one walk for every field: a table of
all combinations of the first symbols, walked by an odometer over the
remaining symbols, within a budget that check_budget validates.  It weighs
one message per class of F_q-multiples, the one whose highest nonzero
symbol is 1, and counts it q - 1 times, as the multiples of a codeword
share its weight.  The walk's rows are packed bit planes over
characteristic 2, added by XOR and weighed by popcount, and digits over
odd characteristic.  A GenMatrix refuses any entry that is not an element
of its field, and the functions here refuse an argument that is not a code
or a field with InvalidArgument.
"""

import time
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .cyclotomic import cosets, cyclotomic_cofactor, cyclotomic_poly, multiplicative_order_mod
from .errors import BudgetExceeded, CycloError, InvalidArgument
from .field import (
    _digit_sum, _read_only, check_field, check_n, is_int, is_prime,
    make_extension, nth_root_of_unity,
)
from .poly import Poly, reciprocal

DEFAULT_BUDGET = 1 << 24
# The largest budget accepted: a codeword count must fit numpy's int64.
MAX_BUDGET = (1 << 63) - 1
# Columns of the enumeration table: it holds every F_q-combination of as many
# leading symbols as fit, at least one, and each further symbol multiplies
# the walk over it by q.  At 2^13 a step's arrays stay in cache; larger tables
# measured slower and raised peak memory.  A field with q > 2^13 holds a
# table of q columns whenever the code has more than one symbol.
_LOW_TABLE = 1 << 13
# same_code's membership product is exact while each of its sums, k products
# of two elements of F_p, stays below this.
_INT64_BOUND = 1 << 63


class GenMatrix:
    """Rows spanning a linear code; rows are encodings over a FieldCtx."""
    __setattr__ = __delattr__ = _read_only

    def __init__(self, ctx, rows, n=None):
        check_field(ctx)
        try:
            arr = np.array(rows)
        except ValueError:  # ragged rows
            raise InvalidArgument("rows must form a 2-D array") from None
        # an empty list infers float64; bool, float or object holds a non-element
        if arr.size and arr.dtype.kind not in "iu":
            raise InvalidArgument(f"matrix entries are not all in {ctx!r}: got {arr.dtype} entries")
        arr = arr.astype(np.int64, copy=False)
        if arr.size == 0 and arr.ndim != 2:
            arr = arr.reshape(0, n if n is not None else 0)
        if arr.ndim != 2:
            raise InvalidArgument("rows must form a 2-D array")
        if n is not None and arr.shape[1] != n:
            raise InvalidArgument(f"rows have {arr.shape[1]} columns, n = {n}")
        # one reduction: a negative entry read as uint64 is at least 2^63
        if arr.size and arr.view(np.uint64).max() >= ctx.q:
            raise InvalidArgument(f"matrix entries are not all in {ctx!r}")
        arr.flags.writeable = False  # a matrix may be shared, as a code's is
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "canonical", False)

    @classmethod
    def _of(cls, ctx, rows):
        """rows, checked by __init__, marked canonical: rref and the distance
        floor trust the mark, so only rref, generator_matrix and __reduce__ set it."""
        m = cls(ctx, rows)
        object.__setattr__(m, "canonical", True)
        return m

    def __reduce__(self):
        # a copy or pickle is rebuilt with read-only rows, marked only if this is
        return (GenMatrix._of if self.canonical else GenMatrix), (self.ctx, self.rows)

    @property
    def n(self):
        return self.rows.shape[1]

    @property
    def num_rows(self):
        return self.rows.shape[0]

    def rref(self):
        """Canonical RREF: Gauss-Jordan whose row operations act on whole rows
        through the field's element-wise _add_array/_mul_array."""
        if self.canonical:
            return self
        ctx = self.ctx
        rows = self.rows.copy()
        top = 0
        for col in range(self.n):
            if top == len(rows):
                break
            below = rows[top:, col].nonzero()[0]
            if not below.size:
                continue
            if below[0]:
                rows[[top, top + below[0]]] = rows[[top + below[0], top]]
            inv = ctx.inv(int(rows[top, col]))
            if inv != 1:
                rows[top] = ctx._mul_array(inv, rows[top])
            factors = rows[:, col].copy()
            factors[top] = 0
            hit = factors.nonzero()[0]
            if hit.size:
                minus_pivot = ctx._mul_array(ctx.p - 1, rows[top])
                scaled = ctx._mul_array(factors[hit, None], minus_pivot)
                rows[hit] = ctx._add_array(rows[hit], scaled)
            top += 1
        return GenMatrix._of(ctx, rows[:top])

    def __repr__(self):
        return f"GenMatrix({self.ctx!r}, {self.num_rows}x{self.n})"


class DistanceReport(NamedTuple):
    """A minimum distance d, exact over the q^k - 1 nonzero codewords that
    codewords_enumerated counts.  The walk behind it weighs one codeword per
    class of q - 1 scalar multiples, which share a weight, and stops at a
    proved floor (1, or 2 when no RREF row has weight 1), so that count is
    what the result covers, not the number of codewords weighed."""

    d: int
    codewords_enumerated: int
    method: str
    elapsed: float

    def to_dict(self):
        return self._asdict()


class CyclicCode:
    """A cyclic code of length n given by a monic generator g dividing
    x^n - 1, with its check polynomial h = (x^n - 1) / g.  The constructor
    refuses a g that is not monic and any g h other than x^n - 1."""
    __setattr__ = __delattr__ = _read_only

    def __new__(cls, n, ctx, g, h, label=""):
        check_n(n)
        if not (isinstance(g, Poly) and g.is_monic):
            raise InvalidArgument("generator must be a monic polynomial")
        if not (isinstance(h, Poly) and g * h == Poly.x_n_minus_1(ctx, n)):
            raise InvalidArgument(f"g h is not x^{n} - 1 over {ctx!r}")
        return super().__new__(cls)

    @classmethod
    def _of(cls, n, ctx, g, h, label=""):
        """The code of a monic g and an h with g h = x^n - 1 that the
        builders, dual and from_generator hold exactly, so it skips the
        product that __new__ checks."""
        c = object.__new__(cls)
        c.__init__(n, ctx, g, h, label)
        return c

    def __init__(self, n, ctx, g, h, label=""):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", n - g.degree)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_dual", None)

    def __reduce__(self):
        # copy and pickle rebuild a code from the exact g and h it holds
        return CyclicCode._of, (self.n, self.ctx, self.g, self.h, self.label)

    def generator_matrix(self):
        """The canonical RREF [I_k | P], read off g without row reduction
        on the first call and returned again on every later one.

        As x^n = 1 mod g, row i is e_i followed by the coefficients of
        t_i = -(x^(r+i) mod g), r = deg g (MacWilliams & Sloane, ch. 7).
        An LFSR gives them in O(k r) field operations: t_0 = g - x^r, the low
        coefficients of the monic g, and t_(i+1) = x t_i mod g, which is t_i
        shifted up one place plus its top coefficient times x^r mod g = -t_0.
        When g lies in F_p, as every code built from Q_n does, each step is
        int arithmetic mod p in any field; otherwise it goes through the
        field's look-ups.
        """
        if self._matrix is not None:
            return self._matrix
        ctx, k, r = self.ctx, self.k, self.g.degree
        rows = np.zeros((k, self.n), dtype=np.int64)
        rows[:, :k] = np.eye(k, dtype=np.int64)
        if k and r:
            p, add, mul = ctx.p, ctx._add, ctx._mul
            t = list(self.g.coeffs[:r])
            over_fp = max(t) < p
            feedback = ctx._mul_array(p - 1, np.array(t)).tolist()
            block = []
            for _ in range(k):
                block.append(t)
                top = t[-1]
                t = [0] + t[:-1]
                if top:
                    if over_fp:
                        t = [(a + top * b) % p for a, b in zip(t, feedback)]
                    else:
                        t = [add(a, mul(top, b)) for a, b in zip(t, feedback)]
            rows[:, k:] = block
        object.__setattr__(self, "_matrix", GenMatrix._of(ctx, rows))
        return self._matrix

    def to_dict(self):
        return {
            "field": self.ctx.literal(),
            "n": self.n,
            "generator": list(self.g.coeffs),
            "k": self.k,
            "label": self.label,
        }

    def __repr__(self):
        return f"CyclicCode([{self.n},{self.k}] over {self.ctx!r}, {self.label!r})"


def from_generator(g, n, label=""):
    """Cyclic code of length n generated by monic g | x^n - 1.

    Divides x^n - 1 by g to check g and find h; the builders and dual below
    know h already and do not come here.
    """
    if not isinstance(g, Poly) or not g.is_monic:
        raise InvalidArgument("generator must be a monic nonzero Poly")
    xn1 = Poly.x_n_minus_1(g.ctx, n)
    h, r = divmod(xn1, g)
    if not r.is_zero:
        raise InvalidArgument(f"generator does not divide x^{n} - 1")
    return CyclicCode._of(n, g.ctx, g, h, label=label)


def _shared(build):
    """build(n, ctx) behind check_n and check_field, then a cache that shares
    one code per (n, field), with its matrix and dual, among its last 32: the
    sweep configs in perfbench/configs and the default sweep build no
    generator matrix twice with 32, and 64 held 0.5-0.7 MB more peak memory.
    The checks come first, so an unhashable n or field is refused, not hashed."""
    cached = lru_cache(maxsize=32, typed=True)(build)

    @wraps(build)
    def checked(n, ctx):
        check_n(n)
        check_field(ctx)
        return cached(n, ctx)

    checked.cache_clear = cached.cache_clear
    return checked


@_shared
def build_Cn(n, ctx):
    """The code generated by Q_n; an [n, n - phi(n)] code.

    Its check polynomial is the cofactor prod_{d | n, d < n} Q_d, formed over
    the integers where Q_n was divided out of x^n - 1 exactly.
    """
    if n == 1:
        raise InvalidArgument(f"build_Cn needs n > 1, got {n}")
    return CyclicCode._of(
        n, ctx, cyclotomic_poly(n, ctx), cyclotomic_cofactor(n, ctx), label="C_n"
    )


@_shared
def build_Cn1(n, ctx):
    """The code generated by Q_n * Q_1; defined for composite n only.

    Its check polynomial is the cofactor of Q_n divided exactly by
    Q_1 = x - 1 over the integers.
    """
    if n == 1:
        raise InvalidArgument(f"build_Cn1 needs n > 1, got {n}")
    if is_prime(n):
        raise InvalidArgument(f"n = {n} is prime, the code would be the zero code")
    g = cyclotomic_poly(n, ctx) * cyclotomic_poly(1, ctx)
    h = cyclotomic_cofactor(n, ctx, without_q1=True)
    return CyclicCode._of(n, ctx, g, h, label="C_{n,1}")


@_shared
def build_repetition(n, ctx):
    """The [n, 1, n] repetition code, generated by 1 + x + ... + x^(n-1);
    its check polynomial is x - 1."""
    g = Poly(ctx, [1] * n)
    return CyclicCode._of(n, ctx, g, Poly.x_n_minus_1(ctx, 1), label="R_n")


def dual(c):
    """Euclidean dual, generated by the monic h* / h(0) (MacWilliams & Sloane,
    ch. 7), with check polynomial -h(0) g*; kept on c, so every call on one
    code returns one dual.

    g h = x^n - 1 reverses to g* h* = 1 - x^n, so the two multiply to
    x^n - 1 again: O(n) work, with no division.  h(0) and g(0) are nonzero
    as x does not divide x^n - 1, so h* and g* keep their degrees.
    """
    _check_cyclic(c, "dual")
    if c._dual is None:
        h = reciprocal(c.g).scale(c.ctx.neg(c.h.constant_term()))
        d = CyclicCode._of(c.n, c.ctx, reciprocal(c.h).monic(), h, label=c.label + "^perp")
        object.__setattr__(c, "_dual", d)
    return c._dual


def _check_cyclic(c, name):
    if not isinstance(c, CyclicCode):
        raise InvalidArgument(f"{name} needs a CyclicCode, got {type(c).__name__}")


def _as_matrix(obj):
    if isinstance(obj, CyclicCode):
        return obj.generator_matrix()
    if not isinstance(obj, GenMatrix):
        raise InvalidArgument(f"expected a CyclicCode or GenMatrix, got {type(obj).__name__}")
    return obj


def _matrices(a, b):
    """Generator matrices of two codes over one field and of one length."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.ctx != mb.ctx:
        raise InvalidArgument("codes over different fields")
    if ma.n != mb.n:
        raise InvalidArgument(f"lengths {ma.n} and {mb.n} differ")
    return ma, mb


def same_code(a, b):
    """Row-space equality, by membership when one side is [I_k | P].

    If one side is canonical with pivots 0 ... k - 1, as every cyclic code's
    generator matrix is, every entry of both sides lies in F_p, as those of
    every code built from Q_n do, and each row of the other side has a
    column where it alone is nonzero, which proves its rows independent,
    the codes are equal iff the other has k rows and each of its rows v has
    v[k:] = v[:k] P: one int64 product mod p, exact while k (p - 1)^2 < 2^63,
    which holds for every parse_field field, but not for a FieldCtx prime
    near 2^24 with k >= 2^15.  Any other pair is compared by identical RREFs.
    """
    ma, mb = _matrices(a, b)
    if mb.canonical and not ma.canonical:
        ma, mb = mb, ma
    p, k, v = ma.ctx.p, ma.num_rows, mb.rows
    if (
        ma.canonical and not mb.canonical
        and k * (p - 1) ** 2 < _INT64_BOUND
        and max(ma.rows.max(initial=0), v.max(initial=0)) < p
        and (not k or ma.rows[k - 1, k - 1])  # RREF pivots rise: the last at k - 1 puts each i at i
        and _independent(v)
    ):
        return len(v) == k and np.array_equal(v[:, :k] @ ma.rows[:, k:] % p, v[:, k:])
    return np.array_equal(ma.rref().rows, mb.rref().rows)


def _independent(rows):
    """Whether every row has a column where it alone is nonzero, which proves
    the rows linearly independent."""
    nonzero = rows != 0
    return bool(nonzero[:, nonzero.sum(axis=0) == 1].any(axis=1).all())


def sum_codes(a, b):
    """RREF basis of the sum of two codes of equal length: the RREF of their
    stacked rows, unique for the row space."""
    ma, mb = _matrices(a, b)
    return GenMatrix(ma.ctx, np.vstack([ma.rows, mb.rows]), n=ma.n).rref()


# -- exhaustive enumeration ----------------------------------------------------

def _symbol_layout(m):
    """The prime-field expansion of m by FieldCtx._expand, in the layout that
    _weights walks, with the add of two rows and the weights of a table's columns.

    Over p = 2 each row is l bit planes, plane t holding digit t of the n
    symbols as n bits packed little-endian into W = ceil(n / 64) uint64 words
    whose padding bits are 0.  A sum is an XOR, and a symbol is nonzero where
    the OR of its planes has a 1, so a column's weight is the popcount of
    that OR summed over the words.  Over odd p a row stays n * l digits in
    an unsigned dtype that holds 2(p - 1): a sum is field._digit_sum, a digit
    add with no division, and a symbol of t - s is zero exactly where t and s
    have the same digits.
    """
    p, l, n = m.ctx.p, m.ctx.l, m.n
    rows = m.ctx._expand(m.rows)
    count = np.min_scalar_type(n)
    if p == 2:
        planes = rows.reshape(len(rows), n, l).transpose(0, 2, 1)
        packed = np.zeros((len(rows), l, 8 * -(-n // 64)), dtype=np.uint8)
        packed[..., : -(-n // 8)] = np.packbits(planes, axis=-1, bitorder="little")

        def weigh(table, prefix):
            sums = table ^ prefix[..., None]
            union = sums[0]  # ORed in place: no array per plane
            for plane in sums[1:]:
                union |= plane
            words = np.bitwise_count(union)
            # n <= 64: one word, whose popcounts are the weights already
            return words[0] if len(words) == 1 else words.sum(axis=0, dtype=count)

        return packed.view(np.uint64), np.bitwise_xor, weigh

    def add(a, b):
        return _digit_sum(a, b, p)

    def weigh(table, prefix):
        differs = table != prefix[..., None]
        if l > 1:  # a symbol differs where any of its l digits does
            differs = differs.reshape(n, l, -1).any(axis=1)
        return differs.view(np.uint8).sum(axis=0, dtype=count)

    return rows, add, weigh


def _weights(m):
    """Yield (weights, multiplicity) per step: a numpy array of codeword
    weights, each of which stands for multiplicity = q - 1 codewords.

    The q - 1 nonzero multiples of a codeword share its weight (MacWilliams
    & Sloane, ch. 1), so the walk weighs one message per class of
    multiples: the one whose highest nonzero F_q-symbol is 1 (or -1, as
    t - s below).  It enumerates over the prime subfield, a symbol being l
    digit rows; weights count nonzero F_q symbols.  The table has one column
    per combination t of the leading symbols, and the first step weighs, for
    each table symbol j, the q^j columns with symbol j at 1 over every
    combination below it; it comes as soon as those columns exist, so a walk
    that stops there never builds the rest of the table.  Each later step
    takes one high symbol at 1 and a combination of the high symbols below
    it as s, walked by an odometer, and weighs every column of the table
    against s, so t - s meets every other class once.  A zero code yields
    nothing.  One walk serves every field; _symbol_layout holds the rows as
    packed bit planes over p = 2 and as digits otherwise.
    """
    p, q, l = m.ctx.p, m.ctx.q, m.ctx.l
    rows, add, weigh = _symbol_layout(m)
    k = len(rows) // l
    if not k:
        return
    symbols = 1  # one symbol even if q > _LOW_TABLE: step 0 needs a message
    while symbols < k and q ** (symbols + 1) <= _LOW_TABLE:
        symbols += 1
    table = np.zeros(rows.shape[1:] + (1,), dtype=rows.dtype)
    leading = []
    for i, row in enumerate(rows[: symbols * l]):
        one = add(table, row[..., None])
        if i % l == 0:  # symbol i // l at 1, over every combination below it
            leading.append(one)
        if i == (symbols - 1) * l:  # step 0 needs no more of the table
            yield weigh(np.concatenate(leading, axis=-1), np.zeros_like(rows[0])), q - 1
            if symbols == k:
                return  # no high rows: the last symbol's other multiples go unused
        blocks = [table, one]
        for _ in range(p - 2):
            blocks.append(add(blocks[-1], row[..., None]))
        table = np.concatenate(blocks, axis=-1)
    high = rows[symbols * l:]
    for top in range(0, len(high), l):
        prefix = high[top]
        digits = [0] * top
        while True:
            yield weigh(table, prefix), q - 1
            for i, row in enumerate(high[:top]):
                prefix = add(prefix, row)
                digits[i] = (digits[i] + 1) % p
                if digits[i]:
                    break
            else:
                break


def check_budget(budget, name="budget"):
    """Raise InvalidArgument unless budget is an int (not a bool) in
    [1, MAX_BUDGET]; the messages call it name."""
    if not is_int(budget):
        raise InvalidArgument(f"{name} must be an integer, got {budget!r}")
    if budget < 1:
        raise InvalidArgument(f"{name} must be >= 1, got {budget}")
    if budget > MAX_BUDGET:
        raise InvalidArgument(f"{name} must be <= 2^63 - 1, got {budget}")


def _basis_within_budget(c, budget):
    """RREF basis of c and its q^k - 1 nonzero codewords, or BudgetExceeded
    when they exceed budget; a CyclicCode's k is known, so a refused one
    builds no matrix, and an accepted one reads its RREF off g.  A budget
    that check_budget refuses builds no matrix either."""
    check_budget(budget)
    m = None if isinstance(c, CyclicCode) else _as_matrix(c).rref()
    k = c.k if m is None else m.num_rows
    count = c.ctx.q ** k - 1
    if count > budget:
        raise BudgetExceeded(count, budget)
    if m is None:
        m = c.generator_matrix()
    return m, count


def min_distance(c, budget=DEFAULT_BUDGET):
    """Exact minimum weight by exhaustive message enumeration.

    The walk stops once it meets a proved floor on the distance: 1, or 2
    when no row of the RREF basis has weight 1.  A weight-1 codeword a e_j
    of an RREF row space is a row: its coefficient on each row is its entry
    in that row's pivot column, zero except on the row with pivot j.
    codewords_enumerated is the q^k - 1 nonzero codewords the result
    covers, not the number the walk reached before it stopped.
    """
    m, count = _basis_within_budget(c, budget)
    if not count:
        raise InvalidArgument("the zero code has no minimum distance")
    if not m.canonical:
        raise CycloError("the distance floor needs an RREF basis")
    t0 = time.perf_counter()
    floor = 1 if (np.count_nonzero(m.rows, axis=1) == 1).any() else 2
    best = m.n
    for weights, _ in _weights(m):
        best = min(best, int(weights.min()))
        if best <= floor:
            break
    return DistanceReport(
        d=best,
        codewords_enumerated=count,
        method="exhaustive-messages",
        elapsed=time.perf_counter() - t0,
    )


def weight_distribution(c, budget=DEFAULT_BUDGET):
    """Counts A_0..A_n of codewords by weight; sums to q^k.  The budget
    bounds the q^k - 1 nonzero codewords, as for min_distance."""
    m, _ = _basis_within_budget(c, budget)
    counts = np.zeros(m.n + 1, dtype=np.int64)
    counts[0] = 1  # the zero codeword, which the walk skips
    for weights, multiplicity in _weights(m):
        counts += multiplicity * np.bincount(weights, minlength=m.n + 1)
    return [int(x) for x in counts]


def zeros_and_nonzeros(c):
    """Defining set T = {i : g(zeta^i) = 0} and its complement in Z_n.

    g is embedded into the splitting field F_{q^t} once and evaluated at one
    zeta^r per q-cyclotomic coset: g(zeta^(rq)) = g(zeta^r)^q, as g is over F_q.
    """
    _check_cyclic(c, "zeros_and_nonzeros")
    n, ctx = c.n, c.ctx
    ext = make_extension(ctx, multiplicative_order_mod(ctx.q, n))
    big = ext.field
    zeta = nth_root_of_unity(big, n)
    g = Poly(big, [ext.embed(a) for a in c.g.coeffs])
    zeros, nonzeros = [], []
    for coset in cosets(n, ctx.q):
        side = zeros if g.eval(big.pow(zeta, coset.representative)) == 0 else nonzeros
        side.extend(coset.members)
    return tuple(sorted(zeros)), tuple(sorted(nonzeros))
