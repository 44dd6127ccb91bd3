"""Cyclic codes, duals, canonical matrix forms and exhaustive distances.

Matrices hold field-element encodings in int64 numpy arrays; row reduction
acts on whole rows through the field's add/mul tables, for prime and
extension fields alike.  Minimum distances and weight distributions come from one
meet-in-the-middle enumeration over the prime subfield, the same for every
field: a table of all combinations of the first rows, walked by an odometer
over the remaining rows.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .cyclotomic import cyclotomic_poly
from .errors import (
    BudgetExceeded,
    CharacteristicDividesN,
    DegreeTooLarge,
    FieldMismatch,
    InvalidArgument,
    LengthMismatch,
    NotADivisor,
    NotMonic,
    PrimeLength,
)
from .field import ROOT_SEARCH_LIMIT, is_prime, make_extension, nth_root_of_unity
from .poly import Poly, reciprocal

DEFAULT_BUDGET = 1 << 24
# Columns of the enumeration table: it holds every F_p-combination of as many
# leading rows as fit, and each further row multiplies the walk over it by p.
# At 2^13 a step's arrays stay in cache; larger tables measured slower and
# raised peak memory.
_LOW_TABLE = 1 << 13


class GenMatrix:
    """Rows spanning a linear code; rows are encodings over a FieldCtx."""

    def __init__(self, ctx, rows, n=None, canonical=False):
        arr = np.array(rows, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, n if n is not None else 0)
        if arr.ndim != 2:
            raise ValueError("rows must form a 2-D array")
        self.ctx = ctx
        self.rows = arr
        self.canonical = canonical

    @property
    def n(self):
        return self.rows.shape[1]

    @property
    def num_rows(self):
        return self.rows.shape[0]

    def rref(self):
        """Canonical RREF: Gauss-Jordan whose row operations act on whole rows
        through the field's element-wise add_array/mul_array."""
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
                rows[top] = ctx.mul_array(inv, rows[top])
            factors = rows[:, col].copy()
            factors[top] = 0
            hit = factors.nonzero()[0]
            if hit.size:
                minus_pivot = ctx.mul_array(ctx.p - 1, rows[top])
                scaled = ctx.mul_array(factors[hit, None], minus_pivot)
                rows[hit] = ctx.add_array(rows[hit], scaled)
            top += 1
        return GenMatrix(ctx, rows[:top], n=self.n, canonical=True)

    @property
    def rank(self):
        return self.rref().num_rows

    def __eq__(self, other):
        """Equal when over the same field and length with the same row space."""
        return (
            isinstance(other, GenMatrix)
            and self.ctx == other.ctx
            and self.n == other.n
            and np.array_equal(self.rref().rows, other.rref().rows)
        )

    def __repr__(self):
        return f"GenMatrix({self.ctx!r}, {self.num_rows}x{self.n})"


@dataclass
class DistanceReport:
    d: int
    codewords_enumerated: int
    method: str
    elapsed: float

    def to_dict(self):
        return {
            "d": self.d,
            "codewords_enumerated": self.codewords_enumerated,
            "method": self.method,
            "elapsed": self.elapsed,
        }


class CyclicCode:
    """A cyclic code of length n given by a monic generator dividing x^n - 1."""

    def __init__(self, n, ctx, g, h, label=""):
        self.n = n
        self.ctx = ctx
        self.g = g
        self.h = h
        self.k = n - g.degree
        self.label = label

    def generator_matrix(self):
        gc = list(self.g.coeffs)
        rows = [
            [0] * i + gc + [0] * (self.n - len(gc) - i) for i in range(self.k)
        ]
        return GenMatrix(self.ctx, rows, n=self.n)

    def params(self):
        return (self.n, self.k)

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
    """Cyclic code of length n generated by monic g | x^n - 1."""
    if g.is_zero or not g.is_monic:
        raise NotMonic("generator must be monic and nonzero")
    xn1 = Poly.x_n_minus_1(g.ctx, n)
    h, r = divmod(xn1, g)
    if not r.is_zero:
        raise NotADivisor(f"generator does not divide x^{n} - 1")
    return CyclicCode(n, g.ctx, g, h, label=label)


def build_Cn(n, ctx):
    """The code generated by Q_n; an [n, n - phi(n)] code."""
    if n <= 1:
        raise InvalidArgument(f"build_Cn needs n > 1, got {n}")
    return from_generator(cyclotomic_poly(n, ctx), n, label="C_n")


def build_Cn1(n, ctx):
    """The code generated by Q_n * Q_1; defined for composite n only."""
    if n <= 1:
        raise InvalidArgument(f"build_Cn1 needs n > 1, got {n}")
    if is_prime(n):
        raise PrimeLength(f"n = {n} is prime, the code would be the zero code")
    g = cyclotomic_poly(n, ctx) * cyclotomic_poly(1, ctx)
    return from_generator(g, n, label="C_{n,1}")


def build_repetition(n, ctx):
    """The [n, 1, n] repetition code, generated by 1 + x + ... + x^(n-1)."""
    if n < 1:
        raise InvalidArgument(f"repetition code needs n >= 1, got {n}")
    return from_generator(Poly(ctx, [1] * n), n, label="R_n")


def dual(c):
    """Euclidean dual: generated by the monic normalization of h^*."""
    gd = reciprocal(c.h).monic()
    return from_generator(gd, c.n, label=c.label + "^perp")


def _as_matrix(obj):
    if isinstance(obj, CyclicCode):
        return obj.generator_matrix()
    return obj


def same_code(a, b):
    """Row-space equality via identical reduced row-echelon forms."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.ctx != mb.ctx:
        raise FieldMismatch("codes over different fields")
    if ma.n != mb.n:
        raise LengthMismatch(f"lengths {ma.n} and {mb.n} differ")
    ra, rb = ma.rref(), mb.rref()
    return np.array_equal(ra.rows, rb.rows)


def sum_codes(a, b):
    """RREF basis of the sum of two codes of equal length."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.ctx != mb.ctx:
        raise FieldMismatch("codes over different fields")
    if ma.n != mb.n:
        raise LengthMismatch(f"lengths {ma.n} and {mb.n} differ")
    stacked = np.vstack([ma.rows, mb.rows])
    return GenMatrix(ma.ctx, stacked, n=ma.n).rref()


def zero_sum_subcode(c):
    """Basis of the codewords whose coordinates sum to zero."""
    m = _as_matrix(c).rref()
    ctx = m.ctx
    rows = [list(map(int, r)) for r in m.rows]
    sums = [0] * len(rows)
    for i, row in enumerate(rows):
        s = 0
        for x in row:
            s = ctx.add(s, x)
        sums[i] = s
    pivot = next((i for i, s in enumerate(sums) if s != 0), None)
    if pivot is None:
        return m
    out = []
    prow = rows[pivot]
    inv = ctx.inv(sums[pivot])
    for i, row in enumerate(rows):
        if i == pivot:
            continue
        f = ctx.neg(ctx.mul(sums[i], inv))
        out.append([ctx.add(x, ctx.mul(f, y)) for x, y in zip(row, prow)])
    return GenMatrix(ctx, out, n=m.n).rref()


def direct_sum(a, b):
    """Block-diagonal generator of the direct sum of two codes."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.ctx != mb.ctx:
        raise FieldMismatch("codes over different fields")
    top = np.hstack([ma.rows, np.zeros((ma.num_rows, mb.n), dtype=np.int64)])
    bot = np.hstack([np.zeros((mb.num_rows, ma.n), dtype=np.int64), mb.rows])
    return GenMatrix(ma.ctx, np.vstack([top, bot]), n=ma.n + mb.n)


# -- exhaustive enumeration ----------------------------------------------------

def _prime_field_expansion(m):
    """Expand a k x n matrix over F_{p^l} to a (k*l) x (n*l) matrix over F_p.

    Entries use the smallest unsigned dtype that holds a sum of two of them,
    uint8 for every p <= 128.
    """
    ctx = m.ctx
    p, l, n = ctx.p, ctx.l, m.n
    k = m.num_rows
    out = np.zeros((k * l, n * l), dtype=np.min_scalar_type(2 * (p - 1)))
    for r in range(k):
        for s in range(l):
            us = p ** s
            for j in range(n):
                prod = ctx.mul(us, int(m.rows[r, j]))
                out[r * l + s, j * l : (j + 1) * l] = ctx.decode(prod)
    return out


def _weights(m, include_zero):
    """Yield numpy arrays of codeword weights, one per step, over all messages.

    Enumerates the message space over the prime subfield (same codeword set
    as enumerating F_q^k); weights count nonzero F_q symbols.  The table has
    one column per combination t of the leading rows; an odometer walks the
    combinations s of the others, so t - s meets every codeword once.  A
    symbol of t - s is zero exactly where t and s have the same digits, so a
    step is one comparison of the table with s.
    """
    p, l, n = m.ctx.p, m.ctx.l, m.n
    rows = _prime_field_expansion(m)
    split = 1  # one row even if p > _LOW_TABLE: step 0 needs a nonzero message
    while split < len(rows) and p ** (split + 1) <= _LOW_TABLE:
        split += 1
    table = np.zeros((rows.shape[1], 1), dtype=rows.dtype)
    for row in rows[:split]:
        blocks = [table]
        for _ in range(p - 1):
            blocks.append((blocks[-1] + row[:, None]) % p)
        table = np.concatenate(blocks, axis=1)
    high = rows[split:]
    digits = [0] * len(high)
    prefix = np.zeros(rows.shape[1], dtype=rows.dtype)
    count_dtype = np.min_scalar_type(n)
    while True:
        differs = table != prefix[:, None]
        symbols = differs.reshape(n, l, table.shape[1]).any(axis=1)
        weights = symbols.sum(axis=0, dtype=count_dtype)
        if not include_zero and not any(digits):
            weights = weights[1:]  # column 0 with s = 0 is the zero message
        yield weights
        for i, row in enumerate(high):
            prefix = (prefix + row) % p
            digits[i] = (digits[i] + 1) % p
            if digits[i]:
                break
        else:
            return


def _basis_within_budget(c, count_zero, budget):
    """RREF basis of c and its q^k codewords (less the zero word unless
    count_zero), or BudgetExceeded; a CyclicCode's k is known, so a refused
    one is never row-reduced."""
    m = None if isinstance(c, CyclicCode) else c.rref()
    k = c.k if m is None else m.num_rows
    if k == 0 and not count_zero:
        raise InvalidArgument("the zero code has no minimum distance")
    count = c.ctx.q ** k - (0 if count_zero else 1)
    if count > budget:
        raise BudgetExceeded(count, budget)
    if m is None:
        m = c.generator_matrix().rref()
    return m, count


def min_distance(c, budget=DEFAULT_BUDGET):
    """Exact minimum weight by exhaustive message enumeration."""
    m, count = _basis_within_budget(c, False, budget)
    t0 = time.perf_counter()
    best = m.n
    for weights in _weights(m, include_zero=False):
        best = min(best, int(weights.min()))
        if best == 1:
            break
    return DistanceReport(
        d=best,
        codewords_enumerated=count,
        method="exhaustive-messages",
        elapsed=time.perf_counter() - t0,
    )


def weight_distribution(c, budget=DEFAULT_BUDGET):
    """Counts A_0..A_n of codewords by weight; sums to q^k."""
    m, _ = _basis_within_budget(c, True, budget)
    counts = np.zeros(m.n + 1, dtype=np.int64)
    for weights in _weights(m, include_zero=True):
        counts += np.bincount(weights, minlength=m.n + 1)
    return [int(x) for x in counts]


def zeros_and_nonzeros(c, cap=ROOT_SEARCH_LIMIT):
    """Defining set T = {i : g(zeta^i) = 0} and its complement in Z_n."""
    from .cyclotomic import multiplicative_order_mod

    n, ctx = c.n, c.ctx
    if math.gcd(n, ctx.q) != 1:
        raise CharacteristicDividesN(f"gcd({n}, {ctx.q}) != 1")
    t = multiplicative_order_mod(ctx.q, n)
    if ctx.q ** t > cap:
        raise DegreeTooLarge(f"q^t = {ctx.q ** t} exceeds the cap {cap}")
    ext = make_extension(ctx, t, cap=cap)
    big = ext.field
    zeta = nth_root_of_unity(big, n)
    zeros = []
    nonzeros = []
    for i in range(n):
        if c.g.eval(big.pow(zeta, i), ext=ext) == 0:
            zeros.append(i)
        else:
            nonzeros.append(i)
    return tuple(zeros), tuple(nonzeros)
