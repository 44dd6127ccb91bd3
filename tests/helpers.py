"""Independent brute-force oracles used to cross-check the library kernels.

Everything here enumerates codewords the slow, obvious way (itertools over
message tuples, scalar field ops) so it shares no code path with the
enumeration engine it validates.  The MacWilliams transform is exact integer
arithmetic on weight distributions.  Field sums and products are digit-vector
arithmetic written here from the field's p, l and modulus alone, so they share
no code with the add/mul tables of `cyclocode.field`, and the row reduction
oracle is scalar Gauss-Jordan on them, sharing none with `cyclocode.codes`.
"""

import itertools
import math

from cyclocode.codes import _as_matrix

# Fields whose prime subfield is proper; F_{2^10} has no tables.
SUBFIELD_FIELDS = ["2^2", "2^3", "3^2", "2^10"]


def _digits(ctx, a):
    return [a // ctx.p ** i % ctx.p for i in range(ctx.l)]


def _undigits(ctx, digits):
    return sum(d % ctx.p * ctx.p ** i for i, d in enumerate(digits))


def naive_field_add(ctx, a, b):
    """a + b in ctx: base-p digits added one by one, mod p."""
    return _undigits(ctx, [x + y for x, y in zip(_digits(ctx, a), _digits(ctx, b))])


def naive_field_mul(ctx, a, b):
    """a * b in ctx: schoolbook product of digit vectors, reduced by ctx.modulus."""
    l = ctx.l
    prod = [0] * (2 * l - 1)
    for i, x in enumerate(_digits(ctx, a)):
        for j, y in enumerate(_digits(ctx, b)):
            prod[i + j] += x * y
    # u^deg = u^(deg - l) * u^l and u^l = -(modulus without its leading 1)
    for deg in range(2 * l - 2, l - 1, -1):
        c = prod[deg]
        for j, m in enumerate(ctx.modulus[:l]):
            prod[deg - l + j] -= c * m
    return _undigits(ctx, prod[:l])


def _naive_inv(ctx, a):
    """a^(q-2) by square and multiply on naive_field_mul."""
    result, e = 1, ctx.q - 2
    while e:
        if e & 1:
            result = naive_field_mul(ctx, result, a)
        a = naive_field_mul(ctx, a, a)
        e >>= 1
    return result


def naive_poly_mul(ctx, a, b):
    """Product of two coefficient lists (ascending) by naive_field_mul/add,
    with trailing zeros stripped."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = naive_field_add(ctx, out[i + j], naive_field_mul(ctx, x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_poly_divmod(ctx, a, b):
    """Quotient and remainder of coefficient lists a by b (ascending, b with a
    nonzero leading coefficient) by schoolbook long division on
    naive_field_add/mul, both with trailing zeros stripped."""
    rem, db = list(a), len(b) - 1
    minus_inv = naive_field_mul(ctx, ctx.p - 1, _naive_inv(ctx, b[-1]))
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1 - db, -1, -1):
        f = naive_field_mul(ctx, minus_inv, rem[i + db])  # -(quotient coefficient)
        quot[i] = naive_field_mul(ctx, ctx.p - 1, f)
        for j, y in enumerate(b):
            rem[i + j] = naive_field_add(ctx, rem[i + j], naive_field_mul(ctx, f, y))
    for out in (quot, rem):
        while out and out[-1] == 0:
            out.pop()
    return quot, rem



def naive_poly_gcd(ctx, a, b):
    """The monic gcd of two coefficient lists by Euclid on naive_poly_divmod."""
    while b:
        a, b = b, naive_poly_divmod(ctx, a, b)[1]
    if not a:
        return []
    inv = _naive_inv(ctx, a[-1])
    return [naive_field_mul(ctx, inv, c) for c in a]


def naive_rref(ctx, rows):
    """Reduced row-echelon form of rows (lists of elements), zero rows dropped."""
    rows = [[int(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    top = 0
    for col in range(ncols):
        pivot = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = _naive_inv(ctx, rows[top][col])
        rows[top] = [naive_field_mul(ctx, inv, x) for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                minus_f = naive_field_mul(ctx, ctx.p - 1, rows[i][col])
                rows[i] = [
                    naive_field_add(ctx, x, naive_field_mul(ctx, minus_f, y))
                    for x, y in zip(rows[i], rows[top])
                ]
        top += 1
    return rows[:top]


def naive_prime_field_expansion(ctx, rows):
    """Rows over F_{p^l} as rows over F_p: row r becomes the l rows u^s * row,
    s < l, with each entry written as its l base-p digits."""
    return [
        [d for x in row for d in _digits(ctx, naive_field_mul(ctx, ctx.p ** s, x))]
        for row in rows
        for s in range(ctx.l)
    ]


def all_codewords(obj):
    m = _as_matrix(obj)
    ctx = m.ctx
    rows = [[int(c) for c in r] for r in m.rows]
    n = m.n
    for msg in itertools.product(range(ctx.q), repeat=len(rows)):
        word = [0] * n
        for coef, row in zip(msg, rows):
            if coef:
                for j, c in enumerate(row):
                    if c:  # a zero entry adds nothing: sparse rows over F_{2^10} stay cheap
                        word[j] = ctx.add(word[j], ctx.mul(coef, c))
        yield word


def naive_min_distance(obj):
    best = None
    for word in all_codewords(obj):
        w = sum(1 for c in word if c)
        if w and (best is None or w < best):
            best = w
    return best


def naive_weight_distribution(obj):
    m = _as_matrix(obj)
    counts = [0] * (m.n + 1)
    for word in all_codewords(obj):
        counts[sum(1 for c in word if c)] += 1
    return counts


def krawtchouk(j, i, n, q):
    """K_j(i) = sum_s (-1)^s (q-1)^(j-s) C(i, s) C(n-i, j-s) for length n over F_q."""
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(j + 1)
    )


def macwilliams(weights, q):
    """Weight distribution of the dual code from that of the code, exactly.

    B_j = (1 / |C|) sum_i A_i K_j(i)  (MacWilliams & Sloane, The Theory of
    Error-Correcting Codes, ch. 5).  Raises if a B_j is not an integer, which
    no linear code's distribution allows.
    """
    n = len(weights) - 1
    size = sum(weights)
    out = []
    for j in range(n + 1):
        total = sum(a * krawtchouk(j, i, n, q) for i, a in enumerate(weights))
        b, rem = divmod(total, size)
        if rem:
            raise ValueError(f"B_{j} = {total}/{size} is not an integer")
        out.append(b)
    return out
