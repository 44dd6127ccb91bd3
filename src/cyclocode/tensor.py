"""Direct-product codes and the CRT coordinate permutation.

The product of codes of coprime lengths n1, n2 lives on n1 x n2 arrays,
flattened row-major with the length-n1 factor as the row index: array cell
(i, j) sits at position i*n2 + j.  The CRT bijection sends that cell to the
unique z in Z_{n1*n2} with z = i mod n1 and z = j mod n2, which turns the
product into a cyclic code of length n1*n2.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import codes
from .codes import GenMatrix, build_Cn, dual, same_code
from .cyclotomic import profile
from .errors import DimensionMismatch, FieldMismatch, NotCoprime, BudgetExceeded
from .field import make_extension, nth_root_of_unity
from .poly import Poly
from .report import VerificationRecord


@dataclass(frozen=True)
class CrtMap:
    n1: int
    n2: int
    table: tuple  # table[i*n2 + j] = the CRT image of (i, j)
    inverse: tuple

    def psi(self, i, j):
        return self.table[(i % self.n1) * self.n2 + (j % self.n2)]


def crt_map(n1, n2):
    if math.gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    size = n1 * n2
    table = [0] * size
    inverse = [0] * size
    for z in range(size):
        flat = (z % n1) * n2 + (z % n2)
        table[flat] = z
        inverse[z] = flat
    return CrtMap(n1=n1, n2=n2, table=tuple(table), inverse=tuple(inverse))


def kronecker(g1, g2):
    """Kronecker product of generator matrices, entries multiplied in F_q."""
    if g1.ctx != g2.ctx:
        raise FieldMismatch("matrices over different fields")
    a, b = g1.rows, g2.rows
    r1, c1 = a.shape
    r2, c2 = b.shape
    out = g1.ctx.mul_array(a[:, None, :, None], b[None, :, None, :])
    return GenMatrix(g1.ctx, out.reshape(r1 * r2, c1 * c2), n=c1 * c2)


@dataclass
class ProductCode:
    factor1: object  # length n1; columns of the array
    factor2: object  # length n2; rows of the array
    generator: GenMatrix

    @property
    def n1(self):
        return codes._as_matrix(self.factor1).n

    @property
    def n2(self):
        return codes._as_matrix(self.factor2).n


def product_code(c1, c2):
    g1 = codes._as_matrix(c1)
    g2 = codes._as_matrix(c2)
    return ProductCode(factor1=c1, factor2=c2, generator=kronecker(g1, g2))


def apply_psi(pc, cmap):
    """Permute the flattened product-code columns through the CRT bijection."""
    gen = pc.generator
    if gen.n != cmap.n1 * cmap.n2 or (pc.n1, pc.n2) != (cmap.n1, cmap.n2):
        raise DimensionMismatch("CRT map does not match the product layout")
    out = np.empty_like(gen.rows)
    out[:, list(cmap.table)] = gen.rows
    return GenMatrix(gen.ctx, out)


def verify_tensor_dual(n1, n2, ctx, budget=codes.DEFAULT_BUDGET):
    """Check dual(C_{n1*n2}) equals the CRT image of dual(C_n1) x dual(C_n2)."""
    if math.gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    t0 = time.perf_counter()
    n = n1 * n2
    d1 = dual(build_Cn(n1, ctx))
    d2 = dual(build_Cn(n2, ctx))
    pc = product_code(d1, d2)
    image = apply_psi(pc, crt_map(n1, n2)).rref()
    target = dual(build_Cn(n, ctx))
    equal = same_code(image, target)
    claimed = (n, profile(n).phi, 2 ** profile(n).omega)
    measured_d = None
    status = "pass" if equal else "fail"
    if equal:
        try:
            measured_d = codes.min_distance(target, budget=budget).d
            if measured_d != claimed[2]:
                status = "fail"
        except BudgetExceeded:
            measured_d = None
    return VerificationRecord(
        theorem_id="TENSOR-EQUIV",
        q=ctx.q,
        n=n,
        n1=n1,
        n2=n2,
        claimed=claimed,
        measured=(n, image.num_rows, measured_d),
        status=status,
        elapsed=time.perf_counter() - t0,
        note="" if measured_d is not None else "distance skipped (budget)",
    )


def _cyclic_generator_poly(m):
    """Monic generator of a cyclic row space: gcd of x^n - 1 and the rows."""
    ctx = m.ctx
    g = Poly.x_n_minus_1(ctx, m.n)
    for row in m.rows:
        g = g.gcd(Poly(ctx, [int(c) for c in row]))
    return g


def verify_nonzeros_product(n1, n2, ctx, rng=None, trials=50):
    """Check the product's non-zeros are the CRT images of the factors' ones.

    Also spot-checks the evaluation identity: the CRT image of f, evaluated
    at alpha*beta, equals f(alpha, beta), on random product codewords.
    """
    if math.gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1}, {n2}) != 1")
    d1 = dual(build_Cn(n1, ctx))
    d2 = dual(build_Cn(n2, ctx))
    _, nz1 = codes.zeros_and_nonzeros(d1)
    _, nz2 = codes.zeros_and_nonzeros(d2)
    cmap = crt_map(n1, n2)
    expected = sorted(cmap.psi(i, j) for i in nz1 for j in nz2)

    pc = product_code(d1, d2)
    image = apply_psi(pc, cmap)
    g = _cyclic_generator_poly(image.rref())
    image_code = codes.from_generator(g, n1 * n2, label="psi-image")
    _, nz_image = codes.zeros_and_nonzeros(image_code)
    if expected != sorted(nz_image):
        return False

    # evaluation identity on random codewords of the product
    from .cyclotomic import multiplicative_order_mod

    n = n1 * n2
    t = multiplicative_order_mod(ctx.q, n)
    ext = make_extension(ctx, t)
    big = ext.field
    zeta = nth_root_of_unity(big, n)
    alpha = big.pow(zeta, n2)  # primitive n1-th root
    beta = big.pow(zeta, n1)  # primitive n2-th root
    alpha_beta = big.mul(alpha, beta)
    gen = pc.generator
    if rng is None:
        import random

        rng = random.Random(0)
    for _ in range(trials):
        msg = [rng.randrange(ctx.q) for _ in range(gen.num_rows)]
        word = [0] * gen.n
        for m_i, row in zip(msg, gen.rows):
            if m_i:
                for j, c in enumerate(map(int, row)):
                    word[j] = ctx.add(word[j], ctx.mul(m_i, c))
        lhs = 0  # f(alpha, beta)
        for i in range(n1):
            for j in range(n2):
                c = word[i * n2 + j]
                if c:
                    term = big.mul(
                        ext.embed(c),
                        big.mul(big.pow(alpha, i), big.pow(beta, j)),
                    )
                    lhs = big.add(lhs, term)
        rhs = 0  # CRT image of f evaluated at alpha*beta
        for i in range(n1):
            for j in range(n2):
                c = word[i * n2 + j]
                if c:
                    z = cmap.psi(i, j)
                    rhs = big.add(
                        rhs, big.mul(ext.embed(c), big.pow(alpha_beta, z))
                    )
        if lhs != rhs:
            return False
    return True
