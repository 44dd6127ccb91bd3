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
from .errors import BudgetExceeded, InvalidArgument
from .field import make_extension  # noqa: F401  perfbench/smoke.py checks this look-up site
from .report import VerificationRecord


@dataclass(frozen=True)
class CrtMap:
    n1: int
    n2: int
    table: tuple  # table[i*n2 + j] = the CRT image of (i, j)

    def psi(self, i, j):
        return self.table[(i % self.n1) * self.n2 + (j % self.n2)]


def crt_map(n1, n2):
    if math.gcd(n1, n2) != 1:
        raise InvalidArgument(f"gcd({n1}, {n2}) != 1")
    table = [0] * (n1 * n2)
    for z in range(n1 * n2):
        table[(z % n1) * n2 + (z % n2)] = z
    return CrtMap(n1=n1, n2=n2, table=tuple(table))


def kronecker(g1, g2):
    """Kronecker product of generator matrices, entries multiplied in F_q."""
    if g1.ctx != g2.ctx:
        raise InvalidArgument("matrices over different fields")
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
        raise InvalidArgument("CRT map does not match the product layout")
    out = np.empty_like(gen.rows)
    out[:, list(cmap.table)] = gen.rows
    return GenMatrix(gen.ctx, out)


def verify_tensor_dual(n1, n2, ctx, budget=codes.DEFAULT_BUDGET):
    """Check dual(C_{n1*n2}) equals the CRT image of dual(C_n1) x dual(C_n2)."""
    if math.gcd(n1, n2) != 1:
        raise InvalidArgument(f"gcd({n1}, {n2}) != 1")
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

