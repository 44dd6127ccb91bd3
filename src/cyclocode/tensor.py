"""Direct-product codes and the CRT coordinate permutation.

The product of codes of coprime lengths n1, n2 lives on n1 x n2 arrays,
flattened row-major with the length-n1 factor as the row index: array cell
(i, j) sits at position i*n2 + j.  The CRT bijection sends that cell to the
unique z in Z_{n1*n2} with z = i mod n1 and z = j mod n2, which turns the
product into a cyclic code of length n1*n2. `verify_tensor_dual` checks
only that image; the distance of dual(C_{n1*n2}) is the CN-DUAL-DIST row's.
"""

import math
import time

import numpy as np

# verify imports this module, so dual_cn_row is read off verify at call time;
# binding the module here, not by a local import, keeps both from one import
# of the package
from . import codes, verify
from .codes import GenMatrix, build_Cn, dual, same_code
from .cyclotomic import profile
from .errors import InvalidArgument
from .field import check_n
from .field import make_extension  # noqa: F401  perfbench/smoke.py checks this look-up site
from .report import VerificationRecord


def crt_map(n1, n2):
    """The CRT bijection as a table: table[i*n2 + j] is the z in Z_{n1*n2}
    with z = i mod n1 and z = j mod n2."""
    check_n(n1)
    check_n(n2)
    if math.gcd(n1, n2) != 1:
        raise InvalidArgument(f"gcd({n1}, {n2}) != 1")
    z = np.arange(n1 * n2)
    table = np.empty_like(z)
    table[z % n1 * n2 + z % n2] = z
    return table


def kronecker(g1, g2):
    """Kronecker product of generator matrices, entries multiplied in F_q."""
    if g1.ctx != g2.ctx:
        raise InvalidArgument("matrices over different fields")
    a, b = g1.rows, g2.rows
    r1, c1 = a.shape
    r2, c2 = b.shape
    out = g1.ctx.mul_array(a[:, None, :, None], b[None, :, None, :])
    return GenMatrix(g1.ctx, out.reshape(r1 * r2, c1 * c2), n=c1 * c2)


def apply_psi(g1, g2):
    """The product of the codes g1 (length n1) and g2 (length n2) as a code of
    length n1*n2: kronecker(g1, g2) with column i*n2 + j moved to its CRT
    image crt_map(n1, n2)[i*n2 + j]."""
    gen = kronecker(g1, g2)
    out = np.empty_like(gen.rows)
    out[:, crt_map(g1.n, g2.n)] = gen.rows
    return GenMatrix(gen.ctx, out)


def verify_tensor_dual(n1, n2, ctx, budget=codes.DEFAULT_BUDGET):
    """Check dual(C_{n1*n2}) equals the CRT image of dual(C_n1) x dual(C_n2).

    The claim, d and note are the CN-DUAL-DIST row, `verify.dual_cn_row`. The
    record fails if the codes differ; a d beyond the budget still passes.
    """
    t0 = time.perf_counter()
    n = n1 * n2
    image = apply_psi(
        dual(build_Cn(n1, ctx)).generator_matrix(),
        dual(build_Cn(n2, ctx)).generator_matrix(),
    ).rref()
    claimed, (_, _, d), status, note = verify.dual_cn_row(ctx, profile(n), budget)
    if not same_code(image, dual(build_Cn(n, ctx))):
        status = "fail"
    elif status == "skipped":
        status = "pass"
    return VerificationRecord(
        theorem_id="TENSOR-EQUIV", q=ctx.q, n=n, n1=n1, n2=n2,
        claimed=claimed, measured=(n, image.num_rows, d), status=status,
        elapsed=time.perf_counter() - t0, note=note,
    )
