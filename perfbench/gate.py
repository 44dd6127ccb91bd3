"""Correctness gate, independent of the package under test.

The paper's parameters are recomputed here from the factorisation of n, the
sweep rows are compared with reference verdicts stored with the benchmark,
and weight distributions are cross-checked with the MacWilliams identity in
exact integer arithmetic. Every check returns a list of violations; an empty
list means the output is correct.
"""

import math

CONJECTURE = "CONJECTURE-CN1-DUAL"
DECIDED = ("pass", "observed")


def factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi(n):
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def lpf(n):
    return factorize(n)[0][0]


def omega(n):
    return len(factorize(n))


def paper_params(theorem, n):
    """[n, k, d] the paper claims, or None where it makes no distance claim."""
    if theorem == "CN-DIST":
        return [n, n - phi(n), lpf(n)]
    if theorem == "CN1-DIST":
        return [n, n - phi(n) - 1, 2 * lpf(n)]
    if theorem in ("CN-DUAL-DIST", "TENSOR-EQUIV"):
        return [n, phi(n), 2 ** omega(n)]
    return None


def row_key(row):
    return (row["theorem_id"], row["q"], row["n"], row["n1"], row["n2"])


def reference_row(row):
    """The fields of a record that must not change between commits."""
    return [*row_key(row), row["claimed"], row["measured"], row["status"]]


def _check_row(row):
    theorem, n, status = row["theorem_id"], row["n"], row["status"]
    measured = row["measured"]
    if status == "fail":
        return ["status is fail"]
    if theorem == CONJECTURE and status not in ("observed", "skipped", "n/a"):
        return [f"conjecture row has status {status}"]
    claim = paper_params(theorem, n)
    if claim is None or status == "n/a":
        return []
    if measured[:2] != claim[:2]:
        return [f"[n, k] = {measured[:2]}, paper says {claim[:2]}"]
    if measured[2] is not None and measured[2] != claim[2]:
        return [f"d = {measured[2]}, paper says {claim[2]}"]
    if status == "pass" and theorem != "TENSOR-EQUIV" and measured[2] is None:
        return ["pass row without a distance"]
    return []


def _matches_reference(row, ref):
    """Only a skipped row, or a distance left open, may become decided."""
    cur = reference_row(row)
    if cur == ref:
        return True
    *_, ref_claimed, ref_measured, ref_status = ref
    *_, claimed, measured, status = cur
    if claimed != ref_claimed or measured[:2] != ref_measured[:2]:
        return False
    if ref_measured[2] is not None:
        return False
    if status == ref_status:
        return True
    return ref_status == "skipped" and status in DECIDED


def check_sweep(rows, reference, exit_code):
    """Violations in one sweep's records, as written by `verify sweep`.

    One message per failing row, plus one for a non-zero exit code.
    """
    bad = []
    if exit_code != 0:
        bad.append(f"verify sweep exited with {exit_code}")
    if [row_key(r) for r in rows] != [tuple(ref[:5]) for ref in reference]:
        return bad + ["rows differ from the reference grid"]
    for row, ref in zip(rows, reference):
        msgs = _check_row(row)
        if not _matches_reference(row, ref):
            msgs.append(f"{reference_row(row)} differs from reference {ref}")
        if msgs:
            bad.append("{} q={} n={}: ".format(*row_key(row)[:3]) + "; ".join(msgs))
    return bad


def krawtchouk(j, i, n, q):
    return sum(
        (-1) ** s * (q - 1) ** (j - s) * math.comb(i, s) * math.comb(n - i, j - s)
        for s in range(j + 1)
    )


def macwilliams(a, q):
    """Weight distribution of the dual from that of the code, exactly."""
    n = len(a) - 1
    size = sum(a)
    out = []
    for j in range(n + 1):
        s = sum(a[i] * krawtchouk(j, i, n, q) for i in range(n + 1) if a[i])
        if s % size:
            return None
        out.append(s // size)
    return out


def check_weights(a, b, q, n):
    """A = A(C_n), B = A(C_n^perp): sizes, MacWilliams and the paper's distances."""
    k = n - phi(n)
    bad = []
    if len(a) != n + 1 or len(b) != n + 1:
        return [f"distribution lengths {len(a)}, {len(b)} != {n + 1}"]
    if sum(a) != q ** k or sum(b) != q ** (n - k) or a[0] != 1 or b[0] != 1:
        bad.append("distribution totals or A_0 are wrong")
    if macwilliams(a, q) != b:
        bad.append("MacWilliams identity fails")
    d_code = min((w for w in range(1, n + 1) if a[w]), default=0)
    d_dual = min((w for w in range(1, n + 1) if b[w]), default=0)
    if d_code != lpf(n) or d_dual != 2 ** omega(n):
        bad.append(f"distances {d_code}, {d_dual} differ from the paper's")
    return bad


def check_zeros(zeros, nonzeros, n):
    """The zeros of C_n = <Q_n> are the primitive n-th roots: i coprime to n."""
    units = tuple(i for i in range(n) if math.gcd(i, n) == 1)
    rest = tuple(i for i in range(n) if math.gcd(i, n) != 1)
    if tuple(zeros) != units or tuple(nonzeros) != rest:
        return ["defining set is not the units mod n"]
    return []


def _mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def check_factorization(minpolys, coset_sizes, n, p):
    """The minimal polynomials multiply to x^n - 1 over F_p, one per coset."""
    bad = []
    prod = [1]
    for coeffs, size in zip(minpolys, coset_sizes):
        if len(coeffs) != size + 1 or coeffs[-1] != 1:
            bad.append(f"minimal polynomial {coeffs} is not monic of degree {size}")
        prod = _mul_mod(prod, coeffs, p)
    if prod != [p - 1] + [0] * (n - 1) + [1]:
        bad.append("minimal polynomials do not multiply to x^n - 1")
    return bad
