"""Acceptance gate: one test per headline claim, exact integer tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output), and the distance claims are asserted exactly -- there is
no tolerance to tune on integer minimum distances.
"""

import math
import time

from cyclocode.codes import (
    DEFAULT_BUDGET,
    build_Cn,
    build_Cn1,
    build_repetition,
    dual,
    min_distance,
    same_code,
    sum_codes,
)
from cyclocode.cyclotomic import (
    cosets,
    cyclotomic_poly,
    minimal_poly,
    multiplicative_order_mod,
    profile,
    verify_factorization,
)
from cyclocode.field import make_prime_field, parse_field
from cyclocode.poly import Poly
from cyclocode.tensor import apply_psi
from cyclocode.verify import SweepConfig, sweep

FIELD_SET = ["2", "3", "2^2", "5", "7", "2^3", "3^2"]


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _is_prime(n):
    pr = profile(n)
    return pr.omega == 1 and pr.factorization[0][1] == 1


def _sweep_cases():
    for lit in FIELD_SET:
        ctx = parse_field(lit)
        for n in range(2, 31):
            if math.gcd(n, ctx.q) == 1:
                yield ctx, n, profile(n)


def test_criterion_1_cn_distance_is_lpf():
    t0 = time.time()
    checked = 0
    for ctx, n, pr in _sweep_cases():
        code = build_Cn(n, ctx)
        if ctx.q ** code.k > DEFAULT_BUDGET:
            continue
        d = min_distance(code).d
        assert d == pr.lpf, (ctx, n, d, pr.lpf)
        checked += 1
    _report("1 d(C_n)=lpf(n)", checked > 0, f"({checked} cases, {time.time()-t0:.1f}s)")


def test_criterion_2_cn1_distance_is_twice_lpf():
    checked = 0
    for ctx, n, pr in _sweep_cases():
        if _is_prime(n):
            continue
        code = build_Cn1(n, ctx)
        if ctx.q ** code.k > DEFAULT_BUDGET:
            continue
        d = min_distance(code).d
        assert d == 2 * pr.lpf, (ctx, n, d)
        checked += 1
    _report("2 d(C_n,1)=2*lpf(n)", checked > 0, f"({checked} cases)")


def test_criterion_3_dual_distance_is_2_pow_omega():
    t0 = time.time()
    checked = 0
    for ctx, n, pr in _sweep_cases():
        if ctx.q ** pr.phi > DEFAULT_BUDGET:
            continue
        d = min_distance(dual(build_Cn(n, ctx))).d
        assert d == 2 ** pr.omega, (ctx, n, d)
        checked += 1
    _report(
        "3 d(dual C_n)=2^omega(n)", checked > 0,
        f"({checked} cases, {time.time()-t0:.1f}s)",
    )


def test_criterion_4_tensor_permutation_equivalence():
    checked = 0
    for n1 in range(2, 10):
        for n2 in range(n1 + 1, 10):
            if math.gcd(n1, n2) != 1 or n1 * n2 > 40:
                continue
            for lit in FIELD_SET:
                ctx = parse_field(lit)
                if math.gcd(n1 * n2, ctx.q) != 1:
                    continue
                image = apply_psi(
                    dual(build_Cn(n1, ctx)).generator_matrix(),
                    dual(build_Cn(n2, ctx)).generator_matrix(),
                )
                assert same_code(image, dual(build_Cn(n1 * n2, ctx))), (ctx, n1, n2)
                checked += 1
    _report("4 CRT tensor equivalence", checked > 0, f"({checked} pairs)")


def test_criterion_5_dual_cn1_decomposition():
    checked = 0
    for ctx, n, pr in _sweep_cases():
        if _is_prime(n):
            continue
        lhs = sum_codes(dual(build_Cn(n, ctx)), build_repetition(n, ctx))
        assert same_code(lhs, dual(build_Cn1(n, ctx))), (ctx, n)
        checked += 1
    _report("5 dual C_n,1 = dual C_n + R_n", checked > 0, f"({checked} cases)")


def test_criterion_6_factorizations_and_orders():
    t0 = time.time()
    for lit in FIELD_SET:
        ctx = parse_field(lit)
        for n in range(1, 201):
            if n % ctx.p:
                assert verify_factorization(n, ctx), (ctx, n)
        # ord(Q_n) = n: Q_n | x^n - 1, and Q_n does not divide x^(n/p) - 1
        # for any prime p | n
        for n in range(1, 61):
            if n % ctx.p:
                qn = cyclotomic_poly(n, ctx)
                assert (Poly.x_n_minus_1(ctx, n) % qn).is_zero, (ctx, n)
                for p, _ in profile(n).factorization:
                    assert not (Poly.x_n_minus_1(ctx, n // p) % qn).is_zero, (ctx, n, p)
    for q in (2, 3, 5):
        ctx = make_prime_field(q)
        for n in range(1, 36):
            if math.gcd(n, q) != 1:
                continue
            if q ** multiplicative_order_mod(q, n) > 1 << 24:
                continue
            prod = Poly.one(ctx)
            for coset in cosets(n, q):
                prod = prod * minimal_poly(coset.representative, n, ctx)
            assert prod == Poly.x_n_minus_1(ctx, n), (q, n)
    _report("6 factorization identities", True, f"({time.time()-t0:.1f}s)")


def _coordinate_sum(ctx, row):
    s = 0
    for a in map(int, row):
        s = ctx.add(s, a)
    return s


def test_criterion_7_structural_invariants():
    checked = 0
    for lit in FIELD_SET:
        ctx = parse_field(lit)
        for n in range(2, 21):
            if math.gcd(n, ctx.q) != 1:
                continue
            pr = profile(n)
            assert cyclotomic_poly(n, ctx).degree == pr.phi
            cn = build_Cn(n, ctx)
            codes_here = [cn, build_repetition(n, ctx)]
            if not _is_prime(n):
                # C_{n,1} is the zero-sum subcode of C_n: it lies in C_n, its
                # rows sum to 0, and it has one dimension less than C_n, whose
                # own rows do not all sum to 0
                cn1 = build_Cn1(n, ctx)
                codes_here.append(cn1)
                assert same_code(sum_codes(cn, cn1), cn), (ctx, n)
                sums = [_coordinate_sum(ctx, row) for row in cn1.generator_matrix().rows]
                assert not any(sums), (ctx, n)
                assert any(_coordinate_sum(ctx, row) for row in cn.generator_matrix().rows), (ctx, n)
                assert cn1.k == cn.k - 1, (ctx, n)
            for c in codes_here:
                dc = dual(c)
                assert same_code(dual(dc), c), (ctx, n, c.label)
                g = c.generator_matrix().rows
                h = dc.generator_matrix().rows
                for grow in g:
                    for hrow in h:
                        s = 0
                        for a, b in zip(map(int, grow), map(int, hrow)):
                            s = ctx.add(s, ctx.mul(a, b))
                        assert s == 0, (ctx, n, c.label)
                checked += 1
    _report("7 structural invariants", checked > 0, f"({checked} codes)")


def test_criterion_8_conjecture_observed_only():
    cfg = SweepConfig(
        fields=FIELD_SET, n_range=(2, 24), theorems=["CONJECTURE-CN1-DUAL"]
    )
    records = sweep(cfg)
    observed = 0
    for rec in records:
        assert rec.status in ("observed", "skipped", "n/a"), (
            rec.q, rec.n, rec.status,
        )
        if rec.status != "observed":
            continue
        observed += 1
        pr = profile(rec.n)
        # the two-distinct-prime-power case was already proved: hard assert
        if pr.omega == 2:
            assert rec.measured[2] == 4, (rec.q, rec.n, rec.measured)
    _report("8 conjecture checker (observed only)", observed > 0, f"({observed} observed rows)")


def test_criterion_9_gray_kernel_performance():
    code = dual(build_Cn(35, make_prime_field(2)))  # k = phi(35) = 24
    assert code.k == 24
    rep = min_distance(code)
    assert rep.codewords_enumerated == 2 ** 24 - 1
    assert rep.d == 4
    _report(
        "9 Gray kernel 2^24 codewords", rep.elapsed < 60.0,
        f"({rep.elapsed:.1f}s, d={rep.d})",
    )
