import math
from unittest import mock

import pytest

from cyclocode import cyclotomic
from cyclocode.cyclotomic import (
    _int_divexact,
    cofactor_int,
    cosets,
    cyclotomic_cofactor,
    cyclotomic_int,
    cyclotomic_poly,
    minimal_poly,
    multiplicative_order_mod,
    profile,
    verify_factorization,
)
from cyclocode.errors import CycloError, InvalidArgument
from cyclocode.field import make_prime_field, parse_field
from cyclocode.poly import Poly, is_irreducible

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)

FIELD_SET = ["2", "3", "2^2", "5", "7", "3^2"]


def test_profile_examples():
    p15 = profile(15)
    assert (p15.phi, p15.omega, p15.lpf) == (8, 2, 3)
    p1 = profile(1)
    assert (p1.phi, p1.omega, p1.lpf) == (1, 0, None)
    p12 = profile(12)
    assert (p12.phi, p12.omega, p12.lpf) == (4, 2, 2)
    assert p12.divisors == (1, 2, 3, 4, 6, 12)
    assert p12.factorization == ((2, 2), (3, 1))


def test_profile_divisors_and_phi_match_a_scan():
    # the divisors are read off the factorization; a scan of 1 ... n checks them
    for n in list(range(1, 400)) + [720720, 2 ** 20, 3 ** 5 * 7 ** 3, 65521]:
        p = profile(n)
        assert p.divisors == tuple(d for d in range(1, n + 1) if n % d == 0)
        if n < 400:
            assert p.phi == sum(math.gcd(n, k) == 1 for k in range(1, n + 1))
        assert profile(n) is p


def test_cyclotomic_poly_is_shared_and_still_checks_its_arguments():
    ctx = parse_field("2^2")
    q15 = cyclotomic_poly(15, ctx)
    assert cyclotomic_poly(15, parse_field("2^2")) is q15
    assert list(q15.coeffs) == [c % 2 for c in cyclotomic_int(15)]
    with pytest.raises(InvalidArgument, match="characteristic 2 divides n = 6"):
        cyclotomic_poly(6, ctx)  # the shared result is taken only after the check


def test_n_checks_raise_library_errors():
    for call in (lambda: profile(0), lambda: cyclotomic_poly(0, F2)):
        with pytest.raises(CycloError):
            call()


def test_int_divexact_rejects_inexact_division():
    assert _int_divexact([-1, 0, 1], [-1, 1]) == [1, 1]
    with pytest.raises(CycloError, match="not exact"):
        _int_divexact([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(CycloError, match="not exact"):
        _int_divexact([1, 1], [1, 2])  # leading coefficient does not divide


@pytest.mark.parametrize("literal", FIELD_SET + ["2^8"])
def test_cofactor_is_the_quotient_of_xn_minus_1(literal):
    ctx = parse_field(literal)
    for n in range(1, 41):
        if n % ctx.p == 0:
            continue
        xn1 = Poly.x_n_minus_1(ctx, n)
        q, r = divmod(xn1, cyclotomic_poly(n, ctx))
        assert r.is_zero and cyclotomic_cofactor(n, ctx) == q
        assert len(cofactor_int(n)) == n - profile(n).phi + 1
        if n > 1:
            q1, r1 = divmod(xn1, cyclotomic_poly(n, ctx) * cyclotomic_poly(1, ctx))
            assert r1.is_zero and cyclotomic_cofactor(n, ctx, without_q1=True) == q1


def test_cofactor_checks_its_length():
    with pytest.raises(InvalidArgument, match="characteristic 3 divides"):
        cyclotomic_cofactor(6, F3)
    with pytest.raises(CycloError):
        cyclotomic_cofactor(0, F2)
    with pytest.raises(CycloError, match="not exact"):  # x - 1 is not a factor of the cofactor of n = 1
        cyclotomic_cofactor(1, F2, without_q1=True)


def test_cyclotomic_first_cases():
    assert cyclotomic_poly(1, F5) == Poly(F5, [-1, 1])
    for p1 in (2, 3, 5, 7):
        assert cyclotomic_poly(p1, F2 if p1 != 2 else F3) == Poly(
            F2 if p1 != 2 else F3, [1] * p1
        )


def test_cyclotomic_examples():
    assert cyclotomic_poly(6, F5).coeffs == (1, 4, 1)
    # Q_{p^a}(x) = Q_p(x^{p^{a-1}})
    assert cyclotomic_poly(9, F2).coeffs == (1, 0, 0, 1, 0, 0, 1)
    for n, inner in [(4, 2), (8, 2), (9, 3), (27, 3), (25, 5)]:
        pr = profile(n)
        p1 = pr.lpf
        stretched = [0] * (pr.phi + 1)
        base = cyclotomic_int(p1)
        step = n // p1
        for i, c in enumerate(base):
            stretched[i * step] = c
        assert list(cyclotomic_int(n)) == stretched


def test_cyclotomic_rejects_characteristic():
    with pytest.raises(InvalidArgument, match="characteristic 3 divides"):
        cyclotomic_poly(3, F3)
    with pytest.raises(InvalidArgument, match="characteristic 2 divides"):
        cyclotomic_poly(6, F2)
    # verify_factorization checks n itself, not only its divisors: it once named n = 2
    with pytest.raises(InvalidArgument, match="characteristic 2 divides n = 4$"):
        verify_factorization(4, F2)


def test_cyclotomic_degree_and_monic():
    for lit in FIELD_SET:
        ctx = parse_field(lit)
        for n in range(1, 40):
            if n % ctx.p == 0:
                continue
            q = cyclotomic_poly(n, ctx)
            assert q.is_monic
            assert q.degree == profile(n).phi


def test_verify_factorization_small():
    assert verify_factorization(1, F2)
    assert verify_factorization(6, F5)
    assert verify_factorization(105, F2)  # first n with a coefficient not in {0,1,-1}
    for lit in FIELD_SET:
        ctx = parse_field(lit)
        for n in range(1, 61):
            if n % ctx.p:
                assert verify_factorization(n, ctx)


def test_poly_order_of_cyclotomic():
    """ord(Q_n) = n: Q_n divides x^n - 1 but no x^(n/p) - 1 for a prime p | n."""
    for lit in ("2", "3", "5"):
        ctx = parse_field(lit)
        for n in range(1, 30):
            if n % ctx.p:
                qn = cyclotomic_poly(n, ctx)
                assert (Poly.x_n_minus_1(ctx, n) % qn).is_zero
                for p, _ in profile(n).factorization:
                    assert not (Poly.x_n_minus_1(ctx, n // p) % qn).is_zero


def test_cosets_examples():
    cs = cosets(7, 2)
    assert [c.members for c in cs] == [(0,), (1, 2, 4), (3, 5, 6)]
    # q = 1 mod n gives singletons
    assert all(len(c.members) == 1 for c in cosets(4, 5))
    cs15 = cosets(15, 2)
    assert [c.representative for c in cs15] == [0, 1, 3, 5, 7]
    assert cs15[1].members == (1, 2, 4, 8)


def test_cosets_partition():
    for n, q in [(7, 2), (15, 2), (21, 4), (20, 3), (13, 3)]:
        cs = cosets(n, q)
        members = [i for c in cs for i in c.members]
        assert sorted(members) == list(range(n))
        assert sum(len(c.members) for c in cs) == n
        for c in cs:
            assert c.representative == min(c.members)
            assert all((i * q) % n in c.members for i in c.members)


def test_cosets_rejects_non_coprime():
    with pytest.raises(InvalidArgument, match=r"gcd\(15, 3\)"):
        cosets(15, 3)


# The first two never returned: q^t mod a negative n never equals 1.
@pytest.mark.parametrize("call", [
    lambda: multiplicative_order_mod(2, -5),
    lambda: minimal_poly(1, -5, F2),
    lambda: cosets(-5, 2),  # once []
    lambda: cosets(0, 2),
    lambda: cosets(7.0, 2),
    lambda: cosets(True, 2),
], ids=["order-n-5", "minimal-poly-n-5", "cosets-n-5", "cosets-n0", "cosets-float", "cosets-bool"])
def test_coset_walk_refuses_n_that_is_not_an_integer_at_least_1(call):
    with pytest.raises(InvalidArgument, match="n must be an integer >= 1"):
        call()


# profile and Q_n once ended in TypeError tracebacks from range and from a
# list repetition; they now share the coset walk's check of n.
@pytest.mark.parametrize("call", [
    lambda: profile(7.5),
    lambda: profile(True),
    lambda: profile(0),
    lambda: cyclotomic_poly(7.0, F2),
    lambda: cyclotomic_cofactor(7.5, F2),
    lambda: cyclotomic_poly(-3, F2),
], ids=["profile-float", "profile-bool", "profile-n0", "q-float", "cofactor-float", "q-n-3"])
def test_profile_and_q_n_refuse_n_that_is_not_an_integer_at_least_1(call):
    with pytest.raises(InvalidArgument, match=r"^n must be an integer >= 1, got "):
        call()


@pytest.mark.parametrize("call", [
    lambda: minimal_poly(1.5, 7, F2),  # 1.5 q^j mod 7 never comes back to 1.5
    lambda: cosets(7, 2.0),
    lambda: multiplicative_order_mod("2", 7),
    lambda: cosets(5, True),  # once five singleton cosets
    lambda: multiplicative_order_mod(True, 5),  # once 1
], ids=["minimal-poly-s-float", "cosets-q-float", "order-q-str", "cosets-q-bool", "order-q-bool"])
def test_coset_walk_refuses_s_or_q_that_is_not_an_integer(call):
    with pytest.raises(InvalidArgument, match="s and q must be integers"):
        call()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_multiplicative_order_is_the_least_t_with_q_to_the_t_equal_to_1(q):
    for n in range(1, 301):
        if math.gcd(n, q) == 1:
            t = next(t for t in range(1, n + 1) if pow(q, t, n) == 1 % n)
            assert multiplicative_order_mod(q, n) == t, n


def test_minimal_poly_walks_only_its_own_coset():
    with mock.patch.object(cyclotomic, "cosets", side_effect=cyclotomic.cosets) as spy:
        assert minimal_poly(3, 7, F2) == minimal_poly(5, 7, F2)
        assert minimal_poly(8, 7, F2) == minimal_poly(1, 7, F2)  # s is taken mod n
    assert spy.call_count == 0


def test_minimal_poly_trivial_coset():
    assert minimal_poly(0, 7, F2) == Poly(F2, [1, 1])  # x - 1 over F_2
    assert minimal_poly(0, 6, F5) == Poly(F5, [-1, 1])


def test_minimal_poly_n7_q2():
    m = minimal_poly(1, 7, F2)
    assert m.degree == 3
    assert m in (Poly(F2, [1, 1, 0, 1]), Poly(F2, [1, 0, 1, 1]))
    assert is_irreducible(m)
    assert (Poly.x_n_minus_1(F2, 7) % m).is_zero


@pytest.mark.parametrize("q", [2, 3, 5])
def test_minimal_polys_factor_xn_minus_1(q):
    ctx = make_prime_field(q)
    for n in range(1, 36):
        if math.gcd(n, q) != 1:
            continue
        t = multiplicative_order_mod(q, n)
        if q ** t > 1 << 24:
            continue
        prod = Poly.one(ctx)
        for coset in cosets(n, q):
            m = minimal_poly(coset.representative, n, ctx)
            assert m.degree == len(coset.members)
            assert is_irreducible(m)
            prod = prod * m
        assert prod == Poly.x_n_minus_1(ctx, n)


def test_minimal_poly_extension_base():
    f4 = parse_field("2^2")
    prod = Poly.one(f4)
    for coset in cosets(5, 4):
        prod = prod * minimal_poly(coset.representative, 5, f4)
    assert prod == Poly.x_n_minus_1(f4, 5)
