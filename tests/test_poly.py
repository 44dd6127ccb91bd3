import random
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclocode.errors import CycloError, InvalidArgument
from cyclocode.field import FieldCtx, make_extension, make_prime_field, parse_field
from cyclocode.cyclotomic import cyclotomic_poly
from cyclocode.poly import Poly, is_irreducible, reciprocal
from helpers import SUBFIELD_FIELDS, naive_poly_divmod, naive_poly_gcd, naive_poly_mul

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)


def test_divmod_examples():
    q, r = divmod(Poly(F5, [-1, 0, 1]), Poly(F5, [-1, 1]))
    assert q == Poly(F5, [1, 1]) and r.is_zero

    q, r = divmod(Poly(F5, [0, 0, 0, 1]), Poly(F5, [0, 1]))
    assert q == Poly(F5, [0, 0, 1]) and r.is_zero

    q, r = divmod(Poly.x_n_minus_1(F2, 6), Poly(F2, [1, 1, 1]))
    assert q == Poly(F2, [1, 1, 0, 1, 1])  # x^4 + x^3 + x + 1
    assert r.is_zero


@pytest.mark.parametrize("n", [0, -3, 7.5, True])
def test_x_n_minus_1_goes_through_the_one_n_rule(n):
    # 0, -3 and True once gave x + 1, and 7.5 a TypeError
    with pytest.raises(InvalidArgument, match="n must be an integer >= 1"):
        Poly.x_n_minus_1(F2, n)


def test_divmod_by_zero():
    with pytest.raises(InvalidArgument, match="division by zero"):
        divmod(Poly(F5, [1, 1]), Poly(F5, []))


@pytest.mark.parametrize("literal", ["2", "5", "3^2"])
def test_divmod_round_trip_random(literal):
    ctx = parse_field(literal)
    rng = random.Random(7)
    for _ in range(500):
        a = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, 9))])
        b = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


@st.composite
def _dividend_and_divisor(draw):
    ctx = parse_field(draw(st.sampled_from(["2", "3^2", "2^8", "2^10"])))
    element = st.integers(0, ctx.q - 1)
    a = Poly(ctx, draw(st.lists(element, max_size=12)))
    b = Poly(ctx, draw(st.lists(element, max_size=6)) + [draw(st.integers(1, ctx.q - 1))])
    return a, b


# F_{2^10} is above TABLE_LIMIT, so its arithmetic is digit by digit.
@settings(max_examples=150, deadline=None)
@given(_dividend_and_divisor())
def test_divmod_property(case):
    a, b = case
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@st.composite
def _prime_field_factors(draw):
    ctx = make_prime_field(draw(st.sampled_from([2, 3, 5, 7])))

    def factor():
        k = draw(st.integers(0, 200))
        return draw(st.lists(st.integers(0, ctx.p - 1), min_size=k, max_size=k))

    return ctx, factor(), factor()


# Over F_p a product is one integer schoolbook product, reduced mod p once.
@settings(max_examples=30, deadline=None)
@given(_prime_field_factors())
def test_prime_field_product_matches_naive_oracle(case):
    ctx, a, b = case
    assert list((Poly(ctx, a) * Poly(ctx, b)).coeffs) == naive_poly_mul(ctx, a, b)


def test_context_mismatch():
    with pytest.raises(InvalidArgument, match="different fields"):
        Poly(F2, [1, 1]) * Poly(F3, [1, 1])


def test_reciprocal_examples():
    f = Poly(F5, [3, 2, 1])  # x^2 + 2x + 3
    assert reciprocal(f) == Poly(F5, [1, 2, 3])
    pal = Poly(F5, [1, 1, 1])
    assert reciprocal(pal) == pal  # self-reciprocal
    drop = Poly(F2, [0, 1, 1])  # x^2 + x, constant term zero
    assert reciprocal(drop) == Poly(F2, [1, 1])
    with pytest.raises(InvalidArgument, match="reciprocal"):
        reciprocal(Poly(F2, []))


@pytest.mark.parametrize("literal", ["2", "3", "5"])
def test_reciprocal_involution(literal):
    ctx = parse_field(literal)
    rng = random.Random(3)
    for _ in range(100):
        coeffs = [rng.randrange(ctx.q) for _ in range(rng.randint(1, 8))]
        coeffs[0] = rng.randrange(1, ctx.q)  # keep f(0) != 0
        f = Poly(ctx, coeffs)
        if f.is_zero:
            continue
        assert reciprocal(reciprocal(f)) == f


# The degree-10 ones are x^10, (x^5 + 1)^2 and
# (x^2 + x + 1)(x^8 + x^7 + x^5 + x^4 + x^3 + x + 1); the last has no root in
# F_2, as neither factor has one, so only Rabin's gcd step finds a factor.
@pytest.mark.parametrize("p,coeffs", [
    (2, (1, 0, 1)), (2, (0, 0, 1)), (3, (2, 0, 1)),
    (2, (0,) * 10 + (1,)), (2, (1,) + (0,) * 9 + (1,)), (2, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)),
])
def test_reducible_polynomials_fail_rabins_test(p, coeffs):
    assert not is_irreducible(Poly(make_prime_field(p), coeffs))


def test_is_irreducible_examples():
    assert is_irreducible(Poly(F2, [1, 1, 1]))
    assert not is_irreducible(Poly(F2, [1, 0, 1]))  # (x+1)^2
    assert is_irreducible(Poly(F3, [1, 0, 1]))  # x^2 + 1 has no root mod 3
    assert is_irreducible(Poly(F5, [3, 1]))
    # Q_8 = x^4 + 1 splits over F_3 because 3 has order 2 mod 8
    assert not is_irreducible(cyclotomic_poly(8, F3))
    with pytest.raises(InvalidArgument, match="degree >= 1"):
        is_irreducible(Poly(F5, [3]))


def test_eval_examples():
    assert Poly(F5, [-1, 1]).eval(1) == 0
    assert Poly(make_prime_field(7), [0, 0, 1]).eval(3) == 2
    # Q_3 vanishes at the cube roots of unity in F_4: embed it, then evaluate
    ext = make_extension(F2, 2)
    q3 = cyclotomic_poly(3, F2)
    big_q3 = Poly(ext.field, [ext.embed(c) for c in q3.coeffs])
    roots = [a for a in range(4) if big_q3.eval(a) == 0]
    assert len(roots) == 2 and all(ext.field.pow(r, 3) == 1 for r in roots)


@pytest.mark.parametrize("literal,a", [
    ("7", 9), ("7", 7), ("7", -1), ("2", 5), ("2^10", 5000), ("2^10", 1024), ("5", 2.0), ("5", True),
])
def test_eval_refuses_a_point_that_is_not_an_element(literal, a):
    # over F_7, x^2 at 9 once gave 4 and at -1 gave 2; over F_2, at 5 an IndexError
    ctx = parse_field(literal)
    for coeffs in ([0, 0, 1], []):  # the zero polynomial too: one check before Horner
        with pytest.raises(InvalidArgument) as exc:
            Poly(ctx, coeffs).eval(a)
        assert str(exc.value) == f"{a!r} is not an element of {ctx!r}"
    assert Poly(ctx, [0, 1]).eval(ctx.q - 1) == ctx.q - 1  # the last element is accepted


def test_extension_coefficients_must_be_elements():
    f4 = parse_field("2^2")
    for bad in ([7, 1], [4, 1], [-1, 1]):
        with pytest.raises(CycloError):
            Poly(f4, bad)
    assert Poly(f4, [3, 1]).coeffs == (3, 1)


@pytest.mark.parametrize("literal,coeffs", [
    ("5", [1.5, 2]),  # once kept as (1.5, 2)
    ("2^2", [1.5, 2]),  # once passed the range check
    ("5", ["a", 2]),  # once a TypeError from %
    ("5", [None, 1]),
    ("5", 3),
    ("5", [True, 1]),  # once read as 1 by operator.index
    ("2^2", [1, False]),
])
def test_coefficients_must_be_integers(literal, coeffs):
    with pytest.raises(InvalidArgument, match="must be integers"):
        Poly(parse_field(literal), coeffs)


def test_numpy_integer_coefficients_become_ints():
    f = Poly(F5, [np.int64(7), np.uint8(2), 1])
    assert f.coeffs == (2, 2, 1) and {type(c) for c in f.coeffs} == {int}
    g = Poly(parse_field("2^2"), np.array([3, 1]))
    assert g.coeffs == (3, 1) and {type(c) for c in g.coeffs} == {int}


def test_the_zero_polynomial_has_no_monic_form():
    with pytest.raises(InvalidArgument, match="no monic form"):
        Poly(F5, []).monic()
    assert Poly(F5, [7, -1]).coeffs == (2, 4)  # prime fields reduce plain ints


@settings(max_examples=100, deadline=None)
@given(
    literal=st.sampled_from(["2", "3^2", "2^10"]),
    f=st.lists(st.integers(0, 1023), max_size=6),
    mod=st.lists(st.integers(0, 1023), max_size=5),
    e=st.integers(0, 40),
)
@example(literal="2^10", f=[3, 1], mod=[1, 0, 1], e=0)
@example(literal="2", f=[0, 1], mod=[1, 1, 0, 1], e=9)
def test_pow_mod_matches_repeated_products(literal, f, mod, e):
    """f^e mod m is e naive products, each reduced mod m; m is monic."""
    ctx = parse_field(literal)
    f = Poly(ctx, [c % ctx.q for c in f])
    mod = Poly(ctx, [c % ctx.q for c in mod] + [1])
    power = Poly.one(ctx)
    for _ in range(e):
        power = Poly(ctx, naive_poly_mul(ctx, power.coeffs, f.coeffs)) % mod
    assert f.pow_mod(e, mod) == power


@st.composite
def _gcd_cases(draw):
    """(field, a, b, d): f = a d and h = b d share the factor d, which is
    nonzero; a or b may be zero.  F_{2^10} has no tables."""
    ctx = parse_field(draw(st.sampled_from(["2", "5", "2^2", "3^2", "2^10"])))
    element = st.integers(0, ctx.q - 1)
    a = draw(st.lists(element, max_size=8))
    b = draw(st.lists(element, max_size=8))
    d = draw(st.lists(element, max_size=5)) + [draw(st.integers(1, ctx.q - 1))]
    return ctx, a, b, d


@settings(max_examples=150, deadline=None)
@given(_gcd_cases())
@example((F2, [1, 1], [1, 0, 1], [1, 1]))  # (x + 1)^2 and (x + 1)^3 over F_2
@example((F5, [], [3], [2, 4]))  # gcd(0, 3 (4x + 2)) is x + 3
def test_gcd_is_a_monic_common_divisor_that_d_divides(case):
    ctx, a, b, d = case
    f, h = (Poly(ctx, naive_poly_mul(ctx, c, d)) for c in (a, b))
    g = f.gcd(h)
    if f.is_zero and h.is_zero:
        assert g.is_zero
        return
    assert g.is_monic
    for c in (f, h):
        cofactor, rem = divmod(c, g)
        assert rem.is_zero
        assert naive_poly_mul(ctx, cofactor.coeffs, g.coeffs) == list(c.coeffs)
    assert (g % Poly(ctx, d).monic()).is_zero


@pytest.mark.parametrize("literal", ["2", "5", "3^2", "2^10"])
def test_gcd_with_the_zero_polynomial(literal):
    ctx = parse_field(literal)
    f, zero = Poly(ctx, [1, 0, ctx.q - 1]), Poly(ctx, [])
    assert f.gcd(zero) == zero.gcd(f) == f.monic()
    assert zero.gcd(zero) == zero


@pytest.mark.parametrize("e", [-1, -8, 2.5, True, "3", None])
def test_pow_mod_refuses_an_exponent_that_is_not_an_int_from_0(e):
    # -1 once never returned, as e >>= 1 stays -1; 2.5 raised a bare TypeError
    # and True was taken as 1. The alarm fails a call that loops.
    def stuck(signum, frame):
        raise TimeoutError(f"pow_mod({e!r}, m) did not return")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(5)
    try:
        with pytest.raises(InvalidArgument) as exc:
            Poly(F3, [0, 1]).pow_mod(e, Poly(F3, [1, 0, 1]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == f"exponent must be an integer >= 0, got {e!r}"


@st.composite
def _subfield_cases(draw):
    """(field, a, b): ascending coefficient lists, b with a nonzero leading
    coefficient, all in F_p, or with one coefficient of a or b raised to an
    element outside F_p."""
    ctx = parse_field(draw(st.sampled_from(SUBFIELD_FIELDS)))
    digit = st.integers(0, ctx.p - 1)
    a = draw(st.lists(digit, max_size=12))
    b = draw(st.lists(digit, max_size=6)) + [draw(st.integers(1, ctx.p - 1))]
    if draw(st.booleans()):
        side = draw(st.sampled_from([a, b] if a else [b]))
        side[draw(st.integers(0, len(side) - 1))] = draw(st.integers(ctx.p, ctx.q - 1))
    return ctx.literal(), a, b


# Coefficients in F_p go through int arithmetic mod p in every field, and a
# coefficient outside F_p through the field's look-ups. The examples hold a
# coefficient equal to p, the least element outside F_p.
@settings(max_examples=200, deadline=None)
@given(_subfield_cases())
@example(("2^2", [2, 0, 1, 1], [1, 1]))
@example(("2^2", [1, 1, 0, 1], [2, 1]))
@example(("3^2", [1, 2, 0, 2, 1], [3, 2, 1]))
@example(("2^10", [1, 0, 1, 1], [1, 2]))
@example(("3^2", [2, 1, 1, 2, 0, 1], [1, 2, 1]))
def test_subfield_arithmetic_matches_the_naive_oracle(case):
    literal, a, b = case
    ctx = parse_field(literal)
    f, g = Poly(ctx, a), Poly(ctx, b)
    assert list((f * g).coeffs) == naive_poly_mul(ctx, a, b)
    quot, rem = divmod(f, g)
    assert (list(quot.coeffs), list(rem.coeffs)) == naive_poly_divmod(ctx, list(f.coeffs), b)
    assert list(f.gcd(g).coeffs) == naive_poly_gcd(ctx, list(f.coeffs), b)


@pytest.mark.parametrize("literal", ["2", "5", *SUBFIELD_FIELDS])
def test_subfield_products_and_division_make_no_field_look_up(literal):
    ctx = parse_field(literal)
    f = Poly(ctx, [ctx.p - 1, 1, 0, 1, 1, ctx.p - 1])
    g = Poly(ctx, [1, ctx.p - 1, 1])
    expected = naive_poly_divmod(ctx, list(f.coeffs), list(g.coeffs))
    with mock.patch.object(FieldCtx, "_add", side_effect=AssertionError), \
            mock.patch.object(FieldCtx, "_mul", side_effect=AssertionError):
        product = f * g
        quot, rem = divmod(f, g)
    assert list(product.coeffs) == naive_poly_mul(ctx, f.coeffs, g.coeffs)
    assert (list(quot.coeffs), list(rem.coeffs)) == expected
