import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cyclocode.errors import InvalidArgument
from cyclocode.field import (
    TABLE_LIMIT,
    FieldCtx,
    _canonical_modulus,
    _digit_sum,
    is_prime,
    make_extension,
    make_prime_field,
    nth_root_of_unity,
    parse_field,
)
from cyclocode.poly import is_irreducible
from helpers import naive_field_add, naive_field_mul

# Table fields: every pair is checked up to q = 64, seeded pairs above.
TABLE_FIELDS = [
    "2", "3", "2^2", "5", "7", "2^3", "3^2", "2^4", "5^2", "3^3", "2^5", "7^2",
    "2^6", "3^4", "5^3", "3^5", "2^8", "7^3", "2^9",
]


def test_make_prime_field_smallest():
    f2 = make_prime_field(2)
    assert f2.q == 2
    assert sorted([f2.add(0, 1), f2.add(1, 1)]) == [0, 1]


def test_prime_field_arithmetic():
    f5 = make_prime_field(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100])
def test_make_prime_field_rejects_composites(bad):
    with pytest.raises(InvalidArgument, match="is not prime"):
        make_prime_field(bad)


def test_inverse_examples():
    assert make_prime_field(5).inv(2) == 3
    assert make_prime_field(7).inv(3) == 5
    assert make_prime_field(2).inv(1) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(InvalidArgument, match="inverse"):
        make_prime_field(5).inv(0)


@pytest.mark.parametrize("literal,a", [
    ("7", 7), ("7", 8), ("7", -1), ("2^2", 4), ("2^2", -3), ("2^10", 1024),
    ("5", 2.0), ("5", True),
])
def test_inverse_refuses_a_non_element(literal, a):
    # inv(7) over F_7 once returned 0, and inv(4) over F_4 ended in an IndexError
    ctx = parse_field(literal)
    with pytest.raises(InvalidArgument) as exc:
        ctx.inv(a)
    assert str(exc.value) == f"{a!r} has no multiplicative inverse in {ctx!r}"


@pytest.mark.parametrize("e", [2.0, "2", None])
def test_pow_refuses_an_exponent_that_is_not_an_integer(e):
    with pytest.raises(InvalidArgument) as exc:
        make_prime_field(5).pow(3, e)
    assert str(exc.value) == f"exponent must be an integer, got {e!r}"


@pytest.mark.parametrize("literal,a", [
    ("7", 9), ("7", 7), ("7", -1), ("2^2", 4), ("2^10", 1024), ("5", 2.0), ("5", True),
])
def test_pow_refuses_a_base_that_is_not_an_element(literal, a):
    # pow(9, 2) and pow(7, 1) over F_7 once ended in an IndexError
    ctx = parse_field(literal)
    for e in (2, 1, 0):
        with pytest.raises(InvalidArgument) as exc:
            ctx.pow(a, e)
        assert str(exc.value) == f"{a!r} is not an element of {ctx!r}"


@pytest.mark.parametrize("literal", TABLE_FIELDS)
def test_every_nonzero_element_times_its_inverse_is_one(literal):
    ctx = parse_field(literal)
    assert all(ctx.mul(a, ctx.inv(a)) == 1 for a in range(1, ctx.q))


def test_primitive_elements():
    assert make_prime_field(5).primitive_element() == 2
    assert make_prime_field(2).primitive_element() == 1
    # 2 has order 3 mod 7, so 3 is the smallest generator
    assert make_prime_field(7).primitive_element() == 3


def _order(ctx, a):
    """Least e >= 1 with a^e = 1, by counting up."""
    return next(e for e in range(1, ctx.q) if ctx.pow(a, e) == 1)


@pytest.mark.parametrize("literal", ["2", "3", "5", "2^2", "2^3", "3^2", "2^4"])
def test_element_order_divides_group_order(literal):
    ctx = parse_field(literal)
    for a in range(1, ctx.q):
        assert (ctx.q - 1) % _order(ctx, a) == 0


@pytest.mark.parametrize("n", [2.0, "3", True, 0, -2])
def test_nth_root_of_unity_refuses_a_bad_n(n):
    # 2.0 and "3" once raised a TypeError, and True returned 1
    with pytest.raises(InvalidArgument) as exc:
        nth_root_of_unity(make_prime_field(7), n)
    assert str(exc.value) == f"n must be an integer >= 1, got {n!r}"


def test_nth_root_of_unity():
    f7 = make_prime_field(7)
    zeta = nth_root_of_unity(f7, 3)
    assert zeta == 2
    assert (f7.pow(zeta, 3), f7.pow(zeta, 1)) == (1, 2)
    assert nth_root_of_unity(f7, 1) == 1
    f4 = parse_field("2^2")
    zeta4 = nth_root_of_unity(f4, 3)
    assert _order(f4, zeta4) == 3
    with pytest.raises(InvalidArgument, match="does not divide"):
        nth_root_of_unity(f7, 5)


def test_make_extension_basic():
    f2 = make_prime_field(2)
    ext = make_extension(f2, 3)
    assert ext.field.q == 8
    same = make_extension(f2, 1)
    assert same.field is f2
    with pytest.raises(InvalidArgument, match="degree must be >= 1"):
        make_extension(parse_field("2^2"), 0)
    with pytest.raises(InvalidArgument, match="not in the embedded base field"):
        ext.retract(2)  # F_2 sits in F_8 as {0, 1}


@pytest.mark.parametrize("literal", ["2", "2^3", "3^2", "2^10"])
def test_degree_1_extension_is_the_identity(literal):
    base = parse_field(literal)
    ext = make_extension(base, 1)
    assert ext.field is base
    assert [ext.embed(a) for a in range(base.q)] == list(range(base.q))
    assert ext.retract(base.q - 1) == base.q - 1


def test_make_extension_cap():
    with pytest.raises(InvalidArgument, match=r"^field order 2\^25 exceeds 16777216$"):
        make_extension(make_prime_field(2), 25)
    f4 = parse_field("2^2")
    assert make_extension(f4, 12).field.q == 1 << 24
    with pytest.raises(InvalidArgument, match=r"^field order 2\^26 exceeds 16777216$"):  # 4^13
        make_extension(f4, 13)


@pytest.mark.parametrize("m", ["2", 2.5, 2.0, True])
def test_make_extension_refuses_a_degree_that_is_not_an_integer(m):
    # "2" once raised a TypeError, and 2.5 was refused as a bad l; 2.0 == 2
    # and True == 1, so the shared extensions must not answer for them
    f3 = make_prime_field(3)
    make_extension(f3, 1)
    make_extension(f3, 2)
    with pytest.raises(InvalidArgument) as exc:
        make_extension(f3, m)
    assert str(exc.value) == f"extension degree must be an integer, got m = {m!r}"


# Each once ended in "TypeError: unhashable type" from the cache, or an
# AttributeError from a base that is not a field; the arguments are checked
# before the cache is looked up.
@pytest.mark.parametrize("base,m,message", [
    (make_prime_field(2), [2], "extension degree must be an integer, got m = [2]"),
    (make_prime_field(2), {2: 1}, "extension degree must be an integer"),
    ([2], 2, "base must be a FieldCtx, got [2]"),
    ({}, 2, "base must be a FieldCtx"),
    ("x", 2, "base must be a FieldCtx, got 'x'"),
])
def test_make_extension_checks_its_arguments_before_the_cache(base, m, message):
    with pytest.raises(InvalidArgument) as exc:
        make_extension(base, m)
    assert str(exc.value).startswith(message)


class _OrderThatMustNotBeRaised(int):
    def __pow__(self, e):
        raise AssertionError(f"q^m computed for m = {e}")


class _BaseOfOrder3(FieldCtx):
    """A FieldCtx, as make_extension checks, that builds nothing."""
    __init__ = object.__init__
    p, l, q = 3, 1, _OrderThatMustNotBeRaised(3)


@pytest.mark.parametrize("m", [25, 3 * 10 ** 7, 10 ** 12])
def test_make_extension_refuses_a_large_degree_before_computing_q_to_the_m(m):
    # F_3 with m = 3 * 10^7 once computed 3^m, an int of 14.3 million digits,
    # before refusing it
    with pytest.raises(InvalidArgument) as exc:
        make_extension(_BaseOfOrder3(), m)
    assert str(exc.value) == f"field order 3^{m} exceeds 16777216"
    with pytest.raises(InvalidArgument, match=rf"^field order 3\^{m} exceeds 16777216$"):
        make_extension(make_prime_field(3), m)


def test_make_extension_is_built_once():
    f4 = parse_field("2^2")
    ext = make_extension(f4, 3)
    assert make_extension(f4, 3) is ext
    assert make_extension(f4, 2) is not ext


def test_f4_in_f16_fixed_by_frobenius():
    f4 = parse_field("2^2")
    ext = make_extension(f4, 2)
    big = ext.field
    assert big.q == 16
    for a in range(4):
        img = ext.embed(a)
        assert big.pow(img, 4) == img  # embedded elements satisfy a^4 = a


@pytest.mark.parametrize("literal,m", [("2", 2), ("2", 3), ("3", 2), ("2^2", 2), ("2^3", 2), ("3^2", 2)])
def test_embedding_is_injective_ring_hom(literal, m):
    base = parse_field(literal)
    ext = make_extension(base, m)
    big = ext.field
    images = [ext.embed(a) for a in range(base.q)]
    assert len(set(images)) == base.q  # injective
    for c in range(base.p):
        assert ext.embed(c) == c  # fixes the prime field
    for a in range(base.q):
        for b in range(base.q):
            assert ext.embed(base.add(a, b)) == big.add(images[a], images[b])
            assert ext.embed(base.mul(a, b)) == big.mul(images[a], images[b])


@pytest.mark.parametrize("literal", ["2", "3", "5", "7", "2^2", "2^3", "3^2", "2^4", "5^2"])
def test_field_axioms_random_triples(literal):
    ctx = parse_field(literal)
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("literal", ["2^4", "3^2", "5^2", "2^6", "3^4", "2^12"])
def test_frobenius_fixes_every_element(literal):
    ctx = parse_field(literal)
    assert ctx.q <= 4096
    for a in range(ctx.q):
        assert ctx.pow(a, ctx.q) == a


def test_parse_field_literals():
    assert parse_field("5").q == 5
    assert parse_field("2^3").q == 8
    with pytest.raises(InvalidArgument, match="4 is not prime"):
        parse_field("4")


@pytest.mark.parametrize("literal", [
    "65537", "2^17", "3^11", "4^9", "2305843009213693951", "2^100000000",
])
def test_parse_field_refuses_large_orders_before_the_primality_test(literal):
    with mock.patch("cyclocode.field.is_prime", side_effect=AssertionError("is_prime ran")):
        with pytest.raises(InvalidArgument) as exc:
            parse_field(literal)
    assert str(exc.value) == f"field order {literal} exceeds 65536"


@pytest.mark.parametrize("p", [65537, 2 ** 61 - 1])
def test_make_prime_field_refuses_large_p_before_the_primality_test(p):
    with mock.patch("cyclocode.field.is_prime", side_effect=AssertionError("is_prime ran")):
        with pytest.raises(InvalidArgument) as exc:
            make_prime_field(p)
    assert str(exc.value) == f"field order {p} exceeds 65536"


@pytest.mark.parametrize("p,message", [
    (1024, "1024 is not prime; write F_1024 as 2^10"),
    (1025, "1025 is not prime"),
    (4, "4 is not prime; write F_4 as 2^2"),
])
def test_field_ctx_refuses_a_p_that_is_not_prime(p, message):
    # 1024 and 1025 once built the rings Z/1024 and Z/1025, and 4 failed
    # later, in the search for a primitive element
    with pytest.raises(InvalidArgument) as exc:
        FieldCtx(p)
    assert str(exc.value) == message


def test_field_ctx_refuses_a_large_p_before_the_primality_test():
    with mock.patch("cyclocode.field.is_prime", side_effect=AssertionError("is_prime ran")):
        with pytest.raises(InvalidArgument) as exc:
            FieldCtx(2 ** 61 - 1)
    assert str(exc.value) == f"characteristic {2 ** 61 - 1} exceeds 16777216"


@pytest.mark.parametrize("args", [(2.0,), (2.5,), ("2",), (True,), (2, 2.0), (2, True)])
def test_field_ctx_refuses_a_p_or_l_that_is_not_an_integer(args):
    # is_prime(2.0) is True, so 2.0 reached the table build and its TypeError
    p, l = (args + (1,))[:2]
    with pytest.raises(InvalidArgument) as exc:
        FieldCtx(*args)
    assert str(exc.value) == f"p and l must be integers, got p = {p!r}, l = {l!r}"


@pytest.mark.parametrize("l", [0, -1])
def test_field_ctx_refuses_an_l_below_1(l):
    # l = -1 once ended in an IndexError from a modulus check
    with pytest.raises(InvalidArgument) as exc:
        FieldCtx(2, l)
    assert str(exc.value) == f"l must be >= 1, got {l}"


@pytest.mark.parametrize("p,l,order", [
    (2, 25, "2^25"), (2, 10 ** 6, "2^1000000"), (65537, 2, "65537^2"), (3, 16, "3^16"),
])
def test_field_ctx_refuses_an_order_above_2_24_before_the_modulus_search(p, l, order):
    # 65537^2 was once refused as "field order 65537 exceeds 65536", the order
    # of its prime subfield, and FieldCtx(2, 200) searched for 7 s
    search = mock.patch("cyclocode.field._canonical_modulus", side_effect=AssertionError("searched"))
    start = time.perf_counter()
    with search, pytest.raises(InvalidArgument) as exc:
        FieldCtx(p, l)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == f"field order {order} exceeds 16777216"


@settings(max_examples=50, deadline=None)
@given(p=st.sampled_from([p for p in range(200) if is_prime(p)]), l=st.integers(1, 40))
@example(p=2, l=24)
@example(p=65537, l=1)
@example(p=4093, l=2)  # 16,752,649: the largest prime square up to 2^24
def test_field_ctx_builds_exactly_the_orders_up_to_2_24(p, l):
    if p ** l <= 1 << 24:
        assert FieldCtx(p, l).q == p ** l
    else:
        with pytest.raises(InvalidArgument) as exc:
            FieldCtx(p, l)
        assert str(exc.value) == f"field order {p}^{l} exceeds 16777216"  # p^1 < 2^24


@pytest.mark.parametrize("p", [2.0, 2.5, "2"])
def test_make_prime_field_refuses_a_p_that_is_not_an_integer(p):
    make_prime_field(2)  # 2.0 == 2, so a float once found this shared F_2
    with pytest.raises(InvalidArgument, match="^p and l must be integers"):
        make_prime_field(p)


def test_is_prime_agrees_with_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, 71):  # 71^2 > limit
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    assert not any(is_prime(n) for n in (0, 1, -7))


@pytest.mark.parametrize("p,message", [
    (4, "4 is not prime; write F_4 as 2^2"),
    (27, "27 is not prime; write F_27 as 3^3"),
])
def test_make_prime_field_gives_the_field_literal_hint(p, message):
    for make in (make_prime_field, parse_field):
        with pytest.raises(InvalidArgument) as exc:
            make(p)
        assert str(exc.value) == message


@pytest.mark.parametrize("literal,message", [
    ("4", "4 is not prime; write F_4 as 2^2"),
    ("27", "27 is not prime; write F_27 as 3^3"),
    ("9^3", "9 is not prime; write F_{9^3} as 3^6"),
    ("6", "6 is not prime"),
    ("1", "1 is not prime"),
])
def test_prime_power_literal_names_its_field(literal, message):
    with pytest.raises(InvalidArgument) as exc:
        parse_field(literal)
    assert str(exc.value) == message


@pytest.mark.parametrize("literal", TABLE_FIELDS)
def test_field_without_a_modulus_is_the_canonical_field(literal):
    # FieldCtx(2, 3) once refused to build F_8 without a modulus
    shared = parse_field(literal)
    ctx = FieldCtx(shared.p, shared.l)
    assert ctx is not shared and ctx == shared
    assert ctx.modulus == shared.modulus
    assert ctx.primitive_element() == shared.primitive_element()
    for name in ("_add_array", "_mul_array"):
        mine, theirs = getattr(ctx, name), getattr(shared, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_canonical_field_runs_rabins_test_only_to_find_its_modulus():
    # a canonical modulus above TABLE_LIMIT was once tested twice
    with mock.patch("cyclocode.poly.is_irreducible", wraps=is_irreducible) as alone:
        assert _canonical_modulus(2, 10) == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    with mock.patch("cyclocode.poly.is_irreducible", wraps=is_irreducible) as built:
        FieldCtx(2, 10)
    assert built.call_count == alone.call_count > 0


def test_canonical_modulus_is_deterministic():
    a = parse_field("2^3")
    b = parse_field("2^3")
    assert a.modulus == b.modulus == (1, 1, 0, 1)  # x^3 + x + 1


def _first_irreducible(p, d):
    """The first monic degree-d polynomial over F_p in canonical order (its
    low coefficients read as base-p digits of 0, 1, 2, ...) that no monic
    polynomial of degree 1 to d // 2 divides, by long division of ints."""
    def coeffs(low, degree):
        return [low // p ** i % p for i in range(degree)] + [1]

    def divides(g, f):
        rem = list(f)
        for top in range(len(f) - 1, len(g) - 2, -1):
            c = rem[top]
            for j, gc in enumerate(g):
                rem[top - len(g) + 1 + j] = (rem[top - len(g) + 1 + j] - c * gc) % p
        return not any(rem)

    for low in range(p ** d):
        f = coeffs(low, d)
        if not any(
            divides(coeffs(g, e), f) for e in range(1, d // 2 + 1) for g in range(p ** e)
        ):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {d} over F_{p}")


@pytest.mark.parametrize("p,d", [
    (p, d) for p in (2, 3, 5, 7) for d in range(2, 13) if p ** d <= 4096
])
def test_canonical_modulus_matches_trial_division(p, d):
    # the root pre-filter may skip only reducible candidates
    assert _canonical_modulus(p, d) == _first_irreducible(p, d)


@pytest.mark.parametrize("p,dtype", [(3, np.uint8), (127, np.uint8), (131, np.uint16)])
def test_digit_sum_matches_mod_p_at_the_dtype_edge(p, dtype):
    # the dtype FieldCtx.expand picks: 127 is the largest p whose
    # digit sums fit uint8, so its s - p wraps at 256
    assert np.min_scalar_type(2 * (p - 1)) == dtype
    digits = np.arange(p, dtype=dtype)
    got = _digit_sum(digits[:, None], digits, p)
    assert got.dtype == dtype
    assert got.tolist() == [[(a + b) % p for b in range(p)] for a in range(p)]


@pytest.mark.parametrize("literal", TABLE_FIELDS)
def test_tables_match_schoolbook_oracle(literal):
    ctx = parse_field(literal)
    assert ctx.q <= TABLE_LIMIT
    if ctx.q <= 64:
        pairs = [(a, b) for a in range(ctx.q) for b in range(ctx.q)]
    else:
        rng = random.Random(ctx.q)
        pairs = [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(3000)]
    for a, b in pairs:
        assert ctx.add(a, b) == naive_field_add(ctx, a, b)
        assert ctx.mul(a, b) == naive_field_mul(ctx, a, b)


@pytest.mark.parametrize("literal", ["2^10", "3^7", "521", "65521", "2^16"])
def test_digit_product_matches_schoolbook_oracle(literal):
    # a field above TABLE_LIMIT adds, multiplies and inverts by the one digit
    # rule, whatever its p and l: prime fields, p = 2 and odd p with l > 1
    ctx = parse_field(literal)
    assert ctx._add_table is ctx._mul_table is None
    top = ctx.q - 1
    rng = random.Random(ctx.q)
    pairs = [(0, top), (1, top), (top, top), (ctx.p - 1, ctx.p - 1)]
    if ctx.l > 1:
        pairs.append((ctx.p, ctx.q // ctx.p))  # u * u^(l - 1) = u^l, reduced by the modulus
    pairs += [(rng.randrange(ctx.q), rng.randrange(ctx.q)) for _ in range(3000)]
    for a, b in pairs:
        assert ctx.add(a, b) == naive_field_add(ctx, a, b)
        assert ctx.mul(a, b) == naive_field_mul(ctx, a, b)
    for a in [a for a, _ in pairs[:300] if a]:  # an inverse is about 2 log2(q) products
        assert naive_field_mul(ctx, a, ctx.inv(a)) == 1


def _order_by_repeated_mul(ctx, a):
    x, e = a, 1
    while x != 1:
        x = naive_field_mul(ctx, x, a)
        e += 1
        assert e < ctx.q
    return e


@pytest.mark.parametrize("literal", TABLE_FIELDS)
def test_primitive_element_is_least_generator(literal):
    ctx = parse_field(literal)
    gamma = ctx.primitive_element()
    assert _order_by_repeated_mul(ctx, gamma) == ctx.q - 1
    for a in range(1, gamma):
        assert _order_by_repeated_mul(ctx, a) < ctx.q - 1


@settings(max_examples=300, deadline=None)
@given(literal=st.sampled_from(["2^8", "3^5", "2^12"]), data=st.data())
def test_field_axioms_property(literal, data):
    ctx = parse_field(literal)  # 2^12 is above TABLE_LIMIT: digit arithmetic
    a, b, c = (data.draw(st.integers(0, ctx.q - 1)) for _ in range(3))
    assert ctx.add(a, b) == ctx.add(b, a) == naive_field_add(ctx, a, b)
    assert ctx.mul(a, b) == ctx.mul(b, a) == naive_field_mul(ctx, a, b)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == ctx.mul(a, 1) == a
    assert ctx.mul(a, 0) == 0
    assert ctx.add(a, ctx.neg(a)) == 0
    if a:
        assert ctx.mul(a, ctx.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(
    literal=st.sampled_from(["2", "3^2", "2^8", "2^10"]),  # 2^10 has no tables
    a=st.integers(0, 1023),
    e=st.integers(-30, 300),
)
@example(literal="2^10", a=5, e=0)
@example(literal="3^2", a=0, e=0)
@example(literal="2^8", a=3, e=-1)
@example(literal="2^10", a=7, e=6)
def test_pow_matches_repeated_naive_products(literal, a, e):
    """a^e is |e| naive products of a; for e < 0, a^e times a^|e| is 1."""
    ctx = parse_field(literal)
    a %= ctx.q
    assume(a or e >= 0)
    power = 1
    for _ in range(abs(e)):
        power = naive_field_mul(ctx, power, a)
    if e >= 0:
        assert ctx.pow(a, e) == power
    else:
        assert naive_field_mul(ctx, ctx.pow(a, e), power) == 1


@pytest.mark.parametrize("literal", ["2", "5", "2^2", "3^2", "2^8", "2^10", "1031"])
def test_array_arithmetic_matches_scalar(literal):
    ctx = parse_field(literal)
    rng = random.Random(ctx.q)
    a = np.array([[rng.randrange(ctx.q) for _ in range(6)] for _ in range(4)])
    b = np.array([rng.randrange(ctx.q) for _ in range(6)])
    s = rng.randrange(ctx.q)
    for array_op, op in ((ctx.add_array, ctx.add), (ctx.mul_array, ctx.mul)):
        got = array_op(a, b)  # b broadcasts over the rows of a
        assert got.shape == a.shape
        assert got.tolist() == [[op(int(x), int(y)) for x, y in zip(row, b)] for row in a]
        assert array_op(s, b).tolist() == [op(s, int(y)) for y in b]
