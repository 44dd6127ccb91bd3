import copy
import pickle
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    macwilliams,
    naive_field_add,
    naive_field_mul,
    naive_min_distance,
    naive_poly_mul,
    naive_prime_field_expansion,
    naive_rref,
    naive_weight_distribution,
)

from cyclocode import codes, field
from cyclocode.codes import (
    _LOW_TABLE,
    MAX_BUDGET,
    CyclicCode,
    GenMatrix,
    build_Cn,
    build_Cn1,
    build_repetition,
    check_budget,
    dual,
    from_generator,
    min_distance,
    same_code,
    sum_codes,
    weight_distribution,
    zeros_and_nonzeros,
)
from cyclocode.cyclotomic import (
    cosets,
    cyclotomic_cofactor,
    cyclotomic_poly,
    minimal_poly,
    multiplicative_order_mod,
    profile,
)
from cyclocode.errors import BudgetExceeded, CycloError, InvalidArgument
from cyclocode.field import (
    Extension,
    FieldCtx,
    is_prime,
    make_extension,
    make_prime_field,
    nth_root_of_unity,
    parse_field,
)
from cyclocode.poly import Poly, reciprocal

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)


def test_from_generator_repetition():
    c = from_generator(Poly(F2, [1, 1, 1]), 3)
    assert (c.n, c.k) == (3, 1)
    assert same_code(c, build_repetition(3, F2))


def test_from_generator_parity():
    c = from_generator(Poly(F5, [-1, 1]), 4)
    assert (c.n, c.k) == (4, 3)


def test_from_generator_rejects_non_divisor():
    with pytest.raises(InvalidArgument, match="does not divide"):
        from_generator(Poly(F2, [1, 1, 1]), 4)


def test_from_generator_rejects_non_monic():
    with pytest.raises(InvalidArgument, match="monic"):
        from_generator(Poly(F5, [1, 2]), 4)


def test_cyclic_code_refuses_an_h_that_is_not_the_cofactor():
    # x + 1 is not the check polynomial of Q_15: the code would claim k = 7
    # and have a [15, 14] dual
    q15 = cyclotomic_poly(15, F2)
    with pytest.raises(InvalidArgument, match=r"g h is not x\^15 - 1"):
        CyclicCode(15, F2, q15, Poly(F2, [1, 1]))
    c = CyclicCode(15, F2, q15, cyclotomic_cofactor(15, F2))
    assert (c.n, c.k) == (15, 7)
    assert same_code(dual(c), dual(build_Cn(15, F2)))


# over F_5, x^4 - 1 = (x + 4)(x^3 + x^2 + x + 1)
@pytest.mark.parametrize("n,ctx,g,h,match", [
    (4, F5, [4, 1], [2, 2, 2, 2], "g h is not"),  # h off by a scalar
    (8, F5, [4, 1], [1, 1, 1, 1], "g h is not"),  # the product is x^4 - 1
    (4, F2, [4, 1], [1, 1, 1, 1], "g h is not"),  # g and h over F_5, ctx F_2
    (4, F5, [3, 2], [3, 3, 3, 3], "monic"),       # g h = x^4 - 1, but g = 2 (x + 4)
    (4, F5, [], [1], "monic"),                    # the zero polynomial
    (4, F5, [4, 1], None, "g h is not"),          # h is not a polynomial
    (0, F5, [1], [1], "n must be"),
])
def test_cyclic_code_refuses_bad_generators(n, ctx, g, h, match):
    with pytest.raises(InvalidArgument, match=match):
        CyclicCode(n, ctx, Poly(F5, g), h if h is None else Poly(F5, h))


def test_trusted_codes_skip_the_product(monkeypatch):
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    c = from_generator(Poly(F2, [1, 1, 0, 1]), 7)  # divides x^7 - 1 and multiplies nothing
    assert (c.k, dual(c).k, products) == (4, 3, [])
    assert CyclicCode(7, F2, c.g, c.h).k == 4
    assert products == [1]


def test_build_Cn():
    assert build_Cn(6, F5).k == 4
    assert build_Cn(15, F2).k == 7
    with pytest.raises(InvalidArgument, match="characteristic 3 divides"):
        build_Cn(3, F3)


def test_build_Cn1():
    assert build_Cn1(15, F2).k == 6
    assert build_Cn1(6, F5).k == 3
    with pytest.raises(InvalidArgument, match="is prime"):
        build_Cn1(7, F2)
    with pytest.raises(InvalidArgument, match="needs n > 1"):
        build_Cn1(1, F2)


def test_repetition_code():
    r5 = build_repetition(5, F2)
    assert (r5.n, r5.k) == (5, 1)
    assert min_distance(r5).d == 5
    d = dual(r5)
    assert (d.n, d.k) == (5, 4)
    assert min_distance(d).d == 2
    assert build_repetition(1, F3).k == 1
    with pytest.raises(InvalidArgument, match="n must be an integer >= 1, got 0"):
        build_repetition(0, F2)


def test_dual_involution():
    for c in [
        build_Cn(15, F2),
        build_Cn1(15, F2),
        build_Cn(6, F5),
        build_repetition(7, F3),
        build_Cn(5, parse_field("2^2")),
    ]:
        assert same_code(dual(dual(c)), c)
        assert dual(c).k == c.n - c.k


def test_dual_of_repetition_3():
    d = dual(build_repetition(3, F2))
    assert d.g == Poly(F2, [1, 1])  # x - 1 over F_2
    assert (d.n, d.k) == (3, 2)
    assert min_distance(d).d == 2


def test_dual_of_C6_over_F5():
    c = build_Cn(6, F5)
    d = dual(c)
    assert (d.n, d.k) == (6, 2)
    assert min_distance(d).d == 4  # 2^omega(6)
    # h = (x^2 - 1)(x^2 + x + 1) has h(0) = -1, so g_perp = -h* and
    # h_perp = -h(0) g* = g* = x^2 - x + 1: a sign slip in either shows here
    assert c.h == Poly(F5, [-1, -1, 0, 1, 1])
    assert d.g == Poly(F5, [-1, -1, 0, 1, 1])
    assert d.h == Poly(F5, [1, -1, 1])
    assert d.label == "C_n^perp"


def test_generator_times_check_is_xn_minus_1():
    for c in [build_Cn(15, F2), build_Cn(6, F5), build_Cn1(12, F5)]:
        assert c.g * c.h == Poly.x_n_minus_1(c.ctx, c.n)
        assert c.g.degree + c.h.degree == c.n


def test_parity_check_orthogonality():
    for c in [
        build_Cn(15, F2),
        build_Cn1(15, F2),
        build_Cn(6, F5),
        build_Cn(10, F3),
        dual(build_Cn(10, F3)),
        build_Cn(5, parse_field("2^2")),
    ]:
        ctx = c.ctx
        g = c.generator_matrix().rows
        h = dual(c).generator_matrix().rows
        for grow in g:
            for hrow in h:
                s = 0
                for a, b in zip(map(int, grow), map(int, hrow)):
                    s = ctx.add(s, ctx.mul(a, b))
                assert s == 0


def test_rref():
    ident = GenMatrix(F2, [[1, 0], [0, 1]])
    assert np.array_equal(ident.rref().rows, ident.rows)
    dropped = GenMatrix(F2, [[1, 1], [0, 0]]).rref()
    assert dropped.rows.tolist() == [[1, 1]]
    c3 = GenMatrix(F2, [[1, 1, 1]]).rref()
    assert same_code(build_Cn(3, F2), c3)


# F_{2^10} is above TABLE_LIMIT: row operations fall back to scalar add/mul.
RREF_FIELDS = ["2", "3", "2^2", "7", "3^2", "2^8", "2^10"]


def _check_rref(ctx, rows, n):
    m = GenMatrix(ctx, rows, n=n)
    before = m.rows.copy()
    red = m.rref()
    assert np.array_equal(m.rows, before)  # the input is not reduced in place
    assert red.canonical and red.n == m.n and red.rows.dtype == np.int64
    assert red.rows.tolist() == naive_rref(ctx, m.rows)
    again = GenMatrix(ctx, red.rows, n=red.n).rref()
    assert np.array_equal(again.rows, red.rows)
    last = -1
    for row in red.rows:
        col = int(np.flatnonzero(row)[0])  # no zero rows are kept
        assert col > last and row[col] == 1
        assert np.count_nonzero(red.rows[:, col]) == 1
        last = col


@st.composite
def _matrices(draw):
    """Matrices whose entries are mostly zero, with zero and repeated rows."""
    ctx = parse_field(draw(st.sampled_from(RREF_FIELDS)))
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=7))
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))]
    return ctx, rows, n


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_matches_naive_oracle(case):
    _check_rref(*case)


@pytest.mark.parametrize("literal", RREF_FIELDS)
def test_rref_edge_cases(literal):
    ctx = parse_field(literal)
    top = ctx.q - 1
    _check_rref(ctx, [], 5)  # 0 x n
    _check_rref(ctx, [[0] * 4] * 3, 4)  # all zero
    _check_rref(ctx, [[0, top, 1], [0, top, 1], [0, 0, 0], [top, 0, 1]], 3)
    assert GenMatrix(ctx, [[0] * 4] * 3).rref().rows.shape == (0, 4)
    assert GenMatrix(ctx, [], n=5).rref().rows.shape == (0, 5)


def test_genmatrix_n_must_match_the_columns():
    with pytest.raises(InvalidArgument, match="3 columns, n = 4"):
        GenMatrix(F2, [[1, 0, 1]], n=4)
    with pytest.raises(InvalidArgument, match="0 columns, n = 2"):
        GenMatrix(F2, [[]], n=2)
    assert GenMatrix(F2, [[1, 0, 1]], n=3).n == 3
    assert GenMatrix(F2, [], n=4).rows.shape == (0, 4)


@pytest.mark.parametrize("literal,row", [
    ("2^2", [-1, 1, 0]),  # once a no-op for rref, and d = 2 for min_distance
    ("2", [2, 1, 0]),  # once an IndexError from the add/mul tables
    ("3", [0, 1, 3]),
    ("2^10", [1024, 0, 1]),
])
def test_genmatrix_refuses_entries_outside_the_field(literal, row):
    ctx = parse_field(literal)
    with pytest.raises(InvalidArgument, match=f"not all in {re.escape(repr(ctx))}$"):
        GenMatrix(ctx, [[0, 1, 1], row])
    assert GenMatrix(ctx, [[0, ctx.q - 1, 1]]).rows.tolist() == [[0, ctx.q - 1, 1]]


@pytest.mark.parametrize("rows,message", [
    ([[1.5, 0, 1]], "not all in F_2: got float64"),  # once cast to [1, 0, 1]
    ([[None, 0, 1]], "not all in F_2: got object"),
    ([[2 ** 64, 0, 1]], "not all in F_2: got object"),
    ([[2 ** 63, 0, 1]], "not all in F_2"),  # float64 or uint64, by numpy version
    (np.array([[2 ** 63, 0, 1]], dtype=np.uint64), r"not all in F_2$"),  # negative as int64
    ([[True, False, True]], "not all in F_2: got bool"),
    ([["1", "0", "1"]], "not all in F_2: got <U1"),
    ([[1, 0, 1], [1, 0]], "2-D array"),  # ragged
    ([[[1, 0, 1]]], "2-D array"),
])
def test_genmatrix_refuses_rows_that_are_not_an_integer_matrix(rows, message):
    with pytest.raises(InvalidArgument, match=message):
        GenMatrix(F2, rows)


def test_genmatrix_equality_is_row_space_equality():
    assert same_code(GenMatrix(F2, [[1, 1], [0, 1]]), GenMatrix(F2, [[1, 0], [0, 1]]))
    assert same_code(GenMatrix(F3, [[2, 2, 0], [1, 1, 0]]), GenMatrix(F3, [[1, 1, 0]]))
    assert not same_code(GenMatrix(F2, [[1, 1, 0]]), GenMatrix(F2, [[1, 0, 1]]))
    with pytest.raises(InvalidArgument, match="different fields"):
        same_code(GenMatrix(F2, [[1, 1]]), GenMatrix(F3, [[1, 1]]))
    with pytest.raises(InvalidArgument, match="lengths 2 and 3"):
        same_code(GenMatrix(F2, [], n=2), GenMatrix(F2, [], n=3))


def test_same_code_checks():
    c6 = build_Cn(6, F5)
    assert same_code(c6, c6)
    assert not same_code(c6, dual(c6))
    with pytest.raises(InvalidArgument, match="lengths"):
        same_code(c6, build_Cn(8, F5))
    with pytest.raises(InvalidArgument, match="different fields"):
        same_code(build_Cn(4, F5), build_Cn(4, F3))


def test_same_code_decides_membership_without_row_reduction(row_reductions):
    c = build_Cn(20, F3)
    g = c.generator_matrix().rows
    # rows scaled and reordered keep a unit column each: decided by membership
    monomial = GenMatrix(F3, F3.mul_array(2, g[::-1]))
    assert same_code(monomial, c) and same_code(c, monomial)
    wrong = np.array(monomial.rows)
    wrong[0, -1] = F3.add(int(wrong[0, -1]), 1)
    assert not same_code(GenMatrix(F3, wrong), c)
    assert not same_code(GenMatrix(F3, monomial.rows[1:]), c)  # too few rows
    assert row_reductions == []
    # rows of c, one repeated: no unit column proves them independent
    repeated = GenMatrix(F3, np.vstack([g[:-1], g[:1]]))
    assert not same_code(repeated, c)
    assert row_reductions == [repeated]


def test_same_code_needs_pivots_0_to_k_minus_1(row_reductions):
    basis = GenMatrix._of(F3, [[0, 1, 0, 2], [0, 0, 1, 1]])  # an RREF, pivots 1 and 2
    scaled = GenMatrix(F3, [[0, 0, 2, 2], [0, 2, 0, 1]])
    assert same_code(basis, scaled)
    assert row_reductions == [scaled]


@pytest.mark.parametrize("bound,membership", [(9, True), (8, False)])
def test_same_code_row_reduces_beyond_the_int64_bound(monkeypatch, row_reductions, bound, membership):
    """Over F_3 with k = 2 each digit of the product sums k l (p - 1)^2 = 8 at
    most: membership runs while that is below the bound, else row reduction."""
    monkeypatch.setattr(codes, "_INT64_BOUND", bound)
    basis = GenMatrix._of(F3, [[1, 0, 2, 2], [0, 1, 1, 2]])  # an RREF
    rows = GenMatrix(F3, [[0, 2, 2, 1], [2, 0, 1, 1]])
    assert same_code(basis, rows)
    assert row_reductions == ([] if membership else [rows])


def test_the_int64_bound_holds_for_every_parse_field_field():
    # a parse_field field has p <= 2^16, so (p - 1)^2 < 2^32 and k l < 2^31 is enough
    assert (1 << 31) * (65521 - 1) ** 2 < codes._INT64_BOUND
    # the largest prime below 2^24, which FieldCtx builds, passes it at k = 2^15
    p = 16777213
    assert is_prime(p) and FieldCtx(p).l == 1
    assert (1 << 15) * (p - 1) ** 2 < codes._INT64_BOUND
    assert ((1 << 15) + 1) * (p - 1) ** 2 >= codes._INT64_BOUND


# F_{2^10} has no tables: its products go through the digit rule.
SAME_CODE_FIELDS = ["2", "3", "2^2", "3^2", "2^10"]


@st.composite
def _same_code_cases(draw):
    """(field, a, b) for same_code against the oracle: two random matrices, or
    a code's matrix against a recombination of its rows by an invertible
    matrix, kept as it is, with one entry changed or with one row repeated.

    The code is cyclic, so its matrix is [I_k | P], or the RREF of random
    rows, whose pivots may be anywhere.  The recombination is monomial, rows
    reordered and scaled, which keeps a unit column for every row, or dense.
    """
    ctx = parse_field(draw(st.sampled_from(SAME_CODE_FIELDS)))
    element = st.integers(0, ctx.q - 1)
    entry = st.one_of(st.just(0), st.just(1), element)

    def matrix(n):
        return GenMatrix(ctx, draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6)), n=n)

    case = draw(st.sampled_from(["random", "recombined", "changed", "repeated"]))
    if case == "random":
        n = draw(st.integers(1, 7))
        a, b = matrix(n), matrix(n)
        return ctx, a.rref() if draw(st.booleans()) else a, b
    if draw(st.booleans()):
        a = _divisor_code(draw, ctx, _divisor_length(draw, ctx)).generator_matrix()
    else:
        a = matrix(draw(st.integers(1, 7))).rref()
    k = a.num_rows
    if draw(st.booleans()):
        order = draw(st.permutations(range(k)))
        scale = draw(st.lists(st.integers(1, ctx.q - 1), min_size=k, max_size=k))
        mix = [[scale[i] if j == order[i] else 0 for j in range(k)] for i in range(k)]
    else:
        mix = draw(st.lists(st.lists(element, min_size=k, max_size=k), min_size=k, max_size=k))
        assume(len(naive_rref(ctx, mix)) == k)
    b = ctx.sum_array(ctx.mul_array(np.array(mix, dtype=np.int64).reshape(k, k, 1), a.rows), axis=1)
    b = b.reshape(k, a.n).tolist()
    if case == "changed" and k:
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, a.n - 1))
        b[i][j] = draw(st.integers(0, ctx.q - 1).filter(lambda x: x != b[i][j]))
    elif case == "repeated" and k > 1:
        i, j = draw(st.permutations(range(k)))[:2]
        b[i] = b[j]
    return ctx, a, GenMatrix(ctx, b, n=a.n)


@settings(max_examples=200, deadline=None)
@given(_same_code_cases())
def test_same_code_matches_the_naive_oracle(case):
    ctx, a, b = case
    expected = naive_rref(ctx, a.rows) == naive_rref(ctx, b.rows)
    assert same_code(a, b) == expected
    assert same_code(b, a) == expected


def test_sum_codes():
    c = build_Cn(15, F2)
    assert same_code(sum_codes(c, c), c)
    lhs = sum_codes(dual(c), build_repetition(15, F2))
    assert same_code(lhs, dual(build_Cn1(15, F2)))
    zero_dim = from_generator(Poly.x_n_minus_1(F2, 15), 15)
    assert same_code(sum_codes(zero_dim, c), c)


# F_{2^10} is above TABLE_LIMIT: products and sums go through scalar add/mul.
SUM_FIELDS = ["2", "3", "2^2", "3^2", "2^10"]


@st.composite
def _row_pairs(draw):
    """Rows a and b over one field, either of them possibly empty: b has
    repeated rows, so it is rank deficient, or lies in the row space of a."""
    ctx = parse_field(draw(st.sampled_from(SUM_FIELDS)))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.q - 1))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4)
    a = draw(rows)
    if draw(st.booleans()):
        b = []
        for _ in range(draw(st.integers(0, 3))):
            word = [0] * n
            for row in a:
                c = draw(st.integers(0, ctx.q - 1))
                word = [naive_field_add(ctx, x, naive_field_mul(ctx, c, y)) for x, y in zip(word, row)]
            b.append(word)
    else:
        b = draw(rows)
        if b:
            b += [b[i] for i in draw(st.lists(st.integers(0, len(b) - 1), min_size=1, max_size=2))]
    return ctx, a, b, n


@settings(max_examples=200, deadline=None)
@given(_row_pairs())
@example((F2, [[0, 1, 1]], [[1, 1, 0]], 3))  # b's pivot comes first
@example((F2, [], [[1, 1], [1, 1]], 2))
@example((F2, [[1, 0]], [], 2))
def test_sum_codes_is_the_rref_of_the_stacked_rows(case):
    ctx, a, b, n = case
    s = sum_codes(GenMatrix(ctx, a, n=n), GenMatrix(ctx, b, n=n))
    assert s.canonical and s.n == n
    assert s.rows.tolist() == naive_rref(ctx, a + b)


def test_builders_share_one_code_with_one_matrix_and_one_dual():
    for build in (build_Cn, build_Cn1, build_repetition):
        c = build(15, F2)
        assert build(15, F2) is c
        assert c.generator_matrix() is c.generator_matrix()
        assert dual(c) is dual(c)
    assert build_Cn(15, F2) is not build_Cn(15, parse_field("2^2"))


# (type, how to get a shared value, a public and a private attribute); Poly
# and GenMatrix have no private attribute, so a new name stands in for one
_SHARED_VALUES = [
    pytest.param(kind, shared, public, hidden, id=kind)
    for kind, shared, public, hidden in [
        ("FieldCtx", lambda: parse_field("2^3"), "q", "_primitive"),
        ("Extension", lambda: make_extension(F2, 4), "field", "_table"),
        ("Poly", lambda: build_Cn(15, F2).g, "coeffs", "_memo"),
        ("GenMatrix", lambda: build_Cn(15, F2).generator_matrix(), "canonical", "_memo"),
        ("CyclicCode", lambda: build_Cn(15, F2), "label", "_dual"),
    ]
]


@pytest.mark.parametrize("private", [False, True], ids=["public", "private"])
@pytest.mark.parametrize("kind,shared,public,hidden", _SHARED_VALUES)
def test_shared_values_refuse_every_write(kind, shared, public, hidden, private):
    value = shared()
    name = hidden if private else public
    before = getattr(value, name, None)
    with pytest.raises(CycloError, match=f"^{kind} is read-only$"):
        setattr(value, name, "mine")
    with pytest.raises(CycloError, match=f"^{kind} is read-only$"):
        delattr(value, name)
    assert shared() is value and getattr(value, name, None) is before


@pytest.mark.parametrize("kind,shared,public,hidden", _SHARED_VALUES)
def test_shared_values_still_copy_and_pickle(kind, shared, public, hidden):
    value = shared()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert repr(getattr(twin, public)) == repr(getattr(value, public))
        with pytest.raises(CycloError, match="read-only"):
            setattr(twin, public, None)


def test_copies_of_a_matrix_keep_read_only_rows():
    # a deep copy or pickle of a canonical matrix once had writeable rows, so
    # rows written into it kept the mark and min_distance trusted them
    for m in (build_Cn(15, F2).generator_matrix(), GenMatrix(F2, [[1, 1, 0], [1, 0, 1]])):
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin.canonical == m.canonical and twin.rows.tolist() == m.rows.tolist()
            with pytest.raises(ValueError, match="read-only"):
                twin.rows[0, 0] = 0


def test_genmatrix_takes_no_claim_of_rref():
    rows = [[1, 0, 1], [0, 1, 1]]  # in RREF, but only codes.py may mark a matrix so
    with pytest.raises(TypeError, match="canonical"):
        GenMatrix(F2, rows, canonical=True)
    assert not GenMatrix(F2, rows).canonical and GenMatrix(F2, rows).rref().canonical


def test_code_lengths_go_through_the_one_n_rule():
    c7, r1 = build_Cn(7, F2), build_repetition(1, F2)
    for call in (
        lambda: build_Cn(7.0, F2),
        lambda: build_Cn(7.5, F2),
        lambda: build_Cn1(9.0, F2),
        lambda: build_repetition(1.0, F2),
        lambda: build_repetition(True, F2),
        lambda: build_repetition(7.5, F2),  # once a TypeError from [1] * n
        lambda: from_generator(Poly(F2, [1, 1]), 7.5),  # once a TypeError too
        lambda: from_generator(Poly(F2, [1, 1]), 0),
    ):
        for _ in range(2):  # a refused n is not stored
            with pytest.raises(InvalidArgument, match="n must be an integer >= 1"):
                call()
    assert build_Cn(7, F2) is c7 and build_repetition(1, F2) is r1


# Each once ended in a TypeError from the builder's own comparison of n or
# from its cache, which hashed an unhashable n or field, or an AttributeError
# from the field or from g, before any check ran.
@pytest.mark.parametrize("call,message", [
    (lambda: build_Cn([15], F2), "n must be an integer >= 1"),
    (lambda: build_Cn1(15, [2]), r"field must be a FieldCtx, got \[2\]"),
    (lambda: build_repetition({}, F2), "n must be an integer >= 1"),
    (lambda: from_generator("x", 5), "generator must be a monic nonzero Poly"),
    (lambda: from_generator(None, 5), "generator must be a monic nonzero Poly"),
    (lambda: build_Cn("a", F2), "n must be an integer >= 1"),
    (lambda: build_Cn(None, F2), "n must be an integer >= 1"),
    (lambda: build_Cn1("a", F2), "n must be an integer >= 1"),
    (lambda: build_repetition("a", F2), "n must be an integer >= 1"),
    (lambda: build_repetition(None, F2), "n must be an integer >= 1"),
    (lambda: build_Cn(15, "x"), "field must be a FieldCtx, got 'x'"),
    (lambda: build_Cn1(15, "x"), "field must be a FieldCtx, got 'x'"),
    (lambda: build_repetition(15, None), "field must be a FieldCtx, got None"),
])
def test_builders_refuse_a_bad_n_or_field(call, message):
    with pytest.raises(InvalidArgument, match=message):
        call()


# dual and zeros_and_nonzeros once read a GenMatrix as a code (an
# AttributeError, and a gcd(2, 2) != 1 that named no matrix), and the walks
# read a list as a matrix.
@pytest.mark.parametrize("call,message", [
    (lambda: dual(GenMatrix(F2, [[1, 1]])), "dual needs a CyclicCode, got GenMatrix"),
    (lambda: zeros_and_nonzeros(GenMatrix(F2, [[1, 1]])), "zeros_and_nonzeros needs a CyclicCode"),
    (lambda: min_distance([[1, 0]]), "expected a CyclicCode or GenMatrix, got list"),
    (lambda: weight_distribution([[1, 0]]), "expected a CyclicCode or GenMatrix, got list"),
    (lambda: same_code(build_Cn(3, F2), [[1, 0, 1]]), "expected a CyclicCode or GenMatrix"),
])
def test_code_functions_refuse_what_is_not_a_code(call, message):
    with pytest.raises(InvalidArgument, match=message):
        call()


def test_genmatrix_rows_are_read_only():
    c = build_Cn(15, F2)
    given_rows = np.array([[1, 1, 0], [0, 1, 1]])
    loose = GenMatrix(F2, given_rows)
    matrices = [
        loose,
        loose.rref(),
        c.generator_matrix(),
        dual(c).generator_matrix(),
        sum_codes(dual(c), build_repetition(15, F2)),
        GenMatrix(parse_field("2^10"), [[1023, 5]]),
    ]
    for m in matrices:
        with pytest.raises(ValueError, match="read-only"):
            m.rows[0, 0] = 0
    given_rows[0, 0] = 0  # the caller's own array stays writeable
    assert loose.rows[0, 0] == 1


def test_min_distance_known_values():
    assert min_distance(build_Cn(15, F2)).d == 3
    assert min_distance(build_Cn1(15, F2)).d == 6
    r = min_distance(dual(build_Cn(15, F2)))
    assert r.d == 4
    assert r.codewords_enumerated == 2 ** 8 - 1
    assert r.method == "exhaustive-messages"


def test_min_distance_budget():
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(build_Cn(15, F2), budget=100)
    assert exc.value.required == 127


def test_check_budget_messages():
    check_budget(1)
    check_budget(MAX_BUDGET)
    with pytest.raises(InvalidArgument, match=r"^--budget must be >= 1, got -5$"):
        check_budget(-5, name="--budget")
    with pytest.raises(InvalidArgument, match=r"^budget must be an integer, got True$"):
        check_budget(True)
    with pytest.raises(InvalidArgument, match=r"^budget must be an integer, got 'x'$"):
        check_budget("x")
    with pytest.raises(InvalidArgument, match=r"^budget must be <= 2\^63 - 1, got 9223372036854775808$"):
        check_budget(MAX_BUDGET + 1)


@pytest.mark.parametrize("walk", [min_distance, weight_distribution])
@pytest.mark.parametrize("budget", [0, -5, True, 1.5, "x", 2 ** 63])
def test_walks_refuse_bad_budgets_before_building_a_matrix(walk, budget, monkeypatch):
    built = []
    monkeypatch.setattr(CyclicCode, "generator_matrix", built.append)
    monkeypatch.setattr(GenMatrix, "rref", built.append)
    for c in (build_Cn(15, F2), GenMatrix(F2, [[1, 1, 0], [0, 1, 1]])):
        with pytest.raises(InvalidArgument, match="^budget must be"):
            walk(c, budget=budget)
    assert built == []


def test_refused_cyclic_code_is_not_row_reduced(monkeypatch):
    reduced = []
    rref = GenMatrix.rref
    monkeypatch.setattr(GenMatrix, "rref", lambda m: reduced.append(m.n) or rref(m))
    c = build_Cn(15, F2)  # k = 7
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(c, budget=100)
    assert (exc.value.required, exc.value.budget) == (127, 100)
    # both budget the q^k - 1 nonzero codewords
    with pytest.raises(BudgetExceeded) as exc:
        weight_distribution(c, budget=126)
    assert (exc.value.required, exc.value.budget) == (127, 126)
    assert sum(weight_distribution(c, budget=127)) == 128
    assert reduced == []
    # a GenMatrix is row-reduced to learn its rank, then refused the same way
    doubled = GenMatrix(F2, np.vstack([c.generator_matrix().rows] * 2))
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(doubled, budget=100)
    assert (exc.value.required, exc.value.budget) == (127, 100)
    assert reduced == [15]
    assert min_distance(c, budget=127).d == 3
    assert reduced == [15]  # an accepted cyclic code reads its RREF off g


def test_weight_2_floor_stops_the_walk_after_one_step(monkeypatch):
    steps = []
    weights = codes._weights

    def counted(m):
        for step in weights(m):
            steps.append(len(step[0]))
            yield step

    monkeypatch.setattr(codes, "_weights", counted)
    r = min_distance(dual(build_Cn(23, F2)))  # k = 22: 2^9 steps of 2^13 codewords
    assert (r.d, len(steps)) == (2, 1)
    assert r.codewords_enumerated == 2 ** 22 - 1
    assert r.method == "exhaustive-messages"


def test_min_distance_needs_an_rref_basis(monkeypatch):
    loose = GenMatrix(F2, [[1, 1, 0], [1, 0, 1]])  # not flagged canonical
    monkeypatch.setattr(codes, "_basis_within_budget", lambda c, budget: (loose, 3))
    with pytest.raises(CycloError, match="RREF"):
        min_distance(loose)


def _cyclic_code(ctx, n, reps):
    """The code generated by the product of M^(s) over coset representatives s."""
    g = Poly.one(ctx)
    for s in reps:
        g = g * minimal_poly(s, n, ctx)
    return from_generator(g, n)


def _random_divisor_code(rng, ctx, n):
    reps = [c.representative for c in cosets(n, ctx.q)]
    chosen = [s for s in reps if rng.random() < 0.5]
    if not chosen or len(chosen) == len(reps):
        chosen = reps[:1]
    return _cyclic_code(ctx, n, chosen)


@pytest.mark.parametrize("literal,lengths", [("2", [7, 9, 15]), ("3", [8, 10, 13]), ("5", [6, 8, 12]), ("2^2", [5, 9, 15])])
def test_min_distance_matches_naive_oracle(literal, lengths):
    ctx = parse_field(literal)
    rng = random.Random(11)
    for n in lengths:
        for _ in range(3):
            c = _random_divisor_code(rng, ctx, n)
            if ctx.q ** c.k > 1 << 14:
                continue
            assert min_distance(c).d == naive_min_distance(c)


# [21, 14, 4], [13, 9, 3], [13, 7, 5] and [8, 5, 3] codes: each has more
# messages than the enumeration table, so the walk takes high-row steps.
@pytest.mark.parametrize(
    "literal,n,reps",
    [("2", 21, (0, 1)), ("3", 13, (0, 1)), ("2^2", 13, (1,)), ("3^2", 8, (0, 1, 3))],
)
def test_enumeration_beyond_low_table_matches_naive_oracle(literal, n, reps):
    ctx = parse_field(literal)
    c = _cyclic_code(ctx, n, reps)
    assert ctx.q ** c.k > _LOW_TABLE
    assert min_distance(c).d == naive_min_distance(c)
    assert weight_distribution(c) == naive_weight_distribution(c)


# Duals of small codes: each walk has two or more high rows, so it carries.
@pytest.mark.parametrize(
    "literal,n,free",
    [("2", 21, (7,)), ("3", 16, (0, 8)), ("2^2", 15, (0, 1)), ("3^2", 10, (0, 1))],
)
def test_high_row_walk_matches_macwilliams_of_small_dual(literal, n, free):
    ctx = parse_field(literal)
    reps = [c.representative for c in cosets(n, ctx.q)]
    small = _cyclic_code(ctx, n, [s for s in reps if s not in free])
    big = dual(small)
    assert ctx.q ** big.k > _LOW_TABLE * ctx.p
    expected = macwilliams(naive_weight_distribution(small), ctx.q)
    assert weight_distribution(big) == expected
    assert min_distance(big).d == next(w for w in range(1, n + 1) if expected[w])


@st.composite
def _divisor_codes(draw):
    """A cyclic code with q^n <= 2^16, so the code and its dual both enumerate."""
    ctx = parse_field(draw(st.sampled_from(["2", "3", "2^2", "5", "3^2"])))
    lengths = [n for n in range(2, 17) if n % ctx.p and ctx.q ** n <= 1 << 16]
    n = draw(st.sampled_from(lengths))
    reps = [c.representative for c in cosets(n, ctx.q)]
    return _cyclic_code(ctx, n, draw(st.lists(st.sampled_from(reps), unique=True)))


def _divisor_length(draw, ctx):
    """A length n at which _divisor_code can draw a code over ctx."""
    if ctx.q > 64:
        return draw(st.sampled_from([n for n in range(2, 20) if (ctx.q - 1) % n == 0]))
    # minimal_poly works in the splitting field F_{q^t} of x^n - 1: keep it small
    lengths = [
        n for n in range(1, 31)
        if n % ctx.p and ctx.q ** multiplicative_order_mod(ctx.q, n) <= 1 << 16
    ]
    return draw(st.sampled_from(lengths))


def _divisor_code(draw, ctx, n):
    """A cyclic code g | x^n - 1 over ctx, g = 1 and x^n - 1 included.

    Over the large fields n divides q - 1, so x^n - 1 splits into the linear
    factors x - zeta^i and g is the product of a random set of them.
    """
    if ctx.q > 64:
        zeta = nth_root_of_unity(ctx, n)
        g = Poly.one(ctx)
        for i in draw(st.lists(st.integers(0, n - 1), unique=True)):
            g = g * Poly(ctx, [ctx.neg(ctx.pow(zeta, i)), 1])
        return from_generator(g, n)
    reps = [c.representative for c in cosets(n, ctx.q)]
    return _cyclic_code(ctx, n, draw(st.lists(st.sampled_from(reps), unique=True)))


@st.composite
def _any_divisor_codes(draw, literals):
    """A cyclic code of _divisor_code over one of the fields."""
    ctx = parse_field(draw(st.sampled_from(literals)))
    return _divisor_code(draw, ctx, _divisor_length(draw, ctx))


@st.composite
def _divisor_code_pairs(draw, literals):
    """Two cyclic codes of _divisor_code of one length over one of the fields."""
    ctx = parse_field(draw(st.sampled_from(literals)))
    n = _divisor_length(draw, ctx)
    return _divisor_code(draw, ctx, n), _divisor_code(draw, ctx, n)


# The sum of two cyclic codes is generated by the gcd of their generators
# (MacWilliams & Sloane, ch. 7), the rule that verify's dual-sum lemma rests
# on; sum_codes row-reduces the two bases instead.  F_{2^10} has no tables.
@settings(max_examples=150, deadline=None)
@given(_divisor_code_pairs(["2", "3", "2^2", "3^2", "2^10"]))
@example((dual(build_Cn(15, F2)), build_repetition(15, F2)))
@example((from_generator(Poly.x_n_minus_1(F3, 8), 8), build_Cn(8, F3)))
def test_the_gcd_of_generators_generates_the_sum(pair):
    a, b = pair
    by_gcd = from_generator(a.g.gcd(b.g), a.n).generator_matrix()
    assert by_gcd.rows.tolist() == sum_codes(a, b).rows.tolist()


def _table_sizes(ctx):
    """Enumeration tables of 1, 2 or 3 F_q-symbols, so that small codes walk
    many high-symbol steps, and the default one."""
    return st.sampled_from([ctx.q, ctx.q ** 2, ctx.q ** 3, _LOW_TABLE])


@st.composite
def _scrambled_bases(draw):
    """(field, rows, table size): a full-rank basis that is not cyclic and
    mostly not in RREF, with at most 729 codewords.

    It is [I_k | P] with sparse P, so some rows have weight 1 or 2, its
    columns permuted, then row operations row_i += c row_j that hide them.
    """
    literal = draw(st.sampled_from(["2", "3", "2^2", "3^2"]))
    ctx = parse_field(literal)
    k = draw(st.integers(1, {2: 8, 3: 5, 4: 4, 9: 3}[ctx.q]))
    r = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(1, ctx.q - 1))
    rows = [
        [int(i == j) for j in range(k)] + draw(st.lists(entry, min_size=r, max_size=r))
        for i in range(k)
    ]
    perm = draw(st.permutations(range(k + r)))
    rows = [[row[j] for j in perm] for row in rows]
    ops = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, ctx.q - 1))
    for i, j, c in draw(st.lists(ops, max_size=2 * k)):
        if i != j:
            rows[i] = [
                naive_field_add(ctx, a, naive_field_mul(ctx, c, b))
                for a, b in zip(rows[i], rows[j])
            ]
    return literal, rows, draw(_table_sizes(ctx))


# The examples were found by search. With one row in the table, the first
# walk step holds a codeword of weight 2, and every RREF row of weight 1
# comes only in a high-row step.  No row of the second input has weight 1,
# though three rows of its RREF do.
@settings(max_examples=200, deadline=None)
@given(_scrambled_bases())
@example(("2", [[0, 0, 0, 0, 1], [1, 0, 0, 1, 0]], 2))
@example(("2", [[0, 1, 0, 1, 0, 0], [1, 0, 1, 0, 0, 1], [1, 0, 1, 1, 0, 1], [1, 0, 1, 1, 0, 0]], 2))
def test_min_distance_floor_matches_naive_oracle(case):
    literal, rows, table = case
    m = GenMatrix(parse_field(literal), rows)
    with mock.patch.object(codes, "_LOW_TABLE", table):
        assert min_distance(m).d == naive_min_distance(m)


def test_a_matrix_that_cannot_be_marked_canonical_keeps_its_distance():
    # rank 2 and not in RREF: marked canonical, it was returned unreduced by
    # rref and its third row, the sum of the first two, walked to d = 0
    m = GenMatrix(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    with pytest.raises(CycloError, match="read-only"):
        m.canonical = True
    assert min_distance(m).d == naive_min_distance(m) == 2


# F_{2^8} walks packed bit planes eight to a symbol.
@settings(max_examples=100, deadline=None)
@given(
    _any_divisor_codes(["2", "3", "2^2", "3^2", "2^8"]).filter(lambda c: 1 < c.ctx.q ** c.k <= 1 << 10),
    st.data(),
)
def test_min_distance_of_divisor_codes_matches_naive_oracle(c, data):
    with mock.patch.object(codes, "_LOW_TABLE", data.draw(_table_sizes(c.ctx))):
        assert min_distance(c).d == naive_min_distance(c)
        assert weight_distribution(c) == naive_weight_distribution(c)


def _systematic(p_part):
    """The rows of [I_k | P], given the k rows of P."""
    k = len(p_part)
    return [[int(i == j) for j in range(k)] + list(row) for i, row in enumerate(p_part)]


# The largest q^k of a class-walk case per field, so that the oracle's q^k
# messages stay few.  F_{2^10} has no tables, so it takes k = 1.
_CLASS_WALK_CODEWORDS = {"3": 729, "2^2": 1024, "5": 625, "7": 343, "2^3": 512, "3^2": 729, "2^10": 1024}


@st.composite
def _class_walk_cases(draw):
    """(field, rows, table size): a full-rank [I_k | P] over a field with
    q > 2, and a table of 1, 2 or 3 symbols or the default one, so that the
    walk has 0, 1 or several high symbols."""
    literal = draw(st.sampled_from(sorted(_CLASS_WALK_CODEWORDS)))
    ctx = parse_field(literal)
    k = draw(st.integers(1, max(k for k in range(1, 8) if ctx.q ** k <= _CLASS_WALK_CODEWORDS[literal])))
    r = draw(st.integers(0, 6))
    entry = st.integers(0, ctx.q - 1)
    p_part = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=k, max_size=k))
    return literal, _systematic(p_part), draw(_table_sizes(ctx))


# The examples walk 3, 2, 1 and 0 high symbols, the last two over the
# characteristic-2 layouts, and 0 over the no-table F_{2^10}.
@settings(max_examples=100, deadline=None)
@given(_class_walk_cases())
@example(("3", _systematic([[1, 2], [0, 1], [2, 2], [1, 1]]), 3))
@example(("3^2", _systematic([[1, 5, 8], [0, 3, 1], [7, 0, 2]]), 9))
@example(("2^2", _systematic([[1, 2, 3], [3, 0, 1]]), 4))
@example(("2^3", _systematic([[5, 0, 7], [1, 6, 0], [2, 2, 3]]), _LOW_TABLE))
@example(("2^10", _systematic([[0, 515, 0, 1023]]), 1024))
def test_class_walk_matches_naive_oracle(case):
    literal, rows, table = case
    m = GenMatrix(parse_field(literal), rows)
    with mock.patch.object(codes, "_LOW_TABLE", table):
        assert weight_distribution(m) == naive_weight_distribution(m)
        assert min_distance(m).d == naive_min_distance(m)


@pytest.mark.parametrize("literal,k", [("3", 5), ("2^2", 4), ("7", 3), ("3^2", 3), ("2^3", 3), ("2", 6)])
@pytest.mark.parametrize("symbols", [1, 2, 3])
def test_class_walk_weighs_one_codeword_per_class(literal, k, symbols):
    """(q^k - 1) / (q - 1) columns, each counted q - 1 times, in
    1 + (q^h - 1) / (q - 1) steps for h high symbols."""
    ctx = parse_field(literal)
    rng = random.Random(k)
    m = GenMatrix(ctx, _systematic([[rng.randrange(ctx.q) for _ in range(4)] for _ in range(k)]))
    with mock.patch.object(codes, "_LOW_TABLE", ctx.q ** symbols):
        steps = list(codes._weights(m))
    q, h = ctx.q, k - symbols
    assert {multiplicity for _, multiplicity in steps} == {q - 1}
    assert sum(len(w) for w, _ in steps) == (q ** k - 1) // (q - 1)
    assert len(steps) == 1 + (q ** h - 1) // (q - 1)


@pytest.mark.parametrize("literal", ["2", "3", "3^2", "2^10"])
def test_zero_code_walks_nothing(literal):
    ctx = parse_field(literal)
    zero = from_generator(Poly.x_n_minus_1(ctx, 5), 5)
    assert list(codes._weights(zero.generator_matrix())) == []
    assert weight_distribution(zero) == [1] + [0] * zero.n
    assert weight_distribution(GenMatrix(ctx, [], n=2)) == [1, 0, 0]


@st.composite
def _systematic_bases(draw):
    """(field, rows, table size): a full-rank [I_k | P] over a field of
    characteristic 2 whose length is on either side of a 64-bit word of the
    packed walk.  Over the no-table F_{2^10} the oracle's scalar products are
    slow, so P has a few nonzero entries there."""
    literal = draw(st.sampled_from(["2", "2^2", "2^3", "2^10"]))
    ctx = parse_field(literal)
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
    k = draw(st.integers(1, {2: 6, 4: 3, 8: 2, 1024: 1}[ctx.q]))
    if ctx.q > 64:
        cells = draw(st.dictionaries(st.integers(0, n - k - 1), st.integers(1, ctx.q - 1), max_size=6))
        p_part = [[cells.get(j, 0) for j in range(n - k)]]
    else:
        entry = st.integers(0, ctx.q - 1)
        p_part = draw(st.lists(st.lists(entry, min_size=n - k, max_size=n - k), min_size=k, max_size=k))
    return literal, _systematic(p_part), draw(_table_sizes(ctx))


def _ones_at(literal, n, k, columns, value=1):
    """[I_k | P] with value in the given columns of every row, 0 elsewhere."""
    return literal, _systematic([[value * (j in columns) for j in range(k, n)]] * k), 2


# Each example puts nonzero symbols on both sides of a word boundary; over
# F_4 and F_8, symbol 3 has both low digit planes set.
@settings(max_examples=60, deadline=None)
@given(_systematic_bases())
@example(_ones_at("2", 63, 3, {61, 62}))
@example(_ones_at("2", 65, 4, {63, 64}))
@example(_ones_at("2^2", 65, 2, {5, 63, 64}, value=3))
@example(_ones_at("2^3", 129, 2, {64, 127, 128}, value=3))
@example(("2^10", [[1] + [0] * 61 + [515, 0, 1023]], 2))
def test_packed_walk_matches_naive_oracle_across_word_boundaries(case):
    literal, rows, table = case
    m = GenMatrix(parse_field(literal), rows)
    with mock.patch.object(codes, "_LOW_TABLE", table):
        assert min_distance(m).d == naive_min_distance(m)
        assert weight_distribution(m) == naive_weight_distribution(m)


@st.composite
def _systematic_pairs(draw):
    """(field, [I_k | P], [I_(n-k) | P^T], table size) over F_2 or F_4.  The
    second is the dual [-P^T | I_(n-k)] with its two blocks swapped, as
    -P^T = P^T and weights do not see the order of the columns; both codes
    have at most 2^12 codewords."""
    literal = draw(st.sampled_from(["2", "2^2"]))
    ctx = parse_field(literal)
    half = {2: 12, 4: 6}[ctx.q]
    n = draw(st.integers(2, 2 * half))
    k = draw(st.integers(max(1, n - half), min(n - 1, half)))
    entry = st.integers(0, ctx.q - 1)
    p_part = draw(st.lists(st.lists(entry, min_size=n - k, max_size=n - k), min_size=k, max_size=k))
    return literal, _systematic(p_part), _systematic(list(zip(*p_part))), draw(_table_sizes(ctx))


@settings(max_examples=100, deadline=None)
@given(_systematic_pairs())
def test_packed_walk_histograms_obey_macwilliams(case):
    literal, code, dual_rows, table = case
    ctx = parse_field(literal)
    with mock.patch.object(codes, "_LOW_TABLE", table):
        a = weight_distribution(GenMatrix(ctx, code))
        b = weight_distribution(GenMatrix(ctx, dual_rows))
    assert macwilliams(a, ctx.q) == b


def _check_generator_matrix(c):
    m = c.generator_matrix()
    gc = [int(x) for x in c.g.coeffs]
    shifts = [[0] * i + gc + [0] * (c.n - len(gc) - i) for i in range(c.k)]
    assert m.canonical and m.rows.dtype == np.int64
    assert m.rows.shape == (c.k, c.n)
    assert m.rows.tolist() == naive_rref(c.ctx, shifts)


# F_{2^10} is above TABLE_LIMIT, so its arithmetic is digit by digit.
@settings(max_examples=150, deadline=None)
@given(_any_divisor_codes(["2", "3", "2^2", "5", "3^2", "2^8", "2^10"]))
def test_generator_matrix_matches_naive_rref_of_shifts(c):
    _check_generator_matrix(c)


@pytest.mark.parametrize("literal", ["2", "3", "2^2", "3^2", "2^10"])
def test_generator_matrix_edge_cases(literal):
    ctx = parse_field(literal)
    n = 3 if ctx.q % 3 else 4
    whole = from_generator(Poly.one(ctx), n)  # r = 0: the identity
    zero = from_generator(Poly.x_n_minus_1(ctx, n), n)  # k = 0: no rows
    for c in (whole, zero, build_repetition(n, ctx), dual(build_repetition(n, ctx))):
        _check_generator_matrix(c)


# F_{2^10} is above TABLE_LIMIT, so its arithmetic is digit by digit.
BUILD_FIELDS = ["2", "3", "2^2", "3^2", "2^8", "2^10"]


@st.composite
def _built_codes(draw):
    """C_n, C_{n,1} or R_n over one of BUILD_FIELDS, as its builder makes it."""
    ctx = parse_field(draw(st.sampled_from(BUILD_FIELDS)))
    n = draw(st.integers(2, 36))
    builders = [build_repetition]
    if n % ctx.p:
        builders.append(build_Cn)
        if not is_prime(n):
            builders.append(build_Cn1)
    return draw(st.sampled_from(builders))(n, ctx)


def _check_generator_and_check_poly(c):
    """g is monic and g h = x^n - 1, multiplied by the scalar oracle."""
    assert c.g.is_monic
    xn1 = [c.ctx.p - 1] + [0] * (c.n - 1) + [1]
    assert naive_poly_mul(c.ctx, list(c.g.coeffs), list(c.h.coeffs)) == xn1
    assert c.k == c.n - c.g.degree == c.h.degree


def _same_fields(a, b):
    return (a.n, a.ctx, a.g, a.h, a.k, a.label) == (b.n, b.ctx, b.g, b.h, b.k, b.label)


@settings(max_examples=150, deadline=None)
@given(_built_codes())
def test_builders_and_duals_satisfy_g_times_h(c):
    for code in (c, dual(c), dual(dual(c))):
        _check_generator_and_check_poly(code)


def _divided_dual(c):
    """The dual as from_generator makes it, dividing x^n - 1."""
    return from_generator(reciprocal(c.h).monic(), c.n, label=c.label + "^perp")


@settings(max_examples=150, deadline=None)
@given(_built_codes())
def test_builders_and_duals_match_division(c):
    assert _same_fields(c, from_generator(c.g, c.n, label=c.label))
    assert _same_fields(dual(c), _divided_dual(c))
    assert _same_fields(dual(dual(c)), _divided_dual(dual(c)))


@settings(max_examples=100, deadline=None)
@given(_any_divisor_codes(["2", "3", "2^2", "5", "3^2", "2^8", "2^10"]))
def test_dual_of_any_divisor_code_matches_division(c):
    d = dual(c)
    _check_generator_and_check_poly(d)
    assert _same_fields(d, _divided_dual(c))


@settings(max_examples=60, deadline=None)
@given(_any_divisor_codes(["2", "3^2", "2^8", "2^10"]))
def test_dual_involution_property(c):
    twice = dual(dual(c))
    assert twice.k == c.k
    assert same_code(twice, c)


@pytest.mark.parametrize("literal", ["2^2", "2^3", "3^2", "2^8", "2^10"])
def test_prime_field_expansion_matches_scalar_oracle(literal):
    ctx = parse_field(literal)
    rng = random.Random(13)
    for k, n in [(4, 6), (1, 1), (0, 3), (2, 0)]:
        rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
        out = ctx.expand(GenMatrix(ctx, rows, n=n).rows)
        assert out.shape == (k * ctx.l, n * ctx.l) and out.dtype == np.uint8
        assert out.tolist() == naive_prime_field_expansion(ctx, rows)


@settings(max_examples=100, deadline=None)
@given(_divisor_codes())
def test_weight_distribution_obeys_macwilliams(c):
    assert macwilliams(weight_distribution(c), c.ctx.q) == weight_distribution(dual(c))


def test_low_order_generator_gives_distance_at_most_2():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        lit = rng.choice(["2", "3", "5", "2^2"])
        ctx = parse_field(lit)
        n = rng.choice([6, 8, 9, 10, 12, 14, 15])
        if n % ctx.p == 0:
            continue
        divisors = [e for e in range(1, n) if n % e == 0]
        e = rng.choice(divisors)
        c_small = _random_divisor_code(rng, ctx, e)
        g = c_small.g
        if (Poly.x_n_minus_1(ctx, n) % g).is_zero is False:
            continue
        c = from_generator(g, n)
        if ctx.q ** c.k - 1 > 1 << 16:
            continue
        assert min_distance(c).d <= 2
        checked += 1


def test_weight_distribution():
    assert weight_distribution(build_repetition(3, F2)) == [1, 0, 0, 1]
    assert weight_distribution(dual(build_repetition(3, F2))) == [1, 0, 3, 0]
    for c in [build_Cn(15, F2), build_Cn(6, F5), build_Cn(5, parse_field("2^2"))]:
        wd = weight_distribution(c)
        assert sum(wd) == c.ctx.q ** c.k
        assert wd[0] == 1
        assert wd == naive_weight_distribution(c)


# Over F_127 the walk adds uint8 digits whose sums reach 252, and over F_131
# uint16 ones: the division-free digit add must wrap exactly at both edges.
# k = 2 takes one table row and one odometer row.
@pytest.mark.parametrize("literal", ["127", "131"])
def test_walk_over_wide_prime_fields_matches_naive_oracle(literal):
    ctx = parse_field(literal)
    rng = random.Random(ctx.q)
    matrices = [build_repetition(5, ctx)] + [
        GenMatrix(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(2)], n=n)
        for n in (3, 4, 6)
    ]
    for m in matrices:
        assert min_distance(m).d == naive_min_distance(m)
        assert weight_distribution(m) == naive_weight_distribution(m)


def test_weight_distribution_budget():
    with pytest.raises(BudgetExceeded):
        weight_distribution(build_Cn(15, F2), budget=100)


def test_zeros_and_nonzeros():
    import math

    c15 = build_Cn(15, F2)
    zeros, nonzeros = zeros_and_nonzeros(c15)
    assert set(zeros) == {i for i in range(15) if math.gcd(i, 15) == 1}
    assert len(zeros) == c15.g.degree

    r7 = build_repetition(7, F2)
    zr, _ = zeros_and_nonzeros(r7)
    assert set(zr) == set(range(1, 7))

    _, nz = zeros_and_nonzeros(dual(c15))
    assert set(nz) == {i for i in range(15) if math.gcd(i, 15) == 1}

    # defining sets are unions of cyclotomic cosets
    for c in [c15, build_Cn1(15, F2), build_Cn(8, F5), dual(build_Cn(8, F5))]:
        zeros, _ = zeros_and_nonzeros(c)
        zset = set(zeros)
        for coset in cosets(c.n, c.ctx.q):
            inter = zset & set(coset.members)
            assert inter == set() or inter == set(coset.members)


@pytest.mark.parametrize("literal,n", [("2", 21), ("2^2", 15)])
def test_zeros_and_nonzeros_embeds_g_once(literal, n):
    c = build_Cn(n, parse_field(literal))
    embed = Extension.embed
    with mock.patch.object(Extension, "embed", autospec=True, side_effect=embed) as spy:
        zeros_and_nonzeros(c)
    assert 0 < spy.call_count <= c.g.degree + 1


@pytest.mark.parametrize("literal,n", [("2", 63), ("3", 80)])
def test_zeros_and_nonzeros_evaluates_g_once_per_coset(literal, n):
    c = build_Cn(n, parse_field(literal))
    with mock.patch.object(Poly, "eval", autospec=True, side_effect=Poly.eval) as spy:
        zeros, nonzeros = zeros_and_nonzeros(c)
    assert spy.call_count == len(cosets(n, c.ctx.q)) < n
    assert sorted(zeros + nonzeros) == list(range(n))


def test_zeros_in_the_field_itself_build_no_embedding_table(monkeypatch):
    c = build_Cn(3, parse_field("2^10"))  # 1024 = 1 mod 3: the splitting field is F_1024
    field._extension.cache_clear()  # so make_extension(F_1024, 1) is built here
    calls = []
    mul = FieldCtx.mul
    monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b: calls.append(1) or mul(ctx, a, b))
    assert zeros_and_nonzeros(c) == ((1, 2), (0,))
    # a power-sum embedding table of the 1024 elements took 10,363 products
    assert len(calls) < 500


@settings(max_examples=100, deadline=None)
@given(_any_divisor_codes(["2", "3", "2^2", "3^2"]))
def test_zeros_and_nonzeros_match_naive_evaluation(c):
    """T = {i : g(zeta^i) = 0}, by Horner's rule on the naive field operations."""
    ext = make_extension(c.ctx, multiplicative_order_mod(c.ctx.q, c.n))
    big = ext.field
    zeta = nth_root_of_unity(big, c.n)
    g = [ext.embed(a) for a in c.g.coeffs]
    zeros, x = [], 1
    for i in range(c.n):
        acc = 0
        for a in reversed(g):
            acc = naive_field_add(big, naive_field_mul(big, acc, x), a)
        if acc == 0:
            zeros.append(i)
        x = naive_field_mul(big, x, zeta)
    assert x == 1  # zeta^n
    assert len(zeros) == c.g.degree  # x^n - 1 has n distinct roots
    expected = (tuple(zeros), tuple(i for i in range(c.n) if i not in zeros))
    assert zeros_and_nonzeros(c) == expected


def test_distance_theorems_small_sweep():
    for lit in ("2", "3", "2^2", "5"):
        ctx = parse_field(lit)
        for n in range(2, 16):
            if n % ctx.p == 0:
                continue
            pr = profile(n)
            budget = 1 << 20
            cn = build_Cn(n, ctx)
            if ctx.q ** cn.k - 1 <= budget:
                assert min_distance(cn).d == pr.lpf
            if ctx.q ** pr.phi - 1 <= budget:
                assert min_distance(dual(cn)).d == 2 ** pr.omega
            if not (pr.omega == 1 and pr.factorization[0][1] == 1):
                cn1 = build_Cn1(n, ctx)
                if ctx.q ** cn1.k - 1 <= budget:
                    assert min_distance(cn1).d == 2 * pr.lpf
