import numpy as np
import pytest

from cyclocode.codes import (
    GenMatrix,
    build_Cn,
    build_repetition,
    dual,
    from_generator,
    min_distance,
    same_code,
    weight_distribution,
)
from cyclocode.cyclotomic import profile
from cyclocode.errors import InvalidArgument
from cyclocode.field import make_prime_field, parse_field
from cyclocode.poly import Poly
from cyclocode import tensor
from cyclocode.tensor import apply_psi, crt_map, kronecker, verify_tensor_dual

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)


def test_crt_map_examples():
    table = crt_map(3, 5)
    assert isinstance(table, np.ndarray) and table.dtype.kind == "i"
    assert table[1 * 5 + 1] == 1
    assert table[2 * 5 + 3] == 8
    assert table[0] == 0


def test_crt_map_bijection_and_congruences():
    for n1, n2 in [(3, 5), (4, 9), (2, 7), (5, 8)]:
        table = crt_map(n1, n2)
        assert sorted(table.tolist()) == list(range(n1 * n2))
        for i in range(n1):
            for j in range(n2):
                z = table[i * n2 + j]
                assert z % n1 == i and z % n2 == j


@pytest.mark.parametrize("n1,n2,bad", [
    (-2, 3, -2), (0, 1, 0), (3, 0, 0), (2.0, 3, 2.0), (3, True, True), ("3", 5, "3"),
])
def test_crt_map_refuses_a_bad_length(n1, n2, bad):
    # (-2, 3) and (0, 1) once gave empty tables, and 2.0 a TypeError
    with pytest.raises(InvalidArgument) as exc:
        crt_map(n1, n2)
    assert str(exc.value) == f"n must be an integer >= 1, got {bad!r}"


def test_crt_map_rejects_non_coprime():
    with pytest.raises(InvalidArgument, match=r"gcd\(4, 6\)"):
        crt_map(4, 6)


def test_kronecker_examples():
    ones = GenMatrix(F2, [[1, 1]])
    ident = GenMatrix(F2, [[1, 0], [0, 1]])
    k = kronecker(ones, ident)
    assert k.rows.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    g = GenMatrix(F3, [[1, 2, 0]])
    assert kronecker(GenMatrix(F3, [[1]]), g).rows.tolist() == g.rows.tolist()

    r = kronecker(
        dual(build_repetition(3, F2)).generator_matrix(),
        dual(build_repetition(5, F2)).generator_matrix(),
    )
    assert r.rref().num_rows == 8
    with pytest.raises(InvalidArgument, match="different fields"):
        kronecker(ones, g)


def test_kronecker_extension_field_entries():
    f4 = parse_field("2^2")
    a = GenMatrix(f4, [[2, 3]])
    b = GenMatrix(f4, [[1, 2]])
    k = kronecker(a, b)
    expected = [[f4.mul(x, y) for x in (2, 3) for y in (1, 2)]]
    # kron ordering: block per entry of a
    assert k.rows.tolist() == [
        [f4.mul(2, 1), f4.mul(2, 2), f4.mul(3, 1), f4.mul(3, 2)]
    ]
    assert k.rows.tolist() == expected


def _dual_cn(n, ctx):
    return dual(build_Cn(n, ctx)).generator_matrix()


def test_apply_psi_identity_when_factor_is_one():
    c = build_Cn(5, F2)
    image = apply_psi(build_repetition(1, F2).generator_matrix(), c.generator_matrix())
    assert same_code(image, c)


def test_apply_psi_matches_dual_of_product_length():
    image = apply_psi(_dual_cn(3, F2), _dual_cn(5, F2))
    assert same_code(image, dual(build_Cn(15, F2)))


@pytest.mark.parametrize("ctx", [F2, parse_field("2^2")], ids=repr)
def test_apply_psi_either_factor_order_gives_the_dual(ctx):
    # the layout comes from the factors, so swapping them swaps the map too
    g3, g5 = _dual_cn(3, ctx), _dual_cn(5, ctx)
    target = dual(build_Cn(15, ctx))
    assert same_code(apply_psi(g3, g5), target)
    assert same_code(apply_psi(g5, g3), target)


def test_apply_psi_keeps_length_of_zero_row_product():
    assert GenMatrix(F2, np.zeros((0, 4), dtype=np.int64)).n == 4
    zero = from_generator(Poly.x_n_minus_1(F2, 3), 3)  # k = 0
    image = apply_psi(zero.generator_matrix(), build_repetition(5, F2).generator_matrix())
    assert (image.num_rows, image.n) == (0, 15)


def test_psi_image_is_cyclic():
    image = apply_psi(_dual_cn(3, F2), _dual_cn(5, F2))
    shifted = GenMatrix(image.ctx, np.roll(image.rows, 1, axis=1))
    assert same_code(shifted, image)


def test_psi_commutes_with_simultaneous_shifts():
    # shifting the product array in both coordinates multiplies z by one step
    g1, g2 = _dual_cn(3, F2), _dual_cn(5, F2)
    table = crt_map(3, 5)
    gen = kronecker(g1, g2).rows
    n1, n2 = 3, 5
    shifted = np.empty_like(gen)
    for i in range(n1):
        for j in range(n2):
            shifted[:, ((i + 1) % n1) * n2 + ((j + 1) % n2)] = gen[:, i * n2 + j]
    lhs_rolled = np.roll(apply_psi(g1, g2).rows, 1, axis=1)
    rhs = np.empty_like(gen)
    rhs[:, table] = shifted
    assert np.array_equal(lhs_rolled, rhs)


def test_product_distance_multiplies():
    assert min_distance(kronecker(_dual_cn(3, F2), _dual_cn(5, F2))).d == 4  # 2 * 2
    reps = kronecker(build_repetition(2, F3).generator_matrix(),
                     build_repetition(3, F3).generator_matrix())
    assert min_distance(reps).d == 6


def test_kronecker_order_swap_is_permutation_equivalent():
    g1 = dual(build_Cn(3, F2)).generator_matrix()
    g2 = dual(build_Cn(5, F2)).generator_matrix()
    a = kronecker(g1, g2)
    b = kronecker(g2, g1)
    assert weight_distribution(a) == weight_distribution(b)


def test_verify_tensor_dual():
    rec = verify_tensor_dual(3, 5, F2)
    assert rec.status == "pass"
    assert rec.claimed == (15, 8, 4)
    assert rec.measured[1] == 8

    rec2 = verify_tensor_dual(4, 9, F5)
    assert rec2.status == "pass"

    with pytest.raises(InvalidArgument, match=r"gcd\(4, 6\)"):
        verify_tensor_dual(4, 6, F5)


def test_verify_tensor_dual_beyond_the_budget_passes_on_the_equivalence():
    rec = verify_tensor_dual(3, 7, F5, budget=10)
    assert rec.status == "pass"
    assert rec.measured == (21, 12, None)
    assert rec.note == f"distance skipped (needs {5 ** 12 - 1} codewords)"


def test_verify_tensor_dual_fails_when_the_codes_differ(monkeypatch, row_reductions):
    monkeypatch.setattr(tensor, "same_code", lambda a, b: False)
    rec = verify_tensor_dual(3, 5, F2)
    assert rec.status == "fail"
    assert rec.measured == (15, 8, 4)  # the image's rank: its row count, by its unit columns
    assert rec.note == ""
    assert row_reductions == []


# F_{2^10} has no tables; 33 divides 2^10 - 1, so its C_33 factors into small cosets
@pytest.mark.parametrize("literal,n1,n2", [
    ("2", 3, 5), ("2", 9, 7), ("3^2", 4, 5), ("7", 4, 9), ("2^3", 5, 9), ("2^10", 3, 11),
])
def test_verify_tensor_dual_row_reduces_nothing_when_the_codes_agree(row_reductions, literal, n1, n2):
    ctx = parse_field(literal)
    rec = verify_tensor_dual(n1, n2, ctx, budget=1)
    assert rec.status == "pass"
    assert rec.measured[:2] == (n1 * n2, profile(n1 * n2).phi)
    assert row_reductions == []
    # the columns of the cells (a, b) with a < k1 and b < k2 are unit columns
    image = apply_psi(_dual_cn(n1, ctx), _dual_cn(n2, ctx)).rows
    k1, k2 = dual(build_Cn(n1, ctx)).k, dual(build_Cn(n2, ctx)).k
    cells = crt_map(n1, n2).reshape(n1, n2)[:k1, :k2].ravel()
    assert np.array_equal(image[:, cells], np.eye(k1 * k2, dtype=np.int64))


def test_nonzeros_of_product_are_units():
    import math

    from cyclocode.codes import zeros_and_nonzeros

    _, nz = zeros_and_nonzeros(dual(build_Cn(15, F2)))
    assert set(nz) == {i for i in range(15) if math.gcd(i, 15) == 1}
    _, nz6 = zeros_and_nonzeros(dual(build_Cn(6, F5)))
    assert set(nz6) == {1, 5}
    # the non-zeros of dual(C_{n1 n2}) are the CRT images of pairs of non-zeros
    for n1, n2, ctx in [(3, 5, F2), (2, 3, F5), (4, 3, F5)]:
        _, nz1 = zeros_and_nonzeros(dual(build_Cn(n1, ctx)))
        _, nz2 = zeros_and_nonzeros(dual(build_Cn(n2, ctx)))
        _, nz = zeros_and_nonzeros(dual(build_Cn(n1 * n2, ctx)))
        table = crt_map(n1, n2)
        assert sorted(nz) == sorted(table[i * n2 + j] for i in nz1 for j in nz2)
