"""The library raises only the classes of cyclocode.errors, never assert."""

import ast
import builtins
import inspect
from pathlib import Path

import pytest

import cyclocode
from cyclocode import errors, tensor, verify
from cyclocode.codes import GenMatrix
from cyclocode.cyclotomic import cyclotomic_poly, minimal_poly, verify_factorization
from cyclocode.field import nth_root_of_unity, parse_field
from cyclocode.poly import Poly, is_irreducible, reciprocal

SRC = Path(cyclocode.__file__).parent
BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_src_has_no_assert_or_builtin_raise():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and _raised_name(node) in BUILTIN_EXCEPTIONS:
                found.append(f"{path.name}:{node.lineno}: raise {_raised_name(node)}")
    assert found == []


def test_errors_defines_four_classes():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {"CycloError", "InvalidArgument", "BudgetExceeded", "ConfigInvalid"}
    assert all(issubclass(getattr(errors, c), errors.CycloError) for c in classes)
    assert issubclass(errors.InvalidArgument, ValueError)


F2 = parse_field("2")
ONE = Poly(F2, [1])


# Each call once raised AttributeError or IndexError on an argument that is
# not a polynomial, a field, a matrix or a sweep config.
@pytest.mark.parametrize("call,message", [
    (lambda: ONE * 3, "operand must be a Poly, got 3"),
    (lambda: ONE + 3, "operand must be a Poly, got 3"),
    (lambda: ONE - 3, "operand must be a Poly, got 3"),
    (lambda: divmod(ONE, 3), "operand must be a Poly, got 3"),
    (lambda: ONE % 3, "operand must be a Poly, got 3"),
    (lambda: ONE.gcd(1), "operand must be a Poly, got 1"),
    (lambda: ONE.pow_mod(3, 5), "operand must be a Poly, got 5"),
    (lambda: reciprocal(3), "polynomial must be a Poly, got 3"),
    (lambda: is_irreducible(3), "polynomial must be a Poly, got 3"),
    (lambda: Poly("2", [1]), "field must be a FieldCtx, got '2'"),
    (lambda: Poly.x_n_minus_1("2", 3), "field must be a FieldCtx, got '2'"),
    (lambda: GenMatrix("F2", [[1]]), "field must be a FieldCtx, got 'F2'"),
    (lambda: cyclotomic_poly(4, "2"), "field must be a FieldCtx, got '2'"),
    (lambda: verify_factorization(4, "2"), "field must be a FieldCtx, got '2'"),
    (lambda: minimal_poly(1, 5, "2"), "field must be a FieldCtx, got '2'"),
    (lambda: nth_root_of_unity("x", 2), "field must be a FieldCtx, got 'x'"),
    (lambda: tensor.kronecker([[1]], [[1]]), r"kronecker factor must be a GenMatrix, got \[\[1\]\]"),
    (lambda: verify.sweep({"fields": ["2"]}), "sweep config must be a SweepConfig, got {'fields'"),
])
def test_a_value_of_the_wrong_type_is_an_invalid_argument(call, message):
    with pytest.raises(errors.InvalidArgument, match=message):
        call()
