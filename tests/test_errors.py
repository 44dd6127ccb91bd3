"""The library raises only the classes of cyclocode.errors, never assert."""

import ast
import builtins
import inspect
from pathlib import Path

import cyclocode
from cyclocode import errors

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
