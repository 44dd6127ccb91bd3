"""Exception hierarchy shared by every module.

The CLI maps ConfigInvalid to exit 2 and every other CycloError to exit 1.
"""


class CycloError(Exception):
    """Base class for all library errors; raised directly for a broken
    internal invariant or a report that cannot be written."""


class InvalidArgument(CycloError, ValueError):
    """An argument outside its domain, such as n < 1, a non-element, a
    non-prime characteristic or codes over different fields."""


class BudgetExceeded(CycloError):
    def __init__(self, required, budget):
        super().__init__(
            f"enumeration needs {required} codewords, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class ConfigInvalid(CycloError):
    pass
