"""Exception hierarchy shared by every module."""


class CycloError(Exception):
    """Base class for all library errors."""


class InvalidArgument(CycloError, ValueError):
    """An argument outside its domain, such as n < 1 or a non-element."""


class NotPrime(CycloError):
    pass


class DegreeTooLarge(CycloError):
    pass


class DivisionByZero(CycloError):
    pass


class NotCompatible(CycloError):
    pass


class ContextMismatch(CycloError):
    pass


class ZeroPolynomial(CycloError):
    pass


class UnitPolynomial(CycloError):
    pass


class OrderSearchTooLarge(CycloError):
    pass


class CharacteristicDividesN(CycloError):
    pass


class NotCoprime(CycloError):
    pass


class NotADivisor(CycloError):
    pass


class NotMonic(CycloError):
    pass


class PrimeLength(CycloError):
    pass


class LengthMismatch(CycloError):
    pass


class FieldMismatch(CycloError):
    pass


class DimensionMismatch(CycloError):
    pass


class BudgetExceeded(CycloError):
    def __init__(self, required, budget):
        super().__init__(
            f"enumeration needs {required} codewords, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class ConfigInvalid(CycloError):
    pass


class IoError(CycloError):
    pass
