"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or closure would exceed the one work budget,
    matrix.ENUMERATION_BUDGET; raised by matrix._check_budget before the
    work starts, or by the factorization search's running count."""
