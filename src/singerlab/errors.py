"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or closure would exceed the one work budget,
    matrix.ENUMERATION_BUDGET; raised from closed-form sizes before the
    work starts."""
