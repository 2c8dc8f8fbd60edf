"""Guard rails for exact enumerations.

Exact computations in this package enumerate sequence spaces whose size grows
exponentially in the blocklength.  Each calls :func:`check_budget` before
allocating, with the cells (array entries) of the table it builds; a trial's
deficit counts the largest array it holds at once.  Nothing here estimates
past the budget: a larger computation runs
only after raising the budget (``$CORRSYNTH_BUDGET`` or a ``budget``
argument) or at a smaller blocklength.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
ENV_VAR = "CORRSYNTH_BUDGET"


class BudgetExceededError(RuntimeError):
    """An exact enumeration would evaluate more terms than the budget allows."""


def enumeration_budget(override: int | None = None) -> int:
    """Current term budget: explicit override, else $CORRSYNTH_BUDGET, else default.

    An override that is not an ``int`` (a ``bool``, a float or a string) or
    a budget that is not positive, from either source, is a ValueError.
    """
    if override is not None:
        if isinstance(override, bool) or not isinstance(override, int):
            raise ValueError(f"budget must be an integer, got {override!r}")
        value, source = override, "budget"
    else:
        raw = os.environ.get(ENV_VAR)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value, source = int(raw), ENV_VAR
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{source} must be positive, got {value}")
    return value


def check_budget(terms: int, budget: int | None = None, what: str = "enumeration") -> None:
    """Raise :class:`BudgetExceededError` if ``terms`` exceeds the budget."""
    limit = enumeration_budget(budget)
    if terms > limit:
        raise BudgetExceededError(
            f"{what} needs {terms} terms, budget is {limit}; "
            f"raise {ENV_VAR} (or --budget) or lower the blocklength n"
        )
