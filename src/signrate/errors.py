"""Exception types shared across the package."""

__all__ = ["BudgetExceededError", "CorrelatedNoiseError", "GridMismatchError",
           "QuadratureToleranceError", "RefusalError"]


class RefusalError(RuntimeError):
    """An estimator declined to run because its preconditions do not hold."""


class BudgetExceededError(RefusalError):
    """Exact enumeration would need more evaluations than the budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = int(required)
        self.budget = int(budget)
        super().__init__(f"exact enumeration needs {self.required} evaluations, "
                         f"budget is {self.budget}")


class CorrelatedNoiseError(RefusalError):
    """Exact enumeration cannot integrate this correlated observation model."""


class QuadratureToleranceError(RuntimeError):
    """Exact enumeration could not certify its quadrature to the tolerance.

    ``achieved`` is the largest deviation of a window's or a table row's
    probabilities from a sum of one or, for tables whose kernel
    integrates (correlated noise at M = 3 or 4), the largest difference
    between the table and its embedded check on the same nodes; NaN when
    a table is not finite.
    """

    def __init__(self, achieved: float, requested: float):
        self.achieved = float(achieved)
        self.requested = float(requested)
        super().__init__(f"quadrature reached {self.achieved:.3e}, "
                         f"requested {self.requested:.3e}")


class GridMismatchError(ValueError):
    """Two result sets (or a resume target) do not describe the same grid."""
