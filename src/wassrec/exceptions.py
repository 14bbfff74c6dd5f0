"""Exception types shared across the package."""

__all__ = [
    "DataError",
    "SolverError",
    "UnboundedDualError",
    "RankDeficiencyError",
]


class DataError(ValueError):
    """Raised when an input file or table violates the data contract."""


class SolverError(RuntimeError):
    """Raised when a solver cannot return a usable result for the inputs it was given."""


class UnboundedDualError(SolverError, ValueError):
    """Raised when a dual subproblem is unbounded because of the fixed factors it was given."""


class RankDeficiencyError(SolverError):
    """Raised when a factor matrix loses full rank and a dual solve is ill-posed.

    Attributes
    ----------
    factor : str
        Which factor is deficient ("dictionary" or "loadings").
    rank : int
        Observed numerical rank.
    required : int
        Rank needed for the solve.
    """

    def __init__(self, factor, rank, required):
        super().__init__(
            "%s matrix is rank deficient: rank %d < %d" % (factor, rank, required)
        )
        self.factor = factor
        self.rank = rank
        self.required = required
