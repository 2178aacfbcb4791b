"""Exception types shared across the package.

The CLI maps these onto process exit codes, so raising the right type is part
of the public contract: ParameterError -> 2, InfeasibleError -> 3,
ConvergenceError -> 4.
"""


class SeqkeyError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(SeqkeyError, ValueError):
    """A caller-supplied value is outside its domain."""


class InfeasibleError(SeqkeyError, ValueError):
    """The requested constraint set is empty or cannot be met."""


class RateSaturated(InfeasibleError):
    """The rate budget exceeds H(X|Y), so the constraint is inactive.

    Raised by ``beta0_solve``, which has no saturated branch. The capacity
    functions that know the saturated closed form check the rate before
    they solve, so no caller in the package catches it.
    """


class ConvergenceError(SeqkeyError, RuntimeError):
    """An iterative solve stopped without reaching its tolerance."""
