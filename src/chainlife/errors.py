"""Exception types shared by the solver modules."""
from __future__ import annotations


class ChainlifeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ChainlifeError):
    """Malformed or inconsistent configuration document."""


class NegativeCoefficient(ChainlifeError):
    """A cost series coefficient is negative."""


class ExponentBelowOne(ChainlifeError):
    """A cost series exponent is below one or not finite; build_cost_series needs a >= 1."""


class NotNormalized(ChainlifeError):
    """Cost series coefficients do not sum to one and rescaling was not requested."""


class NegativeFlow(ChainlifeError):
    """A flow component is negative: the volumes or shifts left the stability region."""

    def __init__(self, component: tuple[int, int], value: float, message: str | None = None):
        self.component = component
        self.value = value
        if message is None:
            message = f"flow q[{component[0]},{component[1]}] = {value:.6g} is negative"
        super().__init__(message)


class DegenerateCoefficient(ChainlifeError):
    """The affine boundary equation has no finite root."""


class IndexOutOfRange(ChainlifeError):
    """A node index lies outside the range the operation is defined for."""


class SingularMatrix(ChainlifeError):
    """A zero or infinite hop cost, or node energies that disagree after the walk."""


class NumericalStall(ChainlifeError):
    """The LP solve gave no optimum, or one that failed its primal or dual check."""
