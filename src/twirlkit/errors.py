"""Exception types raised across the toolkit."""


class TwirlkitError(Exception):
    """Base class for all toolkit errors."""


class NonHermitianError(TwirlkitError, ValueError):
    """Input matrix is not Hermitian within tolerance."""


class TraceNotOneError(TwirlkitError, ValueError):
    """Density matrix trace differs from 1 beyond tolerance."""


class NotPositiveError(TwirlkitError, ValueError):
    """Density matrix has an eigenvalue below the allowed floor."""


class OutOfRangeError(TwirlkitError, ValueError):
    """Scalar parameter or vector outside its documented domain."""


class InvalidXParamsError(TwirlkitError, ValueError):
    """X-state parameters violate positivity or normalization."""


class EmptySiftedSetError(TwirlkitError, RuntimeError):
    """No simulated rounds survived the sifting step."""


class ConditionsNotMetError(TwirlkitError, ValueError):
    """State fails a precondition of the compact error-rate relation.

    ``condition`` names the failed requirement: "I" when the optimal
    measurement direction is not the z axis (or the state is not in the
    frame where the dephased form applies), "II" when the two optimal
    correlation values differ.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(f"condition ({condition}) not met: {message}")
        self.condition = condition


class BranchConditionError(TwirlkitError, ValueError):
    """X-state closed form requested outside its branch of validity."""


class SchemaError(TwirlkitError, ValueError):
    """State file or other structured input violates its schema."""


class InvalidSpecError(TwirlkitError, ValueError):
    """Sweep or run specification is malformed."""
