"""Exception types shared across the package.

Everything that signals a bad input derives from ValueError so callers can
catch one base class; failures that arise mid-computation (exhausted retries,
broken certificates) derive from RuntimeError.
"""


class ShapeError(ValueError):
    """Matrix or vector dimensions do not match what an operation needs."""


class RankDeficiencyError(ValueError):
    """An operation that needs full column rank received a singular matrix."""


class ConditioningFailureError(RuntimeError):
    """Basis construction failed: a singular factor or a large residual."""


class SchemeMismatchError(ValueError):
    """A basis or score vector was built for a different norm than requested."""


class DimensionTooLargeError(ValueError):
    """Brute-force search is only feasible in very low dimension."""


class InvalidScoresError(ValueError):
    """Sampling scores are unusable (negative entries, a zero total, wrong length)."""


class TheoremInapplicableError(ValueError):
    """The counterexample construction needs distinct loss/penalty exponents."""


class DegenerateSignalError(ValueError):
    """Noise cannot be scaled relative to an identically-zero signal."""


class ParseError(ValueError):
    """A CSV cell could not be parsed; message carries row/column location."""


class SchemaError(ValueError):
    """A CSV file is structurally unusable (missing header or target column)."""


class TransferCheckError(RuntimeError):
    """A query violated the p-to-q regularizer transfer implication."""
