"""Exception types raised across the package."""


class CoherenceError(Exception):
    """Base class for all errors raised by this package."""


class StateValidationError(CoherenceError):
    """A matrix failed density-matrix validation."""


class NotHermitian(StateValidationError):
    pass


class NotPositive(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


class ConvergenceFailure(CoherenceError):
    """The underlying eigensolver did not converge."""


class DimensionMismatch(CoherenceError):
    """Operands live on spaces of different dimension."""


class ParamOutOfRange(CoherenceError):
    """A parameter, such as a generator parameter or a seed, lies outside
    its valid range."""


class UnknownGenerator(CoherenceError):
    """A generator spec string names no registered generator."""


class UnsupportedLimit(CoherenceError):
    """The requested evaluation needs a limit this generator cannot supply."""


class SingularState(CoherenceError):
    """A full-rank operator was required but a zero eigenvalue was found."""


class BadWeights(CoherenceError):
    """Mixture weights are not a probability vector."""


class NotGio(CoherenceError):
    """The channel is not diagonal in the incoherent basis."""


class ChannelValidationError(CoherenceError):
    """Kraus operators do not form a valid (trace-preserving) channel."""


class FileFormatError(CoherenceError):
    """A state or channel file does not match the expected JSON layout."""
