"""Exception types shared across the package.

Input problems (bad files, bad networks, bad observations, bad configs)
derive from InputError so the CLI can map them all to one exit code;
numerical failures derive from NumericalError and get their own code.
"""


class StochedError(Exception):
    """Base class for all package-specific errors."""


class InputError(StochedError):
    """Malformed or inconsistent input data."""


class InvalidEdge(InputError):
    """An edge endpoint is out of range, or the edge is a self-loop."""


class CycleDetected(InputError):
    """The precedence graph contains a directed cycle."""


class DuplicateEdge(InputError):
    """The same precedence edge appears more than once."""


class LengthMismatch(InputError):
    """A per-activity vector has the wrong length for its network."""


class PathBudgetExceeded(StochedError):
    """Path enumeration found more source-to-sink paths than allowed."""


class MalformedHeader(InputError):
    """Instance file header is missing or unreadable."""


class MalformedPrecedenceRow(InputError):
    """A precedence table row is missing or unreadable."""


class MalformedDurationRow(InputError):
    """A duration table row is missing or unreadable."""


class JobCountMismatch(InputError):
    """Declared job count disagrees with the table rows actually present."""


class NonPositiveBaseline(InputError):
    """A baseline duration is negative or non-finite; 0 marks a frozen dummy."""


class MixedActivities(InputError):
    """An observation batch references more than one activity."""


class UnknownActivityIndex(InputError):
    """An observation references an activity outside the network."""


class ObservationFormatError(InputError):
    """An observation file line is malformed."""


class ConfigError(InputError):
    """An experiment or CLI configuration is invalid."""


class NumericalError(StochedError):
    """A numerical routine failed to produce a usable result."""


class OptimizationFailed(NumericalError):
    """MAP found no finite objective, or an estimate with an overflowing mean."""


class NonFiniteResult(NumericalError):
    """A duration draw or a reported value overflowed to inf or NaN."""
