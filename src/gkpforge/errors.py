"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: invalid input is exit 2, whether a
file, a field, a flag or a resource name is at fault; physics refusals
(underdetermined or rank-deficient systems) are exit 1; and internal
numerical failures are exit 3.
"""


class GkpforgeError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(GkpforgeError):
    """Input violates its schema or a dataset invariant, or names a file,
    resource, anchor or parameter that does not exist."""


class RefusalError(GkpforgeError):
    """The requested computation is refused on physics grounds."""


class UnderdeterminedError(RefusalError):
    """Fewer independent equations than rank-2 unknowns."""


class RankDeficiencyError(RefusalError):
    """The design matrix has a numerically degenerate direction."""


class NumericalError(GkpforgeError):
    """An internal numerical routine failed to produce a usable result."""
