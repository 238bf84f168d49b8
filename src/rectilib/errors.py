"""Exception taxonomy.

Errors fall into two broad groups that the CLI maps onto exit codes:
input problems (bad files, bad parameters, unknown identifiers,
degenerate data) exit with 2, while verified-invariant failures exit
with 1.  Library code raises; it never calls ``sys.exit``.
"""

from __future__ import annotations


class RectilibError(Exception):
    """Base class for all library errors."""


class InputError(RectilibError):
    """Malformed external input (files, CLI arguments, schemas)."""


class ParameterError(InputError):
    """A numeric or structural parameter is out of its legal range."""


class ConfigError(ParameterError):
    """The run configuration violates a parameter inequality.

    ``report`` holds the report sections computed before the check,
    ending with the ``validation`` section that names the violations.
    """

    def __init__(self, message: str, *, report: dict):
        super().__init__(message)
        self.report = report


class UnknownIdentifierError(InputError):
    """A point id does not exist in the space at hand."""


class DegenerateInputError(InputError):
    """Input is formally valid but degenerate for the requested operation.

    Examples: zero total mass, an empty target set.
    """


class UnsupportedMetricError(InputError):
    """The operation needs coordinates but the space only has a matrix."""


class ContainmentError(InputError):
    """A required set containment does not hold (e.g. target set vs root cube)."""


class DisconnectedError(RectilibError):
    """An operation requiring a connected graph received a disconnected one."""

    def __init__(self, message: str, *, components: int | None = None):
        super().__init__(message)
        self.components = components
