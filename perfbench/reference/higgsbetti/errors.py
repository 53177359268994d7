"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a precondition (maps to CLI exit code 2)."""


class RangeViolationError(ParameterError):
    """A degree shift or symmetric-product exponent evaluated negative.

    Raised instead of silently clamping, so transcription errors in
    summation ranges surface loudly.
    """


class UnspecifiedDimensionError(ParameterError):
    """The requested dimension has no closed constant formula."""


class ProviderFileError(ParameterError):
    """A Bradlow provider file failed to parse or is inconsistent."""
