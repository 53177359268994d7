"""Exception types shared across the package, and how their messages
echo outside input."""


def quoted(text: str) -> str:
    """text quoted, cut at 20 characters."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}..."


def shown(text: str) -> str:
    """text as given when it has at most 20 characters, else ``quoted``."""
    return text if len(text) <= 20 else quoted(text)


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
