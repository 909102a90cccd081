"""Shared exception types."""


class FormatError(ValueError):
    """Raised when a machine description file cannot be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class CapExceeded(RuntimeError):
    """Raised when a construction would exceed its configured cap.

    The word walk's enumeration cap, `surface_config_nfa`'s configuration
    cap and `WCache.ensure`'s triple-size cap raise it.
    """
