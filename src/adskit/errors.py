"""Shared exception types."""


class FormatError(ValueError):
    """Raised when a machine description file cannot be parsed."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ItemError(ValueError):
    """Raised by a machine constructor, which checks its fields and then each
    item in the caller's order, for the first that breaks a rule.  `item` is
    that move, rule, query or response as given, or a field name ("initial")."""

    def __init__(self, message, item):
        super().__init__(message)
        self.item = item


class CapExceeded(RuntimeError):
    """Raised when a construction would exceed its configured cap.

    The word walk's enumeration cap, `surface_config_nfa`'s configuration
    cap and `WCache.ensure`'s triple-size cap raise it.
    """
