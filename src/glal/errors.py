"""Exception types shared across the toolkit."""


class GlalError(Exception):
    """Base class for all toolkit errors."""


class FormulaSyntaxError(GlalError):
    """Raised on malformed formula text, with position and expected tokens."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        detail = f"{message} at {line}:{column}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnknownOperator(FormulaSyntaxError):
    """Raised when an identifier heads a brace block but names no operator."""


class NotPalFragment(GlalError):
    """Raised when a pure public-announcement formula was required."""


class UnknownAgent(GlalError):
    """Raised when a formula or query names an agent absent from the model."""


class UnknownWorld(GlalError):
    """Raised when a query names a world absent from the model."""


class FormatError(GlalError):
    """Raised on malformed model JSON (schema-level problems)."""


class InvalidModel(GlalError):
    """Raised when a structurally well-formed model fails validation.

    Carries the full violation list produced by ``model.validate``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "invalid model: " + "; ".join(str(v) for v in self.violations[:5])
            + ("..." if len(self.violations) > 5 else "")
        )


class EmptyResult(GlalError):
    """Raised when a public-announcement restriction would delete every world."""


class BoundExceeded(GlalError):
    """Raised when a query exceeds one of the fixed size limits."""
