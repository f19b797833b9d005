"""Exception types shared across the package."""


class DpsrkError(Exception):
    """Base class for all errors raised by this package."""


class ModelDomainError(DpsrkError, ValueError):
    """An input lies outside the domain a model is defined on, or the model has no value there."""


class NoSecureDistanceError(DpsrkError, ValueError):
    """No link length has a secure rate above the requested floor."""


class ScenarioParseError(DpsrkError, ValueError):
    """A scenario or preset file failed to parse.

    Carries 1-based ``line`` and ``column`` for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
