"""Exception types shared across the package."""


class DpsrkError(Exception):
    """Base class for all errors raised by this package."""


class ModelDomainError(DpsrkError, ValueError):
    """An input lies outside the domain a model is defined on."""


class ModelRangeError(DpsrkError, ValueError):
    """A fitted model produced a value outside its physically valid range."""


class UndefinedQBERError(DpsrkError, ValueError):
    """QBER is undefined because the click probability is zero."""


class InsecureChannelError(DpsrkError, ValueError):
    """The channel state admits no secret bits (e.g. single-photon fraction <= 0)."""


class AboveCorrectionRangeError(DpsrkError, ValueError):
    """Error rate exceeds the range the error-correction table covers."""


class NoFeasiblePointError(DpsrkError, ValueError):
    """An optimizer found no feasible point in the requested range."""


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
