"""Exception types shared across the package."""

import datetime


class XmasJumpError(Exception):
    """Base class for every error this package raises deliberately."""


class InsufficientData(XmasJumpError):
    """A window could not be filled from the available fixings."""


class MissingFixing(XmasJumpError):
    """A banking day inside the series coverage has no rate."""

    def __init__(self, fixing_date: datetime.date):
        super().__init__(f"no fixing on banking day {fixing_date.isoformat()}")
        self.fixing_date = fixing_date


class DegenerateDesign(XmasJumpError):
    """A line fit was requested on points with no x variation."""


class RankDeficient(XmasJumpError):
    """The bilinear design matrix is numerically rank-deficient."""


class TooFewRows(XmasJumpError):
    """A regression was given fewer rows than it needs."""


class DomainError(XmasJumpError):
    """An argument lies outside the function's domain."""


class DegenerateVariance(XmasJumpError):
    """Regression targets carry no variance, so R-squared is undefined."""


class WindowTooShort(XmasJumpError):
    """A model-fitting window covers fewer years than required."""


class IncompleteWindow(XmasJumpError):
    """A year's pre- or post-event window runs past the last fixing of the series."""


class ParseError(XmasJumpError):
    """Malformed input text, reported with a line number when known."""

    def __init__(self, line_number: int | None, reason: str):
        message = f"line {line_number}: {reason}" if line_number else reason
        super().__init__(message)
        self.line_number = line_number
        self.reason = reason


class DuplicateDate(XmasJumpError):
    """The same fixing date appears more than once."""

    def __init__(self, fixing_date: datetime.date):
        super().__init__(f"duplicate fixing date {fixing_date.isoformat()}")
        self.fixing_date = fixing_date
