"""Domain exception types shared across the package."""


class GridCalibError(Exception):
    """Base class for every error raised by this package."""


# timeseries

class NonMonotonicTimestamp(GridCalibError):
    """Appended sample does not advance the series timestamp."""


class CounterRegression(GridCalibError):
    """Counter sample is smaller than the previous sample."""


class KindMismatch(GridCalibError):
    """Series kind does not match the requested operation or append."""


class EmptyWindow(GridCalibError):
    """No samples cover the requested rate window."""


class BadInterval(GridCalibError):
    """Window or interval bounds are empty or inverted."""


class ParseError(GridCalibError):
    """Query text does not match the query grammar."""


# calibration

class ZeroNodeIdle(GridCalibError):
    """Idle calibration with non-positive approximated node idle power."""


class DegenerateDenominator(GridCalibError):
    """Dynamic factor denominator n_dyn - s_dyn is at or below the guard."""


class StaleSignal(GridCalibError):
    """A feeding signal has never collected (strict mode only)."""


# validation

class DegenerateX(GridCalibError):
    """All regression x values are identical."""


class TooFewPoints(GridCalibError):
    """Regression needs at least two points."""


# cli / pipeline

class ConfigError(GridCalibError):
    """Scenario configuration is malformed; message carries the field path."""


class InvalidField(GridCalibError, ValueError):
    """A spec field holds a value out of range. The message starts with
    the field's path within the spec, so config can prefix the spec's."""


class StepError(GridCalibError):
    """An actor or controller failed inside an engine step."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


class MissingArtifact(GridCalibError):
    """A run artifact required by this command is not present."""


class BindError(GridCalibError):
    """Metrics endpoint could not bind its address."""
