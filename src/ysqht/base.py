"""Names that the command line needs before any command runs: the errors it
maps to exit codes and the aggregation modes its options offer.  They live
apart from ``counting`` and ``logio``, which re-export them, so that loading
them loads no numpy.
"""

AGGREGATION_MODES = ("stochastic", "expected")


class LogFormatError(ValueError):
    """A log file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ManifestVersionError(ValueError):
    """The file's manifest schema is not supported by this tool version."""
