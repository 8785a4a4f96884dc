"""Exception types shared across the package.

Every parser error carries the byte offset at which parsing failed so that
malformed files can be diagnosed without a hex editor.
"""


class TrojansimError(Exception):
    """Base class for all package errors."""


class ConfigError(TrojansimError):
    """Invalid or incomplete configuration (missing params, bad fields)."""


class ParseError(TrojansimError):
    """Malformed binary or text input.

    Attributes:
        offset: byte offset at which the problem was detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class DataError(TrojansimError):
    """Dataset-level problem (insufficient items, label out of range)."""


class DimensionError(DataError):
    """Shape or length mismatch between tensors, kernels, or label streams;
    a data problem, so the CLI exits 3 on it like on any DataError."""


class DegenerateStatsError(TrojansimError):
    """A statistical operation requires spread but the distribution has none."""


class ForgeError(TrojansimError):
    """Trigger band construction failed the stealthiness precondition.

    Attributes:
        colliding_count: number of profiled observations that fall inside
            (or share a histogram bin with) the rejected band.
    """

    def __init__(self, message: str, colliding_count: int):
        super().__init__(message)
        self.colliding_count = colliding_count


class InvariantViolation(TrojansimError):
    """An internal consistency check failed; indicates a bug, not bad input."""
