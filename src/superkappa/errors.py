"""Exception types shared across the toolkit.

Every error the input can cause is an InputError; the CLI reports it as
malformed input (exit 3), anything else as a fault of the program.
"""


class InputError(ValueError):
    """Invalid input: bad vertex index, wrong graph class, bad parameter, or
    an input file that cannot be read or decoded."""


class FormatError(InputError):
    """Malformed serialized graph data."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class CapacityError(InputError):
    """Input exceeds a hard size cap (e.g. isomorphism search)."""


class NoCutError(InputError):
    """Requested a vertex cut of a graph that has none (complete graph)."""


class GenerationError(InputError):
    """Random instance generation exhausted its resampling budget."""
