"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Invalid argument: bad vertex index, wrong graph class, bad parameter."""


class FormatError(ValueError):
    """Malformed serialized graph data."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


class CapacityError(RuntimeError):
    """Input exceeds a hard size cap (e.g. isomorphism search)."""


class NoCutError(RuntimeError):
    """Requested a vertex cut of a graph that has none (complete graph)."""


class GenerationError(RuntimeError):
    """Random instance generation exhausted its resampling budget."""


# what the CLI reports as malformed input (exit 3) rather than a fault of the program
INPUT_ERRORS = (InputError, FormatError, NoCutError, GenerationError, CapacityError, OSError)
