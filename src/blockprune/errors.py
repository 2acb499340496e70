"""Exception types raised by the package, and the text-file reader
whose undecodable bytes become one of them.

Every error carries a human-readable message naming the offending
shapes, indices, or config lines so failures are diagnosable from the
message alone.
"""


class BlockpruneError(Exception):
    """Base class for all package errors."""


class ShapeError(BlockpruneError):
    """Dimension or index mismatch between operands."""


class PartitionError(BlockpruneError):
    """Block geometry that does not divide the matrix extent."""


class MaskError(BlockpruneError):
    """Mask inconsistent with its matrix or degenerate (all zero)."""


class DataError(BlockpruneError):
    """Bad dataset input (empty dataset, out-of-range token or label)."""


class NonFiniteError(BlockpruneError):
    """A loss or function evaluation produced NaN or Inf."""


class CheckpointError(BlockpruneError):
    """Malformed checkpoint, mask, or block-sparse file."""


class ConfigError(BlockpruneError):
    """Invalid config file contents; message includes the line number."""


def read_lines(path: str, encoding: str,
               error: type[BlockpruneError]) -> list[str]:
    """The lines of a text file; a byte the encoding cannot decode
    raises `error` naming `path:line`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not {encoding} text") from None
