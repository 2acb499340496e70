"""Exception types raised by the package, and its only file I/O: one
reader and one atomic writer.

Every error carries a human-readable message naming the offending
shapes, indices, or config lines so failures are diagnosable from the
message alone. An unreadable file raises the caller's error type naming
its path; a written file is replaced whole, never left half-written.
"""

import contextlib
import os


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


def read_bytes(path: str, error: type[BlockpruneError]) -> bytes:
    """The whole file; any `OSError` raises `error` naming `path`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_lines(path: str, encoding: str,
               error: type[BlockpruneError]) -> list[str]:
    """The lines of a text file; an unreadable file or a byte the
    encoding cannot decode raises `error` naming `path` or `path:line`."""
    data = read_bytes(path, error)
    try:
        return data.decode(encoding).splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not {encoding} text") from None


def write_file(path: str, data: bytes | list[str]) -> None:
    """Replace `path` whole with `data`, bytes or lines written as ASCII:
    write a temp file beside it (mode set by the umask), rename it over
    `path`, and remove it on any failure."""
    if not isinstance(data, bytes):
        data = "".join(line + "\n" for line in data).encode("ascii")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
