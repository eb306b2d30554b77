"""On-disk formats: raw float32 matrices and JSON manifests.

The raw matrix format is an 8-byte header (u32 rows, u32 cols, both
little-endian) followed by rows*cols little-endian float32 values in
row-major order. 1-D vectors are stored as a single row; the owning
manifest records the logical shape.

A matrix is written whole (write_raw) or from consecutive blocks of its
rows (write_raw_blocks, the one raw-file writer, which write_raw calls),
so a producer that renders one block at a time into a reused buffer
never holds the matrix. Either way the values are converted to float32
a bounded number of rows at a time, and the bytes are those of
converting the whole matrix at once.

Raw matrices are read back as float32, the exact values in the file, and
are never widened here: every float32 widens exactly to float64, so a
caller that widens a block at a time right before its arithmetic gets the
same results as from a float64 copy of the whole file, without holding
one. A matrix is read whole or as one range of its rows into a new array
(read_raw), or in consecutive blocks of rows that all land in one reused
buffer (read_raw_blocks), so a caller that consumes one block at a time
never holds the file. Both check the header and the file size before
they read a value; check_raw checks only those, against a shape.

read_raw reads every value of the file, held or not, and checks each one
once, right after its block is read: a NaN or inf raises NumericError
naming the file and the first row that holds one. So a caller that holds
only one split of a dataset still learns of a non-finite value in the
other. Every array the program reads from a file (dataset modalities and
labels, checkpoint tensors) comes through it, so no consumer checks
pixels again.
read_raw_blocks does not check: its caller scores each block, and a
finite stack can still give a non-finite score, so it checks the score,
which also catches a non-finite pixel, without a second pass over the file.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import NumericError

_RAW_HEADER = struct.Struct("<II")
_RAW_DTYPE = np.dtype("<f4")
# Values per block of write_raw_blocks and read_raw: 1 MB of float32.
_BLOCK_VALUES = 1 << 18


def write_raw(path, matrix) -> None:
    """Write a 2-D float array in the raw float32 format.

    A 1-D array is stored as one row. The matrix goes to write_raw_blocks
    as its one block, so no float32 copy of it is made. A non-numeric or
    non-2-D input fails before the file is created.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "biuf":
        # Strings and objects are converted, or rejected, as a whole.
        matrix = matrix.astype(_RAW_DTYPE)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(f"raw format stores 2-D matrices, got shape {matrix.shape}")
    write_raw_blocks(path, matrix.shape, [matrix])


def write_raw_blocks(path, shape, blocks) -> None:
    """Write a raw float32 matrix of `shape` from consecutive blocks of its rows.

    The write twin of read_raw_blocks. `blocks` yields 2-D numeric arrays
    of shape[1] columns whose rows, in order, are the matrix's. Each block
    is written before the next is asked for, so a producer may render
    every block into one reused buffer. A block is converted to
    little-endian float32 and written _block_rows(cols) rows at a time, so
    a wide-typed block is never copied whole; a float32 block is written
    as it is.

    A block that is not 2-D, has another width, or would run past the
    matrix's rows, and blocks that end short of them, raise ValueError
    naming the file. The header is already written then, and the file
    holds fewer rows than it says, so no reader accepts it.
    """
    rows, cols = shape
    step = _block_rows(cols)
    written = 0
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(rows, cols))
        for block in blocks:
            if block.ndim != 2 or block.shape[1] != cols or written + len(block) > rows:
                raise ValueError(
                    f"{path}: a block of shape {block.shape} after row {written} "
                    f"does not fit a {rows}x{cols} matrix"
                )
            for start in range(0, len(block), step):
                fh.write(np.ascontiguousarray(block[start : start + step], dtype=_RAW_DTYPE))
            written += len(block)
    if written != rows:
        raise ValueError(f"{path}: the blocks hold {written} rows of a {rows}x{cols} matrix")


def read_raw(path, rows=None) -> np.ndarray:
    """Read a raw float32 matrix, or the rows [lo, hi) of it, into a new float32 array.

    The header and the file size are checked before anything is allocated.
    With rows=None the result holds every row; with rows=(lo, hi), a range
    within the file's rows, it holds rows lo to hi - 1, shape (hi - lo, cols).
    A range that is reversed, negative or past the end is a ValueError.

    The file is read front to back in blocks of rows, straight into the
    result (no intermediate bytes object, no dtype conversion); the rows
    outside the range pass through one reused scratch block and are
    dropped. Each block is checked right after it is read, while it is
    still in cache: a NaN or inf raises NumericError("<path>: non-finite
    value in row <r>"), r the first such file row. So every value is read
    and checked once, held or not, and an empty range returns a (0, cols)
    array only once the whole file has been checked. A malformed file is a
    ValueError, raised before any value is read; a file that shrinks while
    it is read is one too, unless a block before the lost rows held a NaN
    or inf, which is reported first.
    """
    with open(path, "rb") as fh:
        n, cols = _read_header(fh, path)
        lo, hi = (0, n) if rows is None else rows
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"{path}: rows {lo}:{hi} are not a range within its {n} rows")
        out = np.empty((hi - lo, cols), dtype=_RAW_DTYPE)
        step = _block_rows(cols)
        dropped = max(lo, n - hi)
        scratch = np.empty((min(step, dropped), cols), dtype=_RAW_DTYPE)
        for first, stop, held in ((0, lo, False), (lo, hi, True), (hi, n, False)):
            for start in range(first, stop, step):
                end = min(start + step, stop)
                block = out[start - lo : end - lo] if held else scratch[: end - start]
                _fill(fh, path, block)
                finite = np.isfinite(block).all(axis=1)
                if not finite.all():
                    row = start + int(np.argmin(finite))
                    raise NumericError(f"{path}: non-finite value in row {row}")
    return out


def check_raw(path, shape) -> None:
    """Raise ValueError unless `path` holds a well-formed raw matrix of `shape`.

    Only the header and the file size are read, so a caller that expects a
    shape checks it here before read_raw reads a value.
    """
    with open(path, "rb") as fh:
        _read_header(fh, path, shape)


def read_raw_blocks(path, shape, block_rows: int):
    """Yield a raw float32 matrix of `shape` in consecutive blocks of rows.

    The file is checked as check_raw checks it before any value is read.
    The values are not checked: a caller that needs them finite checks
    what it computes from them.
    Each block holds block_rows rows, the last one possibly fewer, and is
    a view of one float32 buffer that the next block overwrites, so a
    caller must be done with a block before it asks for the next one.
    """
    rows, cols = shape
    with open(path, "rb") as fh:
        _read_header(fh, path, shape)
        buffer = np.empty((min(rows, block_rows), cols), dtype=_RAW_DTYPE)
        for start in range(0, rows, block_rows):
            block = buffer[: rows - start]
            _fill(fh, path, block)
            yield block


def _read_header(fh, path, shape=None) -> tuple[int, int]:
    # Returns (rows, cols) of an open raw file, positioned at its first
    # value, once the header is whole, the file size matches it and, given
    # `shape`, the matrix fits a float32 destination of that shape.
    header = fh.read(_RAW_HEADER.size)
    if len(header) < _RAW_HEADER.size:
        raise ValueError(f"{path}: truncated raw header")
    rows, cols = _RAW_HEADER.unpack(header)
    expected = _RAW_HEADER.size + 4 * rows * cols
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}")
    if shape is not None and (rows, cols) != tuple(shape):
        raise ValueError(f"{path}: holds a {rows}x{cols} matrix, destination is float32 {tuple(shape)}")
    return rows, cols


def _block_rows(cols: int) -> int:
    return max(1, _BLOCK_VALUES // max(1, cols))


def _fill(fh, path, out) -> None:
    if fh.readinto(out) != out.nbytes:
        raise ValueError(f"{path}: file shrank while it was read")


def write_manifest(path, entries: dict) -> None:
    """Write via a temp file and os.replace, so no reader sees a partial manifest."""
    tmp = Path(f"{path}.tmp")
    text = json.dumps(entries, sort_keys=True, indent=2, separators=(",", ": "))
    tmp.write_text(text + "\n")
    os.replace(tmp, path)


def read_manifest(path) -> dict:
    """Read a JSON object; invalid JSON or another top level is a ValueError naming the file."""
    try:
        entries = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(entries).__name__}")
    return entries


def require_keys(entries, keys, where) -> None:
    """Raise ValueError naming `where` unless `entries` is an object holding every key."""
    if not isinstance(entries, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(entries).__name__}")
    for key in keys:
        if key not in entries:
            raise ValueError(f"{where}: missing key {key!r}")


def _is_int(value) -> bool:
    # A JSON integer: Python's bool is an int subclass, but true is not 1 here.
    return isinstance(value, int) and not isinstance(value, bool)


# What require_fields accepts per field kind, and how its error names it.
_FIELD_KINDS = {
    "int": (_is_int, "an integer"),
    "int list": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
}


def require_fields(entries, kinds, where) -> None:
    """Raise ValueError naming `where` and the key unless each value has its kind.

    `kinds` maps keys that `entries` holds (check them with require_keys
    first) to "int", "int list" or "bool". A bool is not an integer, and
    neither is a float, even an integral one, nor a numeric string, so no
    value is coerced.
    """
    for key, kind in kinds.items():
        accepts, what = _FIELD_KINDS[kind]
        if not accepts(entries[key]):
            raise ValueError(f"{where}: {key} must be {what}, got {entries[key]!r}")


def require_objects(entries, keys, where) -> None:
    """Raise ValueError naming `where` unless `entries` is a list of objects each holding every key."""
    if not isinstance(entries, list):
        raise ValueError(f"{where}: expected a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        require_keys(entry, keys, f"{where}[{i}]")
