"""On-disk formats: binary PGM (P5), raw float32 matrices, JSON manifests.

The raw matrix format is an 8-byte header (u32 rows, u32 cols, both
little-endian) followed by rows*cols little-endian float32 values in
row-major order. 1-D vectors are stored as a single row; the owning
manifest records the logical shape.

Raw matrices are read back as float32, the exact values in the file, and
are never widened here: every float32 widens exactly to float64, so a
caller that widens a block at a time right before its arithmetic gets the
same results as from a float64 copy of the whole file, without holding
one. A matrix is read whole (read_raw), or in consecutive blocks of rows
that all land in one reused buffer (read_raw_blocks), so a caller that
consumes one block at a time never holds the file. Both check the header
and the file size before they read a value.

read_raw also checks every value it reads: a NaN or inf raises NumericError
naming the file and the first row that holds one. Every array the program
reads whole from a file (dataset modalities and labels, checkpoint tensors,
single planes) comes through it, so no consumer checks pixels again.
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
# Values per block of write_raw and of read_raw's check: 1 MB of float32.
_BLOCK_VALUES = 1 << 18


def write_raw(path, matrix) -> None:
    """Write a 2-D float array in the raw float32 format.

    The values are converted to little-endian float32 a block of rows at a
    time and each block is written straight to the file, so no float32 copy
    of the whole matrix is made; the bytes are those of converting it
    whole. A non-numeric or non-2-D input fails before the file is created.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind not in "biuf":
        # Strings and objects are converted, or rejected, as a whole.
        matrix = matrix.astype(_RAW_DTYPE)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(f"raw format stores 2-D matrices, got shape {matrix.shape}")
    rows, cols = matrix.shape
    step = _block_rows(cols)
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(rows, cols))
        for start in range(0, rows, step):
            fh.write(np.ascontiguousarray(matrix[start : start + step], dtype=_RAW_DTYPE))


def read_raw(path, out=None) -> np.ndarray:
    """Read a raw float32 matrix as a writable float32 array of shape (rows, cols).

    The header and the file size are checked before anything is allocated,
    and the values are read straight into the result: no intermediate
    bytes object, no dtype conversion. With `out`, a C-contiguous float32
    array of shape (rows, cols), the values land in it and it is returned;
    that lets a caller fill one slice of a larger block per file.

    Once all are read, the values are checked a block of rows at a time: a
    NaN or inf raises NumericError("<path>: non-finite value in row <r>")
    for the first row that holds one. A malformed file is a ValueError,
    raised before any value is read.
    """
    with open(path, "rb") as fh:
        rows, cols = _read_header(fh, path)
        if out is None:
            out = np.empty((rows, cols), dtype=_RAW_DTYPE)
        elif out.shape != (rows, cols) or out.dtype != _RAW_DTYPE or not out.flags.c_contiguous:
            raise _mismatch(path, rows, cols, out.dtype, out.shape)
        _fill(fh, path, out)
    step = _block_rows(cols)
    for start in range(0, rows, step):
        finite = np.isfinite(out[start : start + step]).all(axis=1)
        if not finite.all():
            raise NumericError(f"{path}: non-finite value in row {start + int(np.argmin(finite))}")
    return out


def check_raw(path, shape) -> None:
    """Raise ValueError unless `path` holds a well-formed raw matrix of `shape`.

    Only the header and the file size are read. The errors, and their
    messages, are those of read_raw into a float32 array of `shape`.
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
        raise _mismatch(path, rows, cols, _RAW_DTYPE, tuple(shape))
    return rows, cols


def _block_rows(cols: int) -> int:
    return max(1, _BLOCK_VALUES // max(1, cols))


def _mismatch(path, rows, cols, dtype, shape) -> ValueError:
    return ValueError(f"{path}: holds a {rows}x{cols} matrix, destination is {dtype} {shape}")


def _fill(fh, path, out) -> None:
    if fh.readinto(out) != out.nbytes:
        raise ValueError(f"{path}: file shrank while it was read")


def write_pgm(path, img) -> None:
    """Write a [0,1] grayscale plane as 8-bit binary PGM (P5, maxval 255)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM stores single planes, got shape {img.shape}")
    raster = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) as a float plane scaled to [0,1]."""
    blob = Path(path).read_bytes()
    magic, pos = _next_token(blob, 0)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width, pos = _next_token(blob, pos)
    height, pos = _next_token(blob, pos)
    maxval, pos = _next_token(blob, pos)
    w, h, mv = int(width), int(height), int(maxval)
    if not 0 < mv < 256:
        raise ValueError(f"{path}: unsupported maxval {mv} (8-bit only)")
    raster = blob[pos : pos + w * h]
    if len(raster) != w * h:
        raise ValueError(f"{path}: truncated raster ({len(raster)} of {w*h} bytes)")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    return img.astype(np.float64) / mv


def _next_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comment lines; returns (token, index one past
    # the single whitespace byte that terminates it).
    while pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and not blob[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("unexpected end of PGM header")
    return blob[start:pos], pos + 1


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


def require_objects(entries, keys, where) -> None:
    """Raise ValueError naming `where` unless `entries` is a list of objects each holding every key."""
    if not isinstance(entries, list):
        raise ValueError(f"{where}: expected a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        require_keys(entry, keys, f"{where}[{i}]")
