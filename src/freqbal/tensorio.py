"""On-disk formats: binary PGM (P5), raw float32 matrices, JSON manifests.

The raw matrix format is an 8-byte header (u32 rows, u32 cols, both
little-endian) followed by rows*cols little-endian float32 values in
row-major order. 1-D vectors are stored as a single row; the owning
manifest records the logical shape.

Raw matrices are read back as float32, the exact values in the file, and
are never widened here: every float32 widens exactly to float64, so a
caller that widens a block at a time right before its arithmetic gets the
same results as from a float64 copy of the whole file, without holding
one.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

_RAW_HEADER = struct.Struct("<II")
_RAW_DTYPE = np.dtype("<f4")


def write_raw(path, matrix) -> None:
    """Write a 2-D float array in the raw float32 format."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(f"raw format stores 2-D matrices, got shape {matrix.shape}")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_RAW_HEADER.pack(rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype=_RAW_DTYPE).tobytes())


def read_raw(path, out=None) -> np.ndarray:
    """Read a raw float32 matrix as a writable float32 array of shape (rows, cols).

    The header and the file size are checked before anything is allocated,
    and the values are read straight into the result: no intermediate
    bytes object, no dtype conversion. With `out`, a C-contiguous float32
    array of shape (rows, cols), the values land in it and it is returned;
    that lets a caller fill one slice of a larger block per file.
    """
    with open(path, "rb") as fh:
        header = fh.read(_RAW_HEADER.size)
        if len(header) < _RAW_HEADER.size:
            raise ValueError(f"{path}: truncated raw header")
        rows, cols = _RAW_HEADER.unpack(header)
        expected = _RAW_HEADER.size + 4 * rows * cols
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}")
        if out is None:
            out = np.empty((rows, cols), dtype=_RAW_DTYPE)
        elif out.shape != (rows, cols) or out.dtype != _RAW_DTYPE or not out.flags.c_contiguous:
            raise ValueError(
                f"{path}: holds a {rows}x{cols} matrix, destination is {out.dtype} {out.shape}"
            )
        if fh.readinto(out) != 4 * rows * cols:
            raise ValueError(f"{path}: file shrank while it was read")
    return out


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
    return json.loads(Path(path).read_text())
