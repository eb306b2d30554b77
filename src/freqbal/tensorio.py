"""On-disk formats: binary PGM (P5), raw float32 matrices, JSON manifests.

The raw matrix format is an 8-byte header (u32 rows, u32 cols, both
little-endian) followed by rows*cols little-endian float32 values in
row-major order. 1-D vectors are stored as a single row; the owning
manifest records the logical shape.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

_RAW_HEADER = struct.Struct("<II")


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
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_raw(path) -> np.ndarray:
    """Read a raw float32 matrix; returns float64 of shape (rows, cols)."""
    blob = Path(path).read_bytes()
    if len(blob) < _RAW_HEADER.size:
        raise ValueError(f"{path}: truncated raw header")
    rows, cols = _RAW_HEADER.unpack_from(blob)
    expected = _RAW_HEADER.size + 4 * rows * cols
    if len(blob) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", offset=_RAW_HEADER.size)
    return data.reshape(rows, cols).astype(np.float64)


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
