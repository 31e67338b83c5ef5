"""Binary PGM (P5, 8-bit) frame I/O and frame stacking.

Each frame becomes one column of the stacked matrix, using column-major
vectorization, so frame -> column -> frame round trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    pass


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a (height, width) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5") or data[2:3].strip() not in (b"", b"#"):  # not "P52"
        raise PgmError(f"{path}: not a binary PGM (missing P5 magic)")
    # header tokens: magic, width, height, maxval; '#' comments run to EOL
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    # ASCII digits only: int() would also take a sign, "_" or other scripts
    if not all(t.isdigit() for t in tokens):
        raise PgmError(f"{path}: malformed PGM header")
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise PgmError(f"{path}: frame is {width}x{height}; both sides must be at least 1")
    if maxval != 255:
        raise PgmError(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    expected = width * height
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise PgmError(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def write_pgm(path, frame: np.ndarray) -> None:
    """Write a (height, width) uint8 array as binary PGM.  Any other dtype is
    refused: a cast would wrap 300 to 44 and -1 to 255, and truncate 2.7 to 2."""
    frame = np.asarray(frame)
    if frame.dtype != np.uint8:
        raise PgmError(f"frame must be uint8, got dtype={frame.dtype}")
    if frame.ndim != 2:
        raise PgmError(f"frame must be 2-d, got ndim={frame.ndim}")
    height, width = frame.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(frame.tobytes())


@dataclass
class FrameStack:
    """Grayscale frames stacked as columns of a (width*height) x frames matrix."""

    width: int
    height: int
    frames: int
    matrix: np.ndarray

    @classmethod
    def from_frames(cls, frames) -> "FrameStack":
        frames = list(frames)
        if not frames:
            raise PgmError("no frames to stack")
        height, width = frames[0].shape
        for k, fr in enumerate(frames):
            if fr.shape != (height, width):
                raise PgmError(f"frame {k} has shape {fr.shape}, expected {(height, width)}")
        matrix = np.empty((width * height, len(frames)), dtype=np.float64, order="F")
        for j, fr in enumerate(frames):
            matrix[:, j] = np.asarray(fr, dtype=np.float64).flatten(order="F")
        return cls(width=width, height=height, frames=len(frames), matrix=matrix)

    def column_to_frame(self, column: np.ndarray) -> np.ndarray:
        """Reshape one stacked column back into a (height, width) array."""
        return np.asarray(column).reshape(self.height, self.width, order="F")
