"""Binary PGM (P5, 8-bit) frame I/O and frame stacking.

Each frame becomes one column of the stacked matrix, using column-major
vectorization, so frame -> column -> frame round trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    pass


# magic, width, height, maxval: digits after whitespace or '#' comments, then
# whitespace; a comment closes on its newline, so its digits are never fields
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)(?=\s)" * 3)


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a (height, width) uint8 array; bytes
    after the raster are ignored."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5") or data[2:3].strip() not in (b"", b"#"):  # not "P52"
        raise PgmError(f"{path}: not a binary PGM (missing P5 magic)")
    header = _HEADER.match(data)
    if header is None:
        raise PgmError(f"{path}: malformed or truncated PGM header")
    width, height, maxval = (int(t) for t in header.groups())
    if width < 1 or height < 1:
        raise PgmError(f"{path}: frame is {width}x{height}; both sides must be at least 1")
    if maxval != 255:
        raise PgmError(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    expected = width * height
    pos = header.end() + 1  # the single whitespace byte after maxval
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
        # row j is frame j read column-major, so .T is F-contiguous
        matrix = np.array([fr.T for fr in frames], dtype=np.float64).reshape(len(frames), -1).T
        return cls(width=width, height=height, frames=len(frames), matrix=matrix)

    def column_to_frame(self, column: np.ndarray) -> np.ndarray:
        """Reshape one stacked column back into a (height, width) array."""
        return np.asarray(column).reshape(self.height, self.width, order="F")
