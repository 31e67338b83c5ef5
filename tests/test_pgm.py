import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loire import FrameStack, PgmError, read_pgm, write_pgm


def checker(h=6, w=8):
    return (np.indices((h, w)).sum(axis=0) % 2 * 255).astype(np.uint8)


class TestPgmIo:
    def test_write_read_round_trip_bytes(self, tmp_path):
        frame = checker()
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        write_pgm(p1, frame)
        write_pgm(p2, read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        raster = bytes(range(6))
        p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + raster)
        fr = read_pgm(p)
        assert fr.shape == (2, 3)
        assert fr.tobytes() == raster

    def test_rejects_ascii_pgm(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PgmError):
            read_pgm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(PgmError, match="raster"):
            read_pgm(p)

    def test_rejects_16bit(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PgmError, match="8-bit"):
            read_pgm(p)


    @pytest.mark.parametrize("dims", [b"-2 -3", b"0 4", b"4 0", b"1_0 2", b"+3 2", b" 3 2x"])
    def test_rejects_bad_dimensions(self, tmp_path, dims):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 64)
        with pytest.raises(PgmError):
            read_pgm(p)

    @settings(deadline=None)
    @given(st.data())
    def test_corrupt_header_raises_pgm_error_or_keeps_declared_shape(self, tmp_path_factory,
                                                                      data):
        height, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        header = f"P5\n{width} {height}\n255\n".encode("ascii")
        raw = bytearray(header + bytes(range(height * width)))
        if data.draw(st.booleans()):
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        else:
            raw[data.draw(st.integers(0, len(header) - 1))] ^= data.draw(st.integers(1, 255))
        p = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        p.write_bytes(bytes(raw))
        try:
            frame = read_pgm(p)
        except PgmError:
            return
        assert frame.dtype == np.uint8 and min(frame.shape) >= 1
        declared = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", bytes(raw))
        if declared:
            assert frame.shape == (int(declared[2]), int(declared[1]))


class TestFrameStack:
    def test_column_round_trip_exact(self):
        rng = np.random.default_rng(0)
        frames = [rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
                  for _ in range(4)]
        stack = FrameStack.from_frames(frames)
        assert stack.matrix.shape == (35, 4)
        for j, fr in enumerate(frames):
            np.testing.assert_array_equal(stack.column_to_frame(stack.matrix[:, j]),
                                          fr.astype(np.float64))

    def test_shape_mismatch_raises(self):
        with pytest.raises(PgmError, match="frame 1"):
            FrameStack.from_frames([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_paper_scale_dimensions(self):
        # a 144x176 sequence of 300 frames stacks to 25344 x 300
        stack = FrameStack.from_frames([np.zeros((144, 176), dtype=np.uint8)] * 300)
        assert stack.matrix.shape == (25344, 300)
