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

    def test_rejects_magic_run_on_into_a_digit(self, tmp_path):
        # "P52" would read as magic P5 and width 2, a 2x2 frame of the 4 bytes
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P52 2 255\n" + bytes(range(4)))
        with pytest.raises(PgmError, match="P5 magic"):
            read_pgm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "e.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(PgmError, match="raster"):
            read_pgm(p)

    @pytest.mark.parametrize("frame, message", [
        (np.array([[300, -1], [256, 0]]), "uint8, got dtype=int64"),
        (np.array([[2.7]]), "uint8, got dtype=float64"),
        (np.zeros((2, 2), dtype=bool), "uint8, got dtype=bool"),
        (np.zeros((2, 2, 1), dtype=np.uint8), "2-d, got ndim=3"),
        (np.zeros(4, dtype=np.uint8), "2-d, got ndim=1"),
        (np.zeros((0, 3), dtype=np.uint8), "3x0; both sides must be at least 1"),
    ])
    def test_write_refuses_what_is_not_a_uint8_frame(self, tmp_path, frame, message):
        p = tmp_path / "w.pgm"
        with pytest.raises(PgmError, match=message):
            write_pgm(p, frame)
        assert not p.exists()

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

    @pytest.mark.parametrize("raw, reads", [
        (b"P5\n#2 2\n255\n" + bytes(4), False),  # a comment's digits are not fields
        (b"P5\n2#c\n2 255\n" + bytes(4), False),  # a comment that touches a field
        (b"P5\n2 2 #c", False),  # a comment with no newline
        (b"P5\n2 2\n255", False),  # no delimiter and no raster
        (b"P5#c\n2 2\n255\n" + bytes(range(4)), True),
        (b"P5\n# a\n# b\n2 2\n255\n" + bytes(range(4)), True),
        (b"P5\r\n2 2\r\n255\r" + bytes(range(4)), True),
        (b"P5 2\t2\x0b255\x0c" + bytes(range(4)), True),
        (b"P5\n02 2\n255\n" + bytes(range(4)), True),
        (b"P5\n2 2\n255\n" + bytes(range(4)) + b"extra", True),  # bytes after the raster
    ])
    def test_header_grammar(self, tmp_path, raw, reads):
        p = tmp_path / "h.pgm"
        p.write_bytes(raw)
        if not reads:
            with pytest.raises(PgmError):
                read_pgm(p)
            return
        frame = read_pgm(p)
        assert frame.shape == (2, 2) and frame.tobytes() == bytes(range(4))

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
        # the layout rrf_solve's as_matrix takes without a copy
        assert stack.matrix.dtype == np.float64 and stack.matrix.flags.f_contiguous
        for j, fr in enumerate(frames):
            np.testing.assert_array_equal(stack.column_to_frame(stack.matrix[:, j]),
                                          fr.astype(np.float64))

    def test_shape_mismatch_raises(self):
        with pytest.raises(PgmError, match="frame 1"):
            FrameStack.from_frames([np.zeros((2, 2)), np.zeros((3, 2))])

    def test_no_frames_raises(self):
        with pytest.raises(PgmError, match="no frames to stack"):
            FrameStack.from_frames([])

    def test_paper_scale_dimensions(self):
        # a 144x176 sequence of 300 frames stacks to 25344 x 300
        stack = FrameStack.from_frames([np.zeros((144, 176), dtype=np.uint8)] * 300)
        assert stack.matrix.shape == (25344, 300)
