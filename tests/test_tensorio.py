import numpy as np
import pytest

from freqbal import tensorio


class TestRaw:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(7, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        back = tensorio.read_raw(path)
        assert back.shape == (7, 5)
        assert np.abs(back - mat).max() < 1e-6  # float32 quantization

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.zeros((3, 4)))
        blob = path.read_bytes()
        assert blob[:4] == (3).to_bytes(4, "little")
        assert blob[4:8] == (4).to_bytes(4, "little")
        assert len(blob) == 8 + 4 * 12

    def test_vector_stored_as_row(self, tmp_path):
        path = tmp_path / "v.f32"
        tensorio.write_raw(path, np.arange(5.0))
        assert tensorio.read_raw(path).shape == (1, 5)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.f32"
        tensorio.write_raw(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError):
            tensorio.read_raw(path)

    def test_oversized_rejected(self, tmp_path):
        path = tmp_path / "big.f32"
        tensorio.write_raw(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(ValueError, match="expected 24 bytes for 2x2, got 28"):
            tensorio.read_raw(path)

    def test_returns_exact_float32_values(self, tmp_path):
        mat = np.random.default_rng(1).normal(size=(7, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        back = tensorio.read_raw(path)
        assert back.dtype == np.float32
        assert back.tobytes() == mat.astype(np.float32).tobytes()
        back[0, 0] = np.inf  # callers may edit what they read

    def test_reads_into_destination(self, tmp_path):
        mat = np.random.default_rng(2).normal(size=(7, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        block = np.zeros((2, 7, 5), dtype=np.float32)
        out = tensorio.read_raw(path, out=block[1])
        assert np.shares_memory(out, block[1])
        assert block[1].tobytes() == mat.astype(np.float32).tobytes()
        assert not block[0].any()

    @pytest.mark.parametrize(
        "out",
        [np.zeros((5, 7), np.float32), np.zeros((7, 5)), np.zeros((7, 10), np.float32)[:, ::2]],
        ids=["shape", "dtype", "strided"],
    )
    def test_wrong_destination_rejected(self, out, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((7, 5)))
        with pytest.raises(ValueError, match="7x5"):
            tensorio.read_raw(path, out=out)
        assert not out.any()

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tensorio.write_raw(tmp_path / "x.f32", np.zeros((2, 2, 2)))


class TestPgm:
    def test_roundtrip_exact_for_8bit_grid(self, tmp_path):
        img = np.arange(256, dtype=float).reshape(16, 16) / 255.0
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, img)
        back = tensorio.read_pgm(path)
        assert back.shape == (16, 16)
        assert np.array_equal(back, img)

    def test_header_text(self, tmp_path):
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, np.zeros((2, 3)))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_comment_tolerant(self, tmp_path):
        path = tmp_path / "img.pgm"
        raster = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n# more\n255\n" + raster)
        img = tensorio.read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 0] == 0.0 and img[1, 2] == pytest.approx(5 / 255)

    def test_values_clipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        tensorio.write_pgm(path, np.array([[-0.5, 1.5]]))
        img = tensorio.read_pgm(path)
        assert img[0, 0] == 0.0 and img[0, 1] == 1.0

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            tensorio.read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError):
            tensorio.read_pgm(path)


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    entries = {"b": 1, "a": [1, 2], "c": {"x": 0.5}}
    tensorio.write_manifest(path, entries)
    assert tensorio.read_manifest(path) == entries


def test_failed_manifest_write_keeps_previous_file(tmp_path, monkeypatch):
    # A write that dies before the rename must leave the old manifest whole,
    # never a truncated one that read_manifest cannot parse.
    path = tmp_path / "m.json"
    tensorio.write_manifest(path, {"v": 1})

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(tensorio.os, "replace", crash)
    with pytest.raises(OSError):
        tensorio.write_manifest(path, {"v": 2})
    assert tensorio.read_manifest(path) == {"v": 1}
