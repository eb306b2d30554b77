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

    @pytest.mark.parametrize(
        "mat",
        [
            np.random.default_rng(3).normal(size=(50, 3)) * 1e3,  # several rows per block
            np.random.default_rng(4).normal(size=(4, 25)),  # wider than a block
            np.arange(-20, 20).reshape(8, 5),
            np.arange(7.0),
        ],
        ids=["rows", "wide", "int", "vector"],
    )
    def test_blocks_write_the_bytes_of_a_whole_conversion(self, mat, tmp_path, monkeypatch):
        monkeypatch.setattr(tensorio, "_WRITE_BLOCK", 10)
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        rows, cols = (1, mat.size) if mat.ndim == 1 else mat.shape
        expected = rows.to_bytes(4, "little") + cols.to_bytes(4, "little")
        assert path.read_bytes() == expected + np.asarray(mat, dtype="<f4").tobytes()

    @pytest.mark.parametrize(
        "bad", [[["a", "b"]], np.zeros((2, 2, 2)), np.float64(1.0)], ids=["strings", "3d", "scalar"]
    )
    def test_bad_input_fails_before_the_file_exists(self, bad, tmp_path):
        path = tmp_path / "m.f32"
        with pytest.raises(ValueError):
            tensorio.write_raw(path, bad)
        assert not path.exists()

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

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 10])
    def test_blocks_cover_the_matrix_in_one_buffer(self, block_rows, tmp_path):
        mat = np.random.default_rng(5).normal(size=(7, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        blocks, copies = [], []
        for block in tensorio.read_raw_blocks(path, (7, 5), block_rows):
            assert block.dtype == np.float32 and block.flags.c_contiguous
            blocks.append(block)
            copies.append(block.copy())
        assert [len(b) for b in copies] == [min(block_rows, 7 - s) for s in range(0, 7, block_rows)]
        assert all(np.shares_memory(b, blocks[0]) for b in blocks)
        assert np.concatenate(copies).tobytes() == tensorio.read_raw(path).tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda path: tensorio.write_raw(path, np.ones((5, 7))),
            lambda path: path.write_bytes(path.read_bytes()[:-3]),
            lambda path: path.write_bytes(path.read_bytes()[:5]),
        ],
        ids=["shape", "truncated", "header"],
    )
    def test_block_reader_checks_as_read_raw_does(self, edit, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((7, 5)))
        edit(path)
        with pytest.raises(ValueError) as whole:
            tensorio.read_raw(path, out=np.empty((7, 5), np.float32))
        with pytest.raises(ValueError) as checked:
            tensorio.check_raw(path, (7, 5))
        blocks = tensorio.read_raw_blocks(path, (7, 5), 2)
        with pytest.raises(ValueError) as streamed:
            next(blocks)
        assert str(checked.value) == str(streamed.value) == str(whole.value)

    def test_block_reader_reports_a_file_that_shrinks(self, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((4, 4096)))
        blocks = tensorio.read_raw_blocks(path, (4, 4096), 1)
        next(blocks)
        with open(path, "r+b") as fh:
            fh.truncate(8 + 4 * 4096 + 100)
        with pytest.raises(ValueError, match="file shrank while it was read"):
            next(blocks)

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


@pytest.mark.parametrize(
    "text, message",
    [('{"n_train": 4,\n', "not valid JSON: "), ("7\n", "expected a JSON object, got int")],
    ids=["truncated", "not_an_object"],
)
def test_malformed_manifest_names_the_file(text, message, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        tensorio.read_manifest(path)
    assert str(exc.value).startswith(f"{path}: {message}")
