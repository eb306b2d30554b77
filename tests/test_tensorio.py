import re

import numpy as np
import pytest

from freqbal import tensorio
from freqbal.errors import NumericError


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
        monkeypatch.setattr(tensorio, "_BLOCK_VALUES", 10)
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        rows, cols = (1, mat.size) if mat.ndim == 1 else mat.shape
        expected = rows.to_bytes(4, "little") + cols.to_bytes(4, "little")
        assert path.read_bytes() == expected + np.asarray(mat, dtype="<f4").tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["one", "block-1", "block", "block+1"])
    def test_block_writer_writes_the_bytes_of_write_raw(self, dtype, offset, tmp_path):
        # 1000 columns give the writer blocks of 262 rows; the input blocks
        # of 100 rows straddle them.
        cols = 1000
        step = tensorio._block_rows(cols)
        rows = 1 if offset is None else step + offset
        mat = (np.random.default_rng(rows).normal(size=(rows, cols)) * 1e3).astype(dtype)
        expected = rows.to_bytes(4, "little") + cols.to_bytes(4, "little") + mat.astype("<f4").tobytes()
        whole, blocks = tmp_path / "whole.f32", tmp_path / "blocks.f32"
        tensorio.write_raw(whole, mat)
        tensorio.write_raw_blocks(blocks, (rows, cols), (mat[s : s + 100] for s in range(0, rows, 100)))
        assert whole.read_bytes() == blocks.read_bytes() == expected

    def test_block_writer_writes_a_vector_as_write_raw_does(self, tmp_path):
        vec = np.arange(-3.5, 4.0)
        whole, blocks = tmp_path / "whole.f32", tmp_path / "blocks.f32"
        tensorio.write_raw(whole, vec)
        tensorio.write_raw_blocks(blocks, (1, vec.size), [vec[None, :]])
        assert whole.read_bytes() == blocks.read_bytes()
        assert tensorio.read_raw(blocks).tobytes() == vec.astype(np.float32).tobytes()

    def test_block_writer_takes_one_reused_buffer(self, tmp_path):
        # Each block is written before the next is asked for.
        mat = np.random.default_rng(6).normal(size=(10, 4)).astype(np.float32)
        buffer = np.empty((3, 4), dtype=np.float32)

        def blocks():
            for start in range(0, 10, 3):
                out = buffer[: min(3, 10 - start)]
                out[...] = mat[start : start + 3]
                yield out

        path = tmp_path / "m.f32"
        tensorio.write_raw_blocks(path, (10, 4), blocks())
        assert tensorio.read_raw(path).tobytes() == mat.tobytes()

    @pytest.mark.parametrize(
        "blocks",
        [
            [np.ones((3, 5))],
            [np.ones((4, 5)), np.ones((2, 5))],
            [np.ones((2, 4))],
            [np.ones((2, 5, 1))],
            [],
        ],
        ids=["short", "long", "narrow", "3d", "none"],
    )
    def test_blocks_that_disagree_with_the_shape_name_the_file(self, blocks, tmp_path):
        path = tmp_path / "m.f32"
        with pytest.raises(ValueError, match=re.escape(str(path))):
            tensorio.write_raw_blocks(path, (5, 5), blocks)
        # The file holds fewer rows than its header says, so no reader takes it.
        with pytest.raises(ValueError, match="expected 108 bytes for 5x5"):
            tensorio.read_raw(path)

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
        # The file is read straight into the array read_raw returns: no bytes
        # object or converted copy stands behind it, and no two reads share it.
        mat = np.random.default_rng(2).normal(size=(7, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        for rows, lo, hi in ((None, 0, 7), ((2, 6), 2, 6)):
            out = tensorio.read_raw(path, rows=rows)
            assert out.base is None and out.flags.owndata and out.flags.writeable
            assert out.flags.c_contiguous
            assert out.tobytes() == mat[lo:hi].astype(np.float32).tobytes()
        assert not np.shares_memory(tensorio.read_raw(path), tensorio.read_raw(path))

    @pytest.mark.parametrize("shape", [(5, 7), (6, 5), (7, 4)], ids=["shape", "rows", "cols"])
    def test_wrong_destination_rejected(self, shape, tmp_path):
        # The destination is the float32 shape a caller expects of the file,
        # as load_dataset and load_checkpoint give check_raw and read_raw_blocks.
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((7, 5)))
        message = f"{path}: holds a 7x5 matrix, destination is float32 {shape}"
        with pytest.raises(ValueError) as checked:
            tensorio.check_raw(path, shape)
        with pytest.raises(ValueError) as streamed:
            next(tensorio.read_raw_blocks(path, shape, 2))
        assert str(checked.value) == str(streamed.value) == message

    @pytest.mark.parametrize("rows", [None, (0, 4)], ids=["new", "out"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_numeric_error(self, value, rows, tmp_path, monkeypatch):
        # "new": row 5 is held in the array read_raw returns; "out": it lies
        # past the held rows 0-3, and is read, checked and dropped.
        monkeypatch.setattr(tensorio, "_BLOCK_VALUES", 10)  # two rows per checked block
        mat = np.random.default_rng(6).normal(size=(7, 5))
        mat[5, 1], mat[6, 4] = value, np.nan
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        with pytest.raises(NumericError) as exc:
            tensorio.read_raw(path, rows=rows)
        assert str(exc.value) == f"{path}: non-finite value in row 5"

    @pytest.mark.parametrize("lo, hi", [(0, 11), (3, 11), (0, 8), (3, 8), (4, 5)])
    @pytest.mark.parametrize("whole_read", ["read_raw", "read_raw_blocks"], ids=["new", "out"])
    def test_row_range_is_the_slice_of_a_whole_read(self, lo, hi, whole_read, tmp_path, monkeypatch):
        # Blocks of two rows: 3 and 11 are odd, so a block front to back
        # straddles the ends of the range and others fall inside it. The
        # whole read is read_raw's new array ("new") or the blocks that
        # read_raw_blocks reads into its one reused buffer ("out").
        monkeypatch.setattr(tensorio, "_BLOCK_VALUES", 10)
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.random.default_rng(7).normal(size=(11, 5)))
        if whole_read == "read_raw":
            whole = tensorio.read_raw(path)
        else:
            whole = np.concatenate([block.copy() for block in tensorio.read_raw_blocks(path, (11, 5), 2)])
        held = tensorio.read_raw(path, rows=(lo, hi))
        assert held.shape == (hi - lo, 5) and held.dtype == np.float32
        assert held.tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("row", [1, 2, 5, 7, 8, 10], ids=lambda r: f"row{r}")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_any_row_of_a_range_is_numeric_error(self, row, value, tmp_path, monkeypatch):
        # Rows 3-7 are held; the others are read, checked and dropped.
        monkeypatch.setattr(tensorio, "_BLOCK_VALUES", 10)
        mat = np.random.default_rng(8).normal(size=(11, 5))
        mat[row, 3] = value
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        with pytest.raises(NumericError) as exc:
            tensorio.read_raw(path, rows=(3, 8))
        assert str(exc.value) == f"{path}: non-finite value in row {row}"

    @pytest.mark.parametrize("at", [0, 4, 11])
    def test_empty_range_returns_no_rows_once_the_file_is_checked(self, at, tmp_path, monkeypatch):
        monkeypatch.setattr(tensorio, "_BLOCK_VALUES", 10)
        mat = np.random.default_rng(9).normal(size=(11, 5))
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, mat)
        held = tensorio.read_raw(path, rows=(at, at))
        assert held.shape == (0, 5) and held.dtype == np.float32
        mat[10, 0] = np.nan
        tensorio.write_raw(path, mat)
        with pytest.raises(NumericError, match="row 10$"):
            tensorio.read_raw(path, rows=(at, at))

    @pytest.mark.parametrize(
        "read",
        [
            lambda path: tensorio.read_raw(path, rows=(5, 3)),
            lambda path: tensorio.read_raw(path, rows=(-1, 4)),
            lambda path: tensorio.read_raw(path, rows=(3, 12)),
            lambda path: tensorio.read_raw(path, rows=(12, 12)),
            lambda path: tensorio.check_raw(path, (5, 11)),
        ],
        ids=["reversed", "negative", "past_end", "empty_past_end", "out_shape"],
    )
    def test_bad_range_or_destination_rejected(self, read, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((11, 5)))
        with pytest.raises(ValueError) as exc:
            read(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_malformed_file_fails_before_its_values_are_checked(self, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.full((7, 5), np.nan))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="expected 148 bytes for 7x5, got 144"):
            tensorio.read_raw(path)

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
        "edit, malformed",
        [
            (lambda path: tensorio.write_raw(path, np.ones((5, 7))), False),
            (lambda path: path.write_bytes(path.read_bytes()[:-3]), True),
            (lambda path: path.write_bytes(path.read_bytes()[:5]), True),
        ],
        ids=["shape", "truncated", "header"],
    )
    def test_block_reader_checks_as_read_raw_does(self, edit, malformed, tmp_path):
        path = tmp_path / "m.f32"
        tensorio.write_raw(path, np.ones((7, 5)))
        edit(path)
        with pytest.raises(ValueError) as checked:
            tensorio.check_raw(path, (7, 5))
        blocks = tensorio.read_raw_blocks(path, (7, 5), 2)
        with pytest.raises(ValueError) as streamed:
            next(blocks)
        assert str(checked.value) == str(streamed.value)
        if malformed:
            with pytest.raises(ValueError) as whole:
                tensorio.read_raw(path)
            assert str(whole.value) == str(checked.value)
        else:
            # Only a caller that expects a shape can reject a well-formed
            # file of another one; read_raw returns it as it is.
            assert str(checked.value) == f"{path}: holds a 5x7 matrix, destination is float32 (7, 5)"
            assert tensorio.read_raw(path).shape == (5, 7)

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


@pytest.mark.parametrize(
    "entries, message",
    [
        (7, "m.json specs: expected a list, got int"),
        ([{"a": 1, "b": 2}, "x"], "m.json specs[1]: expected a JSON object, got str"),
        ([{"a": 1, "b": 2}, {"b": 2}], "m.json specs[1]: missing key 'a'"),
    ],
    ids=["not_a_list", "not_an_object", "missing_key"],
)
def test_required_objects_name_the_entry(entries, message):
    with pytest.raises(ValueError) as exc:
        tensorio.require_objects(entries, ("a", "b"), "m.json specs")
    assert str(exc.value) == message
    tensorio.require_objects([{"a": 1, "b": 2, "c": 3}], ("a", "b"), "m.json specs")
