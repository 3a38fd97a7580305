import builtins
import errno
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from panelroute import serial
from panelroute.events import (DOMAINS, Episode, Vocabulary, read_episodes_jsonl,
                               write_episodes_jsonl)
from panelroute.policy import write_frontier_csv
from panelroute.serial import (BundleError, load_bundle, save_bundle, sha256_file, write_json,
                               write_lines)
from panelroute.specialist import write_curve_csv

DTYPES = [np.uint8, np.int64, np.float32, np.float64]


@st.composite
def bundle_arrays(draw):
    """Named arrays of the stored dtypes, zero-size and 0-d ones included,
    with an odd-length uint8 array sorted ahead of a float64 one, so that the
    float64 array starts off its alignment in the payload."""
    arrays = {
        "a_odd": draw(hnp.arrays(np.uint8, st.integers(1, 9).map(lambda n: 2 * n - 1))),
        "b_f64": draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                               max_side=4))),
    }
    for i in range(draw(st.integers(0, 4))):
        dtype = draw(st.sampled_from(DTYPES))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        arrays[f"c{i}"] = draw(hnp.arrays(dtype, shape))
    return arrays


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(bundle_arrays())
    def test_arrays_come_back_equal_aligned_and_writable(self, tmp_path_factory, arrays):
        path = tmp_path_factory.mktemp("b") / "b.bin"
        save_bundle(path, {"kind": "t", "n": len(arrays)}, arrays)
        meta, got = load_bundle(path)
        assert meta == {"kind": "t", "n": len(arrays)}
        assert set(got) == set(arrays)
        for name, want in arrays.items():
            arr = got[name]
            assert arr.dtype == want.dtype and arr.shape == want.shape, name
            assert np.array_equal(arr, want, equal_nan=want.dtype.kind == "f"), name
            assert arr.flags.aligned and arr.flags.writeable, name
        before = {name: arr.copy() for name, arr in got.items()}
        for name, arr in got.items():
            if arr.size:
                arr.reshape(-1)[0] = 1 if arr.dtype.kind in "ui" else np.nan
                for other, arr2 in got.items():
                    if other != name:
                        assert np.array_equal(arr2, before[other], equal_nan=True), (name, other)
                arr[...] = before[name]

    def test_zero_d_array_keeps_its_shape(self, tmp_path):
        save_bundle(tmp_path / "b.bin", {}, {"x": np.array(2.5)})
        _, got = load_bundle(tmp_path / "b.bin")
        assert got["x"].shape == () and got["x"] == 2.5

    def test_bytes_are_the_c_order_layout_whatever_the_memory_order(self, tmp_path):
        """The digest of the file written from each array's `tobytes()`."""
        arrays = {"zero_d": np.array(2.5), "empty": np.zeros((0, 3)),
                  "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
                  "strided": np.arange(20, dtype=np.int64)[::3],
                  "plain": np.arange(6, dtype=np.float32).reshape(2, 3)}
        save_bundle(tmp_path / "b.bin", {"kind": "test"}, arrays)
        assert sha256_file(tmp_path / "b.bin") == (
            "4d41db839cf51c9bfa87ff843aa8bb50adc88a3bb31734bbc55d7e5e26b0ea8d")
        _, got = load_bundle(tmp_path / "b.bin")
        for name, want in arrays.items():
            assert got[name].shape == want.shape and np.array_equal(got[name], want), name


class DiskFull:
    """A file that stores its first 20 bytes and then fails the write."""

    def __init__(self, fh):
        self.fh = fh
        self.room = 20

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = bytes(memoryview(data).cast("B"))
        self.fh.write(data[:self.room])
        if len(data) > self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return len(data)


VOCAB = Vocabulary([(f"tok{i}", i) for i in range(10)])
EPISODES = [Episode(f"e{i}", labels=(DOMAINS[i % 5],)) for i in range(10)]
FRONTIER = [dict.fromkeys(["tau_hi", "tau_lo", "life_recall", "expected_experts",
                           "recall_any", "recall_all"], i / 10) for i in range(10)]
CURVE = [{"epoch": i, "train_loss": 1.0, "dev_loss": 1.5, "ppl": 4.5} for i in range(10)]

# Each writer, and a check that the file it wrote reads back as written.
WRITERS = {
    "save_bundle": (lambda path: save_bundle(path, {"kind": "t"}, {"x": np.arange(100.0)}),
                    lambda path: np.array_equal(load_bundle(path)[1]["x"], np.arange(100.0))),
    "write_json": (lambda path: write_json(path, {"x": list(range(100))}),
                   lambda path: json.loads(path.read_text()) == {"x": list(range(100))}),
    "write_lines": (lambda path: write_lines(path, (f"{i}\n" for i in range(100))),
                    lambda path: path.read_text() == "".join(f"{i}\n" for i in range(100))),
    "Vocabulary.save": (VOCAB.save,
                        lambda path: Vocabulary.load(path).token_to_id == VOCAB.token_to_id),
    "write_episodes_jsonl": (
        lambda path: write_episodes_jsonl(path, EPISODES),
        lambda path: [(ep.episode_id, ep.labels) for ep in read_episodes_jsonl(path)]
        == [(ep.episode_id, ep.labels) for ep in EPISODES]),
    "write_frontier_csv": (lambda path: write_frontier_csv(path, FRONTIER),
                           lambda path: len(path.read_text().splitlines()) == 11),
    "write_curve_csv": (lambda path: write_curve_csv(path, CURVE),
                        lambda path: len(path.read_text().splitlines()) == 11),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("previous", [b"previous", None])
    def test_failed_write_keeps_the_previous_file_and_no_temporary(
            self, tmp_path, monkeypatch, writer, previous):
        path = tmp_path / "artifact"
        if previous is not None:
            path.write_bytes(previous)
        monkeypatch.setattr(serial, "open", lambda *a, **k: DiskFull(builtins.open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            WRITERS[writer][0](path)
        assert [p.name for p in tmp_path.iterdir()] == (["artifact"] if previous else [])
        if previous is not None:
            assert path.read_bytes() == previous

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_the_file_and_leaves_no_temporary(self, tmp_path, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous")
        write, reads_back = WRITERS[writer]
        write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        assert reads_back(path)


class TestCorruptBundles:
    @settings(max_examples=60, deadline=None)
    @given(bundle_arrays(), st.data())
    def test_every_strict_prefix_raises_bundle_error(self, tmp_path_factory, arrays, data):
        path = tmp_path_factory.mktemp("b") / "b.bin"
        save_bundle(path, {"kind": "t"}, arrays)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:cut])
        with pytest.raises(BundleError, match="b.bin"):
            load_bundle(path)

    def test_undecodable_header_raises_bundle_error(self, tmp_path):
        save_bundle(tmp_path / "b.bin", {"kind": "t"}, {"x": np.arange(3.0)})
        raw = bytearray((tmp_path / "b.bin").read_bytes())
        raw[16] = ord("#")  # first byte of the JSON header
        (tmp_path / "b.bin").write_bytes(bytes(raw))
        with pytest.raises(BundleError, match="malformed"):
            load_bundle(tmp_path / "b.bin")

    def test_bad_magic_raises_bundle_error(self, tmp_path):
        (tmp_path / "b.bin").write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(BundleError, match="bad magic"):
            load_bundle(tmp_path / "b.bin")

    def test_header_length_past_the_file_raises_before_the_read(self, tmp_path):
        path = tmp_path / "b.bin"
        save_bundle(path, {"kind": "t"}, {"x": np.arange(3.0)})
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<Q", 2**40)
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleError, match="header runs past end of file"):
            load_bundle(path)

    @pytest.mark.parametrize("shape", [[-2, 5], [-1, 5], [5, -2], [2.5], [True, 5]], ids=str)
    def test_shape_of_other_than_non_negative_integers_raises(self, tmp_path, shape):
        """80 payload bytes, which a negative dimension would read as some
        other shape: (0, 5), (1, 5) and (5, 0) for the first three."""
        header = json.dumps({"version": serial.FORMAT_VERSION, "meta": {"kind": "t"},
                             "arrays": [{"name": "x", "dtype": "float64", "shape": shape,
                                         "offset": 0}]}).encode()
        (tmp_path / "b.bin").write_bytes(serial.MAGIC + struct.pack(
            "<IQ", serial.FORMAT_VERSION, len(header)) + header + bytes(80))
        with pytest.raises(BundleError, match="has shape"):
            load_bundle(tmp_path / "b.bin")
