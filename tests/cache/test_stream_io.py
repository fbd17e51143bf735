"""Tests for LLC-stream persistence."""

import gzip
import struct
import time
import zlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.stream_io import read_llc_stream, write_llc_stream
from repro.common.errors import TraceError
from repro.trace.io import write_trace
from repro.trace.trace import Trace
from repro.trace.record import Access
from tests.conftest import make_stream

INT64_EXTREMES = [0, -1, 1, 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63)]


def encode(stream, version: int) -> bytes:
    """Independent spec of the plain file bytes of ``version`` (1, 2 or 3).

    Versions 1 and 2 store every column as plain little-endian values;
    version 3 stores the int64 columns as byte planes. The CRC (version
    >= 2) always covers the plain column bytes.
    """
    name = stream.name.encode("utf-8")
    out = struct.pack("<4sIQII", b"RLLC", version, len(stream),
                      stream.num_cores, len(name)) + name
    checksum = 0
    for column, typecode in zip(stream.columns(), "bqqb"):
        blob = array(typecode, column).tobytes()
        checksum = zlib.crc32(blob, checksum)
        if version >= 3 and typecode == "q":
            blob = bytes(blob[j * 8 + plane] for plane in range(8)
                         for j in range(len(column)))
        out += blob
    if version >= 2:
        out += struct.pack("<I", checksum)
    return out


class TestRoundtrip:
    def test_plain(self, tmp_path):
        stream = make_stream([(0, 0x1, 10, False), (3, 0x2, 11, True)],
                             name="rt")
        path = tmp_path / "s.rllc"
        write_llc_stream(stream, path)
        loaded = read_llc_stream(path)
        assert list(loaded) == list(stream)
        assert loaded.name == "rt"

    def test_gzip(self, tmp_path):
        stream = make_stream([(0, 0, i % 7, False) for i in range(5000)])
        plain, gz = tmp_path / "s.rllc", tmp_path / "s.rllc.gz"
        write_llc_stream(stream, plain)
        write_llc_stream(stream, gz)
        assert list(read_llc_stream(gz)) == list(stream)
        assert gz.stat().st_size < plain.stat().st_size

    def test_empty(self, tmp_path):
        for filename in ("e.rllc", "e.rllc.gz"):
            path = tmp_path / filename
            write_llc_stream(make_stream([]), path)
            assert len(read_llc_stream(path)) == 0

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=127),
                st.one_of(st.sampled_from(INT64_EXTREMES),
                          st.integers(-(1 << 63), (1 << 63) - 1)),
                st.one_of(st.sampled_from(INT64_EXTREMES),
                          st.integers(-(1 << 62), 1 << 62)),
                st.booleans(),
            ),
            max_size=60,
        ),
        st.sampled_from(["x.rllc", "x.rllc.gz"]),
    )
    def test_roundtrip_property(self, accesses, filename):
        import tempfile
        from pathlib import Path

        stream = make_stream(accesses, name="extreme")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / filename
            write_llc_stream(stream, path)
            raw = path.read_bytes()
            if filename.endswith(".gz"):
                raw = gzip.decompress(raw)
            assert raw == encode(stream, 3)
            loaded = read_llc_stream(path)
            assert list(loaded) == list(stream)
            assert loaded.name == "extreme"


class TestByteLayout:
    """Format v3: byte-plane int64 columns, deterministic gzip bytes."""

    @pytest.mark.parametrize("filename", ["v2.rllc", "v2.rllc.gz"])
    def test_reads_version_2(self, tmp_path, filename):
        stream = make_stream(
            [(i % 4, -(1 << 62) + i, (1 << 62) - i, i % 3 == 0)
             for i in range(300)],
            name="legacy",
        )
        blob = encode(stream, 2)
        path = tmp_path / filename
        path.write_bytes(gzip.compress(blob) if filename.endswith(".gz")
                         else blob)
        loaded = read_llc_stream(path)
        assert list(loaded) == list(stream)
        assert loaded.name == "legacy"

    def test_gzip_bytes_are_deterministic(self, tmp_path, monkeypatch):
        # Neither the clock nor the (per-process temp) file name may leak
        # into the cache bytes: concurrent writers must agree.
        stream = make_stream([(i % 4, 0x40 + i % 9, i * 3, i % 2 == 0)
                              for i in range(2000)])
        first = tmp_path / "tmp111-a.rllc.gz"
        second = tmp_path / "tmp222-b.rllc.gz"
        write_llc_stream(stream, first)
        later = time.time() + 1.5
        monkeypatch.setattr(time, "time", lambda: later)
        write_llc_stream(stream, second)
        assert first.read_bytes() == second.read_bytes()

    def test_byte_planes_shrink_a_recorded_stream(self, tmp_path):
        # Size pin: byte planes at level 6 against the v2 layout at
        # gzip's level 9 (measured ~0.72x on this stream).
        from repro.common.config import profile
        from repro.sim.experiment import ExperimentContext

        context = ExperimentContext(profile("scaled-4mb"),
                                    target_accesses=20_000, seed=42,
                                    workloads=["streamcluster"])
        stream = context.artifacts("streamcluster").stream
        path = tmp_path / "sc.rllc.gz"
        write_llc_stream(stream, path)
        v2_size = len(gzip.compress(encode(stream, 2), compresslevel=9))
        assert path.stat().st_size <= 0.75 * v2_size


class TestErrors:
    def test_rejects_trace_files(self, tmp_path):
        """A trace file must not silently load as an LLC stream."""
        trace = Trace.from_accesses([Access(0, 1, 2, False)])
        path = tmp_path / "t.rtrc"
        write_trace(trace, path)
        with pytest.raises(TraceError, match="not an LLC stream"):
            read_llc_stream(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.rllc"
        path.write_bytes(struct.pack("<4sIQII", b"RLLC", 9, 0, 0, 0))
        with pytest.raises(TraceError, match="version"):
            read_llc_stream(path)

    def test_truncated(self, tmp_path):
        stream = make_stream([(0, 0, i, False) for i in range(50)])
        path = tmp_path / "t.rllc"
        write_llc_stream(stream, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(TraceError, match="truncated"):
            read_llc_stream(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        stream = make_stream([(0, 0, i, False) for i in range(50)])
        path = tmp_path / "c.rllc"
        write_llc_stream(stream, path)
        blob = bytearray(path.read_bytes())
        blob[-8] ^= 0xFF  # inside the last column, before the footer
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="checksum"):
            read_llc_stream(path)

    def test_flip_inside_byte_plane_fails_checksum(self, tmp_path):
        stream = make_stream([(0, 0x77, i * 1000, False) for i in range(50)])
        path = tmp_path / "p.rllc"
        write_llc_stream(stream, path)
        blob = bytearray(path.read_bytes())
        blocks_start = 24 + len(stream.name) + 50 + 50 * 8
        blob[blocks_start + 7] ^= 0x01  # block 7's low byte, in plane 0
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="checksum"):
            read_llc_stream(path)

    def test_undecodable_name_raises_trace_error(self, tmp_path):
        path = tmp_path / "n.rllc"
        write_llc_stream(make_stream([(0, 1, 2, False)], name="ab"), path)
        blob = bytearray(path.read_bytes())
        blob[24] = 0xFF  # first name byte: never valid UTF-8
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="name"):
            read_llc_stream(path)

    def test_missing_footer_rejected(self, tmp_path):
        stream = make_stream([(0, 0, 1, False)])
        path = tmp_path / "f.rllc"
        write_llc_stream(stream, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop the CRC footer entirely
        with pytest.raises(TraceError, match="checksum"):
            read_llc_stream(path)

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "trailer"])
    def test_corrupt_gzip_raises_trace_error(self, tmp_path, damage):
        stream = make_stream([(i % 2, 5, i, False) for i in range(500)])
        path = tmp_path / "z.rllc.gz"
        write_llc_stream(stream, path)
        blob = bytearray(path.read_bytes())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        elif damage == "garbage":
            blob[10:30] = b"\xff" * 20
        else:
            blob[-6] ^= 0xFF  # gzip's own CRC-32 trailer
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError):
            read_llc_stream(path)


class TestZeroCopyLoads:
    """Plain loads view the mapping; every load path decodes alike."""

    STREAM = [(i % 4, 0x40 + (i % 3), (i * 7) % 90, i % 5 == 0)
              for i in range(400)]

    def test_mapped_and_streamed_readers_agree(self, tmp_path):
        import numpy as np

        stream = make_stream(self.STREAM, name="zc")
        plain, packed = tmp_path / "zc.rllc", tmp_path / "zc.rllc.gz"
        write_llc_stream(stream, plain)
        write_llc_stream(stream, packed)
        mapped = read_llc_stream(plain)
        unpacked = read_llc_stream(packed)
        assert all(isinstance(c, np.ndarray) for c in mapped.columns())
        assert all(isinstance(c, array) for c in unpacked.columns())
        assert list(mapped) == list(unpacked) == list(stream)
        assert mapped.name == unpacked.name == "zc"
        assert mapped.num_cores == unpacked.num_cores == stream.num_cores

    def test_plain_load_is_mapped_and_views_the_file(self, tmp_path):
        import mmap

        import numpy as np

        stream = make_stream(self.STREAM)
        path = tmp_path / "v.rllc"
        write_llc_stream(stream, path)
        cores, pcs, blocks, writes = read_llc_stream(path).columns()
        for column in (cores, pcs, blocks, writes):
            assert isinstance(column, np.ndarray)
            assert not column.flags.writeable
        # The int8 columns are zero-copy views of the mapped file; the
        # int64 columns are rebuilt from their byte planes.
        for column in (cores, writes):
            assert isinstance(column.base.obj, mmap.mmap)

    def test_mapped_stream_reserializes_byte_identically(self, tmp_path):
        stream = make_stream(self.STREAM, name="rt2")
        for suffix in (".rllc", ".rllc.gz"):
            original = tmp_path / f"a{suffix}"
            rewritten = tmp_path / f"b{suffix}"
            write_llc_stream(stream, original)
            write_llc_stream(read_llc_stream(original), rewritten)
            assert original.read_bytes() == rewritten.read_bytes()

    def test_gzip_takes_streamed_reader(self, tmp_path):
        # Gzip loads decode the decompressed bytes into array.array
        # columns, so warm cache replays see the builder's column types.
        stream = make_stream(self.STREAM)
        path = tmp_path / "g.rllc.gz"
        write_llc_stream(stream, path)
        loaded = read_llc_stream(path)
        assert all(isinstance(c, array) for c in loaded.columns())
        assert [c.typecode for c in loaded.columns()] == ["b", "q", "q", "b"]
        assert list(loaded) == list(stream)

    def test_empty_file_falls_back_to_streamed_error(self, tmp_path):
        # mmap refuses zero-length files; the decoder still reports the
        # ordinary truncation error instead of a mapping error.
        for filename in ("empty.rllc", "empty.rllc.gz"):
            path = tmp_path / filename
            path.write_bytes(b"")
            with pytest.raises(TraceError, match="truncated header"):
                read_llc_stream(path)

    def test_mapped_replay_matches_builder_replay(self, tmp_path):
        # End to end: a replay over ndarray-backed columns must be
        # indistinguishable from one over the builder's array.array.
        from repro.common.config import CacheGeometry
        from repro.sim.multipass import run_policy_on_stream

        stream = make_stream(self.STREAM, name="replay")
        path = tmp_path / "r.rllc"
        write_llc_stream(stream, path)
        loaded = read_llc_stream(path)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for policy in ("lru", "srrip", "ship"):
            a = run_policy_on_stream(stream, geometry, policy, seed=5)
            b = run_policy_on_stream(loaded, geometry, policy, seed=5)
            assert a == b, policy


class TestVersionCompatibility:
    def test_reads_version_1_without_footer(self, tmp_path):
        stream = make_stream([(2, 0x9, 3, True), (0, 0x9, 4, False)],
                             name="old")
        blob = encode(stream, 1)
        plain, packed = tmp_path / "v1.rllc", tmp_path / "v1.rllc.gz"
        plain.write_bytes(blob)
        packed.write_bytes(gzip.compress(blob))
        for path in (plain, packed):
            loaded = read_llc_stream(path)
            assert list(loaded) == list(stream)
            assert loaded.name == "old"
