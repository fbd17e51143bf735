"""Binary file format for recorded LLC streams.

Mirrors ``repro.trace.io``'s layout with its own magic so the two artifact
kinds cannot be confused:

    magic    4 bytes  b"RLLC"
    version  u32      currently 3
    count    u64      number of accesses
    ncores   u32      number of cores (informational)
    namelen  u32      UTF-8 name length
    name     bytes
    columns  cores as i8[count], pcs as 8 byte planes of count bytes,
             blocks as 8 byte planes of count bytes, writes as i8[count]
    crc32    u32      CRC-32 of the four *logical* column blobs
                      (version >= 2)

A byte plane holds one byte position of every value of an int64 column:
all byte-0s, then all byte-1s, and so on (version 3; versions 1 and 2
store the columns as plain little-endian i64[count]). PCs and block
numbers repeat their high bytes, so the planes compress far better than
interleaved values. The CRC covers the column bytes as the in-memory
int64 arrays hold them, so a bad transposition fails the checksum too.

Paths ending in ``.gz`` are gzip-compressed at deflate level
:data:`GZIP_LEVEL`, with a zero header mtime and no embedded file name,
so the same stream always serialises to the same bytes. Recording a
stream costs a full hierarchy pass; persisting it lets sweeps and reruns
skip straight to replay. The trailing checksum is the integrity backbone
of the persistent experiment cache (:mod:`repro.sim.experiment`): a
corrupted or truncated artifact raises :class:`TraceError` instead of
silently perturbing results. Version-1 (no checksum) and version-2 files
still load, under both suffixes.

One decoder parses every file from a bytes-like buffer: the ``mmap`` of
a plain file, or the decompressed bytes of a ``.gz`` file. Plain loads
return ``np.frombuffer`` columns; the int8 columns (and the int64 columns
of v1/v2 files) are zero-copy views over the mapping, so pool workers
re-opening one stream share the page cache. Gzip loads return
``array.array`` columns. Every consumer is duck-typed over both, and the
equivalence is differential-tested.
"""

import gzip
import mmap
import struct
import zlib
from array import array
from pathlib import Path
from typing import Union

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.errors import TraceError

_MAGIC = b"RLLC"
_VERSION = 3
_HEADER = struct.Struct("<4sIQII")
_FOOTER = struct.Struct("<I")

_COLUMNS = (("b", 1), ("q", 8), ("q", 8), ("b", 1))
"""(typecode, item size) of the cores, pcs, blocks and writes columns."""

GZIP_LEVEL = 6
"""Deflate level of ``.gz`` streams.

On byte planes, level 6 compresses within a few percent of level 9 at a
small fraction of its write time.
"""

STREAM_FORMAT_VERSION = _VERSION
"""Public format version; part of the persistent experiment-cache key."""


def _to_planes(blob: bytes) -> bytes:
    """Byte-plane layout of a little-endian int64 column blob."""
    return b"".join(blob[i::8] for i in range(8))


def _from_planes(planes, count: int) -> bytearray:
    """Inverse of :func:`_to_planes` for a column of ``count`` values."""
    out = bytearray(8 * count)
    for i in range(8):
        out[i::8] = planes[i * count:(i + 1) * count]
    return out


def write_llc_stream(stream: LlcStream, path: Union[str, Path]) -> None:
    """Serialise ``stream`` to ``path`` (gzip when the name ends in .gz)."""
    path = Path(path)
    name_bytes = stream.name.encode("utf-8")
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, len(stream), stream.num_cores,
                     len(name_bytes)),
        name_bytes,
    ]
    checksum = 0
    for column, (__, item_size) in zip(stream.columns(), _COLUMNS):
        blob = column.tobytes()
        checksum = zlib.crc32(blob, checksum)
        parts.append(_to_planes(blob) if item_size == 8 else blob)
    parts.append(_FOOTER.pack(checksum))
    with open(path, "wb") as handle:
        if path.suffix == ".gz":
            # No mtime and no file name: the bytes depend on the stream
            # alone, whichever (temp) path a writer used.
            with gzip.GzipFile(fileobj=handle, mode="wb", filename="",
                               compresslevel=GZIP_LEVEL, mtime=0) as packed:
                packed.writelines(parts)
        else:
            handle.writelines(parts)


def read_llc_stream(path: Union[str, Path]) -> LlcStream:
    """Load a stream written by :func:`write_llc_stream` (any version).

    Raises:
        TraceError: on a bad magic number, unsupported version, a
            truncated file, corrupt gzip data, or a column checksum
            mismatch.
    """
    path = Path(path)
    if path.suffix == ".gz":
        try:
            buf = gzip.decompress(path.read_bytes())
        except (zlib.error, gzip.BadGzipFile, EOFError) as exc:
            raise TraceError(f"{path}: corrupt gzip data ({exc})") from exc
        return _decode(buf, path, views=False)
    with open(path, "rb") as handle:
        try:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty file, exotic filesystem
            buf = handle.read()
    return _decode(buf, path, views=True)


def _decode(buf, path: Path, views: bool) -> LlcStream:
    """Parse one stream out of the bytes-like ``buf``.

    ``views`` selects numpy columns over ``buf`` (the columns keep the
    buffer alive through their ``base``) instead of ``array.array``
    copies.
    """
    size = len(buf)
    if size < _HEADER.size:
        raise TraceError(f"{path}: truncated header")
    magic, version, count, __, namelen = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise TraceError(f"{path}: bad magic {magic!r} (not an LLC stream)")
    if version not in (1, 2, 3):
        raise TraceError(f"{path}: unsupported version {version}")
    offset = _HEADER.size
    if size < offset + namelen:
        raise TraceError(f"{path}: truncated header")
    try:
        name = bytes(buf[offset:offset + namelen]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: undecodable stream name") from exc
    offset += namelen

    checksum = 0
    columns = []
    view = memoryview(buf)
    for typecode, item_size in _COLUMNS:
        end = offset + count * item_size
        if end > size:
            raise TraceError(f"{path}: truncated column ({typecode})")
        blob = view[offset:end]
        if item_size == 8 and version >= 3:
            blob = _from_planes(blob, count)
        checksum = zlib.crc32(blob, checksum)
        if views:
            column = np.frombuffer(blob, dtype=typecode)
            column.flags.writeable = False
        else:
            column = array(typecode)
            column.frombytes(blob)
        columns.append(column)
        offset = end
    if version >= 2:
        if size < offset + _FOOTER.size:
            raise TraceError(f"{path}: truncated checksum footer")
        (expected,) = _FOOTER.unpack_from(buf, offset)
        if expected != checksum:
            raise TraceError(
                f"{path}: checksum mismatch "
                f"(stored {expected:#010x}, computed {checksum:#010x})"
            )
    cores, pcs, blocks, writes = columns
    return LlcStream(cores, pcs, blocks, writes, name=name)
