"""The one on-disk format for named arrays: the corpus and checkpoints.

A file is a magic tag, a version byte, a little-endian u32 header length, a
sort_keys JSON header {"arrays": [[name, dtype, shape], ...], "meta": ...},
then the raw little-endian arrays back to back in header (name) order. The
reader checks every length before it builds an array and raises the
caller's error class on any malformed input.
"""

import json
import math
import os

import numpy as np

DTYPES = ("<f8", "<i8")
# what decoding a header, or building objects from its metadata, raises on
# malformed values; each reader turns these into its typed error
MALFORMED = (ArithmeticError, LookupError, TypeError, ValueError)


def pack(magic, version, meta, arrays):
    """Bytes holding `meta` (JSON-able) and the named float64/int64 `arrays`.

    A list of same-shape arrays is stored as one stacked array, without
    building the stack in memory."""
    entries, chunks = [], []
    for name in sorted(arrays):
        stacked = isinstance(arrays[name], list)
        rows = [np.ascontiguousarray(r, r.dtype.newbyteorder("<"))
                for r in (arrays[name] if stacked else [arrays[name]])]
        if len({(r.dtype.str, r.shape) for r in rows}) != 1:
            raise ValueError(f"{name}: rows differ in dtype or shape")
        shape = ([len(rows)] if stacked else []) + list(rows[0].shape)
        entries.append([name, rows[0].dtype.str, shape])
        chunks += [r.data for r in rows]
    header = json.dumps({"arrays": entries, "meta": meta}, sort_keys=True).encode("utf-8")
    return b"".join([magic, bytes([version]), len(header).to_bytes(4, "little"), header,
                     *chunks])


def unpack(blob, magic, version, error, what):
    """(meta, {name: array}) from `blob`; raises `error` naming `what`.

    The arrays are views of `blob`, so they are read-only when it is bytes."""
    start = len(magic) + 5
    if blob[:len(magic)] != magic:
        raise error(f"{what}: bad magic tag")
    if len(blob) < start:
        raise error(f"{what}: truncated at byte {len(blob)}, inside the header")
    if blob[len(magic)] != version:
        raise error(f"{what}: unsupported version {blob[len(magic)]}, expected {version}")
    end = start + int.from_bytes(blob[start - 4:start], "little")
    if end > len(blob):
        raise error(f"{what}: header ends at byte {end}, past the end ({len(blob)} bytes)")
    try:
        header = json.loads(blob[start:end])
        meta = header["meta"]
        entries = [(name, dtype, tuple(shape)) for name, dtype, shape in header["arrays"]]
    except MALFORMED as exc:
        raise error(f"{what}: malformed header: {exc}") from None
    sizes = []
    for name, dtype, shape in entries:
        if (type(name) is not str or dtype not in DTYPES
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise error(f"{what}: bad array entry {[name, dtype, list(shape)]}")
        sizes.append(math.prod(shape) * np.dtype(dtype).itemsize)
    if sum(sizes) != len(blob) - end:
        raise error(f"{what}: header lists {sum(sizes)} bytes of arrays, "
                    f"file has {len(blob) - end}")
    arrays = {}
    for (name, dtype, shape), size in zip(entries, sizes):
        arrays[name] = np.frombuffer(blob, dtype, math.prod(shape), end).reshape(shape)
        end += size
    return meta, arrays


def write_atomic(path, data):
    """Write `data` to `path` through a temp file in the same directory, so
    a write that fails leaves the previous file, and no temp file, behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
