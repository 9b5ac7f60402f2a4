"""The one on-disk format for named arrays: the corpus and checkpoints.

A file is a magic tag, a version byte, a little-endian u32 header length, a
sort_keys JSON header {"arrays": [[name, dtype, shape], ...], "meta": ...},
then the raw little-endian arrays back to back in header (name) order.

One reader parses the format, from a seekable binary file: it checks the
header and that the listed array sizes sum to the file's size, then seeks
to each array the caller asks for and reads it into one fresh writeable
buffer, at an offset that is a multiple of 8 so that every array is
aligned, skipping the rest. It raises the caller's error class on
any malformed input, and `check_entries` on any entry set but the caller's.
"""

import io
import json
import math
import os

import numpy as np

DTYPES = ("<f4", "<f8", "<i8")
# read places each array at a multiple of this many bytes in its buffer, the
# widest item size in DTYPES; numpy's own buffer is aligned to at least this
ALIGN = 8
# what decoding a header, or building objects from its metadata, raises on
# malformed values (json raises RecursionError on arrays nested too deep);
# each reader turns these into its typed error
MALFORMED = (ArithmeticError, LookupError, RecursionError, TypeError, ValueError)


def pack(magic, version, meta, arrays):
    """Bytes holding `meta` (JSON-able) and the named `arrays`, each of a
    dtype in DTYPES.

    A list of same-shape arrays is stored as one stacked array, without
    building the stack in memory."""
    entries, chunks = [], []
    for name in sorted(arrays):
        stacked = isinstance(arrays[name], list)
        # asarray, not ascontiguousarray, which turns a 0-d array into shape (1,)
        rows = [np.asarray(r, r.dtype.newbyteorder("<"), order="C")
                for r in (arrays[name] if stacked else [arrays[name]])]
        if len({(r.dtype.str, r.shape) for r in rows}) != 1:
            raise ValueError(f"{name}: rows differ in dtype or shape")
        shape = ([len(rows)] if stacked else []) + list(rows[0].shape)
        entries.append([name, rows[0].dtype.str, shape])
        chunks += [r.data for r in rows]
    header = json.dumps({"arrays": entries, "meta": meta}, sort_keys=True).encode("utf-8")
    return b"".join([magic, bytes([version]), len(header).to_bytes(4, "little"), header,
                     *chunks])


def read(f, magic, version, error, what, prefixes=("",)):
    """(meta, entries, arrays) from the seekable binary file `f`; raises
    `error` naming `what`.

    `entries` maps every array the header lists to its (dtype, shape), so a
    caller can check arrays it does not read. `arrays` holds the arrays
    whose names start with one of `prefixes` (all of them by default, none
    for `()`), as disjoint, aligned, writeable views of one fresh buffer."""
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    start = len(magic) + 5
    head = f.read(start)
    if head[:len(magic)] != magic:
        raise error(f"{what}: bad magic tag")
    if len(head) < start:
        raise error(f"{what}: truncated at byte {size}, inside the header")
    if head[len(magic)] != version:
        raise error(f"{what}: unsupported version {head[len(magic)]}, expected {version}")
    end = start + int.from_bytes(head[start - 4:], "little")
    if end > size:
        raise error(f"{what}: header ends at byte {end}, past the end ({size} bytes)")
    try:
        header = json.loads(f.read(end - start))
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
    if sum(sizes) != size - end:
        raise error(f"{what}: header lists {sum(sizes)} bytes of arrays, "
                    f"file has {size - end}")
    # One buffer for all the arrays read: malloc maps and unmaps buffers of a
    # few MB each on every call, so a long-lived process faulted in fresh
    # pages on each read (a whole default checkpoint took 15.6 ms instead of
    # 3.0 on a 2-core x86-64 machine).
    # In the file an array starts wherever the one before it ends, so after a
    # float32 array of odd length a float64 one is misaligned; in the buffer
    # each starts at a multiple of ALIGN.
    wanted = [name.startswith(prefixes) for name, _, _ in entries]
    rooms = [-(-n // ALIGN) * ALIGN for n in sizes]
    buffer = np.empty(sum(r for r, w in zip(rooms, wanted) if w), np.uint8)
    arrays, at = {}, 0
    for (name, dtype, shape), nbytes, room, w in zip(entries, sizes, rooms, wanted):
        if w:
            f.seek(end)
            view = buffer[at:at + nbytes]
            if f.readinto(view) != nbytes:
                raise error(f"{what}: truncated inside array {name}")
            arrays[name] = view.view(dtype).reshape(shape)
            at += room
        end += nbytes
    return meta, {name: (dtype, shape) for name, dtype, shape in entries}, arrays


def check_entries(entries, layout, error, what, needer):
    """Raise `error` unless the file's `entries` are exactly the {name: (dtype,
    shape)} `layout` that `needer` needs, naming the first name that differs."""
    if entries != layout:
        key = min(k for k in layout.keys() | entries.keys() if entries.get(k) != layout.get(k))
        got, need = (f"{np.dtype(e[0])} {e[1]}" if e else "none"
                     for e in (entries.get(key), layout.get(key)))
        raise error(f"{what}: {key}: file has {got}, {needer} needs {need}")


def unpack(blob, magic, version, error, what):
    """(meta, {name: array}) from the bytes `blob`, every array read."""
    meta, _, arrays = read(io.BytesIO(blob), magic, version, error, what)
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
