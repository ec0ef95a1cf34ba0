"""Binary and text serialization.

Two on-disk layouts are provided:

* single-tensor ``TNSR`` files: magic ``b"TNSR"``, u32 version (=1), u32
  order, u32 dim, then ``dim**order`` little-endian float64 coefficients;
* ``TNSC`` containers holding named sections of rectangular float64 arrays
  (the episode and intermediates that ``demo-episode --out`` writes),
  since not every stored matrix is cubic.

Both round-trip bit-exactly.  Parse failures raise ``FileFormatError``
carrying the byte offset of the first offending byte; a payload's NaN or
infinity is located too.  ``read_tensor`` reads at most ``TNSR_MAX_BYTES + 1``
bytes, so a huge file or a device is rejected, never read whole.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FileFormatError, check_finite, read_array
from .tensor import CAPACITY, MAX_ORDER, DenseTensor

TNSR_MAGIC = b"TNSR"
TNSC_MAGIC = b"TNSC"
VERSION = 1
TNSR_MAX_BYTES = 16 + 8 * max(CAPACITY[r] ** r for r in CAPACITY)  # 524,304: order 4 at dim 16

_U32 = struct.Struct("<I")


def _read_checked(path, magic: bytes, header: int, limit: int | None = None) -> bytes:
    """The file's bytes (at most ``limit + 1``), once its header's magic and version check out."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # sizes the read; a pipe or a device reports 0
        raw = fh.read(-1 if limit is None else min(size or limit, limit) + 1)
    kind = magic.decode()
    if len(raw) < header:
        raise FileFormatError(f"truncated {kind} header", len(raw))
    if raw[:4] != magic:
        raise FileFormatError(f"bad magic, expected {magic!r}", 0)
    version = _U32.unpack_from(raw, 4)[0]
    if version != VERSION:
        raise FileFormatError(f"unsupported {kind} version {version}", 4)
    return raw


def _payload(raw: bytes, off: int, count: int, what: str = "") -> tuple:
    """The ``count`` coefficients at ``off``, and the error that locates a non-finite one."""
    if off + 8 * count > len(raw):  # the end of the file is the first missing byte
        message = f"{what}payload truncated: expected {8 * count} bytes of coefficients"
        raise FileFormatError(message, len(raw))
    data = np.frombuffer(raw, "<f8", count, off).astype(np.float64, copy=False)  # a view if LE
    return data, lambda: FileFormatError(
        "non-finite coefficient", off + 8 * int(np.argmin(np.isfinite(data)))
    )


def write_tensor(path, t: DenseTensor) -> None:
    """Serialize one cubic tensor to ``path`` in the TNSR layout."""
    with open(path, "wb") as fh:
        fh.write(TNSR_MAGIC + _U32.pack(VERSION) + _U32.pack(t.order) + _U32.pack(t.dim))
        fh.write(memoryview(np.ascontiguousarray(t.data, dtype="<f8")))


def read_tensor(path) -> DenseTensor:
    """Parse a TNSR file back into a tensor, bit-exactly."""
    raw = _read_checked(path, TNSR_MAGIC, 16, TNSR_MAX_BYTES)
    # bound the header fields before any size arithmetic depends on them
    order = _U32.unpack_from(raw, 8)[0]
    if order < 1 or order > MAX_ORDER:
        raise FileFormatError(f"invalid order {order}, supported 1 to {MAX_ORDER}", 8)
    dim = _U32.unpack_from(raw, 12)[0]
    if dim < 1 or dim > CAPACITY[order]:
        raise FileFormatError(
            f"invalid dim {dim}, the order-{order} limit is {CAPACITY[order]}", 12
        )
    data, located = _payload(raw, 16, dim**order)
    if len(raw) > 16 + data.nbytes:
        raise FileFormatError("trailing bytes after payload", 16 + data.nbytes)
    return DenseTensor._from_owned(order, dim, data, located)


def write_container(path, sections: dict[str, np.ndarray]) -> None:
    """Serialize named float64 arrays to ``path`` in the TNSC layout."""
    # Convert every section before opening the file: one that fails leaves no file.
    parts = [TNSC_MAGIC + _U32.pack(VERSION) + _U32.pack(len(sections))]
    for name, arr in sections.items():
        arr = np.ascontiguousarray(read_array(arr, f"section {name!r}"), dtype="<f8")  # >= 1-D
        encoded = name.encode("utf-8")
        shape = b"".join(_U32.pack(extent) for extent in arr.shape)
        parts += [_U32.pack(len(encoded)) + encoded + _U32.pack(arr.ndim) + shape, memoryview(arr)]
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_container(path) -> dict[str, np.ndarray]:
    """Parse a TNSC container, preserving section order."""
    raw = _read_checked(path, TNSC_MAGIC, 12)
    n_sections = _U32.unpack_from(raw, 8)[0]
    off = 12
    sections: dict[str, np.ndarray] = {}
    for _ in range(n_sections):
        if off + 4 > len(raw):
            raise FileFormatError("truncated section name length", off)
        name_len = _U32.unpack_from(raw, off)[0]
        off += 4
        if off + name_len > len(raw):
            raise FileFormatError("truncated section name", off)
        try:
            name = raw[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError("section name is not valid UTF-8", off)
        if name in sections:
            raise FileFormatError(f"duplicate section name '{name}'", off)
        off += name_len
        if off + 4 > len(raw):
            raise FileFormatError("truncated section rank", off)
        ndim = _U32.unpack_from(raw, off)[0]
        off += 4
        if ndim < 1 or ndim > 8:
            raise FileFormatError(f"implausible section rank {ndim}", off - 4)
        shape = []
        for _ in range(ndim):
            if off + 4 > len(raw):
                raise FileFormatError("truncated section shape", off)
            shape.append(_U32.unpack_from(raw, off)[0])
            off += 4
        # a math.prod of Python ints: a numpy product can wrap
        data, located = _payload(raw, off, math.prod(shape), f"section '{name}' ")
        sections[name] = check_finite(data, located).reshape(shape).copy()
        off += data.nbytes
    if off != len(raw):
        raise FileFormatError("trailing bytes after last section", off)
    return sections
