"""Binary and text serialization.

Two on-disk layouts are provided:

* single-tensor ``TNSR`` files: magic ``b"TNSR"``, u32 version (=1), u32
  order, u32 dim, then ``dim**order`` little-endian float64 coefficients;
* ``TNSC`` containers holding named sections of rectangular float64 arrays
  (the episode and intermediates that ``demo-episode --out`` writes),
  since not every stored matrix is cubic.

Both round-trip bit-exactly.  Parse failures raise ``FileFormatError``
carrying the byte offset of the first offending byte; a payload's NaN or
infinity is located too.  Each reader checks its header, then reads at most
one byte past its ``*_MAX_BYTES`` bound, so a huge file or a device is
rejected, never read whole; the writer refuses what the reader would.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import CapacityError, FileFormatError, InvalidArgumentError, check_finite, read_array
from .tensor import CAPACITY, MAX_ORDER, DenseTensor

TNSR_MAGIC = b"TNSR"
TNSC_MAGIC = b"TNSC"
VERSION = 1
TNSR_MAX_BYTES = 16 + 8 * max(CAPACITY[r] ** r for r in CAPACITY)  # 524,304: order 4 at dim 16
TNSC_MAX_BYTES = 2**28  # above demo-episode's largest dump, 222,385,170 bytes
TNSC_MAX_RANK = 8  # both bounds hold for the writer and the reader

_U32 = struct.Struct("<I")


def _read_checked(path, magic: bytes, header: int, limit: int, too_long: str = "") -> bytes:
    """At most ``limit + 1`` of the file's bytes, read once its header (the only bytes buffered)
    checks out.  A pipe or a device reports size 0 and is read up to the bound.  With ``too_long``,
    a file above ``limit`` ends in ``FileFormatError(too_long, limit)``, a regular one unread."""
    with open(path, "rb", buffering=header) as fh:
        raw, kind = fh.peek(header)[:header], magic.decode()
        if len(raw) < header:
            raise FileFormatError(f"truncated {kind} header", len(raw))
        if raw[:4] != magic:
            raise FileFormatError(f"bad magic, expected {magic!r}", 0)
        version = _U32.unpack_from(raw, 4)[0]
        if version != VERSION:
            raise FileFormatError(f"unsupported {kind} version {version}", 4)
        size = os.fstat(fh.fileno()).st_size
        raw = b"" if too_long and size > limit else fh.read(min(size or limit, limit) + 1)
    if too_long and max(size, len(raw)) > limit:
        raise FileFormatError(too_long, limit)
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
    """Serialize named float64 arrays to ``path`` in the TNSC layout.

    Each section is read and the container sized before the file is opened, so a section
    that fails, has a rank above ``TNSC_MAX_RANK`` or an extent of 2**32 or more, or a
    container above ``TNSC_MAX_BYTES`` (``CapacityError``) leaves no file.
    """
    parts, size = [TNSC_MAGIC + _U32.pack(VERSION) + _U32.pack(len(sections))], 12
    for name, arr in sections.items():
        arr = np.ascontiguousarray(read_array(arr, f"section {name!r}"), dtype="<f8")  # >= 1-D
        if arr.ndim > TNSC_MAX_RANK or max(arr.shape) >= 2**32:
            raise InvalidArgumentError(f"section {name!r} must have rank <= {TNSC_MAX_RANK} "
                                       f"and extents below 2**32, got shape {arr.shape}")
        encoded = name.encode("utf-8")
        size += 8 + len(encoded) + 4 * arr.ndim + arr.nbytes
        if size > TNSC_MAX_BYTES:
            raise CapacityError(f"container exceeds TNSC_MAX_BYTES = {TNSC_MAX_BYTES} at {name!r}")
        shape = b"".join(_U32.pack(extent) for extent in arr.shape)
        parts += [_U32.pack(len(encoded)) + encoded + _U32.pack(arr.ndim) + shape, memoryview(arr)]
    with open(path, "wb") as fh:
        fh.writelines(parts)


def read_container(path) -> dict[str, np.ndarray]:
    """Parse a TNSC container of at most ``TNSC_MAX_BYTES``, preserving section order."""
    too_long = f"container exceeds TNSC_MAX_BYTES = {TNSC_MAX_BYTES}"
    raw = _read_checked(path, TNSC_MAGIC, 12, TNSC_MAX_BYTES, too_long)
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
        if ndim < 1 or ndim > TNSC_MAX_RANK:
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
