"""Binary weight container, format version 1.

Layout (all integers little-endian):

    magic   4 bytes  "DLAW"
    version u32      must be 1
    count   u32      number of entries
    entry*  count times:
        nameLen u16
        name    nameLen bytes UTF-8
        dtype   u8   0 = float32, 1 = Q16.16
        rank    u8
        dims    rank x u32
        payload prod(dims) x 4 bytes
                float32: IEEE-754 single; Q16.16: signed raw i32

Parse failures raise ParseError carrying the byte offset of the problem.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import ByteCursor
from .errors import ConfigError, ParseError
from .tensor import FLOAT32, Q16_16, FixedFormat, Tensor

MAGIC = b"DLAW"
VERSION = 1

_DTYPE_FLOAT32 = 0
_DTYPE_Q16_16 = 1


def write_entries(entries: dict[str, Tensor], path: str | Path) -> None:
    """Serialize named tensors in iteration order."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(entries))
    for name, t in entries.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        if t.dtype == FLOAT32:
            dtype_byte = _DTYPE_FLOAT32
            payload = t.data.astype("<f4").tobytes()
        elif t.dtype == Q16_16:
            dtype_byte = _DTYPE_Q16_16
            raw = np.rint(t.data * float(1 << Q16_16.frac_bits)).astype("<i4")
            payload = raw.tobytes()
        else:
            raise ConfigError(f"format v1 cannot store dtype {t.dtype} (entry {name!r})")
        blob += struct.pack("<BB", dtype_byte, len(t.shape))
        blob += struct.pack(f"<{len(t.shape)}I", *t.shape)
        blob += payload
    Path(path).write_bytes(bytes(blob))


def read_entries(path: str | Path) -> dict[str, Tensor]:
    """Parse a weight file back into named tensors, preserving entry order."""
    cur = ByteCursor(Path(path).read_bytes())
    magic_off = cur.off
    if cur.take(4, "magic") != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", offset=magic_off)
    version_off = cur.off
    version = cur.u32("version")
    if version != VERSION:
        raise ParseError(f"unsupported version {version}, expected {VERSION}", offset=version_off)
    count = cur.u32("entry count")
    entries: dict[str, Tensor] = {}
    for i in range(count):
        name_len = cur.u16(f"entry {i} name length")
        name_off = cur.off
        try:
            name = cur.take(name_len, f"entry {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"entry {i} name is not UTF-8", offset=name_off) from None
        dtype_off = cur.off
        dtype_byte = cur.u8(f"entry {i} dtype")
        rank_off = cur.off
        rank = cur.u8(f"entry {i} rank")
        if rank < 1:
            raise ParseError(f"entry {name!r} has rank 0", offset=rank_off)
        dims = tuple(cur.u32(f"entry {i} dim") for _ in range(rank))
        n_elems = 1
        for d in dims:
            if d == 0:
                raise ParseError(f"entry {name!r} has a zero dimension", offset=rank_off)
            n_elems *= d
        payload = cur.take(4 * n_elems, f"entry {i} ({name!r}) payload")
        if dtype_byte == _DTYPE_FLOAT32:
            data = np.frombuffer(payload, dtype="<f4").astype(np.float32)
            tensor = Tensor(dims, FLOAT32, data)
        elif dtype_byte == _DTYPE_Q16_16:
            raw = np.frombuffer(payload, dtype="<i4").astype(np.float64)
            data = raw / float(1 << Q16_16.frac_bits)
            tensor = Tensor(dims, Q16_16, data)
        else:
            raise ParseError(f"entry {name!r} has unknown dtype byte {dtype_byte}", offset=dtype_off)
        if name in entries:
            raise ParseError(f"duplicate entry name {name!r}", offset=dtype_off)
        entries[name] = tensor
    cur.done()
    return entries
