"""Block record files: how inputs travel from the benchmark to the
program process.

A record is ``<mode:u8><length:u16><block bytes>``; mode indexes
``("unrolled", "loop")``.  This module imports nothing from the program,
so reading inputs adds no imports to the program's set-up.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterator, List, Sequence, Tuple

Item = Tuple[bytes, int]  # (block bytes, index into MODES)

MODES = ("unrolled", "loop")

_HEAD = struct.Struct("<BH")


def write_records(path: str, items: Sequence[Item]) -> None:
    with open(path, "wb") as handle:
        for raw, mode in items:
            handle.write(_HEAD.pack(mode, len(raw)))
            handle.write(raw)


def iter_records(path: str, chunk: int = 1 << 20) -> Iterator[Item]:
    """The records of *path*, read a chunk at a time (bounded memory)."""
    buf = b""
    with open(path, "rb") as handle:
        while True:
            data = handle.read(chunk)
            if not data:
                break
            buf += data
            offset = 0
            end = len(buf)
            while offset + _HEAD.size <= end:
                mode, length = _HEAD.unpack_from(buf, offset)
                stop = offset + _HEAD.size + length
                if stop > end:
                    break
                yield buf[offset + _HEAD.size:stop], mode
                offset = stop
            buf = buf[offset:]
    if buf:
        raise ValueError(f"{path}: truncated record")


def read_records(path: str) -> List[Item]:
    return list(iter_records(path))


def digest(paths: Sequence[str]) -> str:
    """sha256 over the input files of one run, in order."""
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()
