"""Named weight container and its binary file format.

File layout (little-endian throughout):

    magic   4 bytes  "FCNW"
    version 1 byte   0x01
    records, repeated to EOF:
        u16   name length
        ...   UTF-8 name
        u8    kind: 0 = convolution kernel, 1 = batch normalization
        u8    rank
        u32   dims[rank]
        f32   data[prod(dims)]

Convolution records have rank 4 with dims (kh, kw, cin, cout). A kernel
bias, when present, is written as a companion rank-1 kind-0 record named
"<name>.bias" immediately after its kernel and folded back into it on
load. Batch-norm records have rank 2 with dims (5, channels): the rows are
mean, variance, gamma, beta, and the eps value replicated across the row.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .ops import BRANCHES
from .tensor import BatchNormParams, ConvKernel

MAGIC = b"FCNW"
VERSION = 1
_KIND_CONV = 0
_KIND_BATCHNORM = 1


class WeightFormatError(ValueError):
    """Raised when a weight file is malformed (bad magic, truncation, duplicates)."""


@dataclass
class WeightContainer:
    """Insertion-ordered map of layer name to ConvKernel or BatchNormParams."""

    entries: dict[str, ConvKernel | BatchNormParams] = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return list(self.entries)


def _record(name: str, kind: int, array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The header bytes of one record, and its array."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise WeightFormatError(f"name too long: {name!r}")
    header = struct.pack(f"<H{len(encoded)}sBB{array.ndim}I",
                         len(encoded), encoded, kind, array.ndim, *array.shape)
    return header, array


def save_weights(container: WeightContainer, path) -> None:
    """Serialize a float32 container; loading the result reproduces it exactly.

    Every entry is checked before the file is opened; each float32 array is
    then written from its own buffer, so saving makes no copy of the weights.
    """
    records = []
    for name, entry in container.entries.items():
        if isinstance(entry, ConvKernel):
            records.append(_record(name, _KIND_CONV, entry.weights))
            if entry.bias is not None:
                records.append(_record(f"{name}.bias", _KIND_CONV, entry.bias))
        elif isinstance(entry, BatchNormParams):
            rows = (entry.mean, entry.variance, entry.gamma, entry.beta)
            block = np.array([*rows, np.full(entry.channels, entry.eps)], dtype=np.float32)
            records.append(_record(name, _KIND_BATCHNORM, block))
        else:
            raise WeightFormatError(f"entry {name!r} has unsupported type {type(entry)}")
        own = entry.weights if isinstance(entry, ConvKernel) else entry.mean
        if own.dtype != np.float32:
            raise WeightFormatError(f"entry {name!r} is {own.dtype}; the format stores float32")
    with open(path, "wb") as f:
        f.write(MAGIC + bytes([VERSION]))
        for header, array in records:
            f.write(header)
            f.write(np.ascontiguousarray(array, dtype="<f4").data)


class _Reader:
    """Reads an open file, checking each read against the file's size first."""

    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.pos = 0

    def _claim(self, count: int) -> None:
        if self.pos + count > self.size:
            raise WeightFormatError(
                f"truncated file: wanted {count} bytes at offset {self.pos}, "
                f"only {self.size - self.pos} remain"
            )
        self.pos += count

    def take(self, count: int) -> bytes:
        self._claim(count)
        return self.f.read(count)

    def floats(self, dims: tuple[int, ...]) -> np.ndarray:
        """The next prod(dims) little-endian float32 values, read straight into their array."""
        self._claim(4 * math.prod(dims))
        data = np.empty(dims, dtype="<f4")
        self.f.readinto(data)
        return data.astype(np.float32, copy=False)  # native byte order


def _read_record(r: _Reader, entries: dict[str, ConvKernel | BatchNormParams]) -> None:
    """Parse the record at the reader's position into `entries`."""
    (name_len,) = struct.unpack("<H", r.take(2))
    name = r.take(name_len).decode("utf-8")
    kind, rank = struct.unpack("<BB", r.take(2))
    dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
    data = r.floats(dims)

    if kind == _KIND_CONV and rank == 1 and name.endswith(".bias"):
        base = name[: -len(".bias")]
        kernel = entries.get(base)
        if not isinstance(kernel, ConvKernel):
            raise WeightFormatError(f"bias record {name!r} has no preceding kernel")
        if kernel.bias is not None:
            raise WeightFormatError(f"duplicate bias record {name!r}")
        entries[base] = ConvKernel(kernel.weights, data)
        return
    if name in entries:
        raise WeightFormatError(f"duplicate entry name {name!r}")
    if kind == _KIND_CONV:
        if rank != 4:
            raise WeightFormatError(f"kernel record {name!r} must be rank 4, got {rank}")
        entries[name] = ConvKernel(data)
    elif kind == _KIND_BATCHNORM:
        if rank != 2 or dims[0] != 5 or dims[1] < 1:
            raise WeightFormatError(
                f"batch-norm record {name!r} must have dims (5, c >= 1), got {dims}"
            )
        eps = data[4].view(np.uint32)  # compared bit for bit, so a NaN replica differs too
        i = int(np.argmax(eps != eps[0]))  # the first replica that differs, or 0
        if i:
            raise WeightFormatError(f"batch-norm record {name!r}: eps row holds "
                                    f"{data[4, i]} at channel {i}, not {data[4, 0]}")
        entries[name] = BatchNormParams(*data[:4], eps=float(data[4, 0]))
    else:
        raise WeightFormatError(f"unknown record kind {kind} for {name!r}")


def load_weights(path) -> WeightContainer:
    """Parse a weight file; a malformed one raises WeightFormatError naming the offset."""
    with open(path, "rb") as f:
        r = _Reader(f)
        if r.take(4) != MAGIC:
            raise WeightFormatError(f"bad magic in {path}: not a weight container")
        version = r.take(1)[0]
        if version != VERSION:
            raise WeightFormatError(f"unsupported container version {version}")
        entries: dict[str, ConvKernel | BatchNormParams] = {}
        while r.pos < r.size:
            start = r.pos
            try:
                _read_record(r, entries)
            except ValueError as err:  # also UnicodeDecodeError and the tensor types' checks
                raise WeightFormatError(f"record at byte offset {start}: {err}") from err
    return WeightContainer(entries)


def split_container(container: WeightContainer) -> WeightContainer:
    """Convert a naive up-convolution container to its fast-path equivalent.

    Every "<block>.up5x5" kernel K is split into the four parity
    sub-kernels "<block>.k33" / ".k32" / ".k23" / ".k22", the views (not
    copies) K[r::2, c::2] for each ops.BRANCHES entry (r, c); all other
    entries pass through unchanged. The 25 taps per (cin, cout) pair are
    regrouped, never altered, and the kernel's bias, if any, goes to every
    sub-kernel, since each output pixel comes from exactly one branch.
    Raises if the container holds no naive up-convolution kernels (already
    converted, or not an up-convolution model at all).
    """
    out: dict[str, ConvKernel | BatchNormParams] = {}
    converted = 0
    for name, entry in container.entries.items():
        if name.endswith(".up5x5") and isinstance(entry, ConvKernel):
            if (entry.kh, entry.kw) != (5, 5):
                raise WeightFormatError(
                    f"entry {name!r} is {entry.kh}x{entry.kw}, expected 5x5"
                )
            base = name[: -len(".up5x5")]
            if not isinstance(container.entries.get(f"{base}.bn"), BatchNormParams):
                raise WeightFormatError(f"no batch-norm entry found for {name!r}")
            for key, (r, c, _, _) in BRANCHES.items():
                out[f"{base}.{key}"] = ConvKernel(entry.weights[r::2, c::2], entry.bias)
            converted += 1
        else:
            out[name] = entry
    if converted == 0:
        raise WeightFormatError(
            "no naive up-convolution kernels found (already converted?)"
        )
    return WeightContainer(out)
