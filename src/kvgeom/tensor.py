"""Tensor containers and the KVT1 binary interchange format.

A KVT1 file is: 4 magic bytes ``KVT1``, four little-endian uint32 header
fields (batch, heads, seq_len, head_dim), then batch*heads*seq_len*head_dim
IEEE-754 binary32 little-endian payload values in row-major
(batch, head, seq, dim) order. No padding, no footer. The file layout is the
interchange contract; in-memory arrays are native-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MAGIC = b"KVT1"
_HEADER = struct.Struct("<4sIIII")


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it, to hand it to a tensor.

    For an array its caller has just made and keeps no other way to write,
    such as the fresh result of an allocation or a ufunc: KeyTensor and
    ScoreTensor then adopt it without a copy.
    """
    arr.setflags(write=False)
    return arr


def all_finite(arr: np.ndarray) -> bool:
    """`np.isfinite(arr).all()` without a bool array the size of `arr`.

    Scans 64 Ki elements at a time into one small reused bool buffer and
    stops at the first chunk holding NaN or Inf.
    """
    flat = np.ravel(arr, order="K")
    chunk = 2**16
    buf = np.empty(min(flat.size, chunk), dtype=bool)
    for s in range(0, flat.size, chunk):
        part = flat[s : s + chunk]
        if not np.isfinite(part, out=buf[: part.size]).all():
            return False
    return True


def _adopt(data, dtype) -> np.ndarray:
    """`data` as a read-only C-ordered array of `dtype`.

    An array handed over with `freeze` (a plain ndarray that owns its
    memory, is read-only, C-ordered and of `dtype`) is kept as it is.
    Anything else is copied, so a caller's writeable array is never frozen
    or aliased.
    """
    if (
        type(data) is np.ndarray
        and data.dtype == dtype
        and data.flags.owndata
        and not data.flags.writeable
        and data.flags.c_contiguous
    ):
        return data
    return freeze(np.array(data, dtype=dtype, order="C"))


@dataclass(frozen=True, eq=False)
class KeyTensor:
    """Immutable (batch, heads, seq_len, head_dim) float32 tensor.

    Holds key, value or query vectors; every (batch, head) slice is an
    independent seq_len x head_dim matrix. All entries must be finite and
    every axis must have extent >= 1.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _adopt(self.data, np.float32)
        if arr.ndim != 4:
            raise ValidationError(f"expected 4 axes (batch, heads, seq, dim), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ValidationError(f"all axes must be >= 1, got shape {arr.shape}")
        if not all_finite(arr):
            raise ValidationError("tensor contains NaN or Inf")
        object.__setattr__(self, "data", arr)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def heads(self) -> int:
        return self.data.shape[1]

    @property
    def seq_len(self) -> int:
        return self.data.shape[2]

    @property
    def head_dim(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def matrix(self, batch: int, head: int) -> np.ndarray:
        """The (seq_len, head_dim) float64 matrix for one (batch, head) pair."""
        return self.data[batch, head].astype(np.float64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KeyTensor):
            return NotImplemented
        return self.data.shape == other.data.shape and np.array_equal(self.data, other.data)


@dataclass(frozen=True, eq=False)
class ScoreTensor:
    """Per-token scores aligned with a KeyTensor's (batch, heads, seq) axes."""

    data: np.ndarray

    def __post_init__(self):
        arr = _adopt(self.data, np.float64)
        if arr.ndim != 3:
            raise ValidationError(f"expected 3 axes (batch, heads, seq), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ValidationError(f"all axes must be >= 1, got shape {arr.shape}")
        if not all_finite(arr):
            raise ValidationError("score tensor contains NaN or Inf")
        object.__setattr__(self, "data", arr)

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def heads(self) -> int:
        return self.data.shape[1]

    @property
    def seq_len(self) -> int:
        return self.data.shape[2]

    def to_key_tensor(self) -> KeyTensor:
        """Repack as a KeyTensor with head_dim = 1 (for KVT1 serialization).

        Raises ValidationError when a score lies beyond the float32 range.
        """
        out = np.empty(self.data.shape + (1,), dtype=np.float32)
        # scores beyond float32 range become inf here, and are refused below
        with np.errstate(over="ignore"):
            np.copyto(out[..., 0], self.data, casting="same_kind")
        if not all_finite(out):
            limit = float(np.finfo(np.float32).max)
            raise ValidationError(
                f"scores exceed the float32 range of a KVT1 tensor (|score| <= {limit:.7g})"
            )
        return KeyTensor(freeze(out))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreTensor):
            return NotImplemented
        return self.data.shape == other.data.shape and np.array_equal(self.data, other.data)


def save_kvt(t: KeyTensor, path) -> None:
    """Write a KeyTensor to `path` in KVT1 format (deterministic bytes).

    The payload is not checked again: the KeyTensor constructor admits only
    finite data, and its read-only array cannot be written afterwards.
    """
    header = _HEADER.pack(MAGIC, t.batch, t.heads, t.seq_len, t.head_dim)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(t.data, dtype="<f4"))


def load_kvt(path) -> KeyTensor:
    """Read a KVT1 file back into a KeyTensor.

    Raises ValidationError on bad magic, zero header dims, payload length
    mismatch, or non-finite payload values. The header is checked against
    the file size before anything is allocated; the payload is then read
    straight into the tensor's array, and KeyTensor checks it for finiteness.
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, 2)  # offset of the end: the file size
        fh.seek(0)
        if size < _HEADER.size:
            raise ValidationError(f"file too short for KVT1 header: {size} bytes")
        magic, batch, heads, seq_len, head_dim = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValidationError(f"bad magic {magic!r}, expected {MAGIC!r}")
        dims = (batch, heads, seq_len, head_dim)
        if min(dims) < 1:
            raise ValidationError(f"header dims must all be >= 1, got {dims}")
        expected = batch * heads * seq_len * head_dim * 4
        actual = size - _HEADER.size
        if actual != expected:
            raise ValidationError(
                f"payload length mismatch: expected {expected} bytes, got {actual}"
            )
        data = np.empty(dims, dtype="<f4")
        got = fh.readinto(data)
        if got != expected:  # the file shrank since its size was taken
            raise ValidationError(
                f"payload length mismatch: expected {expected} bytes, got {got}"
            )
    return KeyTensor(freeze(data))

