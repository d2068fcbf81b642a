"""Tensor containers and the KVT1 binary interchange format.

A KVT1 file is: 4 magic bytes ``KVT1``, four little-endian uint32 header
fields (batch, heads, seq_len, head_dim), then batch*heads*seq_len*head_dim
IEEE-754 binary32 little-endian payload values in row-major
(batch, head, seq, dim) order. No padding, no footer. The file layout is the
interchange contract; in-memory arrays are native-endian.
"""

from __future__ import annotations

import ctypes
import os
import struct
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from threading import Thread, current_thread, main_thread

import numpy as np

from .errors import ValidationError

MAGIC = b"KVT1"
_HEADER = struct.Struct("<4sIIII")
# Slabs in flight at once, one per worker thread, each with its own scratch.
MAX_WORKERS = 2
# Rows the geometric scorers and the cluster generator convert to float64 at a
# time: 256 rows of 128 float64 values are 256 KiB, which stays in L2 cache.
ROW_CHUNK = 256


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

    Two reductions and no buffer: min and max carry any NaN through (without
    a warning), and an infinity is one of the two extremes. An empty array,
    which has no min, is finite.
    """
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    here = Path(np.__file__).parent
    for path in [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            get, put = (getattr(lib, f"{prefix}_{op}_num_threads64_", None) for op in ("get", "set"))
            if put:
                get.restype, put.restype, put.argtypes = ctypes.c_int, None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS, if any, at one thread (process-wide) and give
    the caller's count back after the block: kvgeom's workers are its only threads."""
    get_threads, set_threads = _blas_threads() or (lambda: 0, lambda n: None)
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _each_slab(shape: tuple, work, scratch=lambda: None, workers: int = MAX_WORKERS) -> None:
    """Call `work(*index, buf)` for every index of `shape`, such as (batch, heads).

    Index i (C order) goes to worker i mod w, w = min(`workers`, usable CPUs,
    indices), which owns a `buf` from `scratch()` made on the calling thread
    (whose later allocations then reuse its memory). Runs inline when w is 1
    or off the main thread (a sweep job, a slab of another loop), else on w
    threads while the caller waits; raises the lowest failing index's error.
    The run holds `one_blas_thread` on the main thread; off it, the caller's.
    Each slab runs the same operations on any worker, so results do not depend on w.
    """
    slabs = list(np.ndindex(shape))
    on_main = current_thread() is main_thread()
    workers = max(1, min(workers, _usable_cpus(), len(slabs))) if on_main else 1
    bufs = [scratch() for _ in range(workers)]
    failed = []  # (index, error) of each worker's first failure

    def run(w: int) -> None:
        try:
            for i in range(w, len(slabs), workers):
                work(*slabs[i], bufs[w])
        except BaseException as err:
            failed.append((i, err))

    threads = [Thread(target=run, args=(w,)) for w in range(workers)] if workers > 1 else []
    with one_blas_thread() if on_main else nullcontext():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not threads:
            run(0)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


_AXES = ("batch", "heads", "seq", "dim")


class _Frame:
    """Base of the arrays framed by (batch, heads, seq) axes: keys, scores and
    keep masks, which every scorer ranks one (batch, head) row at a time.

    A subclass is a frozen dataclass with one array field, named by `_field`;
    its own `__post_init__` calls `_adopt` with its dtype and rank, then checks
    the array's contents. KeyTensor and ScoreTensor compare by value.
    """

    _field = "data"

    def _adopt(self, dtype, rank: int) -> np.ndarray:
        """Store the field as a read-only C-ordered array of `dtype` with `rank`
        non-empty axes, and return it.

        An array handed over with `freeze` (a plain ndarray that owns its
        memory, is read-only, C-ordered and of `dtype`) is kept as it is.
        Anything else is copied, so a caller's writeable array is never frozen
        or aliased.
        """
        arr = getattr(self, self._field)
        if not (type(arr) is np.ndarray and arr.dtype == dtype and arr.flags.owndata
                and not arr.flags.writeable and arr.flags.c_contiguous):
            arr = freeze(np.array(arr, dtype=dtype, order="C"))
        if arr.ndim != rank:
            axes = ", ".join(_AXES[:rank])
            raise ValidationError(f"expected {rank} axes ({axes}), got {arr.ndim}")
        if min(arr.shape) < 1:
            raise ValidationError(f"all axes must be >= 1, got shape {arr.shape}")
        object.__setattr__(self, self._field, arr)
        return arr

    @property
    def shape(self) -> tuple:
        return getattr(self, self._field).shape

    @property
    def batch(self) -> int:
        return self.shape[0]

    @property
    def heads(self) -> int:
        return self.shape[1]

    @property
    def seq_len(self) -> int:
        return self.shape[2]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)


def _check_frames(k: KeyTensor, v: KeyTensor | None = None, q: KeyTensor | None = None,
                  retained: _Frame | None = None) -> None:
    """Raise ValidationError unless values `v` and the keep mask `retained`
    share the keys' (batch, heads, seq) frame, and queries `q` their (batch,
    heads) and head_dim; checked in the order v, q, retained."""
    if v is not None and v.shape[:3] != k.shape[:3]:
        raise ValidationError(f"key shape {k.shape} incompatible with value shape {v.shape}")
    if q is not None and (q.batch, q.heads, q.head_dim) != (k.batch, k.heads, k.head_dim):
        raise ValidationError(f"query shape {q.shape} incompatible with key shape {k.shape}")
    if retained is not None and retained.shape != k.shape[:3]:
        raise ValidationError("retention set frame does not match tensors")


@dataclass(frozen=True, eq=False)
class KeyTensor(_Frame):
    """Immutable (batch, heads, seq_len, head_dim) float32 tensor.

    Holds key, value or query vectors; every (batch, head) slice is an
    independent seq_len x head_dim matrix. All entries must be finite and
    every axis must have extent >= 1.
    """

    data: np.ndarray

    def __post_init__(self):
        if not all_finite(self._adopt(np.float32, 4)):
            raise ValidationError("tensor contains NaN or Inf")

    @property
    def head_dim(self) -> int:
        return self.data.shape[3]

    def matrix(self, batch: int, head: int) -> np.ndarray:
        """The (seq_len, head_dim) float64 matrix for one (batch, head) pair."""
        return self.data[batch, head].astype(np.float64)


@dataclass(frozen=True, eq=False)
class ScoreTensor(_Frame):
    """Per-token scores aligned with a KeyTensor's (batch, heads, seq) axes."""

    data: np.ndarray

    def __post_init__(self):
        if not all_finite(self._adopt(np.float64, 3)):
            raise ValidationError("score tensor contains NaN or Inf")

    def to_key_tensor(self) -> KeyTensor:
        """Repack as a KeyTensor with head_dim = 1 (for KVT1 serialization).

        Raises ValidationError when a score lies beyond the float32 range.
        """
        out = np.empty(self.data.shape + (1,), dtype=np.float32)
        # scores beyond float32 range become inf here, which KeyTensor refuses
        with np.errstate(over="ignore"):
            np.copyto(out[..., 0], self.data, casting="same_kind")
        try:
            return KeyTensor(freeze(out))
        except ValidationError:
            limit = float(np.finfo(np.float32).max)
            raise ValidationError(
                f"scores exceed the float32 range of a KVT1 tensor (|score| <= {limit:.7g})"
            ) from None


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
        view, got = memoryview(data.reshape(-1).view(np.uint8)), 0
        # until the payload is full or the file ends
        while got < expected and (n := os.preadv(fh.fileno(), [view[got:]], _HEADER.size + got)):
            got += n
        if got != expected:  # the file shrank since its size was taken
            raise ValidationError(
                f"payload length mismatch: expected {expected} bytes, got {got}"
            )
    return KeyTensor(freeze(data))

