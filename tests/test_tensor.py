import os
import struct
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from kvgeom import (
    KeyTensor,
    ScoreTensor,
    ScorerSpec,
    ValidationError,
    attention,
    compress_cache,
    compute_scores,
    load_kvt,
    manifold_score,
    retention_from_scores,
    save_kvt,
)
from kvgeom import tensor
from kvgeom.scorers import METHOD_TABLE
from kvgeom.tensor import all_finite, freeze

from conftest import kt, random_tensor, rng


class TestKeyTensor:
    def test_shape_properties(self, tiny_tensor):
        assert (tiny_tensor.batch, tiny_tensor.heads) == (2, 3)
        assert (tiny_tensor.seq_len, tiny_tensor.head_dim) == (10, 4)

    def test_rejects_nan(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            KeyTensor(bad)

    def test_rejects_inf(self):
        bad = np.full((1, 1, 2, 2), np.inf)
        with pytest.raises(ValidationError):
            KeyTensor(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError, match="4 axes"):
            KeyTensor(np.zeros((2, 2)))

    def test_rejects_empty_axis(self):
        with pytest.raises(ValidationError, match=">= 1"):
            KeyTensor(np.zeros((1, 1, 0, 4)))

    def test_immutable(self, tiny_tensor):
        with pytest.raises(ValueError):
            tiny_tensor.data[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_public_use_cannot_make_non_finite(self, bad):
        # save_kvt relies on this: it writes a tensor's payload unchecked.
        arr = np.ones((1, 1, 2, 2), dtype=np.float32)
        arr[0, 0, 1, 1] = bad
        with pytest.raises(ValidationError, match="NaN or Inf"):
            KeyTensor(arr)
        with pytest.raises(ValidationError, match="NaN or Inf"):
            KeyTensor(freeze(arr))
        t = KeyTensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="read-only"):
            t.data[0, 0, 1, 1] = bad
        with pytest.raises(ValueError, match="read-only"):
            np.copyto(t.data, bad)
        with pytest.raises(AttributeError):
            t.data = arr

    def test_does_not_freeze_caller_array(self):
        src = np.zeros((1, 1, 2, 2), dtype=np.float32)
        KeyTensor(src)
        src[0, 0, 0, 0] = 5.0  # caller's array stays writable

    def test_adopts_frozen_fresh_array_without_copy(self):
        fresh = np.zeros((1, 1, 2, 2), dtype=np.float32)
        assert KeyTensor(freeze(fresh)).data is fresh
        scores = np.zeros((1, 1, 2))
        assert ScoreTensor(freeze(scores)).data is scores

    def test_copies_read_only_view(self):
        base = np.zeros((1, 1, 2, 2), dtype=np.float32)
        view = base[:]
        view.setflags(write=False)  # read-only, but `base` can still write it
        t = KeyTensor(view)
        assert not np.shares_memory(t.data, base)
        assert base.flags.writeable

    def test_equality(self):
        a = kt([[1.0, 2.0], [3.0, 4.0]])
        b = kt([[1.0, 2.0], [3.0, 4.0]])
        c = kt([[1.0, 2.0], [3.0, 5.0]])
        assert a == b
        assert a != c


class TestKvtFormat:
    def test_round_trip_bit_exact(self, tmp_path, tiny_tensor):
        path = tmp_path / "t.kvt"
        save_kvt(tiny_tensor, path)
        assert load_kvt(path) == tiny_tensor

    def test_save_deterministic_bytes(self, tmp_path, tiny_tensor):
        p1, p2 = tmp_path / "a.kvt", tmp_path / "b.kvt"
        save_kvt(tiny_tensor, p1)
        save_kvt(tiny_tensor, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        t = random_tensor(0, batch=2, heads=3, seq=5, dim=7)
        path = tmp_path / "t.kvt"
        save_kvt(t, path)
        blob = path.read_bytes()
        assert blob[:4] == b"KVT1"
        assert struct.unpack_from("<IIII", blob, 4) == (2, 3, 5, 7)
        assert len(blob) == 20 + 2 * 3 * 5 * 7 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kvt"
        path.write_bytes(b"XXXX" + struct.pack("<IIII", 1, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValidationError, match="magic"):
            load_kvt(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.kvt"
        path.write_bytes(b"KVT1" + struct.pack("<IIII", 1, 1, 2, 2) + b"\x00" * 12)
        with pytest.raises(ValidationError, match="length"):
            load_kvt(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.kvt"
        path.write_bytes(b"KVT1" + struct.pack("<IIII", 1, 1, 1, 1) + b"\x00" * 8)
        with pytest.raises(ValidationError, match="length"):
            load_kvt(path)

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "zero.kvt"
        path.write_bytes(b"KVT1" + struct.pack("<IIII", 1, 0, 2, 2))
        with pytest.raises(ValidationError, match="dims"):
            load_kvt(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.kvt"
        payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
        path.write_bytes(b"KVT1" + struct.pack("<IIII", 1, 1, 2, 1) + payload)
        with pytest.raises(ValidationError, match="NaN"):
            load_kvt(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_kvt(tmp_path / "nope.kvt")

    def test_unwritable_path_is_oserror(self, tmp_path, tiny_tensor):
        with pytest.raises(OSError):
            save_kvt(tiny_tensor, tmp_path)  # directory, not a file


class TestScoreTensor:
    def test_shape_and_match(self):
        s = ScoreTensor(np.zeros((2, 3, 10)))
        assert (s.batch, s.heads, s.seq_len) == (2, 3, 10)

    def test_rejects_nan(self):
        bad = np.zeros((1, 1, 3))
        bad[0, 0, 1] = np.nan
        with pytest.raises(ValidationError):
            ScoreTensor(bad)

    def test_to_key_tensor_round_trip(self, tmp_path):
        s = ScoreTensor(rng(3).normal(size=(2, 2, 5)))
        t = s.to_key_tensor()
        assert t.shape == (2, 2, 5, 1)
        path = tmp_path / "s.kvt"
        save_kvt(t, path)
        back = load_kvt(path)
        assert np.array_equal(back.data[..., 0], s.data.astype(np.float32))


class TestAllFinite:
    @pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_equals_whole_array_scan(self, size):
        # one bad value at each chunk edge, in float32 and float64, contiguous and strided
        for dtype in (np.float32, np.float64):
            arr = np.arange(size, dtype=dtype)
            assert all_finite(arr) and all_finite(arr[::-3])
            for pos in {0, 2**16 - 1, 2**16, size - 1} & set(range(size)):
                for bad in (np.nan, np.inf, -np.inf):
                    arr[pos] = bad
                    assert not all_finite(arr)
                    assert all_finite(arr[::-3]) == bool(np.isfinite(arr[::-3]).all())
                    assert not all_finite(arr.reshape(1, -1).T)
                    arr[pos] = 0.0

    def test_allocates_no_array_the_size_of_the_input(self):
        arr = np.ones(2**24, dtype=np.float32)  # 64 MiB
        arr[-1] = np.nan
        tracemalloc.start()
        try:
            finite = all_finite(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not finite
        assert peak < 2**20


# ------------------------------------------------------------ slab workers

# six (batch, head) slabs, three per worker; 700 rows is not a multiple of
# the scorers' row blocks
RAGGED = (2, 3, 700, 16)
PARAMETERS = {"windowed": 64, "hybrid": 0.3, "obs_attention": 4}
# per-head budgets of different sizes, so the compressed cache is padded
BUDGETS = np.array([[700, 350, 1], [2, 699, 100]])


def _spec(method):
    return ScorerSpec(method, PARAMETERS.get(method))


def _slab_outputs(path, queries, values):
    """Every slab loop's output on the tensor at `path`, as bytes."""
    keys = load_kvt(path)
    out = {"load": keys.data.tobytes()}
    for method in METHOD_TABLE:
        out[method] = compute_scores(_spec(method), keys, queries).data.tobytes()
    full = attention(queries, keys, values)
    out["attention"] = full.weights.tobytes() + full.values.tobytes()
    retained = retention_from_scores(manifold_score(keys), BUDGETS[: keys.batch, : keys.heads])
    cache = compress_cache(keys, values, retained)
    out["compress"] = cache.keys.data.tobytes() + cache.values.data.tobytes() + cache.mask.tobytes()
    return out


def _on(cpus, fn, *args):
    """fn(*args) with `cpus` usable CPUs, and whether it started a worker thread."""
    with mock.patch.object(tensor, "_usable_cpus", return_value=cpus), mock.patch.object(
        tensor, "Thread", wraps=tensor.Thread
    ) as thread:
        return fn(*args), thread.called


class TestSlabWorkers:
    @staticmethod
    def _inputs(tmp_path, shape):
        g = rng(sum(shape))
        path = tmp_path / "keys.kvt"
        save_kvt(KeyTensor(g.normal(size=shape) * 3.0), path)
        queries = KeyTensor(g.normal(size=shape[:2] + (9, shape[3])))
        return path, queries, KeyTensor(g.normal(size=shape))

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path):
        inputs = self._inputs(tmp_path, RAGGED)
        one, pooled_one = _on(1, _slab_outputs, *inputs)
        two, pooled_two = _on(2, _slab_outputs, *inputs)
        assert not pooled_one and pooled_two
        assert two == one

    def test_slab_i_goes_to_worker_i_mod_2_with_its_own_buffer(self):
        owners, makers = {}, []

        def scratch():  # each worker's buffer, made on the calling thread
            makers.append(threading.current_thread())
            return object()

        _on(8, tensor._each_slab, (2, 3), lambda b, h, buf: owners.update({(b, h): buf}), scratch)
        assert makers == [threading.main_thread()] * 2
        first, second = owners[0, 0], owners[0, 1]
        assert first is not second
        assert [owners[i] for i in np.ndindex(2, 3)] == [first, second] * 3

    def test_one_slab_starts_no_thread(self, tmp_path):
        inputs = self._inputs(tmp_path, (1, 1, 700, 16))
        no_pool = mock.Mock(side_effect=AssertionError("a one-slab loop started a thread"))
        with mock.patch.object(tensor, "Thread", no_pool):
            _on(8, _slab_outputs, *inputs)

    def test_off_the_main_thread_starts_no_thread(self, tmp_path):
        inputs = self._inputs(tmp_path, RAGGED)
        expected, _ = _on(1, _slab_outputs, *inputs)
        result = []  # a sweep job's outputs, and whether it started a pool
        job = threading.Thread(target=lambda: result.append(_on(8, _slab_outputs, *inputs)))
        job.start()
        job.join(timeout=60)
        assert not job.is_alive()
        assert result == [(expected, False)]

    def test_lowest_failing_index_raises(self):
        # index 2 (worker 0) fails first; index 1 (worker 1) fails after it
        failed_two = threading.Event()

        def work(i, buf):
            if i == 2:
                failed_two.set()
                raise ValueError("index 2")
            if i == 1:
                failed_two.wait(timeout=10)
                raise KeyError("index 1")

        with pytest.raises(KeyError, match="index 1"):
            _on(2, tensor._each_slab, (4,), work)

    def test_short_read_in_the_last_slab(self, tmp_path):
        path, _, _ = self._inputs(tmp_path, RAGGED)
        slab = RAGGED[2] * RAGGED[3] * 4
        end = 20 + 5 * slab + 100  # the file is cut off here, in the last slab, once sized
        preadv = os.preadv

        def shrunk(fd, buffers, offset):
            return preadv(fd, [memoryview(buffers[0])[: max(0, end - offset)]], offset)

        with mock.patch.object(tensor.os, "preadv", shrunk):
            with pytest.raises(ValidationError) as err:
                _on(2, load_kvt, path)
        assert str(err.value) == (
            f"payload length mismatch: expected {6 * slab} bytes, got {end - 20}"
        )

    def test_nan_in_the_last_slab(self, tmp_path):
        data = rng(1).normal(size=RAGGED).astype("<f4")
        data[-1, -1, -1, -1] = np.nan
        path = tmp_path / "nan.kvt"
        path.write_bytes(struct.pack("<4sIIII", b"KVT1", *RAGGED) + data.tobytes())
        with pytest.raises(ValidationError, match=r"^tensor contains NaN or Inf$"):
            _on(2, load_kvt, path)
