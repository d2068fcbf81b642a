"""Property-based checks for the small algebraic contracts and the bulk I/O paths."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kvgeom import (
    KeyTensor,
    Report,
    ScoreTensor,
    load_kvt,
    manifold_score,
    save_kvt,
    slice_seq,
    topk_select,
    windowed_manifold_score,
)
from kvgeom.report import TOOL_VERSION, Columns, _format_cell
from kvgeom.scorers import _centered_l2

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def tensors(max_seq=12, max_dim=6):
    return st.tuples(
        st.integers(1, 2), st.integers(1, 2), st.integers(1, max_seq), st.integers(1, max_dim)
    ).flatmap(lambda s: arrays(np.float32, s, elements=finite_f32))


@settings(max_examples=50, deadline=None)
@given(tensors())
def test_kvt_round_trip_identity(tmp_path_factory, data):
    t = KeyTensor(data)
    path = tmp_path_factory.mktemp("kvt") / "t.kvt"
    save_kvt(t, path)
    assert load_kvt(path) == t


@settings(max_examples=50, deadline=None)
@given(tensors(), st.data())
def test_slice_matches_index_arithmetic(data, draw):
    t = KeyTensor(data)
    start = draw.draw(st.integers(0, t.seq_len - 1))
    end = draw.draw(st.integers(start + 1, t.seq_len))
    s = slice_seq(t, start, end)
    assert np.array_equal(s.data, t.data[:, :, start:end, :])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=40).map(
        lambda xs: np.asarray(xs, dtype=np.float64)
    ),
    st.data(),
)
def test_topk_matches_sort_oracle(scores, draw):
    m = draw.draw(st.integers(1, len(scores)))
    oracle = sorted(sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:m])
    assert np.array_equal(topk_select(scores, m), oracle)


@settings(max_examples=30, deadline=None)
@given(tensors())
def test_manifold_translation_invariance(data):
    t = KeyTensor(data)
    shifted = KeyTensor(data + np.float32(17.0))
    a = manifold_score(t).data
    b = manifold_score(shifted).data
    assert np.allclose(a, b, rtol=1e-4, atol=1e-3)


# ------------------------------------------------ column-wise CSV emission

# -0.0, subnormals, values near the float64 limit and integral values
SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1.7e308, -1.7e308, 3.0, -42.0, 1e16, 2.0**53]
)


def columns(n: int):
    """One report column of n cells: a numpy array of ints, floats or bools, or a mixed list."""
    def cells(elements):
        return st.lists(elements, min_size=n, max_size=n)

    return st.one_of(
        cells(st.integers(-(2**63), 2**63 - 1)).map(lambda xs: np.array(xs, dtype=np.int64)),
        cells(st.integers(0, 2**64 - 1)).map(lambda xs: np.array(xs, dtype=np.uint64)),
        cells(st.floats() | SPECIAL_FLOATS).map(lambda xs: np.array(xs, dtype=np.float64)),
        cells(st.floats(width=32)).map(lambda xs: np.array(xs, dtype=np.float32)),
        cells(st.booleans()).map(lambda xs: np.array(xs, dtype=bool)),
        cells(st.integers() | st.floats() | SPECIAL_FLOATS | st.booleans() | st.text(max_size=5)),
    )


def _reference_csv(report: Report, rows: list) -> str:
    # the per-cell emission: one dict per row, _format_cell on every cell
    lines = [f"# tool_version={TOOL_VERSION}"]
    for key in sorted(report.metadata):
        lines.append(f"# {key}={_format_cell(report.metadata[key])}")
    lines.append(",".join(report.columns))
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in report.columns))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.lists(columns(n), min_size=1, max_size=4)))
def test_column_csv_equals_per_cell_reference(cols):
    data = {f"c{i}": column for i, column in enumerate(cols)}
    n = len(cols[0])
    rows = [{name: column[i] for name, column in data.items()} for i in range(n)]
    names = [*data, "absent"]  # a column no row has reads as empty cells
    reference = _reference_csv(Report(name="r", columns=names), rows)
    assert Report(name="r", columns=names, rows=Columns(**data)).to_csv_text() == reference
    assert Report(name="r", columns=names, rows=rows).to_csv_text() == reference


# ------------------------------------------------ slab-wise centroid scorers

def batched_tensors():
    return st.tuples(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 40), st.integers(1, 9)
    ).flatmap(lambda s: arrays(np.float32, s, elements=finite_f32))


def _whole_tensor_windowed(data: np.ndarray, window: int) -> np.ndarray:
    block = data.astype(np.float64)
    out = np.empty(block.shape[:3])
    for start in range(0, block.shape[2], window):
        out[:, :, start:start + window] = _centered_l2(block[:, :, start:start + window])
    return out


@settings(max_examples=100, deadline=None)
@given(batched_tensors(), st.data())
def test_slab_scorers_equal_whole_tensor_reference(data, draw):
    t = KeyTensor(data)
    assert np.array_equal(manifold_score(t).data, _centered_l2(data.astype(np.float64)))
    window = draw.draw(st.integers(1, t.seq_len + 2))
    windowed = windowed_manifold_score(t, window).data
    assert np.array_equal(windowed, _whole_tensor_windowed(data, window))
    # C04: a window covering the sequence is global scoring, bit for bit
    wide = draw.draw(st.integers(t.seq_len, t.seq_len + 5))
    assert np.array_equal(windowed_manifold_score(t, wide).data, manifold_score(t).data)


# ------------------------------------------------ tensors never take over a caller's array

@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.float32, np.float64, np.int32]),
    st.sampled_from(["C", "F"]),
    st.booleans(),
    st.data(),
)
def test_tensors_never_freeze_or_alias_caller_array(dtype, order, sliced, draw):
    for cls, ndim in ((KeyTensor, 4), (ScoreTensor, 3)):
        shape = draw.draw(st.tuples(*[st.integers(1, 4)] * ndim))
        arr = np.ones(shape, dtype=dtype, order=order)
        if sliced:
            arr = arr[..., :1]
        t = cls(arr)
        assert arr.flags.writeable and not t.data.flags.writeable
        assert not np.shares_memory(arr, t.data)
        arr[...] = 7
        assert (t.data == 1).all()
