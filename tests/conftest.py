import numpy as np
import pytest
from hypothesis import strategies as st

from kvgeom import KeyTensor, RetentionSet

# scores with many ties, signed zeros, subnormals and extremes
TIE_HEAVY = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324, 1e308, -1e308]) | (
    st.floats(-3, 3).map(lambda x: round(x, 1))
)


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def kt(matrix) -> KeyTensor:
    """Wrap an (N, d) matrix as a 1-batch 1-head KeyTensor."""
    arr = np.asarray(matrix, dtype=np.float64)
    return KeyTensor(arr[None, None, :, :])


def random_tensor(seed: int, batch=1, heads=1, seq=16, dim=8) -> KeyTensor:
    return KeyTensor(rng(seed).normal(size=(batch, heads, seq, dim)))


def retention(seq_len: int, grid) -> RetentionSet:
    """The RetentionSet keeping token indices grid[batch][head] of seq_len tokens."""
    keep = np.zeros((len(grid), len(grid[0]), seq_len), dtype=bool)
    for b, row in enumerate(grid):
        for h, idx in enumerate(row):
            keep[b, h, np.asarray(idx, dtype=np.int64)] = True
    return RetentionSet(keep)


@pytest.fixture
def tiny_tensor():
    return random_tensor(7, batch=2, heads=3, seq=10, dim=4)
