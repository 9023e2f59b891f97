"""The kernel backend name that the benchmark records, and hand cases of
the Gini split scan (which runs inside :func:`positivity.tree.best_split`)."""

import numpy as np

from positivity import _kernels as kernels
from positivity.tree import best_split


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


class TestScanSortedFeature:
    def test_perfect_split(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1], dtype=np.int64)
        result = best_split(values[:, None], labels)
        assert result is not None
        _, thr, score = result
        assert score == 0.0
        assert thr == 2.5

    def test_constant_values_no_candidate(self):
        values = np.array([2.0, 2.0, 2.0])
        labels = np.array([0, 1, 0], dtype=np.int64)
        assert best_split(values[:, None], labels) is None
