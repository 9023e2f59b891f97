"""The numpy split-scan kernel against hand cases and direct enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positivity import _kernels as kernels


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


class TestScanSortedFeature:
    def test_perfect_split(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1], dtype=np.int64)
        score, thr, found = kernels.scan_sorted_feature(values, labels)
        assert found
        assert score == 0.0
        assert thr == 2.5

    def test_constant_values_no_candidate(self):
        values = np.array([2.0, 2.0, 2.0])
        labels = np.array([0, 1, 0], dtype=np.int64)
        _, _, found = kernels.scan_sorted_feature(values, labels)
        assert not found

    def test_tie_keeps_lowest_threshold(self):
        # labels symmetric around the middle: cuts at 1.5 and 2.5 tie.
        values = np.array([1.0, 2.0, 3.0])
        labels = np.array([1, 0, 1], dtype=np.int64)
        _, thr, found = kernels.scan_sorted_feature(values, labels)
        assert found
        assert thr == 1.5


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        # Multiples of 1/8 keep midpoints exactly representable, so the
        # comparison-based oracle splits exactly where the scan does.
        st.tuples(st.integers(-800, 800), st.booleans()),
        min_size=2,
        max_size=40,
    )
)
def test_scan_matches_direct_enumeration(data):
    values = np.sort([v * 0.125 for v, _ in data])
    labels = np.array([int(b) for _, b in data], dtype=np.int64)
    score, thr, found = kernels.scan_sorted_feature(values, labels)

    def gini_of(mask):
        n = mask.sum()
        if n == 0:
            return 0.0
        p = labels[mask].sum() / n
        return 1.0 - (p * p + (1.0 - p) * (1.0 - p))

    best = None
    n = len(values)
    for i in range(n - 1):
        if values[i] == values[i + 1]:
            continue
        cut = 0.5 * (values[i] + values[i + 1])
        left = values <= cut
        w = (
            left.sum() * gini_of(left) + (~left).sum() * gini_of(~left)
        ) / n
        if best is None or w < best - 1e-12:
            best = w
    if best is None:
        assert not found
    else:
        assert found
        assert score == pytest.approx(best, abs=1e-9)
