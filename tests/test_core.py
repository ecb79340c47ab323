import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umlr import (
    Dataset,
    DegeneratePartitionError,
    InvalidInputError,
    partition_by_mean,
)


class TestDataset:
    def test_valid_construction(self):
        d = Dataset([[1.0], [2.0]], [0, 1], [0.5, 1.5])
        assert d.n == 2 and d.p == 1
        assert d.t.dtype == np.int64

    def test_arrays_read_only(self):
        d = Dataset([[1.0], [2.0]], [0, 1], [0.5, 1.5])
        with pytest.raises(ValueError):
            d.X[0, 0] = 9.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [0, 1, 1], [0.5, 1.5])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Dataset([[np.nan], [2.0]], [0, 1], [0.5, 1.5])
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [0, 1], [np.inf, 1.5])

    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [0, 2], [0.5, 1.5])
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [0.0, 0.5], [0.5, 1.5])

    def test_needs_two_units(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0]], [1], [0.5])

    def test_subset_resample(self):
        d = Dataset([[1.0], [2.0], [3.0]], [0, 1, 1], [1.0, 2.0, 3.0])
        sub = d.subset(np.array([2, 0, 2]))
        assert np.allclose(sub.y, [3.0, 1.0, 3.0])
        assert sub.t.tolist() == [1, 0, 1]


class TestPartitionByMean:
    def test_basic(self):
        s = partition_by_mean([1, 2, 3])  # mean 2, ties at mean go low
        assert s.r1.tolist() == [0, 1]
        assert s.r2.tolist() == [2]

    def test_symmetric_pair(self):
        s = partition_by_mean([-1, 1])
        assert s.r1.tolist() == [0]
        assert s.r2.tolist() == [1]

    def test_constant_outcome_degenerate(self):
        with pytest.raises(DegeneratePartitionError):
            partition_by_mean([4.0, 4.0, 4.0])

    def test_constant_outcome_mean_rounded_below(self):
        # np.mean of three copies of this value rounds below it, so every
        # unit lands above the mean and the below-mean group is empty
        y = [2.2068590078355802e-38] * 3
        assert np.mean(y) < y[0]
        with pytest.raises(DegeneratePartitionError):
            partition_by_mean(y)

    def test_distinct_values_mean_rounded_to_zero(self):
        # the exact mean -2.5e-324 rounds to -0.0, which is at or above
        # both values, so the above-mean group is empty
        y = [0.0, -5e-324]
        assert np.mean(y) == 0.0
        with pytest.raises(DegeneratePartitionError, match="above-mean"):
            partition_by_mean(y)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=80))
    @example([0.0, -5e-324])
    def test_partition_invariants(self, values):
        y = np.asarray(values)
        mean = np.mean(y)
        # a constant outcome, or a mean rounded to or past every value
        if np.all(y <= mean) or np.all(y > mean):
            with pytest.raises(DegeneratePartitionError):
                partition_by_mean(y)
            return
        s = partition_by_mean(y)
        assert s.r1.size and s.r2.size
        assert np.all(y[s.r1] <= mean)
        assert np.all(y[s.r2] > mean)
        together = np.sort(np.concatenate([s.r1, s.r2]))
        assert together.tolist() == list(range(len(y)))
        for group in (s.r1, s.r2):  # increasing and read-only, as returned
            assert np.all(np.diff(group) > 0) and not group.flags.writeable
