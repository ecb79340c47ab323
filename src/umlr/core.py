"""Shared data model: datasets and the two-group outcome split.

The split divides training units into a below-or-at-mean group r1 (ties at
the mean included) and an above-mean group r2 of the outcome; the two
per-group residual-sum constraints that define unbiased (mean-anchored)
fitting are stated over exactly these index sets. The anchoring functions
of :mod:`umlr.learners` take the split of the outcome they fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePartitionError, InvalidInputError

__all__ = [
    "Dataset",
    "SplitIndices",
    "partition_by_mean",
]


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Covariates X (n x p), binary treatment t, continuous outcome y.

    Arrays are validated and made read-only at construction; instances are
    safe to share across threads.
    """

    X: np.ndarray
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = _as_float_array(self.X, "X", 2)
        y = _as_float_array(self.y, "y", 1)
        t = _as_float_array(self.t, "t", 1)
        bad = np.flatnonzero((t != 0) & (t != 1))
        if bad.size:
            raise InvalidInputError(f"t must contain only 0/1; first offending row {bad[0]}")
        n = X.shape[0]
        if n < 2:
            raise InvalidInputError(f"need n >= 2 units, got {n}")
        if X.shape[1] < 1:
            raise InvalidInputError("need p >= 1 covariates")
        if t.shape[0] != n or y.shape[0] != n:
            raise InvalidInputError(
                f"X, t, y must share n: got {n}, {t.shape[0]}, {y.shape[0]}"
            )
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "t", _frozen(t.astype(np.int64)))
        object.__setattr__(self, "y", _frozen(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def arm_indices(self, arm: int) -> np.ndarray:
        """Row indices with t == arm (0 or 1)."""
        return np.flatnonzero(self.t == arm)

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row subset (or resample) of an already-validated dataset.

        Skips re-validation: any row selection of finite, 0/1-checked arrays
        stays valid, and this sits on the bootstrap hot path.
        """
        idx = np.asarray(idx, dtype=np.int64)
        out = object.__new__(Dataset)
        object.__setattr__(out, "X", _frozen(self.X[idx]))
        object.__setattr__(out, "t", _frozen(self.t[idx]))
        object.__setattr__(out, "y", _frozen(self.y[idx]))
        return out


@dataclass(frozen=True)
class SplitIndices:
    """The anchoring groups :func:`partition_by_mean` returns: ``r1`` (at or
    below the mean) and ``r2`` (above), read-only and in increasing order."""

    r1: np.ndarray
    r2: np.ndarray


def partition_by_mean(y) -> SplitIndices:
    """Split indices into r1 = {i: y_i <= mean(y)} and r2 = {i: y_i > mean(y)}.

    Ties at the mean go to r1. Computed on the outcome as given; centering
    shifts values and cut-off equally, so the partition is identical either
    way. Raises :class:`DegeneratePartitionError` when either group is empty
    (a constant outcome, whichever way its mean rounds): the two anchoring
    constraints would collapse into one and constrained fitting must not
    proceed.
    """
    y = _as_float_array(y, "y", 1)
    if y.size == 0:
        raise InvalidInputError("y must be nonempty")
    mean = np.mean(y)
    below = y <= mean
    r1, r2 = np.flatnonzero(below), np.flatnonzero(~below)
    if r1.size == 0 or r2.size == 0:
        empty = "below" if r1.size == 0 else "above"
        raise DegeneratePartitionError(
            f"{empty}-mean outcome group is empty (mean {mean!r}); "
            "cannot form two anchoring groups"
        )
    return SplitIndices(_frozen(r1), _frozen(r2))
