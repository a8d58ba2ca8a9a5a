"""Parallel sorting methods for distributed particle data.

The FMM solver places particles into Z-Morton-numbered boxes by parallel
sorting.  Two methods from the paper are implemented:

* :func:`~repro.sorting.partition_sort.partition_sort` — the partition-based
  parallel sorting algorithm [12] used for arbitrarily disordered input
  (method A, and method B's first execution): regular sampling selects
  splitters, a collective all-to-all moves each partition to its target
  process, and a local merge finishes.
* :func:`~repro.sorting.merge_sort.merge_exchange_sort` — the merge-based
  parallel sorting algorithm [15] used for *almost sorted* input under
  limited particle movement: local sorts followed by pairwise merge steps
  according to Batcher's merge-exchange sorting network [16], using only
  point-to-point communication.  Already-ordered pairs exchange only a
  constant-size control message, so nearly sorted data moves almost no
  bytes.
"""

import numpy as np

from repro.sorting.batcher import merge_exchange_rounds
from repro.sorting.merge_sort import merge_exchange_sort
from repro.sorting.partition_sort import partition_sort

__all__ = ["merge_exchange_rounds", "merge_exchange_sort", "partition_sort", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending (``np.unique``'s
    result) by sort-and-mask; NumPy 2's ``np.unique`` takes a far slower
    hash path on large integer arrays."""
    values = np.sort(values)
    keep = np.ones(values.shape, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
