"""Uniform sampling of k-regular 0/1 matrices via the configuration model.

A configuration pairs k*n left points with k*n right points, both sides
partitioned into n cells of k points.  The induced integer matrix counts
pairings between cells; it always has row and column sums k, and the
configuration is *simple* when the matrix is 0/1.  Rejection to simple
configurations yields the exact uniform distribution on k-regular
matrices, since every such matrix arises from the same number, (k!)^(2n),
of simple configurations.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._util import validate_kn
from .gf2 import BitMatrix
from .rng import RngSpec


class MaxTriesExceededError(RuntimeError):
    """Rejection sampling did not find a simple configuration in time."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple configuration after {attempts} attempts")
        self.attempts = attempts


def _pairings(k: int, n: int, rng: RngSpec, count: int):
    """The first ``count`` uniform pairings of the stream of ``rng``, in
    batches of 64 rows, then four times as many per batch up to 4,096.
    ``Generator.permuted`` draws each row alike however the rows are batched."""
    gen, points, batch = rng.generator(), np.arange(k * n), 64
    while count > 0:
        size = min(batch, count)
        perms = np.tile(points, (size, 1))
        yield gen.permuted(perms, axis=1, out=perms)
        count -= size
        batch = min(batch * 4, 1 << 12)


def _simple_rows(perms: np.ndarray, k: int, n: int) -> np.ndarray:
    """Boolean mask of which batched pairings induce a 0/1 matrix: no left
    cell meets one right cell twice, checked over the k(k-1)/2 pairs of its
    points.  cells[i] holds the right cell of point i of every left cell."""
    cells = (perms.astype(np.int32) // k).reshape(-1, n, k).transpose(2, 0, 1).copy()
    clash = np.zeros(cells.shape[1:], dtype=bool)
    for i in range(1, k):
        for j in range(i):
            clash |= cells[i] == cells[j]
    return ~clash.any(axis=1)


def default_max_tries(k: int) -> int:
    try:
        return 1000 * math.ceil(math.exp((k - 1) ** 2 / 2))
    except OverflowError:  # k >= 39
        raise ValueError(f"k={k}: the default try budget 1000 exp((k-1)^2/2) overflows a float; "
                         "give max_tries (--max-tries)") from None


class SampleResult(NamedTuple):
    matrix: BitMatrix
    rejections: int


def sample_k_regular(k: int, n: int, rng: RngSpec, max_tries: int | None = None) -> SampleResult:
    """Uniform k-regular 0/1 matrix by rejection until simple.

    Returns the matrix together with the number of rejected (non-simple)
    configurations.  The accepted configuration is the first simple pairing
    of the stream of ``rng`` (its first pairing when none is rejected), so
    the result is a deterministic function of the RngSpec.
    """
    validate_kn(k, n)
    if max_tries is None:
        max_tries = default_max_tries(k)
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    tried = 0
    for perms in _pairings(k, n, rng, max_tries):
        hits = np.flatnonzero(_simple_rows(perms, k, n))
        if hits.size:
            cells = (perms[hits[0]] // k).reshape(n, k).tolist()
            matrix = BitMatrix.from_row_supports(n, cells)
            if matrix.k_regular != k:
                raise AssertionError(f"accepted pairing gave a matrix that is not {k}-regular")
            return SampleResult(matrix, tried + int(hits[0]))
        tried += len(perms)
    raise MaxTriesExceededError(tried)


class SimpleEstimate(NamedTuple):
    fraction: float
    std_error: float
    simple_count: int
    trials: int


def estimate_simple_probability(k: int, n: int, trials: int, rng: RngSpec) -> SimpleEstimate:
    """Empirical fraction of simple configurations among the first ``trials``
    pairings of the stream of ``rng``, with binomial standard error."""
    validate_kn(k, n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    batches = _pairings(k, n, rng, trials)
    simple_count = sum(int(_simple_rows(perms, k, n).sum()) for perms in batches)
    frac = simple_count / trials
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return SimpleEstimate(frac, se, simple_count, trials)
