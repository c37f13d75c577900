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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf2 import BitMatrix
from .rng import RngSpec


class MaxTriesExceededError(RuntimeError):
    """Rejection sampling did not find a simple configuration in time."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple configuration after {attempts} attempts")
        self.attempts = attempts


@dataclass(frozen=True)
class Configuration:
    """A bijection between k*n left points and k*n right points.

    ``pairing[i]`` is the right point matched to left point ``i``; point
    ``p`` belongs to cell ``p // k`` on its side.
    """

    k: int
    n: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        m = self.k * self.n
        if len(self.pairing) != m:
            raise ValueError("pairing length must be k*n")
        if sorted(self.pairing) != list(range(m)):
            raise ValueError("pairing must be a permutation of range(k*n)")


def _validate_kn(k: int, n: int):
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")


def sample_configuration(k: int, n: int, rng: RngSpec) -> Configuration:
    """Uniformly random configuration (uniform permutation of k*n points)."""
    _validate_kn(k, n)
    perm = rng.generator().permutation(k * n)
    return Configuration(k, n, tuple(int(p) for p in perm))


def induced_matrix(cfg: Configuration) -> tuple[np.ndarray, bool]:
    """Cell-to-cell pairing counts and whether they form a 0/1 matrix."""
    k, n = cfg.k, cfg.n
    left = np.arange(k * n) // k
    right = np.asarray(cfg.pairing) // k
    counts = np.bincount(left * n + right, minlength=n * n).reshape(n, n)
    return counts, bool(counts.max() <= 1)


def _simple_rows(perms: np.ndarray, k: int, n: int) -> np.ndarray:
    """Boolean mask of which batched pairings induce a 0/1 matrix: no left
    cell meets one right cell twice, checked over the k(k-1)/2 pairs of its
    points.  cells[i] holds the right cell of point i of every left cell."""
    cells = (perms // k).astype(np.int32).reshape(-1, n, k).transpose(2, 0, 1).copy()
    clash = np.zeros(cells.shape[1:], dtype=bool)
    for i in range(1, k):
        for j in range(i):
            clash |= cells[i] == cells[j]
    return ~clash.any(axis=1)


def _matrix_from_perm(perm: np.ndarray, k: int, n: int) -> BitMatrix:
    left = np.arange(k * n) // k
    right = perm // k
    rows = [0] * n
    for i, j in zip(left, right):
        rows[int(i)] |= 1 << int(j)
    return BitMatrix(n, n, tuple(rows), k_regular=k)


def default_max_tries(k: int) -> int:
    return 1000 * math.ceil(math.exp((k - 1) ** 2 / 2))


class SampleResult(NamedTuple):
    matrix: BitMatrix
    rejections: int


def sample_k_regular(k: int, n: int, rng: RngSpec, max_tries: int | None = None) -> SampleResult:
    """Uniform k-regular 0/1 matrix by rejection until simple.

    Returns the matrix together with the number of rejected (non-simple)
    configurations.  Permutations are drawn in batches for speed; the
    accepted configuration is the first simple one in stream order, so
    the result is a deterministic function of the RngSpec.
    """
    _validate_kn(k, n)
    if max_tries is None:
        max_tries = default_max_tries(k)
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    gen = rng.generator()
    m = k * n
    tried = 0
    batch = 64
    while tried < max_tries:
        size = min(batch, max_tries - tried)
        perms = gen.permuted(np.tile(np.arange(m), (size, 1)), axis=1)
        simple = _simple_rows(perms, k, n)
        hits = np.flatnonzero(simple)
        if hits.size:
            first = int(hits[0])
            return SampleResult(_matrix_from_perm(perms[first], k, n), tried + first)
        tried += size
        batch = min(batch * 4, 1 << 16)
    raise MaxTriesExceededError(tried)


class SimpleEstimate(NamedTuple):
    fraction: float
    std_error: float
    simple_count: int
    trials: int


def estimate_simple_probability(k: int, n: int, trials: int, rng: RngSpec) -> SimpleEstimate:
    """Empirical fraction of simple configurations, with binomial standard error."""
    _validate_kn(k, n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.generator()
    m = k * n
    simple_count = 0
    done = 0
    while done < trials:
        size = min(1 << 12, trials - done)
        perms = gen.permuted(np.tile(np.arange(m), (size, 1)), axis=1)
        simple_count += int(_simple_rows(perms, k, n).sum())
        done += size
    frac = simple_count / trials
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return SimpleEstimate(frac, se, simple_count, trials)
