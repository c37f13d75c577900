"""Reproducible random streams backed by the counter-based Philox generator.

An :class:`RngSpec` names a generator algorithm, a 64-bit seed, and a stream
index.  Identical specs produce identical sample sequences, and jump-indexed
sub-streams are collision-free (each jump advances the Philox counter by
2**128 draws), so per-trial streams stay reproducible no matter how trials
are scheduled.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_MASK64 = (1 << 64) - 1

PHILOX = "philox4x64"


@dataclass(frozen=True)
class RngSpec:
    seed: int
    stream: int = 0
    algorithm: str = PHILOX

    def __post_init__(self):
        if self.algorithm != PHILOX:
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")

    def generator(self, jump: int = 0) -> np.random.Generator:
        """Instantiate the generator; ``jump`` selects a disjoint sub-stream."""
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        bg = np.random.Philox(key=key)
        if jump:
            bg = bg.jumped(jump)
        return np.random.Generator(bg)

    def with_stream(self, stream: int) -> "RngSpec":
        return replace(self, stream=stream)

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "seed": self.seed, "stream": self.stream}
