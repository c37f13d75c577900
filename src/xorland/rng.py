"""Reproducible random streams backed by the counter-based Philox generator.

An :class:`RngSpec` names a generator algorithm, a seed and a stream index,
both in [0, 2**64).  Identical specs produce identical sample sequences, and
jump-indexed sub-streams are collision-free (sub-stream j starts the Philox
counter at j * 2**128, where ``Philox.jumped(j)`` puts it), so per-trial
streams stay reproducible no matter how trials are scheduled.
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
        if not (0 <= self.seed <= _MASK64 and 0 <= self.stream <= _MASK64):
            raise ValueError("seed and stream must be in [0, 2**64), "
                             f"got seed {self.seed} and stream {self.stream}")

    def generator(self, jump: int = 0) -> np.random.Generator:
        """Instantiate the generator; ``jump`` in [0, 2**64) selects a disjoint sub-stream."""
        if not 0 <= jump <= _MASK64:
            raise ValueError("jump must be in [0, 2**64)")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        counter = np.array([0, 0, jump, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def with_stream(self, stream: int) -> "RngSpec":
        return replace(self, stream=stream)

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "seed": self.seed, "stream": self.stream}
