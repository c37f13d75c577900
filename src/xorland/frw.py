"""Focused random walk: simulation, exact one-step drift, hitting-time runs.

Each step picks a violated equation uniformly at random and flips one of
its k variables uniformly at random, with bounded work per step.  The
violated-row vector v is kept as an int (one column-mask XOR per flip); the
(r mod E)-th violated row, E = popcount(v), is found by scanning v a byte
at a time through 256-entry popcount and set-position tables.  Two raw
64-bit draws per step are reduced modulo the needed range (bias at most
n / 2**63, negligible against every tolerance used in this package), the
variable draw in numpy.  They are drawn in even chunks of 256 doubling to
1024, the last cut to the cap: Philox fills each int64 in [0, 2**63) from
one 64-bit output with no rejection and no carried state, so any chunking
yields the same stream, and the same walk.  A chunk is walked by one tight
loop that stops early only at energy 0; its step count is read from the
draws it left.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from operator import length_hint
from typing import Sequence

import numpy as np

from ._util import exact_fraction, validate_kn
from .gf2 import BitVector, State, mul_vec
from .landscape import Instance
from .rng import RngSpec


@dataclass(frozen=True)
class WalkTrace:
    steps: int
    terminal: State
    hit_ground: bool


_CHUNK_MIN, _CHUNK_MAX = 256, 1024  # raw draws per refill; even, so a step never straddles two
_POP8 = tuple(b.bit_count() for b in range(256))
_BITS8 = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def _select(v: int, r: int) -> int:
    """Index of the r-th (0-based, ascending) set bit of v; requires r < popcount(v)."""
    base = 0
    while True:
        b = v & 255
        c = _POP8[b]
        if r < c:
            return base + _BITS8[b][r]
        r -= c
        v >>= 8
        base += 8


def frw_run(inst: Instance, s0: State, rng: RngSpec, max_steps: int) -> WalkTrace:
    """Iterate focused steps until a ground state or the step cap.

    Cap exhaustion is a recorded outcome, not an error.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if s0.length != inst.n:
        raise ValueError("state length mismatch")
    n, k = inst.n, inst.k
    cols, supports = inst.matrix.column_masks, inst.matrix.row_supports
    s = s0.bits
    bit = [1 << q for q in range(n)]
    v = mul_vec(inst.matrix, s0).bits
    gen = rng.generator()
    steps, chunk = 0, _CHUNK_MIN
    while v and steps < max_steps:
        raw = gen.integers(0, 1 << 63, size=min(chunk, 2 * (max_steps - steps)), dtype=np.int64)
        raw[1::2] %= k
        chunk = min(2 * chunk, _CHUNK_MAX)
        it = iter(raw.tolist())
        for d1, j in zip(it, it):
            r = d1 % v.bit_count()
            b = v & 255
            c = _POP8[b]
            if r < c:
                q = supports[_BITS8[b][r]][j]
            else:  # the second byte inline too, _select from the third on
                b, r = v >> 8 & 255, r - c
                q = supports[_BITS8[b][r] + 8 if r < _POP8[b] else _select(v >> 16, r - _POP8[b]) + 16][j]
            s ^= bit[q]
            v ^= cols[q]
            if not v:
                break
        steps += (len(raw) - length_hint(it)) // 2
    return WalkTrace(steps=steps, terminal=BitVector(n, s), hit_ground=(v == 0))


def drift_probability(inst: Instance, g: State, s: State) -> Fraction:
    """Exact probability that one focused step increases the distance to g.

    Sums, over the violated equations, the fraction of their variables
    agreeing with g (flipping an agreeing variable moves away), weighted
    uniformly over violated equations.
    """
    if g.length != inst.n or s.length != inst.n:
        raise ValueError("state length mismatch")
    v = mul_vec(inst.matrix, s).bits
    if v == 0:
        raise ValueError("state has energy 0")
    diff = s.bits ^ g.bits
    k = inst.k
    rows = inst.matrix.rows
    num_away = sum(k - (rows[i] & diff).bit_count() for i in range(inst.n) if v >> i & 1)
    return Fraction(num_away, k * v.bit_count())


def focused_drift_lower_bound(k: int, delta) -> Fraction:
    """(k-1)(k-2-delta)/k**2, the uniform drift bound under expansion."""
    d = exact_fraction(delta)
    return Fraction(k - 1, 1) * (k - 2 - d) / (k * k)


@dataclass(frozen=True)
class HittingSummary:
    n: int
    trials: int
    cap: int
    successes: int
    censored: int
    success_fraction: float
    median_steps_effective: float  # censored runs count as the cap
    mean_steps_success: float | None


def _check_start_width(n: int):
    if n > 64:
        raise ValueError("uniform initial states are drawn as 64-bit words; n must be <= 64")


def _trial(inst: Instance, rng: RngSpec, cap: int) -> tuple[State, WalkTrace]:
    """One walk of at most ``cap`` steps from a uniform start drawn on rng's jump-1 stream."""
    _check_start_width(inst.n)
    s0 = BitVector(inst.n, int(rng.generator(jump=1).integers(0, 1 << inst.n, dtype=np.uint64)))
    return s0, frw_run(inst, s0, rng, cap)


def frw_experiment(
    k: int,
    n_list: Sequence[int],
    trials: int,
    cap: int,
    rng: RngSpec,
    max_tries: int | None = None,
) -> list[HittingSummary]:
    """Hitting-time experiment: one instance per n, a fresh uniform start per trial.

    Per-(n, trial) RNG streams are jump-indexed off the master spec, so
    the summaries do not depend on execution order.  Censored runs (cap
    reached) are reported as counts and enter the median at the cap value.
    """
    if not n_list:
        raise ValueError("n_list must name at least one n")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if trials * len(n_list) >= 1_000_000:
        raise ValueError("too many trials for the stream layout")
    if len(n_list) > 1001:  # instance stream 1_000_000 + 1000 * ni must stay in its window
        raise ValueError("too many n values for the stream layout")
    # Each master stream owns a disjoint window of derived streams, so two
    # experiments with different streams (same seed) never share draws.
    base = rng.stream * 2_000_003
    if base + 2_000_003 > 1 << 64:
        raise ValueError("stream too large for the stream layout")
    for n in n_list:
        validate_kn(k, n)
    _check_start_width(max(n_list))  # these checks all run before the first instance is sampled
    summaries = []
    for ni, n in enumerate(n_list):
        inst = Instance.random(k, n, rng.with_stream(base + 1_000_000 + 1000 * ni), max_tries)
        traces = [_trial(inst, rng.with_stream(base + 1 + ni * trials + t), cap)[1]
                  for t in range(trials)]
        success_steps = [tr.steps for tr in traces if tr.hit_ground]
        successes = len(success_steps)
        summaries.append(
            HittingSummary(
                n=n,
                trials=trials,
                cap=cap,
                successes=successes,
                censored=trials - successes,
                success_fraction=successes / trials,
                # a walk that misses the ground stops at the cap: censored runs count as the cap
                median_steps_effective=float(statistics.median(tr.steps for tr in traces)),
                mean_steps_success=(sum(success_steps) / successes) if successes else None,
            )
        )
    return summaries
