"""Timing shims for the traced run: spans at layer boundaries, counts from results.

Each shim replaces a public function of ``xorland`` at the binding its caller
looks up (a module attribute read at call time), records a span (name, start,
end, parent) around the real call, and derives exact work counts from the
return value.  Shims are installed only around traced operations, so the
untraced operations of the same process run the unmodified code.
"""
from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np

from xorland import cli, ensemble, enumerator, expansion, frw, gf2, instances, landscape, minima

# span name -> per-layer time metric it feeds (self time: children excluded)
SPAN_METRIC = {
    "landscape.barriers_to_ground": "landscape.barrier_s",
    "landscape.bottleneck_height": "landscape.barrier_s",
    "landscape.energy_table": "landscape.energy_table_s",
    "landscape.enumerate_local_minima": "landscape.minima_s",
    "ensemble.sample_k_regular": "ensemble.sample_s",
    "frw.frw_run": "frw.walk_s",
    "enumerator.weight_enumerator_table": "enumerator.power_s",
    "enumerator.kernel_bound_sum": "enumerator.sum_s",
    "gf2.kernel_basis": "gf2.elimination_s",
    "gf2.solve_standard_basis": "gf2.elimination_s",
    "gf2.rank": "gf2.elimination_s",
    "minima.build_family": "minima.family_s",
    "minima.select_far_minima": "minima.far_s",
    "expansion.check_boundary_expander": "expansion.check_s",
    "instances.read_instance": "instances.read_s",
    "instances.write_json": "instances.report_s",
}

TIME_METRICS = sorted(set(SPAN_METRIC.values()))

# Counts fixed by the inputs and the program's outputs; they must repeat
# exactly across repeats and runs of one seed.
EXACT_COUNTS = (
    "ensemble.tries",
    "frw.steps",
    "landscape.edges_swept",
    "landscape.levels_swept",
    "landscape.minima",
    "expansion.subsets",
    "enumerator.coeff_bits",
)

COUNT_METRICS = EXACT_COUNTS + (
    "landscape.barrier_queries",
    "landscape.tables_built",
    "landscape.states",
    "ensemble.instances",
    "frw.walks",
    "frw.hits",
    "enumerator.coeffs",
    "gf2.eliminations",
    "minima.family_m",
    "instances.report_bytes",
)


def edges_below(inst, height: int) -> int:
    """Hypercube edges whose two ends both have energy <= height."""
    below = _ORIGINAL["landscape.energy_table"](inst) <= height
    total = 0
    for q in range(inst.n):
        halves = below.reshape(-1, 2, 1 << q)
        total += int(np.count_nonzero(halves[:, 0, :] & halves[:, 1, :]))
    return total


def _count_barriers(tr, args, kwargs, results):
    inst, states = args[0], args[1]
    tr.counts["landscape.barrier_queries"] += len(states)
    if results:
        tr.sweeps.append((inst, max(r.height for r in results)))


def _count_bottleneck(tr, args, kwargs, result):
    tr.counts["landscape.barrier_queries"] += 1
    tr.sweeps.append((args[0], result.height))


def _count_table(tr, args, kwargs, result):
    tr.counts["landscape.tables_built"] += 1


def _count_minima(tr, args, kwargs, result):
    tr.counts["landscape.minima"] += len(result)
    tr.counts["landscape.states"] += 1 << args[0].n


def _count_sample(tr, args, kwargs, result):
    tr.counts["ensemble.tries"] += result.rejections + 1
    tr.counts["ensemble.instances"] += 1


def _count_walk(tr, args, kwargs, trace):
    tr.counts["frw.steps"] += trace.steps
    tr.counts["frw.walks"] += 1
    tr.counts["frw.hits"] += int(trace.hit_ground)


def _count_coeffs(tr, args, kwargs, table):
    tr.counts["enumerator.coeffs"] += len(table)
    tr.counts["enumerator.coeff_bits"] += sum(c.bit_length() for c in table)


def _count_elimination(tr, args, kwargs, result):
    tr.counts["gf2.eliminations"] += 1


def _count_family(tr, args, kwargs, fam):
    tr.counts["minima.family_m"] += fam.m


def _count_expansion(tr, args, kwargs, verdict):
    tr.counts["expansion.subsets"] += verdict.subsets_checked


def _count_report(tr, args, kwargs, result):
    tr.counts["instances.report_bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, counter): the binding each caller looks up.
_SHIMS = (
    (landscape, "barriers_to_ground", "landscape.barriers_to_ground", _count_barriers),
    (landscape, "bottleneck_height", "landscape.bottleneck_height", _count_bottleneck),
    (landscape, "energy_table", "landscape.energy_table", _count_table),
    (landscape, "enumerate_local_minima", "landscape.enumerate_local_minima", _count_minima),
    (ensemble, "sample_k_regular", "ensemble.sample_k_regular", _count_sample),
    (frw, "frw_run", "frw.frw_run", _count_walk),
    (enumerator, "weight_enumerator_table", "enumerator.weight_enumerator_table", _count_coeffs),
    (enumerator, "kernel_bound_sum", "enumerator.kernel_bound_sum", None),
    (gf2, "kernel_basis", "gf2.kernel_basis", _count_elimination),
    (minima, "solve_standard_basis", "gf2.solve_standard_basis", _count_elimination),
    (minima, "rank", "gf2.rank", _count_elimination),
    (minima, "build_family", "minima.build_family", _count_family),
    (minima, "select_far_minima", "minima.select_far_minima", None),
    (expansion, "check_boundary_expander", "expansion.check_boundary_expander", _count_expansion),
    (cli, "read_instance", "instances.read_instance", None),
    (instances.Report, "write_json", "instances.write_json", _count_report),
)

_ORIGINAL = {name: getattr(owner, attr) for owner, attr, name, _ in _SHIMS}


class Tracer:
    """Collects spans and counts of traced operations, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.sweeps: list = []
        self._stack: list[int] = []

    def _shim(self, name, real, counter):
        def shim(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = real(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return shim

    def run(self, op):
        """Run ``op()`` with every shim installed; return (result, seconds, layer metrics)."""
        first_span = len(self.spans)
        self.counts = Counter()
        self.sweeps = []
        for owner, attr, name, counter in _SHIMS:
            setattr(owner, attr, self._shim(name, _ORIGINAL[name], counter))
        try:
            t0 = time.perf_counter()
            result = op()
            elapsed = time.perf_counter() - t0
        finally:
            for owner, attr, name, _ in _SHIMS:
                setattr(owner, attr, _ORIGINAL[name])
        # Counts that need the energy table are taken after the timed call.
        for inst, height in self.sweeps:
            self.counts["landscape.levels_swept"] += height + 1
            self.counts["landscape.edges_swept"] += edges_below(inst, height)
        return result, elapsed, self._layer_metrics(first_span)

    def _layer_metrics(self, first_span: int) -> dict:
        spans = self.spans[first_span:]
        child_time = Counter()
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {m: 0.0 for m in TIME_METRICS}
        for offset, span in enumerate(spans):
            own = span["end"] - span["start"] - child_time[first_span + offset]
            out[SPAN_METRIC[span["name"]]] += own
        for m in COUNT_METRICS:
            out[m] = self.counts[m]
        return out


def derived_metrics(m: dict) -> dict:
    """Rates and ratios from summed per-layer times and counts."""

    def rate(num, den):
        return m[num] / m[den] if m[den] > 0 else 0.0

    return {
        "landscape.edges_per_s": rate("landscape.edges_swept", "landscape.barrier_s"),
        "landscape.states_per_s": rate("landscape.states", "landscape.minima_s"),
        "ensemble.tries_per_s": rate("ensemble.tries", "ensemble.sample_s"),
        "ensemble.accept_ratio": rate("ensemble.instances", "ensemble.tries"),
        "frw.steps_per_s": rate("frw.steps", "frw.walk_s"),
        "frw.hit_fraction": rate("frw.hits", "frw.walks"),
        "expansion.subsets_per_s": rate("expansion.subsets", "expansion.check_s"),
    }
