"""Acceptance suite: one callable check per criterion, exact tolerances pinned.

Every criterion runs on fixed seeds, so outcomes are reproducible.  The
CLI `verify` subcommand and tests/test_acceptance.py both dispatch here.
"""
from __future__ import annotations

import itertools
import math
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import enumerator, expansion, frw, landscape, minima, oracles
from .ensemble import estimate_simple_probability, sample_k_regular
from .gf2 import BitMatrix, BitVector, mul_vec, rank
from .instances import export_cnf
from .landscape import Instance
from .rng import RngSpec


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: str
    elapsed: float


def worked_example() -> Instance:
    """The 4x4 complement-of-identity system used throughout as ground truth."""
    return Instance(BitMatrix.from_rows([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]))


def criterion_1() -> tuple[bool, str]:
    t0 = time.perf_counter()
    inst = worked_example()
    grounds = {g.to01() for g in landscape.ground_states(inst)}
    lm = landscape.enumerate_local_minima(inst)
    lm_set = {v.to01() for v in lm}
    barriers = [r.barrier for r in landscape.barriers_to_ground(inst, lm)]
    elapsed = time.perf_counter() - t0
    passed = (
        grounds == {"0000"}
        and lm_set == {"1110", "1101", "1011", "0111"}
        and barriers == [2, 2, 2, 2]
        and elapsed < 1.0
    )
    details = f"grounds={sorted(grounds)} minima={sorted(lm_set)} barriers={barriers} time={elapsed:.3f}s"
    return passed, details


def criterion_2() -> tuple[bool, str]:
    ladder = (50, 100, 200, 400)
    details = []
    passed = True
    for k, limit in ((3, 2), (4, 4)):
        deltas = [abs(enumerator.kernel_bound_sum(k, n).total - limit) for n in ladder]
        mono = all(a > b for a, b in zip(deltas, deltas[1:]))
        endpoint = deltas[-1] < deltas[0]
        passed = passed and mono and endpoint
        details.append(f"k={k}: |S-{limit}| = " + ", ".join(f"{float(d):.5f}" for d in deltas))
    return passed, "; ".join(details)


def criterion_3() -> tuple[bool, str]:
    spec = RngSpec(seed=301)
    sizes = []
    for t in range(1000):
        matrix = sample_k_regular(3, 40, spec.with_stream(t)).matrix
        sizes.append(2 ** (40 - rank(matrix)))
    mean = sum(sizes) / len(sizes)
    ones = BitVector(40, (1 << 40) - 1)
    all_ones_ok = True
    for t in range(300):
        matrix = sample_k_regular(4, 40, spec.with_stream(10_000 + t)).matrix
        if mul_vec(matrix, ones).bits != 0:
            all_ones_ok = False
            break
    passed = 1.0 <= mean <= 4.0 and all_ones_ok
    details = f"mean kernel size (k=3, n=40, 1000 samples) = {mean:.3f}; k=4 all-ones in kernel: {all_ones_ok}"
    return passed, details


def criterion_4() -> tuple[bool, str]:
    details = []
    passed = True
    for k, seed in ((3, 401), (4, 402)):
        est = estimate_simple_probability(k, 200, 10**4, RngSpec(seed))
        target = math.exp(-((k - 1) ** 2) / 2)
        dev = abs(est.fraction - target) / est.std_error
        ok = dev <= 3.0
        passed = passed and ok
        details.append(f"k={k}: {est.fraction:.5f} vs {target:.5f} ({dev:.2f} s.e.)")
    return passed, "; ".join(details)


def criterion_5() -> tuple[bool, str]:
    cases = {
        "1+z": enumerator.IntPoly.from_coeffs([1, 1]),
        "1+3z": enumerator.even_weight_poly(3).halve_degrees(),
    }
    passed = True
    details = []
    for name, poly in cases.items():
        mu, _ = enumerator.poly_moments(poly)
        errs = []
        for n in (250, 500, 1000, 2000):
            big_n = round(mu * n)
            log_approx = enumerator.local_limit_approx(poly, n, big_n)
            exact = enumerator.poly_power_coeffs(poly, n, big_n)[big_n]
            errs.append(abs(math.expm1(log_approx - math.log(exact))))
        mono = all(a > b for a, b in zip(errs, errs[1:]))
        ok = mono and errs[-1] < 0.02
        passed = passed and ok
        details.append(f"{name}: " + ", ".join(f"{e:.5f}" for e in errs))
    return passed, "; ".join(details)


def criterion_6() -> tuple[bool, str]:
    saddle_ok = True
    for n in range(4, 61):
        table = enumerator.weight_enumerator_table(3, n)
        for w in range(1, n):
            if table[w] == 0:
                continue
            if math.log(table[w]) > enumerator.saddle_upper_bound(3, n, w) + 1e-9:
                saddle_ok = False
    tau_ok = True
    for k in range(3, 9):
        for tau in [round(0.05 * i, 2) for i in range(1, 201)]:
            res = enumerator.tau_power_inequality(k, tau)
            if tau == 1.0:
                if not res.equality:
                    tau_ok = False
            elif not (res.holds and res.rhs - res.lhs > 1e-12):
                tau_ok = False
    extreme_ok = True
    for n in range(4, 41):
        table = enumerator.weight_enumerator_table(3, n)
        for w in range(2, n + 1, 2):
            if table[w] > enumerator.extreme_region_bound(3, n, w):
                extreme_ok = False
    passed = saddle_ok and tau_ok and extreme_ok
    details = f"saddle grid n<=60: {saddle_ok}; tau grid: {tau_ok}; extreme grid n<=40: {extreme_ok}"
    return passed, details


def criterion_7() -> tuple[bool, str]:
    # (a) 100 instances at n=40, corank <= 2: every emitted pair is a local minimum.
    accepted = 0
    seed = 0
    emitted_ok = True
    emitted_count = 0
    while accepted < 100 and seed < 400:
        inst = Instance.random(3, 40, RngSpec(701).with_stream(seed))
        seed += 1
        if 40 - rank(inst.matrix) > 2:
            continue
        accepted += 1
        fam = minima.build_family(inst.matrix)
        combos = list(itertools.combinations(range(fam.m), 2))
        if fam.m >= 4:
            combos.append(tuple(range(4)))
        for combo in combos:
            u = minima.emit_local_minimum(fam, combo)
            emitted_count += 1
            if not landscape.is_local_minimum(inst, u):
                emitted_ok = False

    # (b) n = 18: certified barrier bounds validated against the exhaustive engine.
    #     Only shell-radius-1 certificates are ever positive at this scale (see the
    #     measured expansion profiles); they must still hold exactly.
    compared = 0
    cert_ok = True
    omega, eta = Fraction(1), Fraction(3)
    for s in range(12):
        inst = Instance.random(3, 18, RngSpec(702).with_stream(s))
        if 18 - rank(inst.matrix) > 2:
            continue
        verdict = expansion.check_boundary_expander(
            inst.matrix, expansion.ExpansionParams(omega, eta), budget=10**6
        )
        if not verdict.holds:
            continue
        fam = minima.build_family(inst.matrix)
        grounds = landscape.ground_states(inst)
        states = []
        for pair in itertools.combinations(range(fam.m), 2):
            u = minima.emit_local_minimum(fam, pair)
            if all((u ^ g).weight > omega / 2 for g in grounds):
                states.append(u)
        if not states:
            continue
        certs = [minima.certified_barrier_bound(eta, omega, landscape.energy(inst, u)) for u in states]
        results = landscape.barriers_to_ground(inst, states)
        for cert, res in zip(certs, results):
            if cert == 0:
                continue
            compared += 1
            if res.barrier < cert:
                cert_ok = False

    # (c) structural 2^ceil(gamma n) - 1 count at n = 60 via generator independence.
    structural_ok = False
    far_details = ""
    for s in range(40):
        inst = Instance.random(3, 60, RngSpec(703).with_stream(s))
        if 60 - rank(inst.matrix) > 2:
            continue
        fam = minima.build_family(inst.matrix)
        try:
            sel = minima.select_far_minima(fam, beta=Fraction(1, 10), gamma=Fraction(1, 30), count=3)
        except (minima.FamilyConstructionError, ValueError):
            continue
        gens = [fam.z_vectors[i] for i in sel.reserved_indices]
        gen_matrix = BitMatrix(len(gens), 60, tuple(g.bits for g in gens))
        independent = rank(gen_matrix) == len(gens) == sel.gamma_count
        distinct = len({e.state.bits for e in sel.entries}) == len(sel.entries)
        minima_ok = all(landscape.is_local_minimum(inst, e.state) for e in sel.entries)
        far_ok = all(
            min(e.distances_to_ground) > Fraction(1, 10) * 60 / 2 for e in sel.entries
        )
        if independent and distinct and minima_ok and far_ok:
            structural_ok = True
            far_details = (
                f"n=60 stream {s}: m={fam.m}, {sel.gamma_count} independent generators "
                f">= {2 ** sel.gamma_count - 1} distinct far minima"
            )
            break

    passed = emitted_ok and accepted == 100 and cert_ok and compared >= 3 and structural_ok
    details = (
        f"(a) {emitted_count} emitted minima over {accepted} instances all verified: {emitted_ok}; "
        f"(b) {compared} positive certificates vs exhaustive barriers: {cert_ok}; "
        f"(c) {far_details or 'no far-minima family constructed'}"
    )
    return passed, details


def criterion_8() -> tuple[bool, str]:
    delta = Fraction(1, 3)
    bound = frw.focused_drift_lower_bound(6, delta)  # 55/108
    spec = RngSpec(seed=801)
    inst = Instance.random(6, 18, spec, max_tries=2 * 10**8)
    grounds = landscape.ground_states(inst)
    gen = spec.generator(jump=7)
    verified = 0
    drift_ok = True
    eta_needed = 6 - 2 - delta
    for g in grounds[:2]:
        for w in (1, 2, 3):
            for _ in range(40):
                cols = tuple(int(c) for c in gen.choice(18, size=w, replace=False))
                diff = BitVector.from_indices(18, cols)
                s = g ^ diff
                if mul_vec(inst.matrix, s).bits == 0:
                    continue
                if expansion.boundary_count(inst.matrix, cols) < math.ceil(eta_needed * w):
                    continue
                verified += 1
                if frw.drift_probability(inst, g, s) < bound:
                    drift_ok = False
    summaries = frw.frw_experiment(6, (12, 18, 24), trials=7, cap=10**7, rng=RngSpec(802),
                                   max_tries=2 * 10**8)
    medians = [s.median_steps_effective for s in summaries]
    growing = all(a < b for a, b in zip(medians, medians[1:]))
    passed = drift_ok and verified >= 50 and growing
    details = (
        f"drift: {verified} verified near-ground states all >= 55/108: {drift_ok}; "
        f"medians n=12,18,24: {[f'{m:.0f}' for m in medians]} strictly increasing: {growing}; "
        f"censored: {[s.censored for s in summaries]} at cap 1e7"
    )
    return passed, details


def criterion_9() -> tuple[bool, str]:
    passed = True
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for idx in range(20):
            k = 3 if idx % 2 == 0 else 4
            n = (8, 10, 12)[idx % 3]
            inst = Instance.random(k, n, RngSpec(901).with_stream(idx))
            path = Path(tmp) / f"inst{idx}.cnf"
            export_cnf(inst, path)
            n_vars, clauses = oracles.parse_dimacs(path)
            if n_vars != n or len(clauses) != n * (1 << (k - 1)):
                passed = False
                break
            energies = landscape.energy_table(inst)
            for state in range(1 << n):
                if oracles.violated_clause_count(clauses, state) != int(energies[state]):
                    passed = False
                    break
            checked += 1
            if not passed:
                break
    details = f"{checked}/20 instances with full 2^n state sweeps matched"
    return passed, details


def criterion_10() -> tuple[bool, str]:
    passed = True
    plan = [(8, 20), (10, 14), (12, 10), (14, 6)]
    instances_checked = 0
    barriers_checked = 0
    for n, count in plan:
        for idx in range(count):
            k = 3 if (instances_checked % 2 == 0) else 4
            inst = Instance.random(k, n, RngSpec(1001).with_stream(instances_checked))
            naive_energies = oracles.naive_energies(inst)
            fast = {v.bits for v in landscape.enumerate_local_minima(inst)}
            slow = {v.bits for v in oracles.naive_local_minima(inst, naive_energies)}
            if fast != slow:
                passed = False
            sample = sorted(fast)[:4]
            states = [BitVector(n, b) for b in sample]
            if states:
                fast_res = landscape.barriers_to_ground(inst, states)
                for st, res in zip(states, fast_res):
                    if res.barrier != oracles.naive_barrier_to_ground(inst, st, naive_energies):
                        passed = False
                    barriers_checked += 1
            instances_checked += 1
    details = (
        f"{instances_checked} instances: local-minima sets identical; "
        f"{barriers_checked} barrier values identical"
    )
    return passed, details


CRITERIA = {
    1: ("worked-example exactness (ground state, minima, barriers)", criterion_1),
    2: ("weighted kernel-bound sums approach 2 (odd k) and 4 (even k)", criterion_2),
    3: ("kernel-size Monte Carlo: O(1) mean at k=3; all-ones member at k=4", criterion_3),
    4: ("simpleness probability within 3 s.e. of exp(-(k-1)^2/2)", criterion_4),
    5: ("local limit law: rel. error < 2% at n=2000 and halving with n", criterion_5),
    6: ("saddle and composition bounds dominate exact enumerators", criterion_6),
    7: ("construction soundness: emitted minima, certificates, structural count", criterion_7),
    8: ("focused-walk drift >= 55/108 under verified expansion; hitting times grow", criterion_8),
    9: ("SAT encoding: violated-clause count equals the linear energy pointwise", criterion_9),
    10: ("exhaustive engine agrees with naive brute-force oracles (n <= 14)", criterion_10),
}


def run_criterion(number: int) -> CriterionResult:
    title, check = CRITERIA[number]
    t0 = time.perf_counter()
    passed, details = check()
    return CriterionResult(number, title, bool(passed), details, time.perf_counter() - t0)


def run_criteria(only: set[int] | None = None) -> list[CriterionResult]:
    unknown = sorted((only or set()) - CRITERIA.keys())
    if unknown:
        raise ValueError(f"no criterion {', '.join(map(str, unknown))}: "
                         f"valid numbers are {min(CRITERIA)}-{max(CRITERIA)}")
    results = []
    for number in sorted(CRITERIA):
        if only and number not in only:
            continue
        result = run_criterion(number)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] criterion {result.number}: {result.title} "
              f"({result.elapsed:.1f}s) — {result.details}")
    return results
