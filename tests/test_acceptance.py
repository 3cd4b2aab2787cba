"""Acceptance gate: every shipped guarantee, checked end to end.

Each test covers one numbered criterion and reports a single PASS/FAIL
line through the terminal summary hook in conftest.  Tolerances here are
pinned; loosening them is a contract change, not a test fix.
"""
import filecmp
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sumchase import (FamilyVector, abs_power, brute_force_confine,
                      chase_target, composite, confine_with_anchor,
                      confine_zero_sum, cover_indices, dependency_decompose,
                      family, k_space_basis, membership_check,
                      partial_sum_vector, power_alternating, prefix_norms,
                      predicted_dependent_limit, published_constant,
                      r_space, rademacher_harmonic, riemann_rearrange, run,
                      trace_rows, verify_certificate, write_certificate,
                      write_trace)
from sumchase.series import term_array, vector_terms
from conftest import record_criterion, write_family_file

RAD4_ENTRIES = [{"kind": "rademacher_harmonic", "level": i} for i in range(4)]
CHAIN_TARGETS = (0.1, -0.2, 0.3, 0.0)
CHAIN_ROUNDS = 3
CHAIN_SEED = 0
CHAIN_BUDGET = 10 ** 7


@contextmanager
def criterion(number: int, title: str):
    """Record one summary line per criterion, even when asserts blow up."""
    note = {"detail": ""}
    try:
        yield note
    except BaseException as exc:
        record_criterion(number, title, False,
                         note["detail"] or f"{type(exc).__name__}: {exc}")
        raise
    record_criterion(number, title, True, note["detail"])


@pytest.fixture(scope="module")
def rad4() -> FamilyVector:
    return family(*(rademacher_harmonic(i) for i in range(4)))


@pytest.fixture(scope="module")
def chain_main(rad4):
    start = time.perf_counter()
    chain, _ = run(rad4, CHAIN_TARGETS, CHAIN_ROUNDS, seed=CHAIN_SEED,
                   budget=CHAIN_BUDGET)
    return chain, time.perf_counter() - start


@pytest.fixture(scope="module")
def chain_repeat(rad4):
    chain, _ = run(rad4, CHAIN_TARGETS, CHAIN_ROUNDS, seed=CHAIN_SEED,
                   budget=CHAIN_BUDGET)
    return chain


def build_pair_cover_plan(seed: int = 11):
    """The dependent-limit workload: hit the pair target, then keep the
    prefix dense enough that the third series' sums settle."""
    pair = family(rademacher_harmonic(0), rademacher_harmonic(1))
    target = (0.2, 0.3)
    plan = chase_target(pair, None, target, 1e-3, seed=seed, budget=10 ** 6)
    plan = cover_indices(pair, plan, 2048, target)
    plan = chase_target(pair, plan, target, 1e-3, seed=seed, budget=10 ** 6)
    return pair, target, plan


def make_triple() -> FamilyVector:
    a0 = rademacher_harmonic(0)
    a1 = rademacher_harmonic(1)
    a2 = composite([(-1.0, a0), (-1.0, a1)], perturbation=abs_power(2.0))
    return family(a0, a1, a2)


def zero_sum_instance(rng, n: int, d: int) -> np.ndarray:
    vs = rng.uniform(-1.0, 1.0, size=(n - 1, d))
    vs = np.vstack([vs, -vs.sum(axis=0)])
    top = np.linalg.norm(vs, axis=1).max()
    if top > 1.0:
        vs /= top
    return vs


def test_criterion_1_single_series_rearrangement():
    alt = power_alternating(1.0)
    with criterion(1, "single-series rearrangement") as note:
        worst_gap = 0.0
        worst_time = 0.0
        for target in (-1.0, 0.0, 0.25, 2.0):
            start = time.perf_counter()
            plan = riemann_rearrange(alt, target, 1e-3, budget=10 ** 6)
            elapsed = time.perf_counter() - start
            resummed = math.fsum(term_array(alt, plan.injection))
            gap = abs(resummed - target)
            assert gap < 1e-3, f"target {target}: |sum - target| = {gap}"
            assert elapsed < 5.0, f"target {target}: took {elapsed:.2f}s"
            worst_gap = max(worst_gap, gap)
            worst_time = max(worst_time, elapsed)
        note["detail"] = (f"4 targets, worst gap {worst_gap:.2e}, "
                          f"worst time {worst_time:.2f}s")


def test_criterion_2_confinement_contract():
    with criterion(2, "confinement within the published constant") as note:
        rng = np.random.default_rng(20250814)
        start = time.perf_counter()
        slack_worst = 0.0
        for case in range(200):
            n = 2 + int(rng.integers(7))
            d = 1 + int(rng.integers(3))
            vs = zero_sum_instance(rng, n, d)
            result = confine_zero_sum(vs)
            bound = published_constant(d)
            assert result.max_prefix_norm <= bound + 1e-12, (
                f"case {case}: {result.max_prefix_norm} exceeds C_{d}={bound}")
            _, optimum = brute_force_confine(vs)
            assert result.max_prefix_norm >= optimum - 1e-12, (
                f"case {case}: ordering beat the exhaustive optimum")
            slack_worst = max(slack_worst, result.max_prefix_norm - optimum)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"batch took {elapsed:.1f}s"
        note["detail"] = (f"200 cases in {elapsed:.1f}s, worst gap to "
                          f"optimum {slack_worst:.3f}")


def test_criterion_3_anchored_bound():
    with criterion(3, "anchored confinement bound") as note:
        rng = np.random.default_rng(314159)
        margin_min = math.inf
        for case in range(200):
            rho = (0.5, 1.0, 2.0)[case % 3]
            n = 2 + int(rng.integers(7))
            d = 1 + int(rng.integers(3))
            raw = rng.uniform(-1.0, 1.0, size=(n, d))
            b = raw.sum(axis=0)
            scale = rho / np.linalg.norm(raw, axis=1).max()
            b_norm = np.linalg.norm(b)
            if b_norm > 0.0:
                scale = min(scale, rho / b_norm)
            vs = raw * (scale * 0.99)
            b = b * (scale * 0.99)
            result = confine_with_anchor(vs, b, rho)
            bound = rho * published_constant(d) + np.linalg.norm(b) + 1e-9
            top = prefix_norms(vs, result.permutation).max()
            assert top <= bound, (
                f"case {case}: prefix norm {top} above {bound}")
            margin_min = min(margin_min, bound - top)
        note["detail"] = f"200 cases, smallest margin {margin_min:.3f}"


def test_criterion_4_chain_soundness(rad4, chain_main, tmp_path):
    chain, elapsed = chain_main
    with criterion(4, "certified chain soundness") as note:
        cert = tmp_path / "chain.cert"
        spec = write_family_file(tmp_path / "rad4.json", [RAD4_ENTRIES])
        write_certificate(str(cert), chain, CHAIN_TARGETS)
        report = verify_certificate(str(cert), spec)
        assert report.ok, f"verification failures: {report.failures[:3]}"
        assert report.conditions_checked == CHAIN_ROUNDS + 1
        assert report.links_checked == CHAIN_ROUNDS

        final = chain.final()
        eps3 = float(final.eps)
        assert eps3 < 1.0 / 3.0, f"final tolerance {eps3} not below 1/3"
        dev3 = float(np.linalg.norm(
            partial_sum_vector(rad4, final.injection, 3)
            - np.asarray(CHAIN_TARGETS[:3])))
        assert dev3 < eps3, f"three-coordinate deviation {dev3} >= {eps3}"
        assert elapsed < 300.0, f"chain construction took {elapsed:.0f}s"
        note["detail"] = (f"eps_3={eps3:.5f}, dev_3={dev3:.2e}, "
                          f"|f|={len(final.injection)}, {elapsed:.1f}s")


def test_criterion_5_block_envelope(rad4, chain_main):
    chain, _ = chain_main
    with criterion(5, "block sums stay inside twice the tolerance") as note:
        final = chain.final()
        tightest = math.inf
        for cond in chain.conditions:
            suffix = final.injection[len(cond.injection):]
            bound = 2.0 * float(cond.eps)
            worst = 0.0
            carry = np.zeros(cond.dim)
            step = 1 << 17
            for lo in range(0, len(suffix), step):
                part = suffix[lo:lo + step]
                running = np.cumsum(vector_terms(rad4, part, cond.dim),
                                    axis=0) + carry
                worst = max(worst, float(
                    np.linalg.norm(running, axis=1).max()))
                carry = running[-1].copy()
            assert worst < bound, (
                f"condition with eps={cond.eps}: block prefix {worst} "
                f"reaches {bound}")
            if len(suffix):
                tightest = min(tightest, bound - worst)
        note["detail"] = (f"{len(chain.conditions)} conditions, smallest "
                          f"margin {tightest:.4f}")


def test_criterion_6_dependent_limit_prediction():
    with criterion(6, "dependent series limit prediction") as note:
        fam = make_triple()
        struct = dependency_decompose(fam)
        assert struct.independent_set == (0, 1)
        pair, target, plan = build_pair_cover_plan()
        assert plan.deviation < 1e-3

        achieved = partial_sum_vector(pair, plan.injection, 2)
        predicted = predicted_dependent_limit(
            struct, {0: float(achieved[0]), 1: float(achieved[1])}, 2)
        sums = partial_sum_vector(fam, plan.injection, 3)
        gap = abs(float(sums[2]) - predicted)
        assert gap < 5e-3, f"dependent sum off by {gap}"

        deviation = np.asarray(sums) - np.array([target[0], target[1],
                                                 predicted])
        basis = k_space_basis(fam)
        dot = float(np.dot(deviation, np.ones(3)))
        assert membership_check(tuple(float(x) for x in deviation), basis,
                                5e-3), f"deviation dot (1,1,1) = {dot}"
        note["detail"] = (f"limit gap {gap:.2e}, kernel dot {dot:.2e}, "
                          f"|f|={len(plan.injection)}")


def structured_families():
    """Twenty-one families with hand-computed kernel dimensions."""
    out = []
    for d in (1, 2, 3, 4):
        out.append((family(*(rademacher_harmonic(i) for i in range(d))), 0))
    for d in (2, 3, 4):
        core = [rademacher_harmonic(i) for i in range(d - 1)]
        dep = composite([(-1.0, s) for s in core],
                        perturbation=abs_power(2.0))
        out.append((family(*core, dep), 1))
    for d in (3, 4):
        core = [rademacher_harmonic(i) for i in range(max(d - 2, 1))]
        dep1 = composite([(1.0, core[0])], perturbation=abs_power(1.5))
        dep2 = composite([(-2.0, core[0])] + [(1.0, s) for s in core[1:]],
                         perturbation=abs_power(3.0, scale=0.5))
        out.append((family(*core, dep1, dep2), 2))
    for coeffs in ((0.5, -1.5), (2.0, 1.0), (-0.25, 0.75)):
        core = [rademacher_harmonic(0), rademacher_harmonic(1)]
        dep = composite(list(zip(coeffs, core)),
                        perturbation=abs_power(2.0))
        out.append((family(*core, dep), 1))
    base = power_alternating(1.0)
    out.append((family(base, composite([(1.0, base)],
                                       perturbation=abs_power(2.0))), 1))
    out.append((family(base, rademacher_harmonic(1)), 0))
    for scale in (1.0, -1.0, 3.0):
        dep = composite([(scale, rademacher_harmonic(2))],
                        perturbation=abs_power(2.0, scale=0.125))
        out.append((family(rademacher_harmonic(2), dep), 1))
    out.append((family(*(rademacher_harmonic(i) for i in (0, 2, 4))), 0))
    core = [rademacher_harmonic(1), rademacher_harmonic(3)]
    dep = composite([(1.0, core[0]), (1.0, core[1])],
                    perturbation=abs_power(2.5))
    out.append((family(*core, dep), 1))
    out.append((family(rademacher_harmonic(0)), 0))
    dep0 = composite([(1.0, rademacher_harmonic(0))],
                     perturbation=abs_power(2.0))
    dep1 = composite([(1.0, rademacher_harmonic(0))],
                     perturbation=abs_power(3.0))
    out.append((family(rademacher_harmonic(0), dep0, dep1), 2))
    return out


def test_criterion_7_dimension_law():
    with criterion(7, "kernel and complement dimensions add up") as note:
        cases = structured_families()
        assert len(cases) >= 20
        worst_ortho = 0.0
        for pos, (fam, expected_kernel) in enumerate(cases):
            d = len(fam)
            basis = k_space_basis(fam)
            comp = r_space(basis, d)
            assert len(basis) == expected_kernel, (
                f"family {pos}: kernel dimension {len(basis)}, "
                f"expected {expected_kernel}")
            assert len(basis) + len(comp) == d, (
                f"family {pos}: dimensions do not sum to {d}")
            for cv in basis:
                for row in comp:
                    ortho = abs(float(np.dot(cv.as_array(d), row)))
                    assert ortho <= 1e-12, (
                        f"family {pos}: complement row correlates at {ortho}")
                    worst_ortho = max(worst_ortho, ortho)
        note["detail"] = (f"{len(cases)} families, worst overlap "
                          f"{worst_ortho:.1e}")


def test_criterion_8_determinism(rad4, chain_main, chain_repeat, tmp_path):
    chain_a, _ = chain_main
    chain_b = chain_repeat
    with criterion(8, "same seeds, same bytes") as note:
        alt = family(power_alternating(1.0))
        plan_one = riemann_rearrange(alt[0], 0.25, 1e-3, budget=10 ** 6)
        plan_two = riemann_rearrange(alt[0], 0.25, 1e-3, budget=10 ** 6)
        for name, plan in (("r1.csv", plan_one), ("r2.csv", plan_two)):
            write_trace(str(tmp_path / name),
                        trace_rows(alt, plan.injection, 1))
        assert (tmp_path / "r1.csv").read_bytes() == (
            tmp_path / "r2.csv").read_bytes()

        cert_a, cert_b = str(tmp_path / "a.cert"), str(tmp_path / "b.cert")
        write_certificate(cert_a, chain_a, CHAIN_TARGETS)
        write_certificate(cert_b, chain_b, CHAIN_TARGETS)
        assert filecmp.cmp(cert_a, cert_b, shallow=False), (
            "chain certificates differ between identical runs")

        trace_a, trace_b = tmp_path / "a.trace", tmp_path / "b.trace"
        for path, chain in ((trace_a, chain_a), (trace_b, chain_b)):
            final = chain.final()
            write_trace(str(path),
                        trace_rows(rad4, final.injection, final.dim, chain))
        same = filecmp.cmp(str(trace_a), str(trace_b), shallow=False)
        size = trace_a.stat().st_size
        trace_a.unlink()
        trace_b.unlink()
        assert same, "chain traces differ between identical runs"

        pair, _, plan_c = build_pair_cover_plan()
        _, _, plan_d = build_pair_cover_plan()
        for name, plan in (("c1.csv", plan_c), ("c2.csv", plan_d)):
            write_trace(str(tmp_path / name),
                        trace_rows(pair, plan.injection, 2))
        assert (tmp_path / "c1.csv").read_bytes() == (
            tmp_path / "c2.csv").read_bytes()
        note["detail"] = (f"three workloads byte-identical; chain trace "
                          f"{size / 1e6:.0f} MB per run")
