"""Target chasing for single series and independent families."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumchase import (BudgetExhaustedError, InputError, PreconditionError,
                      PrefixPlan, abs_power, chase_target, composite,
                      cover_indices, family, partial_sum_vector,
                      plan_from_injection, power_alternating,
                      rademacher_harmonic, riemann_rearrange, verify_prefix)
from sumchase import rearrange
from sumchase.errors import StructureError
from sumchase.rearrange import (lane_modulus, order_block_lanes,
                                select_block_indices, widest_lane_dim)
from sumchase.series import term_array, vector_terms

ALT = power_alternating(1.0)
ALT_FAM = family(ALT)
LN2 = 0.6931471805599453


def test_single_series_reaches_a_nearby_target():
    plan = riemann_rearrange(ALT, 0.0, 0.05)
    assert abs(partial_sum_vector(ALT_FAM, plan.injection)[0] - 0.0) < 0.05


def test_natural_prefix_suffices_for_the_classical_sum():
    plan = riemann_rearrange(ALT, LN2, 0.01)
    assert abs(partial_sum_vector(ALT_FAM, plan.injection)[0] - LN2) < 0.01


def test_zero_target_may_return_the_empty_plan():
    plan = riemann_rearrange(ALT, 0.0, 0.5)
    if not len(plan.injection):
        assert plan.deviation == 0.0


def test_absolutely_convergent_input_is_refused():
    with pytest.raises(PreconditionError):
        riemann_rearrange(abs_power(2.0), 0.3, 0.01)


def test_bad_tolerance_is_refused():
    with pytest.raises(InputError):
        riemann_rearrange(ALT, 0.1, 0.0)


def test_tiny_budget_raises_and_carries_the_best_plan():
    with pytest.raises(BudgetExhaustedError) as info:
        riemann_rearrange(ALT, 4.0, 1e-6, budget=50)
    best = info.value.best
    assert best is not None
    assert len(best.injection) <= 50


def test_chase_budget_carries_its_closest_prefix():
    """A chase that runs out of budget reports the round prefix that came
    closest to the target, as a plan rebuilt from its injection."""
    fam = family(composite([(1.0, ALT)], perturbation=abs_power(2.0)))
    full = chase_target(fam, None, 1.5, 1e-3, seed=1)
    with pytest.raises(BudgetExhaustedError) as info:
        chase_target(fam, None, 1.5, 1e-3, seed=1, budget=11)
    best = info.value.best
    # the first two blocks (5 and 6 indices) fit, the third does not
    assert np.array_equal(best.injection, full.injection[:11])
    assert best == plan_from_injection(fam, best.injection, 1.5)
    assert best.deviation < 1.5


def test_greedy_crossing_error_is_bounded_by_unused_terms():
    target = 0.25
    plan = riemann_rearrange(ALT, target, 0.02)
    used: set[int] = set()
    running = 0.0
    side = None
    crossed = False
    min_unused = 0
    for idx, value in zip(plan.injection.tolist(),
                          term_array(ALT, plan.injection).tolist()):
        used.add(idx)
        while min_unused in used:
            min_unused += 1
        running += value
        new_side = running >= target
        if side is not None and new_side != side and crossed:
            # after the first crossing, each later crossing lands within
            # the largest magnitude still available
            assert abs(running - target) <= 1.0 / (min_unused + 1.0) + 1e-12
        if side is not None and new_side != side:
            crossed = True
        side = new_side


def test_pair_chase_hits_both_coordinates():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    plan = chase_target(fam, None, (0.2, -0.3), 0.01, seed=5)
    assert plan.deviation < 0.01
    report = verify_prefix(fam, plan, (0.2, -0.3))
    assert report.ok
    assert report.flags == ()


def test_chase_extends_its_base_plan():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    base = chase_target(fam, None, (0.1, 0.1), 0.05, seed=1)
    longer = chase_target(fam, base, (-0.4, 0.25), 0.02, seed=1)
    assert np.array_equal(longer.injection[:len(base.injection)],
                          base.injection)


def test_chase_returns_base_when_already_close():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    base = chase_target(fam, None, (0.2, -0.3), 0.01, seed=5)
    again = chase_target(fam, base, (0.2, -0.3), 0.5, seed=5)
    assert np.array_equal(again.injection, base.injection)


def test_chase_is_deterministic_for_a_fixed_seed():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    one = chase_target(fam, None, (0.15, 0.05), 0.005, seed=9)
    two = chase_target(fam, None, (0.15, 0.05), 0.005, seed=9)
    assert np.array_equal(one.injection, two.injection)
    assert one.deviation == two.deviation


def test_multi_series_chase_needs_sign_pattern_structure():
    fam = family(power_alternating(1.0), abs_power(2.0))
    with pytest.raises(StructureError):
        chase_target(fam, None, (0.1, 0.1), 0.01)


def test_chase_takes_at_most_one_target_per_series():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    with pytest.raises(InputError, match="3 targets for a family of 2"):
        chase_target(fam, None, (0.1, 0.2, 0.3), 0.01)


def test_lanes_refuse_a_residue_period_above_the_limit():
    deep = family(rademacher_harmonic(0), rademacher_harmonic(1),
                  rademacher_harmonic(24))
    with pytest.raises(StructureError, match="sign level 24.*2[*][*]20"):
        lane_modulus(deep, 3)
    with pytest.raises(StructureError, match="sign level 24"):
        chase_target(family(rademacher_harmonic(0), rademacher_harmonic(24)),
                     None, (0.1, 0.2), 0.01)
    # a dimension whose period is too wide counts as not dyadic
    assert widest_lane_dim(deep, 2, 3) == 2
    assert widest_lane_dim(family(rademacher_harmonic(24)), 1, 1) is None
    assert lane_modulus(deep, 2) == 4
    # level 19 has a period of exactly 2**20, the widest one enumerated
    assert lane_modulus(family(rademacher_harmonic(19)), 1) == 1 << 20
    # one series is held to the same limit, from its deepest pattern
    mixed = composite([(1.0, rademacher_harmonic(1)),
                       (0.5, rademacher_harmonic(40, 0.75))])
    with pytest.raises(StructureError, match="sign level 40.*2[*][*]20"):
        riemann_rearrange(mixed, -0.1, 0.01, budget=10)


def test_cover_adds_exactly_the_missing_indices():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    base = chase_target(fam, None, (0.2, -0.3), 0.01, seed=5)
    covered = cover_indices(fam, base, 64, (0.2, -0.3))
    assert np.array_equal(covered.injection[:len(base.injection)],
                          base.injection)
    assert set(range(64)) <= covered.used_set
    assert len(covered.injection) == len(set(covered.injection))
    already = cover_indices(fam, covered, 64, (0.2, -0.3))
    assert np.array_equal(already.injection, covered.injection)


def test_cover_on_the_empty_plan_lists_an_initial_segment():
    fam = family(rademacher_harmonic(0))
    empty = plan_from_injection(fam, (), 0.0)
    covered = cover_indices(fam, empty, 3, 0.0)
    assert set(covered.injection) == {0, 1, 2}


def test_cover_without_sign_lanes_appends_the_missing_indices_in_order():
    alt = power_alternating(1.0)
    fam = family(alt, composite([(2.0, alt)]))
    assert lane_modulus(fam, 2) is None
    base = plan_from_injection(fam, (5, 2, 9), (0.1, 0.2))
    covered = cover_indices(fam, base, 12, (0.1, 0.2))
    assert tuple(covered.injection) == (5, 2, 9, 0, 1, 3, 4, 6, 7, 8, 10, 11)
    block = [7, 3, 11, 0, 8]
    assert order_block_lanes(fam, block, 2).tolist() == [0, 3, 7, 8, 11]


def _chase_outcomes(monkeypatch, reverse):
    if reverse:
        monkeypatch.setattr(rearrange, "order_block",
                            lambda fam, indices, dim: sorted(indices,
                                                             reverse=True))
    pair = family(rademacher_harmonic(0), rademacher_harmonic(1))
    triple = family(*(rademacher_harmonic(level) for level in range(3)))
    plans = []
    for seed in (1, 5, 9):
        plans.append(chase_target(pair, None, (0.2, -0.3), 0.005, seed=seed))
        plans.append(chase_target(triple, None, (0.1, -0.2, 0.3), 0.01,
                                  seed=seed))
        plan = chase_target(pair, None, (0.15, 0.3), 5e-3, seed=seed)
        plan = cover_indices(pair, plan, 300, (0.15, 0.3))
        plans.append(chase_target(pair, plan, (0.15, 0.3), 5e-3, seed=seed))
    monkeypatch.undo()
    return plans


def test_block_order_never_steers_the_chase(monkeypatch):
    """Block sums are exact and the used set is a set, so the chasers pick
    the same indices whatever order the blocks are appended in."""
    reversed_plans = _chase_outcomes(monkeypatch, reverse=True)
    plans = _chase_outcomes(monkeypatch, reverse=False)
    assert ([p.injection.tolist() for p in reversed_plans]
            != [p.injection.tolist() for p in plans])
    assert ([(sorted(p.injection), p.deviation) for p in reversed_plans]
            == [(sorted(p.injection), p.deviation) for p in plans])


def test_verify_prefix_recomputes_the_deviation():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    plan = chase_target(fam, None, (0.2, -0.3), 0.01, seed=5)
    report = verify_prefix(fam, plan, (0.2, -0.3))
    assert abs(report.deviation - plan.deviation) < 1e-12


@pytest.mark.parametrize("target, dim", [
    ((0.2, -0.3), 3), ((0.2, -0.3), 0), ((0.2, -0.3), -1), (0.2, 3)],
    ids=["past-the-targets", "zero", "negative", "scalar-target"])
def test_verify_prefix_refuses_a_dimension_outside_its_targets(target, dim):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1),
                 rademacher_harmonic(2))
    plan = plan_from_injection(fam, [0, 1, 2], target)
    with pytest.raises(InputError, match=f"dimension {dim} outside 1"):
        verify_prefix(fam, plan, target, dim)


def test_verify_prefix_measures_the_leading_dimensions():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    plan = plan_from_injection(fam, [0, 1, 2], 0.2)
    report = verify_prefix(fam, plan, (0.2, -0.3), 1)
    assert report.ok
    assert report.deviation == plan.deviation


def test_verify_prefix_flags_duplicates_instead_of_raising():
    fam = family(rademacher_harmonic(0))
    broken = PrefixPlan((0, 0, 1), 0.0, 0.0)
    report = verify_prefix(fam, broken, 0.0)
    assert not report.ok
    assert "duplicate-index" in report.flags


def test_prefix_plan_rejects_indices_outside_int64():
    for injection in ((0, 2 ** 63), (-2 ** 63 - 1,),
                      np.array([2 ** 64 - 1], dtype=np.uint64)):
        with pytest.raises(InputError, match="int64"):
            PrefixPlan(injection, 0.0, 0.0)
    edge = PrefixPlan((2 ** 63 - 1, -2 ** 63), 0.0, 0.0)
    assert tuple(edge.injection) == (2 ** 63 - 1, -2 ** 63)
    report = verify_prefix(family(rademacher_harmonic(0)), edge, 0.0)
    assert report.flags == ("negative-index",)


def test_prefix_plan_injection_is_a_read_only_int64_array():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    plan = plan_from_injection(fam, [3, 1], (0.1, 0.2))
    assert plan.injection.dtype == np.int64
    with pytest.raises(ValueError):
        plan.injection[0] = 5
    source = np.array([3, 1], dtype=np.int64)
    copied = plan_from_injection(fam, source, (0.1, 0.2))
    source[0] = 7
    assert tuple(copied.injection) == (3, 1)
    assert copied == plan and hash(copied) == hash(plan)
    assert copied.used_set == frozenset({1, 3})
    assert all(type(m) is int for m in copied.used_set)
    longer = plan_from_injection(fam, [3, 1, 0], (0.1, 0.2))
    assert np.array_equal(longer.injection[:2], plan.injection)
    assert plan != longer
    assert plan != PrefixPlan(plan.injection, plan.deviation, 0.5)
    assert len({plan, copied, plan_from_injection(fam, [1, 3],
                                                  (0.1, 0.2))}) == 2


@pytest.mark.parametrize("p, mass", [(1.0, 0.1), (0.99, 20.0)],
                         ids=["exp", "power"])
def test_projected_depth_saturates_instead_of_overflowing(p, mass):
    # a level-12 sign pattern has a lane modulus of 2**13
    assert rearrange._projected_depth(1.0, mass, 1 << 13, p) == math.inf
    assert math.isfinite(rearrange._projected_depth(1.0, mass, 4, p))


def test_block_selection_stays_disjoint_from_used_indices():
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    used = rearrange.UsedIndices(range(10))
    picks = select_block_indices(fam, 2, np.array([0.3, -0.2]), used, 0.01)
    assert len(picks)
    assert len(picks) == len(set(picks))
    assert min(picks) >= 10
    # the selection owns its picks afterwards
    assert used.contains(picks).all()


def test_block_selection_approximates_the_residual():
    """The landing contract: with no scan cap the picked rows sum to
    within ``tol`` of the residual, whatever the coefficients, the
    indices already used and the complementary boosts."""
    rng = random.Random(8)
    coefficients = (1.0, 3.0, 8.0, -6.0, 0.5)
    for case in range(60):
        dim = 1 + case % 4
        levels = sorted(rng.sample(range(5), dim))
        fam = family(*(composite([(rng.choice(coefficients),
                                   rademacher_harmonic(level))])
                       for level in levels))
        residual = np.array([rng.uniform(-0.4, 0.4) for _ in range(dim)])
        if case % 10 == 9:
            residual[:] = 0.0
        prior = set(rng.sample(range(400), rng.choice((0, 30, 200))))
        used = rearrange.UsedIndices(sorted(prior))
        tol = rng.choice((0.05, 0.01, 0.002))
        boosts = None
        if case % 3 == 2:
            boosts = rearrange.complementary_boosts(fam, dim, 0.05, rng)
        picks = select_block_indices(fam, dim, residual, used, tol,
                                     boosts=boosts, scan_cap=math.inf)
        where = (case, levels, tuple(residual), tol)
        assert not prior & set(picks), where
        got = vector_terms(fam, picks, dim).reshape(-1, dim).sum(axis=0)
        assert np.linalg.norm(got - residual) < tol + 1e-12, where
        assert bool(len(picks)) == bool(residual.any() or boosts), where


def test_lane_ordering_contract():
    """The lane merge returns a deterministic permutation of the block,
    and, when ``modulus`` is a multiple of the family's lane modulus,
    every prefix norm is at most ``||B||`` plus half the sum, over
    residue lanes, of the lane's largest term norm (``B`` is the block
    sum)."""
    rng = random.Random(20)
    # exponent 1e-18 makes every term +-1.0, so keys of different lanes
    # tie and the tie order decides
    exponents = (1.0, 0.5, 1e-18)
    bounded = 0
    for case in range(240):
        exponent = exponents[case % 3]
        fam = family(*(rademacher_harmonic(level, exponent)
                       for level in range(4)))
        dim = 1 + case % 4
        modulus = (None, 8, 16)[case // 4 % 3]
        span = rng.choice((64, 600, 4000))
        block = rng.sample(range(span), rng.randint(0, min(span, 220)))
        where = (case, dim, modulus, exponent)
        merged = order_block_lanes(fam, block, dim, modulus=modulus).tolist()
        assert merged == order_block_lanes(fam, block, dim,
                                           modulus=modulus).tolist(), where
        assert sorted(merged) == sorted(block), where
        rows = vector_terms(fam, merged, dim).reshape(-1, dim)
        norms = np.linalg.norm(np.cumsum(rows, axis=0), axis=1)
        top = float(norms.max()) if norms.size else 0.0
        lanes = modulus or lane_modulus(fam, dim)
        if block and lanes % lane_modulus(fam, dim) == 0:
            largest = {}
            for m, t in zip(merged, np.linalg.norm(rows, axis=1)):
                lane = m % lanes
                largest[lane] = max(largest.get(lane, 0.0), float(t))
            bound = (np.linalg.norm(rows.sum(axis=0))
                     + 0.5 * sum(largest.values()))
            assert top <= bound + 1e-12, where
            bounded += 1
    assert bounded >= 40


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.integers(min_value=0, max_value=100))
def test_single_series_contract_over_random_targets(target, seed):
    del seed  # the d=1 greedy rule is deterministic anyway
    plan = riemann_rearrange(ALT, target, 0.02, budget=10 ** 5)
    assert abs(partial_sum_vector(ALT_FAM, plan.injection)[0] - target) < 0.02


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.4, max_value=0.4),
       st.floats(min_value=-0.4, max_value=0.4))
def test_pair_chase_contract_over_random_targets(x0, x1):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    plan = chase_target(fam, None, (x0, x1), 0.02, seed=2)
    sums = partial_sum_vector(fam, plan.injection)
    assert math.hypot(sums[0] - x0, sums[1] - x1) < 0.02


def _set_take(struct, residues, mass, lane_tol, used, scan_cap):
    """The take-if-fits lane scan as a scalar loop over a used set, with
    term_array's magnitudes."""
    plain = rademacher_harmonic(0, struct.exponent)
    sizes = np.zeros(0)
    picks = []
    remaining = mass
    block = 0
    ordered = sorted(residues)
    while remaining >= lane_tol:
        base = block * struct.modulus
        if base > scan_cap:
            break
        for r in ordered:
            m = base + r
            if m in used:
                continue
            if m >= len(sizes):
                sizes = np.abs(term_array(plain, np.arange(2 * m + 1)))
            magnitude = float(sizes[m])
            if magnitude <= remaining:
                picks.append(m)
                used.add(m)
                remaining -= magnitude
                if remaining < lane_tol:
                    break
        block += 1
    return picks


def _set_first_unused(struct, residues, used):
    block = 0
    while True:
        for r in sorted(residues):
            if block * struct.modulus + r not in used:
                return block * struct.modulus + r
        block += 1


def test_mask_lane_scan_matches_the_set_scan():
    """The windowed scan over a used mask picks exactly the indices of
    the scalar loop over a used set, across window boundaries, gapped
    levels, fractional exponents, scan caps and crowded used sets."""
    rng = random.Random(31)
    for case in range(24):
        exponent = (1.0, 0.75, 0.5)[case % 3]
        dim = 1 + case % 3
        levels = sorted(rng.sample(range(6), dim))
        fam = family(*(rademacher_harmonic(level, exponent)
                       for level in levels))
        struct = rearrange._lane_structure(fam, dim)
        span = rng.choice((100, 5_000, 300_000))
        used = set(rng.sample(range(span), rng.randrange(span // 2)))
        if case % 4 == 3:
            used |= set(range(span // 3))
        mask = rearrange.UsedIndices(list(used))
        for residues in struct.lane_residues:
            assert rearrange._first_unused(struct, residues, mask) == \
                _set_first_unused(struct, residues, used)
            mass = rng.choice((1e-9, 0.05, 0.4, 2.0))
            # scans end by depth lane_tol ** (-1 / exponent) <= 250_000
            lane_tol = rng.choice((1e-2, 1e-4, 4e-6)) ** exponent
            scan_cap = rng.choice((math.inf, math.inf, 40_000, 2_000_000))
            where = (case, levels, exponent, residues[:3], mass, lane_tol,
                     scan_cap)
            expected = _set_take(struct, residues, mass, lane_tol,
                                 set(used), scan_cap)
            got = rearrange._take_from_lane(struct, residues, mass,
                                            lane_tol, mask, scan_cap)
            assert got.dtype == np.int64, where
            assert got.tolist() == expected, where


def test_lane_scan_crosses_many_windows():
    # this mass mines the lane past four full windows of 2**16 members
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    struct = rearrange._lane_structure(fam, 2)
    used = set(range(0, 600_000, 3))
    mask = rearrange.UsedIndices(list(used))
    residues = struct.lane_residues[1]
    expected = _set_take(struct, residues, 2.7, 3e-7, set(used), math.inf)
    got = rearrange._take_from_lane(struct, residues, 2.7, 3e-7, mask,
                                    math.inf)
    assert max(expected) // struct.modulus > 4 * rearrange._SCAN_WINDOW
    assert got.tolist() == expected


def test_scans_read_term_array_values():
    # at m = 1922 of the alternating harmonic series libm ``pow`` rounds
    # the term one ulp below term_array's value
    spec = rademacher_harmonic(0)
    value = float(term_array(spec, np.array([1922]))[0])
    struct = rearrange._lane_structure(family(spec), 1)
    residues = struct.lane_residues[struct.sign_vectors.index((1,))]
    for mass, taken in ((math.nextafter(value, 0.0), []), (value, [1922])):
        # 1922 is the one candidate left, taken exactly when it fits
        used = rearrange.UsedIndices(range(1922))
        assert rearrange._take_from_lane(struct, residues, mass, 1e-12, used,
                                         1922).tolist() == taken
        assert rearrange._select_scalar(spec, mass, used, 1e-12,
                                        1922).tolist() == taken
    stream = rearrange._sign_stream(spec, 1)
    assert next(v for m, v in stream if m == 1922) == value


def test_used_indices_grow_by_doubling_and_read_past_their_end():
    used = rearrange.UsedIndices([3, 5])
    assert used.contains(np.array([2, 3, 5, 6, 10 ** 9])).tolist() == [
        False, True, True, False, False]
    used.add(np.array([7]))
    assert len(used._bits) == 12
    used.add([100])
    assert len(used._bits) == 101
    with pytest.raises(InputError):
        used.add([-1])


def test_cover_reads_only_the_plan_entries_below_its_bound():
    """A plan holding an index far past ``n`` is covered with a mask of
    ``n`` entries: the far index is neither missing nor a mask size."""
    fam = family(rademacher_harmonic(0))
    held = (3, 5, 10 ** 12)
    plan = plan_from_injection(fam, held, 0.0)
    covered = cover_indices(fam, plan, 8, 0.0)
    assert tuple(covered.injection[:3]) == held
    assert sorted(covered.injection[3:].tolist()) == [0, 1, 2, 4, 6, 7]
    assert cover_indices(fam, plan, 0, 0.0) is plan
    assert cover_indices(fam, plan, 3, 0.0).injection[3:].tolist() == [
        0, 1, 2]
    empty = plan_from_injection(fam, (), 0.0)
    assert cover_indices(fam, empty, 3, 0.0).injection.tolist() == [0, 1, 2]


def test_lane_masses_use_the_lane_period_on_gapped_levels():
    """A lane of levels 0, 1 and 12 holds 1024 of the 8192 residues, so
    its members are 8 apart: costs projected with that period stay
    finite, and an axis load spreads evenly over both of its pairs."""
    fam = family(*(rademacher_harmonic(level) for level in (0, 1, 12)))
    struct = rearrange._lane_structure(fam, 3)
    period = struct.modulus // len(struct.lane_residues[0])
    assert (struct.modulus, period) == (1 << 13, 8)
    # every lane's frontier at 1: nothing used yet
    masses = rearrange._lane_masses(struct, np.array([0.5, 0.0, 0.0]), {},
                                    dict.fromkeys(struct.sign_vectors, 1.0))
    pairs = rearrange._axis_pairs(struct.sign_vectors, 0, 1)
    assert len(pairs) == 2
    loads = [masses.get(sig, 0.0) for sig, _ in pairs]
    assert min(loads) > 0.0
    assert abs(loads[0] - loads[1]) <= 0.5 / 2 / rearrange._FILL_CHUNKS
    pair = family(rademacher_harmonic(0), rademacher_harmonic(12))
    pair_struct = rearrange._lane_structure(pair, 2)
    pair_masses = rearrange._lane_masses(
        pair_struct, np.array([0.1, 0.2]), {},
        dict.fromkeys(pair_struct.sign_vectors, 1.0))
    for mass in list(masses.values()) + list(pair_masses.values()):
        assert math.isfinite(rearrange._projected_depth(1.0, mass, 8, 1.0))
    for mass in pair_masses.values():
        assert math.isfinite(rearrange._projected_depth(1.0, mass, 4, 1.0))


@pytest.mark.parametrize("n_series", [1, 2])
def test_plans_refuse_more_targets_than_series(n_series):
    """Three targets for a family of one or two series are bad input for
    plan_from_injection and for the calls that build or check plans."""
    fam = family(*(rademacher_harmonic(level) for level in range(n_series)))
    targets = (0.1, 0.2, 5.0)
    with pytest.raises(InputError, match="3 targets for a family of"):
        plan_from_injection(fam, [0, 1, 2], targets)
    plan = plan_from_injection(fam, [0, 1, 2], targets[:n_series])
    with pytest.raises(InputError, match="3 targets for a family of"):
        cover_indices(fam, plan, 10, targets)
    with pytest.raises(InputError, match="3 targets for a family of"):
        verify_prefix(fam, plan, targets)


def test_used_indices_list_what_they_miss_below_a_bound():
    used = rearrange.UsedIndices([3, 5])  # a mask of 6 entries
    assert used.missing_below(8).tolist() == [0, 1, 2, 4, 6, 7]
    assert used.missing_below(4).tolist() == [0, 1, 2]
    assert used.missing_below(0).size == 0
    assert rearrange.UsedIndices().missing_below(3).tolist() == [0, 1, 2]
