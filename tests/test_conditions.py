"""Condition validity, the refinement order, and the chain driver."""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sumchase import (BudgetExhaustedError, Condition, InputError,
                      PreconditionError, PrefixPlan, StructureError,
                      UsedIndices, certified_le, certified_lt, composite,
                      extend, extend_detail, family, initial_condition,
                      is_condition, leq, plan_from_injection,
                      rademacher_harmonic, run)
from sumchase import conditions
from sumchase.certcheck import verify_data
from sumchase.conditions import TAIL_CUTOFF_SPAN
from sumchase.fileio import parse_certificate, write_certificate
from sumchase.series import partial_sum_vector, tail_sup_bound, vector_terms

PAIR = family(rademacher_harmonic(0), rademacher_harmonic(1))
TARGETS = (0.1, -0.2)


def test_certified_strict_comparison_needs_margin():
    assert certified_lt(0.4999, Fraction(1, 2))
    assert not certified_lt(0.5, Fraction(1, 2))
    # a value within the float slack of the bound is not certified
    assert not certified_lt(0.5 - 1e-12, Fraction(1, 2))


def test_certified_le_is_exact_for_empty_sums():
    bound = Fraction(3, 4)
    assert certified_le(0.0, bound, bound)
    assert not certified_le(1e-13, bound, bound)
    assert certified_le(0.1, Fraction(1, 2), bound)


def test_condition_fields_are_validated():
    cond = Condition((3, 1), 2, Fraction(1, 3))
    assert tuple(cond.injection) == (3, 1)
    with pytest.raises(InputError):
        Condition((), 0, Fraction(1, 2))
    with pytest.raises(InputError):
        Condition((), 1, Fraction(0))
    with pytest.raises(InputError):
        Condition((), 1, Fraction(-1, 4))


def test_initial_condition_clears_target_and_term_scale():
    cond = initial_condition(PAIR, TARGETS)
    assert tuple(cond.injection) == ()
    assert cond.dim == 1
    assert cond.eps == Fraction(3)
    report = is_condition(cond, PAIR, TARGETS)
    assert report.ok
    assert report.first_failure() is None


def test_condition_check_flags_duplicates():
    cond = Condition((0, 0), 1, Fraction(3))
    report = is_condition(cond, PAIR, TARGETS)
    assert not report.ok
    assert not report.bullet("injective").ok


def test_condition_rejects_indices_outside_int64():
    for injection in ((0, 2 ** 63), (-2 ** 63 - 1,),
                      np.array([2 ** 64 - 1], dtype=np.uint64)):
        with pytest.raises(InputError, match="int64"):
            Condition(injection, 1, Fraction(3))
    edge = Condition((2 ** 63 - 1, -2 ** 63), 1, Fraction(3))
    assert tuple(edge.injection) == (2 ** 63 - 1, -2 ** 63)


def test_condition_injection_is_a_read_only_int64_array():
    cond = Condition([3, 1], 2, Fraction(1, 3))
    assert cond.injection.dtype == np.int64
    with pytest.raises(ValueError):
        cond.injection[0] = 5
    source = np.array([3, 1], dtype=np.int64)
    copied = Condition(source, 2, Fraction(1, 3))
    source[0] = 7
    assert tuple(copied.injection) == (3, 1)
    assert copied == cond and hash(copied) == hash(cond)
    assert cond != Condition((3, 1, 0), 2, Fraction(1, 3))
    assert cond != Condition((3, 1), 1, Fraction(1, 3))
    assert cond != Condition((3, 1), 2, Fraction(1, 4))
    assert len({cond, copied, Condition((1, 3), 2, Fraction(1, 3))}) == 2
    # a plan with the same field values is another kind of record
    assert cond != PrefixPlan(cond.injection, cond.dim, cond.eps)


def test_condition_check_flags_excessive_deviation():
    # sum over the empty prefix is 0, two away from a target of 2
    cond = Condition((), 1, Fraction(1, 2))
    report = is_condition(cond, PAIR, (2.0, 0.0))
    assert not report.bullet("deviation").ok
    assert report.first_failure() == "deviation"


def test_condition_check_flags_thin_tails():
    # tolerance far below the size of the unused terms
    cond = Condition((), 1, Fraction(1, 1000))
    report = is_condition(cond, PAIR, (0.0, 0.0))
    assert not report.bullet("tail-small").ok


@pytest.mark.parametrize("injection", [
    (0, 2, 5, 40, 7, 10_050),
    (),
    (9, 10_003, 10_001, 2),
    tuple(range(0, 300_000, 3)),
], ids=["indices-past-cutoff", "empty-default-cutoff", "default-cutoff",
        "two-scan-chunks"])
def test_tail_small_bullet_matches_a_brute_force(injection):
    d = 2
    cond = Condition(injection, d, Fraction(1, 100))
    report = is_condition(cond, PAIR, TARGETS)
    cut = len(injection) + TAIL_CUTOFF_SPAN
    unused = sorted(set(range(cut)) - set(injection))
    below = 0.0
    if unused:
        below = float(np.linalg.norm(vector_terms(PAIR, unused, d),
                                     axis=1).max())
    bullet = report.bullet("tail-small")
    assert bullet.value == max(below, tail_sup_bound(PAIR, cut, d))
    assert bullet.note == f"cutoff={cut}"


def test_order_is_reflexive():
    cond = initial_condition(PAIR, TARGETS)
    link = leq(cond, cond, PAIR)
    assert link.ok


def test_order_measures_blocks_in_the_dimensions_the_family_has():
    # rejecting a dimension beyond the family is is_condition's job
    upper = Condition((), 3, Fraction(1))
    lower = Condition((0, 1), 3, Fraction(1, 4))
    link = leq(lower, upper, PAIR)
    last_prefix = pytest.approx(math.hypot(0.5, 1.5), rel=1e-15)
    assert link.bullet("block-prefixes").value == last_prefix
    assert link.bullet("tolerance-step").value == last_prefix


def test_link_norms_equal_the_block_plan_bit_for_bit(small_chain):
    fam, _, chain, _, _ = small_chain
    upper, lower = chain.conditions
    link = leq(lower, upper, fam)
    block = lower.injection[len(upper.injection):]
    plan = plan_from_injection(fam, block, (0.0,) * upper.dim)
    assert link.bullet("block-prefixes").value == plan.max_excursion
    assert link.bullet("tolerance-step").value == plan.deviation


def test_order_rejects_non_extensions(small_chain):
    fam, targets, chain, _, _ = small_chain
    upper = chain.conditions[1]
    stranger = Condition((99, 98), upper.dim, upper.eps)
    link = leq(stranger, upper, fam)
    assert not link.ok
    assert not link.bullet("extends").ok


def test_order_rejects_dimension_drops(small_chain):
    fam, targets, chain, _, _ = small_chain
    lower, upper = chain.conditions[1], chain.conditions[0]
    assert leq(lower, upper, fam).ok
    # swapping roles reverses both the prefix and dimension requirements
    link = leq(upper, lower, fam)
    assert not link.ok


def test_single_extension_covers_and_tightens():
    base = initial_condition(PAIR, TARGETS)
    detail = extend_detail(base, 2, PAIR, TARGETS, budget=10 ** 6)
    new = detail.condition
    assert new.dim == 2
    assert new.eps < Fraction(1, 2)
    assert {0, 1} <= set(new.injection)
    assert detail.link.ok
    assert detail.check.ok
    assert detail.appended == len(new.injection)


def test_a_failed_ordering_halves_delta_and_retries(monkeypatch):
    """A block whose running sums break the link's limit is rejected on
    its block-prefixes bullet alone, before the new condition is checked,
    and the next attempt runs with half the ``delta`` on the chain state
    the failed attempt left unchanged."""
    base = initial_condition(PAIR, TARGETS)
    plain = extend_detail(base, 2, PAIR, TARGETS, budget=10 ** 6)
    real_prefix = conditions._largest_running_norm
    real_report = conditions._condition_report
    real_attempt = conditions._attempt_extension
    measured, checked, states = [], [], []

    def over_the_limit_once(fam, indices, dim):
        prefix_max = real_prefix(fam, indices, dim)
        measured.append(prefix_max)
        if len(measured) == 1:
            prefix_max = float(2 * base.eps)
        return prefix_max

    def counted_report(cond, *args):
        checked.append(cond.eps)
        return real_report(cond, *args)

    def seen_state(state, *args):
        mask = state.used.contains(np.arange(1 << 16))
        states.append((state.cond, state.report, mask.tobytes(),
                       [acc.units for acc in state.sums]))
        return real_attempt(state, *args)

    monkeypatch.setattr(conditions, "_largest_running_norm",
                        over_the_limit_once)
    monkeypatch.setattr(conditions, "_condition_report", counted_report)
    monkeypatch.setattr(conditions, "_attempt_extension", seen_state)
    detail = extend_detail(base, 2, PAIR, TARGETS, budget=10 ** 6)
    assert len(measured) == 2
    assert measured[0] < float(2 * base.eps) * 0.98
    # the input condition, then only the second attempt's candidate
    assert checked == [base.eps, detail.condition.eps]
    assert detail.check.ok
    assert detail.link.ok
    assert detail.condition.eps == plain.condition.eps / 2
    # the second attempt started from the state the first one was given
    assert len(states) == 2
    assert states[0] == states[1]
    assert states[0][0] is base
    assert states[0][2] == bytes(1 << 16)  # the empty mask
    assert states[0][3] == [0, 0]


def test_an_exhausted_budget_carries_the_input_condition():
    base = initial_condition(PAIR, TARGETS)
    with pytest.raises(BudgetExhaustedError) as info:
        extend_detail(base, 2, PAIR, TARGETS, budget=10)
    assert info.value.best is base


def test_extension_is_deterministic():
    base = initial_condition(PAIR, TARGETS)
    one = extend(base, 2, PAIR, TARGETS, budget=10 ** 6)
    two = extend(base, 2, PAIR, TARGETS, budget=10 ** 6)
    assert one == two


def test_extension_requires_enough_series():
    base = initial_condition(PAIR, TARGETS)
    grown = extend(base, 1, PAIR, TARGETS, budget=10 ** 6)
    with pytest.raises(InputError):
        extend(grown, 2, PAIR, TARGETS, budget=10 ** 6)


def test_extension_rejects_invalid_inputs():
    base = initial_condition(PAIR, TARGETS)
    with pytest.raises(InputError):
        extend(base, -1, PAIR, TARGETS)
    broken = Condition((0, 0), 1, Fraction(3))
    with pytest.raises(PreconditionError):
        extend(broken, 1, PAIR, TARGETS)


def test_chain_run_produces_a_descending_chain(small_chain):
    fam, targets, chain, report, _ = small_chain
    assert len(chain.conditions) == 2
    assert tuple(chain.conditions[0].injection) == ()
    assert [c.dim for c in chain.conditions] == [1, 2]
    assert chain.conditions[1].eps < chain.conditions[0].eps
    assert chain.conditions[1].eps <= Fraction(1)
    assert all(link.ok for link in chain.checks)
    assert all(rep.ok for rep in chain.condition_reports)
    assert report is chain.condition_reports[-1]


def test_chain_deviation_lands_inside_the_final_tolerance(small_chain):
    fam, targets, chain, _, _ = small_chain
    final = chain.final()
    sums = partial_sum_vector(fam, final.injection, final.dim)
    gap = max(abs(float(s) - t) for s, t in zip(sums, targets[:final.dim]))
    assert gap < float(final.eps)


@pytest.mark.parametrize("call", [
    lambda budget: extend_detail(initial_condition(PAIR, TARGETS), 2, PAIR,
                                 TARGETS, budget=budget),
    lambda budget: extend(initial_condition(PAIR, TARGETS), 2, PAIR,
                          TARGETS, budget=budget),
    lambda budget: run(PAIR, TARGETS, 0, budget=budget),
    lambda budget: run(PAIR, TARGETS, 1, budget=budget),
], ids=["extend_detail", "extend", "run-0-rounds", "run-1-round"])
@pytest.mark.parametrize("budget", [-1, -5])
def test_negative_budgets_are_bad_input(call, budget):
    with pytest.raises(InputError, match="budget must be nonnegative"):
        call(budget)


def test_a_chain_runs_while_a_series_too_deep_for_lanes_stays_inactive():
    deep = family(rademacher_harmonic(0), rademacher_harmonic(1),
                  rademacher_harmonic(24))
    targets = TARGETS + (0.3,)
    chain, _ = run(deep, targets, 1, budget=10 ** 6)
    pair_chain, _ = run(PAIR, TARGETS, 1, budget=10 ** 6)
    assert chain.conditions == pair_chain.conditions
    with pytest.raises(StructureError, match="sign level 24"):
        run(deep, targets, 2, budget=10 ** 6)


def test_run_validates_round_counts():
    with pytest.raises(InputError):
        run(PAIR, TARGETS, -1)
    with pytest.raises(InputError):
        run(PAIR, TARGETS, 2)  # needs three series


def test_zero_rounds_returns_just_the_initial_condition():
    chain, report = run(PAIR, TARGETS, 0)
    assert len(chain.conditions) == 1
    assert chain.checks == ()
    assert tuple(chain.final().injection) == ()
    assert report is chain.condition_reports[-1]


def test_chain_on_a_scaled_lane_family_verifies(tmp_path):
    """The extension step on a family whose first series is scaled by 8
    builds a chain that the independent checker accepts."""
    fam = family(composite([(8.0, rademacher_harmonic(0))]),
                 rademacher_harmonic(1), rademacher_harmonic(2))
    targets = (0.1, -0.2, 0.3)
    chain, _ = run(fam, targets, 2)
    assert [c.dim for c in chain.conditions] == [1, 2, 3]
    cert = tmp_path / "scaled.cert"
    write_certificate(str(cert), chain, targets)
    report = verify_data(parse_certificate(str(cert)), fam)
    assert report.ok, report.failures
    assert report.conditions_checked == 3


def _rademacher_chain(exponent):
    fam = family(*(rademacher_harmonic(i, exponent) for i in range(4)))
    return fam, (0.1, -0.2, 0.3, 0.0), 3


def test_the_start_state_built_from_scratch_is_the_chain_state():
    """At every condition of a 3-round chain, the final one included, the
    state checked from scratch holds run's report, the injection as its
    mask, and exact sums equal to summing each series over the whole
    injection, before and after carry extends them to every series."""
    fam, targets, rounds = _rademacher_chain(0.75)
    chain, _ = run(fam, targets, rounds)
    targets_t = conditions._as_target(targets)
    for cond, report in zip(chain.conditions, chain.condition_reports):
        state = conditions._start_state(cond, fam, targets_t,
                                        conditions.DEFAULT_SCHEDULE,
                                        AssertionError, "condition")
        assert state.report == report
        probe = np.arange(int(cond.injection.max(initial=0)) + 2)
        assert np.array_equal(state.used.contains(probe),
                              np.isin(probe, cond.injection))
        fresh = conditions._ChainState(cond, report, UsedIndices(), [])
        fresh.carry(fam, len(fam))
        assert len(state.sums) == cond.dim
        assert ([acc.units for acc in state.sums]
                == [acc.units for acc in fresh.sums[:cond.dim]])
        state.carry(fam, len(fam))
        assert ([acc.units for acc in state.sums]
                == [acc.units for acc in fresh.sums])


def _benchmark_chain():
    # the benchmark's chain request at seed 1: four series, two rounds,
    # and targets jittered as perfbench/workloads.py jitters them
    fam = family(*(rademacher_harmonic(i) for i in range(4)))
    rng = random.Random(1)
    targets = tuple(t + rng.uniform(-0.005, 0.005)
                    for t in (0.1, -0.2, 0.3, 0.0))
    return fam, targets, 2


def _scaled_chain():
    # CI's scaled.json
    fam = family(composite([(8.0, rademacher_harmonic(0))]),
                 rademacher_harmonic(1), rademacher_harmonic(2))
    return fam, (0.1, -0.2, 0.3), 2


@pytest.mark.parametrize("make", [
    _benchmark_chain, _scaled_chain, lambda: _rademacher_chain(0.75)],
    ids=["benchmark", "scaled", "p075"])
def test_the_chain_state_gives_the_reports_of_the_checks_from_scratch(make):
    """run carries its sums and mask from round to round; every report it
    returns equals is_condition's and leq's, computed from scratch."""
    fam, targets, rounds = make()
    chain, _ = run(fam, targets, rounds)
    assert len(chain.conditions) == rounds + 1
    for cond, report in zip(chain.conditions, chain.condition_reports):
        assert report == is_condition(cond, fam, targets)
    for pos, link in enumerate(chain.checks):
        lower, upper = chain.conditions[pos + 1], chain.conditions[pos]
        assert link == leq(lower, upper, fam)
