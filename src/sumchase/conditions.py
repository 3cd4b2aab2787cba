"""Descending chains of certified rearrangement states.

A *condition* bundles a finite injection prefix, the number of leading
series it controls, and an exact rational tolerance: the prefix's partial
sums sit within ``eps`` of the targets on the active dimensions, and
every unused index has a term vector smaller than ``eps / C_d``.  One
condition refines another when it extends the injection, activates at
least as many dimensions, keeps every appended block prefix (measured in
the older dimensions) under ``2 * eps``, and shrinks the tolerance fast
enough that ``2 * delta + ||block sum|| <= 2 * eps``.

The extension step adds one dimension per round by appending one block:
pick a reduced tolerance ``eta`` with certified room over the unused-term
ceiling, pick a rational ``delta`` below ``1/n``, take every uncovered
index below a cutoff chosen from the tail envelope, and add indices drawn
lane by lane whose sum lands within ``delta / 4`` of the targets
(select_block_indices states the bound).  The block is ordered by
draining its residue lanes at equal rates (order_block_lanes), and the
link's ``block-prefixes`` bullet, measured first, must keep its running
sums in the old dimensions below ``0.98 * 2 * eps`` before the new
condition itself is checked.
The selection steers every target coordinate from the first round, not
just the certified ones: once the small indices are spent, moving a
coordinate by a fixed amount with harmonic tail terms costs
exponentially many indices, so deferring a coordinate until its round
would blow the budget.  Every claim is rechecked with measured
quantities before the new condition is accepted; if any check fails,
``delta`` is halved and the attempt repeats.  ``run`` hands one chain
state from round to round (the used mask, the exact sums and the check
of the last condition), so a round sums and checks only the block it
appends; is_condition and leq check from scratch.

All tolerances are exact fractions.  Floating-point norms enter
comparisons only through a fixed slack margin, so a certified inequality
survives recomputation by an independent checker.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .confinement import ConstantSchedule, DEFAULT_SCHEDULE
from .errors import (BudgetExhaustedError, InfeasibleEtaError, InputError,
                     PreconditionError, SearchError)
from .rearrange import (UsedIndices, _as_target, _largest_running_norm,
                        block_statistics, lane_modulus, order_block_lanes,
                        select_block_indices, widest_lane_dim)
from .series import (FamilyVector, _ExactSum, _InjectionRecord, _add_terms,
                     index_problems, tail_sup_bound, vector_terms)
# not called here; perfbench/tracing.py rebinds this name in each module
from .series import partial_sum_vector  # noqa: F401

#: Margin subtracted from every strict certified comparison, absorbing
#: float rounding in the measured quantity.
_SLACK_FRACTION = Fraction(1, 10 ** 9)

#: Unused indices below ``len(injection) + TAIL_CUTOFF_SPAN`` are checked
#: term by term; beyond that the monotone tail envelope takes over.
TAIL_CUTOFF_SPAN = 10_000

#: Unused indices whose terms the candidate check evaluates at once.
_SCAN_CHUNK = 1 << 16

_ETA_STEPS = 20
_DELTA_RETRIES = 5

def certified_lt(value: float, bound: Fraction) -> bool:
    """Strict float-below-rational comparison with the slack margin."""
    return Fraction(value) + _SLACK_FRACTION < bound


def certified_le(value: float, extra: Fraction, bound: Fraction) -> bool:
    """Certified ``extra + value <= bound``.

    A value that is exactly zero is an empty sum, which needs no slack;
    that keeps reflexive comparisons exact.
    """
    if value == 0.0:
        return extra <= bound
    return extra + Fraction(value) + _SLACK_FRACTION <= bound


@dataclass(frozen=True, eq=False)
class Condition(_InjectionRecord):
    """Injection prefix, active dimension count, exact tolerance.

    ``injection`` is held as a read-only int64 array (``index_vector``);
    negative and repeated entries are kept for is_condition to report,
    but an entry outside int64 is an input error here.  Two conditions
    are equal when their injections, dimensions and tolerances are.
    """

    dim: int
    eps: Fraction

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dimension must be a positive int, got {self.dim!r}")
        eps = Fraction(self.eps)
        if eps <= 0:
            raise InputError(f"tolerance must be positive, got {eps}")
        object.__setattr__(self, "eps", eps)


@dataclass(frozen=True)
class BulletCheck:
    """One checked inequality with the quantities that went into it."""

    name: str
    ok: bool
    value: float
    bound: float
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    bullets: tuple[BulletCheck, ...]

    def bullet(self, name: str) -> BulletCheck:
        for b in self.bullets:
            if b.name == name:
                return b
        raise KeyError(name)

    def first_failure(self) -> str | None:
        for b in self.bullets:
            if not b.ok:
                return b.name
        return None


def is_condition(cond: Condition, fam: FamilyVector, targets,
                 schedule: ConstantSchedule | None = None) -> ConditionReport:
    """Check the five defining requirements, returning per-bullet evidence.

    The unused-term requirement is discharged exactly below the cutoff
    ``len(injection) + TAIL_CUTOFF_SPAN``, the certificate checker's, and
    by the tail envelope above.
    """
    return _checked_state(cond, fam, _as_target(targets),
                          schedule or DEFAULT_SCHEDULE).report


def _condition_report(cond: Condition, fam: FamilyVector,
                      targets_t: np.ndarray, schedule: ConstantSchedule,
                      problems: tuple[str, ...], sums: list[_ExactSum],
                      used: UsedIndices) -> ConditionReport:
    """is_condition's bullets from the injection's ``problems``, the exact
    sums of its terms over the first ``cond.dim`` series (or more) and its
    indices as a mask; ``sums`` and ``used`` are read only when the
    injection has no problems and the dimension fits."""
    bullets: list[BulletCheck] = []
    dup_free = not problems
    bullets.append(BulletCheck("injective", dup_free, float(len(problems)),
                               0.0, note=",".join(problems)))
    dims_ok = 1 <= cond.dim <= len(fam) and cond.dim <= len(targets_t)
    bullets.append(BulletCheck("dimension", dims_ok, float(cond.dim),
                               float(min(len(fam), len(targets_t)))))
    bullets.append(BulletCheck("tolerance", cond.eps > 0,
                               float(cond.eps), 0.0))
    if not (dup_free and dims_ok):
        return ConditionReport(False, tuple(bullets))
    d = cond.dim
    deviation = float(np.linalg.norm(
        np.array([acc.value() for acc in sums[:d]]) - targets_t[:d]))
    bullets.append(BulletCheck("deviation", certified_lt(deviation, cond.eps),
                               deviation, float(cond.eps)))
    cutoff = len(cond.injection) + TAIL_CUTOFF_SPAN
    ceiling = cond.eps / Fraction(schedule.value_at(d))
    unused = used.missing_below(cutoff)
    # a row's norm does not depend on the rows beside it, so the largest
    # over chunks is the largest over every unused index
    peaks = [np.linalg.norm(vector_terms(fam, unused[at:at + _SCAN_CHUNK], d),
                            axis=1).max()
             for at in range(0, len(unused), _SCAN_CHUNK)]
    below_max = float(np.max(peaks, initial=0.0))
    beyond = tail_sup_bound(fam, cutoff, d)
    tail_ok = (certified_lt(below_max, ceiling) if below_max > 0.0 else True) \
        and certified_lt(beyond, ceiling)
    bullets.append(BulletCheck("tail-small", tail_ok,
                               max(below_max, beyond), float(ceiling),
                               note=f"cutoff={cutoff}"))
    return ConditionReport(all(b.ok for b in bullets), tuple(bullets))


def leq(lower: Condition, upper: Condition,
        fam: FamilyVector) -> ConditionReport:
    """Check the four refinement requirements of ``lower <= upper``.

    Both arguments are assumed to be valid conditions; validity itself is
    is_condition's job.
    """
    k = len(upper.injection)
    extends = np.array_equal(lower.injection[:k], upper.injection)
    block = lower.injection[k:] if extends else ()
    sums, prefix_max = block_statistics(fam, block, upper.dim)
    return _link_report(lower, upper, extends, prefix_max,
                        float(np.linalg.norm(sums)))


def _link_report(lower: Condition, upper: Condition, extends: bool,
                 prefix_max: float, block_norm: float) -> ConditionReport:
    """leq's bullets from whether ``lower`` extends ``upper`` and the
    appended block's largest running norm and sum norm, both measured
    over the first ``upper.dim`` series."""
    bullets: list[BulletCheck] = []
    bullets.append(BulletCheck("extends", extends, float(len(lower.injection)),
                               float(len(upper.injection))))
    bullets.append(BulletCheck("dimensions", lower.dim >= upper.dim,
                               float(lower.dim), float(upper.dim)))
    two_eps = 2 * upper.eps
    bullets.append(BulletCheck(
        "block-prefixes",
        certified_lt(prefix_max, two_eps) if prefix_max > 0.0 else 0 < two_eps,
        prefix_max, float(two_eps)))
    bullets.append(BulletCheck(
        "tolerance-step", certified_le(block_norm, 2 * lower.eps, two_eps),
        block_norm, float(two_eps),
        note=f"two_delta={2 * lower.eps}"))
    return ConditionReport(all(b.ok for b in bullets), tuple(bullets))


# ---------------------------------------------------------------------------
# The extension step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendDetail:
    """An accepted extension plus the evidence that justified it."""

    condition: Condition
    link: ConditionReport
    check: ConditionReport
    appended: int


def _smallest_cover_cutoff(fam: FamilyVector, dim: int, bound: float,
                           floor: int) -> int:
    lo, hi = 0, 1
    while tail_sup_bound(fam, hi, dim) >= bound:
        hi *= 2
        if hi > 1 << 40:
            raise SearchError("tail envelope never drops below the cover bound")
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_sup_bound(fam, mid, dim) < bound:
            hi = mid
        else:
            lo = mid + 1
    return max(lo, floor)


@dataclass
class _ChainState:
    """What a chain knows about its last condition ``cond``, handed from
    round to round so that a round reads only its own block: the check
    ``report`` that accepted ``cond`` (is_condition's), its indices as a
    mask, and the exact sums of its terms over the first ``len(sums)``
    series."""

    cond: Condition
    report: ConditionReport
    used: UsedIndices
    sums: list[_ExactSum]

    def carry(self, fam: FamilyVector, dim: int) -> None:
        """Extend ``sums`` to the first ``dim`` series, each new one
        summed over the whole injection."""
        more = [_ExactSum() for _ in range(len(self.sums), dim)]
        _add_terms(more, fam, self.cond.injection, len(self.sums))
        self.sums.extend(more)


def _extension_check(state: _ChainState, candidate: Condition,
                     block: np.ndarray, used: UsedIndices,
                     sums: list[_ExactSum], fam: FamilyVector,
                     targets: np.ndarray,
                     schedule: ConstantSchedule) -> ConditionReport:
    """is_condition's report of ``candidate``, the state's condition plus
    ``block``, read from the state: the injection is one when the block
    has no duplicates and no index already in the state's mask; ``sums``
    and ``used`` are the candidate's exact sums and mask."""
    _, problems = index_problems(block)
    if ("duplicate" not in problems
            and state.used.contains(block[block >= 0]).any()):
        problems += ("duplicate",)
    return _condition_report(candidate, fam, targets, schedule, problems,
                             sums, used)


def _attempt_extension(state: _ChainState, n: int, fam: FamilyVector,
                       targets: np.ndarray, delta: Fraction,
                       schedule: ConstantSchedule, budget: int,
                       full_dim: int, modulus: int | None
                       ) -> tuple[ExtendDetail | None, int]:
    """One ``delta`` attempt on a copy of the state's mask, summing only
    the block; an accepted candidate is committed to the state."""
    cond = state.cond
    d = cond.dim
    new_dim = d + 1
    cover_bound = float(delta / Fraction(schedule.value_at(new_dim))) / 4.0
    m_cov = _smallest_cover_cutoff(fam, new_dim, cover_bound, floor=n)
    used = copy.deepcopy(state.used)
    cover = used.missing_below(m_cov)
    used.add(cover)
    block_sums = [_ExactSum() for _ in range(full_dim)]
    _add_terms(block_sums, fam, cover)
    base_full = np.array([acc.value() for acc in state.sums[:full_dim]])
    cover_full = np.array([acc.value() for acc in block_sums])
    residual = targets[:full_dim] - base_full - cover_full
    # Steering every coordinate now keeps the next round's residual at
    # tolerance scale; solving it later, when only far tail indices remain
    # unused, would take exponentially many terms.  With no scan cap the
    # picks land within delta / 4 of the targets, measured in norm.  The
    # scan stops once the block passes the budget.
    picks = select_block_indices(fam, full_dim, residual, used,
                                 float(delta) / 4.0, scan_cap=math.inf,
                                 budget=budget - len(cover))
    appended = len(cover) + len(picks)
    if appended > budget:
        raise BudgetExhaustedError(
            f"extension block of at least {appended} indices exceeds the "
            f"remaining budget of {budget}", best=cond)
    _add_terms(block_sums, fam, picks)
    injection = np.concatenate((cond.injection, order_block_lanes(
        fam, np.concatenate((cover, picks)), d, modulus=modulus)))
    del cover, picks  # the block lives on in the injection only
    injection.flags.writeable = False  # so the condition takes it uncopied
    block = injection[len(cond.injection):]
    candidate = Condition(injection, new_dim, delta)
    block_norm = float(np.linalg.norm(
        np.array([acc.value() for acc in block_sums[:d]])))
    link = _link_report(candidate, cond, True,
                        _largest_running_norm(fam, block, d), block_norm)
    # the link's block-prefixes bullet needs every running sum below
    # 2 * eps; a 2% margin keeps that certified comparison clear, and a
    # block without it is not worth checking further
    if link.bullet("block-prefixes").value > float(2 * cond.eps) * 0.98:
        return None, appended
    sums = [_ExactSum(a.units + b.units)
            for a, b in zip(state.sums, block_sums)]
    check = _extension_check(state, candidate, block, used, sums, fam,
                             targets, schedule)
    if not (check.ok and link.ok):
        return None, appended
    state.cond, state.report, state.used, state.sums = (candidate, check,
                                                        used, sums)
    return ExtendDetail(candidate, link, check, appended), appended


def extend_detail(cond: Condition, n: int, fam: FamilyVector, targets,
                  budget: int = 10 ** 7,
                  schedule: ConstantSchedule | None = None, *,
                  _state: _ChainState | None = None) -> ExtendDetail:
    """One refinement round: activate dimension ``d + 1``, cover all indices
    below ``n``, and certify a tolerance below ``1/n``.

    ``budget`` (nonnegative) caps the indices appended, summed over the
    ``delta`` attempts.  Returns the new condition together with the refinement
    evidence.  When a block would exceed the budget, BudgetExhaustedError
    carries the input condition ``cond`` as ``best``.  ``_state`` is
    run's chain state, whose condition is ``cond``; the round then trusts
    its check instead of checking ``cond`` again, and leaves it at the
    new condition.
    """
    schedule = schedule or DEFAULT_SCHEDULE
    targets_t = _as_target(targets)
    if n < 0:
        raise InputError("coverage bound must be nonnegative")
    if budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget!r}")
    new_dim = cond.dim + 1
    if len(fam) < new_dim or len(targets_t) < new_dim:
        raise InputError(
            f"extension to dimension {new_dim} needs that many series and targets")
    if _state is None:
        _state = _start_state(cond, fam, targets_t, schedule,
                              PreconditionError, "input condition")
    base_check = _state.report
    tail_ceiling = base_check.bullet("tail-small").value
    deviation = base_check.bullet("deviation").value
    c_d = Fraction(schedule.value_at(cond.dim))
    eta: Fraction | None = None
    for t in range(1, _ETA_STEPS + 1):
        candidate = cond.eps * (1 - Fraction(1, 2 ** t))
        if certified_lt(tail_ceiling, candidate / c_d):
            eta = candidate
            break
    if eta is None:
        raise InfeasibleEtaError(
            "no reduced tolerance clears the unused-term ceiling; the input "
            "condition's tail margin is too thin")
    choices = [(cond.eps - eta) / 2, (cond.eps - Fraction(deviation)) / 4]
    if n >= 1:
        choices.append(Fraction(1, n))
    delta = min(choices)
    # round down to a short dyadic so certificates stay readable
    grid = Fraction(1, 1 << 40)
    floored = (delta // grid) * grid
    if floored > 0:
        delta = floored
    scope = widest_lane_dim(fam, new_dim, min(len(fam), len(targets_t)))
    full_dim = scope if scope is not None else new_dim
    modulus = lane_modulus(fam, full_dim)
    _state.carry(fam, full_dim)
    budget_left = budget
    for _ in range(_DELTA_RETRIES):
        detail, spent = _attempt_extension(_state, n, fam, targets_t, delta,
                                           schedule, budget_left, full_dim,
                                           modulus)
        budget_left -= spent
        if detail is not None:
            return detail
        delta = delta / 2
    raise SearchError(
        f"extension from dimension {cond.dim} failed {_DELTA_RETRIES} "
        f"tolerance reductions in a row")


def _checked_state(cond: Condition, fam: FamilyVector, targets: np.ndarray,
                   schedule: ConstantSchedule) -> _ChainState:
    """A chain state at ``cond`` checked from scratch: its mask and its
    exact sums over the first ``cond.dim`` series, and the report they
    give.  An injection with negative or repeated entries gets an empty
    mask and no sums, which its report does not read."""
    _, problems = index_problems(cond.injection)
    used = UsedIndices(() if problems else cond.injection)
    sums = [_ExactSum() for _ in range(0 if problems else cond.dim)]
    _add_terms(sums, fam, cond.injection)
    report = _condition_report(cond, fam, targets, schedule, problems, sums,
                               used)
    return _ChainState(cond, report, used, sums)


def _start_state(cond: Condition, fam: FamilyVector, targets: np.ndarray,
                 schedule: ConstantSchedule, error: type, what: str
                 ) -> _ChainState:
    """:func:`_checked_state`, raising ``error`` naming ``what`` and the
    failed bullet when the check fails."""
    state = _checked_state(cond, fam, targets, schedule)
    if not state.report.ok:
        raise error(f"{what} fails its {state.report.first_failure()} check")
    return state


def extend(cond: Condition, n: int, fam: FamilyVector, targets,
           budget: int = 10 ** 7,
           schedule: ConstantSchedule | None = None) -> Condition:
    """Refine ``cond`` by one dimension; see extend_detail for the evidence."""
    return extend_detail(cond, n, fam, targets, budget, schedule).condition


# ---------------------------------------------------------------------------
# The chain driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateChain:
    """A descending sequence of conditions with per-step evidence."""

    conditions: tuple[Condition, ...]
    checks: tuple[ConditionReport, ...]
    condition_reports: tuple[ConditionReport, ...]

    def final(self) -> Condition:
        return self.conditions[-1]


def initial_condition(fam: FamilyVector, targets,
                      schedule: ConstantSchedule | None = None) -> Condition:
    """The empty-prefix starting state: a tolerance comfortably above both
    the first target and the first series' largest term."""
    schedule = schedule or DEFAULT_SCHEDULE
    targets_t = _as_target(targets)
    c1 = schedule.value_at(1)
    base = max(abs(targets_t[0]), c1 * tail_sup_bound(fam, 0, 1))
    eps0 = Fraction(math.ceil(base * 1024), 1024) + 1
    return Condition((), 1, eps0)


def run(fam: FamilyVector, targets, rounds: int, seed: int = 0,
        budget: int = 10 ** 7,
        schedule: ConstantSchedule | None = None
        ) -> tuple[CertificateChain, ConditionReport]:
    """Drive ``rounds`` extension steps from the initial condition.

    After round ``r`` the active dimension is ``r + 1``, the tolerance is
    below ``1/r``, and indices ``0..r-1`` appear in both the domain and
    the range of the injection.  Returns the full chain and the final
    condition's check, ``chain.condition_reports[-1]``, whose
    ``deviation`` bullet is the final injection's distance from the
    targets.  ``seed`` is ignored: the extension step draws no random
    numbers.  When a round runs out of budget, BudgetExhaustedError
    carries the chain built so far as ``best``.
    """
    del seed
    schedule = schedule or DEFAULT_SCHEDULE
    targets_t = _as_target(targets)
    if rounds < 0:
        raise InputError("rounds must be nonnegative")
    if budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget!r}")
    if len(fam) < rounds + 1 or len(targets_t) < rounds + 1:
        raise InputError(
            f"{rounds} rounds need {rounds + 1} series and targets")
    state = _start_state(initial_condition(fam, targets_t, schedule), fam,
                         targets_t, schedule, SearchError, "initial condition")
    conditions = [state.cond]
    links: list[ConditionReport] = []
    reports = [state.report]
    budget_left = budget
    for r in range(1, rounds + 1):
        try:
            detail = extend_detail(state.cond, r, fam, targets_t,
                                   budget=budget_left, schedule=schedule,
                                   _state=state)
        except BudgetExhaustedError as exc:
            partial = CertificateChain(tuple(conditions), tuple(links),
                                       tuple(reports))
            raise BudgetExhaustedError(
                f"round {r}: {exc}", best=partial) from exc
        budget_left -= detail.appended
        conditions.append(detail.condition)
        links.append(detail.link)
        reports.append(detail.check)
    chain = CertificateChain(tuple(conditions), tuple(links), tuple(reports))
    return chain, chain.condition_reports[-1]
