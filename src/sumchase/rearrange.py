"""Building injection prefixes whose partial sums approach a target.

The single-series routine follows the classic greedy rule: append the
next unused positive-term index while the running sum is at or below the
target, otherwise the next unused negative-term index.  Once the running
sum first crosses the target, its distance from the target is bounded by
the largest unused term magnitude at every later crossing, so the greedy
loop converges whenever the series is conditionally convergent.

The multi-series routine (chase_target) works in rounds.  Each round
solves for how much term mass to draw from each sign class: for families
built from dyadic sign patterns, every index falls into a residue lane
mod ``2**(max_level + 1)`` whose sign vector is fixed, so moving the
running sum by some vector means assigning each lane a nonnegative mass
whose signed combination equals that vector.  The assignment spreads
each coordinate move over antipodal lane pairs (see _lane_masses) so no
lane is mined exponentially deep.  Indices are drawn from each lane by a
take-if-fits scan, the chosen block is ordered by draining its residue
lanes at equal rates (order_block_lanes), so every running sum stays
within half a term per lane of the segment from the old sum to the new
one, and the round repeats on whatever residual is left.  Randomized
restarts perturb the lane masses in complementary pairs (which leaves
the block sum unchanged) when a round stalls.

Every plan stores only its injection plus statistics that can be
recomputed from scratch; verify_prefix does exactly that.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (BudgetExhaustedError, InputError, PreconditionError,
                     StructureError)
from .series import (FamilyVector, SeriesSpec, index_problems,
                     is_conditionally_convergent, partial_sum_vector,
                     reduce_spec, term, vector_terms)

_DEFAULT_MAX_ROUNDS = 48


def _as_target(target) -> np.ndarray:
    """Per-series target sums, from a number or a nonempty sequence of
    finite numbers."""
    if isinstance(target, (int, float)):
        target = (target,)
    values = tuple(float(v) for v in target)
    if not values:
        raise InputError("target vector must have at least one entry")
    for v in values:
        if not math.isfinite(v):
            raise InputError(f"target entries must be finite, got {v!r}")
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True)
class PrefixPlan:
    """A finite injection prefix plus recomputable summary statistics.

    ``deviation`` is the distance from the target the plan was built
    against, measured in the dimensions that were active at build time;
    ``max_excursion`` is the largest norm any running partial-sum vector
    reached.  Both are derived values: verify_prefix recomputes them from
    the injection alone.  ``used_set``, the injection's range, is built
    from ``injection`` on every access.
    """

    injection: tuple[int, ...]
    deviation: float
    max_excursion: float

    @property
    def used_set(self) -> frozenset[int]:
        return frozenset(self.injection)

    def __len__(self) -> int:
        return len(self.injection)

    def extends(self, other: "PrefixPlan") -> bool:
        k = len(other.injection)
        return len(self.injection) >= k and self.injection[:k] == other.injection


def block_statistics(fam: FamilyVector, indices: Sequence[int],
                     dim: int) -> tuple[np.ndarray, float]:
    """Coordinate sums of the terms at ``indices`` over the first ``dim``
    series (``partial_sum_vector``), and the largest norm of their
    running sums in the listed order (0.0 for no indices)."""
    sums = partial_sum_vector(fam, indices, dim)
    if not len(indices):
        return sums, 0.0
    running = np.cumsum(vector_terms(fam, indices, dim), axis=0)
    return sums, float(np.linalg.norm(running, axis=1).max())


def plan_from_injection(fam: FamilyVector, injection: Sequence[int],
                        target, dim: int | None = None) -> PrefixPlan:
    """Canonical plan builder: all statistics recomputed from the series."""
    goal = _as_target(target)
    dim = len(goal) if dim is None else dim
    inj = tuple(map(int, injection))
    sums, max_excursion = block_statistics(fam, inj, dim)
    deviation = float(np.linalg.norm(sums - goal[:dim]))
    return PrefixPlan(inj, deviation, max_excursion)


# ---------------------------------------------------------------------------
# Single series
# ---------------------------------------------------------------------------

class _SignScanner:
    """Finds the next unused index of a requested sign, scanning upward.

    Keeps one pointer per sign so the whole run touches each index a
    bounded number of times.  Single-pattern specs get a closed-form fast
    path; anything else falls back to evaluating terms.
    """

    def __init__(self, spec: SeriesSpec, used: set[int]):
        self._spec = spec
        self._used = used
        self._next = {1: 0, -1: 0}
        red = reduce_spec(spec)
        if len(red.patterns) == 1 and not red.absolute:
            level, p, coeff = red.patterns[0]
            self._fast = (level, p, coeff)
        else:
            self._fast = None

    def term_at(self, m: int) -> float:
        if self._fast is not None:
            level, p, coeff = self._fast
            sign = -1.0 if (m >> level) & 1 else 1.0
            return coeff * sign * (m + 1.0) ** -p
        return term(self._spec, m)

    def next_index(self, sign: int) -> tuple[int, float]:
        m = self._next[sign]
        while True:
            if m not in self._used:
                value = self.term_at(m)
                if (value > 0.0) if sign > 0 else (value < 0.0):
                    self._next[sign] = m + 1
                    return m, value
            m += 1


def _check_eps_budget(eps: float, budget: int) -> None:
    if not (math.isfinite(eps) and eps > 0.0):
        raise InputError(f"eps must be finite and positive, got {eps!r}")
    if budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget!r}")


def riemann_rearrange(spec: SeriesSpec, target: float, eps: float,
                      budget: int = 10 ** 6) -> PrefixPlan:
    """Greedy single-series rearrangement to within ``eps`` of ``target``.

    ``eps`` must be finite and positive and ``budget`` nonnegative.  May
    return an empty plan when the target is already within ``eps`` of
    zero.  Raises BudgetExhaustedError (carrying the best plan found) if
    the budget runs out first.
    """
    if not is_conditionally_convergent(spec):
        raise PreconditionError(
            "rearrangement needs a conditionally convergent series")
    _check_eps_budget(eps, budget)
    target = float(target)
    if not math.isfinite(target):
        raise InputError("target must be finite")
    fam = FamilyVector((spec,))
    used: set[int] = set()
    scanner = _SignScanner(spec, used)
    injection: list[int] = []
    running = 0.0
    best_dev = abs(running - target)
    best_len = 0
    while True:
        if abs(running - target) < eps:
            exact = partial_sum_vector(fam, injection, 1)[0]
            if abs(exact - target) < eps:
                return plan_from_injection(fam, injection, target, 1)
            running = exact  # drift got us here; resync and keep going
            continue
        if len(injection) >= budget:
            break
        sign = 1 if running <= target else -1
        m, value = scanner.next_index(sign)
        injection.append(m)
        used.add(m)
        running += value
        dev = abs(running - target)
        if dev < best_dev:
            best_dev, best_len = dev, len(injection)
    best = plan_from_injection(fam, injection[:best_len], target, 1)
    raise BudgetExhaustedError(
        f"used {budget} terms without reaching eps={eps!r} "
        f"(best deviation {best.deviation!r})", best=best)


# ---------------------------------------------------------------------------
# Residue-lane block selection for dyadic sign-pattern families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LaneStructure:
    levels: tuple[int, ...]
    exponent: float
    coeffs: tuple[float, ...]
    modulus: int
    sign_vectors: tuple[tuple[int, ...], ...]
    lane_residues: tuple[tuple[int, ...], ...]


def _lane_structure(fam: FamilyVector, dim: int) -> _LaneStructure | None:
    levels: list[int] = []
    coeffs: list[float] = []
    exponent: float | None = None
    for spec in fam.specs[:dim]:
        red = reduce_spec(spec)
        if len(red.patterns) != 1:
            return None
        level, p, coeff = red.patterns[0]
        if exponent is None:
            exponent = p
        elif p != exponent:
            return None
        levels.append(level)
        coeffs.append(coeff)
    if exponent is None or len(set(levels)) != len(levels):
        return None
    modulus = 1 << (max(levels) + 1)
    lanes: dict[tuple[int, ...], list[int]] = {}
    for r in range(modulus):
        sig = tuple(1 if not (r >> lv) & 1 else -1 for lv in levels)
        lanes.setdefault(sig, []).append(r)
    signs = tuple(sorted(lanes))
    return _LaneStructure(tuple(levels), exponent, tuple(coeffs), modulus,
                          signs, tuple(tuple(lanes[s]) for s in signs))


def _axis_pairs(signs: Sequence[tuple[int, ...]], axis: int,
                direction: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Antipodal lane pairs moving only the given coordinate.

    Both members share ``direction`` on ``axis`` and oppose each other
    everywhere else, so equal mass on the pair cancels in every other
    coordinate.
    """
    pairs = []
    for sig in signs:
        if sig[axis] != direction:
            continue
        partner = tuple(s if j == axis else -s for j, s in enumerate(sig))
        if sig < partner:
            pairs.append((sig, partner))
    return pairs


def _projected_depth(frontier: float, mass: float, modulus: int,
                     p: float) -> float:
    """Index depth reached by drawing ``mass`` from a lane at ``frontier``."""
    try:
        if p == 1.0:
            return frontier * math.exp(modulus * mass)
        shifted = frontier ** (1.0 - p) + (1.0 - p) * modulus * mass
        if shifted <= 0.0:
            return math.inf
        return shifted ** (1.0 / (1.0 - p))
    except OverflowError:  # wide lane moduli: deeper than any float
        return math.inf


_FILL_CHUNKS = 96


def _lane_masses(struct: _LaneStructure, residual: np.ndarray,
                 boosts: Mapping[tuple[int, ...], float],
                 frontiers: Mapping[tuple[int, ...], float] | None = None
                 ) -> dict[tuple[int, ...], float]:
    """Nonnegative per-lane masses whose signed sum reproduces ``residual``.

    The residual is split along coordinate axes and each axis load is
    spread over its antipodal lane pairs (equal mass on a pair cancels in
    every other coordinate).  Each axis fills its pairs greedily by
    marginal index cost: drawing mass from a lane consumes indices at a
    rate of depth**p per unit, so mass is routed through lanes whose
    unused frontier is shallow.  A lane asked to carry a move alone would
    be mined to depth ``exp(modulus * mass)`` times its frontier, and
    every later selection touching that lane starts from that depth.
    """
    scaled = residual / np.array(struct.coeffs)
    dim = len(struct.levels)
    modulus = struct.modulus
    p = struct.exponent
    front = {sig: 1.0 for sig in struct.sign_vectors}
    if frontiers is not None:
        front.update(frontiers)
    loads = {sig: 0.0 for sig in struct.sign_vectors}
    if dim == 1:
        if scaled[0] > 0.0:
            loads[(1,)] = float(scaled[0])
        elif scaled[0] < 0.0:
            loads[(-1,)] = float(-scaled[0])
    else:
        def marginal(sig: tuple[int, ...]) -> float:
            depth = _projected_depth(front[sig], loads[sig], modulus, p)
            return depth ** p if depth != math.inf else math.inf

        axes = sorted(range(dim), key=lambda i: -abs(float(scaled[i])))
        for axis in axes:
            value = float(scaled[axis])
            if value == 0.0:
                continue
            direction = 1 if value > 0.0 else -1
            pairs = _axis_pairs(struct.sign_vectors, axis, direction)
            # each unit of pair weight moves the axis by two
            chunk = abs(value) / 2.0 / _FILL_CHUNKS
            for _ in range(_FILL_CHUNKS):
                best = min(pairs,
                           key=lambda pr: marginal(pr[0]) + marginal(pr[1]))
                loads[best[0]] += chunk
                loads[best[1]] += chunk
    out: dict[tuple[int, ...], float] = {}
    for sig in struct.sign_vectors:
        mass = loads[sig] + boosts.get(sig, 0.0)
        if mass > 0.0:
            out[sig] = mass
    return out


def _take_from_lane(struct: _LaneStructure, residues: Sequence[int],
                    mass: float, lane_tol: float, used: set[int],
                    scan_cap: float) -> list[int]:
    p = struct.exponent
    picks: list[int] = []
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
            magnitude = (m + 1.0) ** -p
            if magnitude <= remaining:
                picks.append(m)
                used.add(m)
                remaining -= magnitude
                if remaining < lane_tol:
                    break
        block += 1
    return picks


def _first_unused(struct: _LaneStructure, residues: Sequence[int],
                  used: set[int]) -> int:
    """Smallest unused lane member."""
    ordered = sorted(residues)
    block = 0
    while True:
        base = block * struct.modulus
        for r in ordered:
            m = base + r
            if m not in used:
                return m
        block += 1


def select_block_indices(fam: FamilyVector, dim: int, residual: np.ndarray,
                         used: set[int], tol: float,
                         boosts: Mapping[tuple[int, ...], float] | None = None,
                         scan_cap: float | None = None) -> list[int]:
    """Pick unused indices whose term-vector sum lands within ``tol`` of
    ``residual``.

    Mutates ``used``.  Requires the active specs to form a dyadic
    sign-pattern family with a common exponent and distinct levels.
    Each of the ``L = 2**dim`` sign lanes is assigned a mass (complementary
    ``boosts`` cancel in the sum) and scanned take-if-fits until less than
    ``lane_tol = tol / (L * sqrt(dim) * max|c|)`` of its mass is left,
    where ``c`` are the series' coefficients.  So coordinate ``i`` misses
    by less than ``|c_i| * L * lane_tol``, and the norm of the miss is
    below ``tol`` when ``scan_cap`` is ``math.inf``; the scan still
    terminates, because the terms tend to zero.  The default cap, a few
    lane periods past the depth where terms fall to ``lane_tol``, can
    stop a lane early and void the bound.
    """
    struct = _lane_structure(fam, dim)
    if struct is None:
        raise StructureError(
            "block selection needs distinct sign levels and a common exponent "
            "across the active series")
    lane_tol = tol / (len(struct.sign_vectors) * math.sqrt(dim)
                      * max(abs(c) for c in struct.coeffs))
    if scan_cap is None:
        depth = (1.0 / max(lane_tol, 1e-12)) ** (1.0 / struct.exponent)
        scan_cap = int(struct.modulus * (depth + 64) * 4)
    frontiers = {}
    for sig, residues in zip(struct.sign_vectors, struct.lane_residues):
        first = _first_unused(struct, residues, used)
        frontiers[sig] = float(max(first, 1))
    picks: list[int] = []
    masses = _lane_masses(struct, residual, boosts or {}, frontiers)
    for sig, mass in masses.items():
        residues = struct.lane_residues[struct.sign_vectors.index(sig)]
        picks.extend(_take_from_lane(struct, residues, mass, lane_tol, used,
                                     scan_cap))
    picks.sort()
    return picks


def lane_modulus(fam: FamilyVector, dim: int) -> int | None:
    """Residue period separating the sign patterns of the leading series,
    or None when they do not form a dyadic family."""
    struct = _lane_structure(fam, dim)
    return None if struct is None else struct.modulus


def widest_lane_dim(fam: FamilyVector, lo: int, hi: int) -> int | None:
    """Largest dimension in [lo, hi] whose leading series form a dyadic
    sign-pattern family, or None if even ``lo`` does not."""
    for dim in range(hi, lo - 1, -1):
        if _lane_structure(fam, dim) is not None:
            return dim
    return None


def complementary_boosts(fam: FamilyVector, dim: int, scale: float,
                         rng: random.Random) -> dict[tuple[int, ...], float]:
    """Equal random bumps on opposite sign lanes.

    Complementary pairs cancel in the block sum, so boosted selections
    still approximate the same residual while touching different indices;
    this is the stall-escape used by the chasers.
    """
    struct = _lane_structure(fam, dim)
    if struct is None:
        return {}
    boosts: dict[tuple[int, ...], float] = {}
    for sig in struct.sign_vectors:
        neg = tuple(-s for s in sig)
        if sig < neg:
            bump = rng.uniform(0.0, scale)
            boosts[sig] = bump
            boosts[neg] = bump
    return boosts


def order_block_lanes(fam: FamilyVector, indices: Sequence[int], dim: int,
                      threshold: float,
                      modulus: int | None = None) -> list[int] | None:
    """Balanced interleaving of residue lanes; the engine's block orderer.

    The sorted block is grouped by residue class mod ``modulus`` (by
    default ``lane_modulus(fam, dim)``, or 1 when the leading series do
    not form a dyadic family); each lane keeps ascending index order, so
    largest magnitudes first.  A term of norm ``t`` whose lane has norm
    total ``c`` up to and including it, and ``C`` in all, gets the key
    ``(c - t/2) / C``, the midpoint of its share of the lane's mass.  The
    block is taken in ascending key order; equal keys keep ascending
    index order, so a single lane comes out in ascending order.  One
    ``np.cumsum`` then checks every running ``dim``-dimensional sum of
    the block, and the result is None when any of their norms exceeds
    ``threshold``.

    Every lane drains at the same rate, so each prefix is within half a
    term per lane of ``s * B``, where ``B`` is the block sum and ``s``
    the share taken.  When every lane's terms are parallel, as for pure
    sign-pattern series with ``modulus`` a multiple of
    ``lane_modulus(fam, dim)``, each prefix norm is therefore at most
    ``||B||`` plus half the sum, over lanes, of the lane's largest term
    norm.
    """
    if modulus is None:
        modulus = lane_modulus(fam, dim) or 1
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if not idx.size:
        return []
    rows = vector_terms(fam, idx, dim)
    norms = np.linalg.norm(rows, axis=1)
    lanes = idx % modulus
    by_lane = np.argsort(lanes, kind="stable")
    cuts = np.flatnonzero(np.diff(lanes[by_lane])) + 1
    key = np.empty(idx.size)
    for group in np.split(by_lane, cuts):
        t = norms[group]
        c = np.cumsum(t)
        key[group] = (c - t / 2) / c[-1]
    order = np.argsort(key, kind="stable")
    sums = np.cumsum(rows[order], axis=0)
    if np.linalg.norm(sums, axis=1).max() > threshold:
        return None
    return idx[order].tolist()


def _select_scalar(spec: SeriesSpec, residual: float, used: set[int],
                   tol: float, scan_cap: float) -> list[int]:
    scanner = _SignScanner(spec, used)
    picks: list[int] = []
    remaining = abs(residual)
    want = 1 if residual > 0.0 else -1
    m = 0
    while remaining >= tol and m <= scan_cap:
        if m not in used:
            value = scanner.term_at(m)
            if (value > 0.0 if want > 0 else value < 0.0) and abs(value) <= remaining:
                picks.append(m)
                used.add(m)
                remaining -= abs(value)
        m += 1
    return picks


def order_block(fam: FamilyVector, indices: Sequence[int],
                dim: int) -> list[int]:
    """Order a block for appending: order_block_lanes with its default
    lanes and no limit, so running sums stay near the segment from the
    old sum to the new one."""
    return order_block_lanes(fam, indices, dim, math.inf)


def chase_target(fam: FamilyVector, base: PrefixPlan | None, target,
                 eps: float, seed: int = 0, budget: int = 10 ** 6,
                 dim: int | None = None) -> PrefixPlan:
    """Extend ``base`` until the d-dimensional partial sum is within ``eps``
    of ``target``.

    Rounds of select-order-append, with lane-mass jitter on stalls; each
    block is ordered by order_block.  ``eps`` must be finite and positive
    and ``budget`` nonnegative.  The result always has ``base.injection``
    as a prefix.  Raises BudgetExhaustedError carrying the best plan when
    the budget or round limit runs out.
    """
    goal = _as_target(target)
    dim = len(goal) if dim is None else dim
    if not 1 <= dim <= len(fam):
        raise InputError(f"active dimension {dim} outside the family")
    if len(goal) < dim:
        raise InputError("target shorter than the active dimension")
    _check_eps_budget(eps, budget)
    injection = list(base.injection) if base is not None else []
    used = set(injection)
    if base is not None and len(used) != len(injection):
        raise PreconditionError("base plan has duplicate indices")
    rng = random.Random(seed)
    goal = goal[:dim]
    lanes_ok = _lane_structure(fam, dim) is not None
    if not lanes_ok and dim > 1:
        raise StructureError(
            "chasing several series at once needs dyadic sign-pattern "
            "structure; decompose the family first")
    appended = 0
    # the deviation and length of the closest prefix so far, as in
    # riemann_rearrange; its plan is built only when raising
    best_dev, best_len = math.inf, 0
    prev_dev = math.inf
    boosts: dict[tuple[int, ...], float] = {}
    for _ in range(_DEFAULT_MAX_ROUNDS):
        sums = partial_sum_vector(fam, injection, dim)
        residual = goal - sums
        dev = float(np.linalg.norm(residual))
        if dev < best_dev:
            best_dev, best_len = dev, len(injection)
        if dev < eps * 0.95:
            return plan_from_injection(fam, injection, goal, dim)
        if lanes_ok:
            picks = select_block_indices(fam, dim, residual, used, eps / 4.0,
                                         boosts=boosts)
        else:
            picks = _select_scalar(fam[0], float(residual[0]), used,
                                   tol=eps / 4.0,
                                   scan_cap=int(8.0 / eps) + 4096)
        boosts = {}
        if picks:
            appended += len(picks)
            if appended > budget:
                raise BudgetExhaustedError(
                    f"block selection exceeded the budget of {budget} terms",
                    best=plan_from_injection(fam, injection[:best_len], goal,
                                             dim))
            injection.extend(order_block(fam, picks, dim))
        stalled = not picks or dev > prev_dev * 0.9
        if stalled and lanes_ok:
            boosts = complementary_boosts(fam, dim, max(dev, eps) * 0.5, rng)
        prev_dev = dev
    raise BudgetExhaustedError(
        f"no plan within eps={eps!r} after {_DEFAULT_MAX_ROUNDS} rounds "
        f"(best deviation {best_dev!r})",
        best=plan_from_injection(fam, injection[:best_len], goal, dim))


def cover_indices(fam: FamilyVector, plan: PrefixPlan, n: int, target,
                  dim: int | None = None) -> PrefixPlan:
    """Extend the plan so every index below ``n`` appears in its range.

    The missing indices are appended in order_block's order.  For
    sign-pattern families this keeps the running sums within
    order_block_lanes' bound of the segment from the plan's sum to the
    covered sum; other families get one lane, ascending index order, and
    no such bound.  The deviation of the result is whatever the covering
    forces it to be; chase the target again afterwards if it matters.
    """
    goal = _as_target(target)
    dim = len(goal) if dim is None else dim
    if n < 0:
        raise InputError("cover bound must be nonnegative")
    used = plan.used_set
    missing = [m for m in range(n) if m not in used]
    if not missing:
        return plan
    injection = list(plan.injection) + order_block(fam, missing, dim)
    return plan_from_injection(fam, injection, goal, dim)


@dataclass(frozen=True)
class PrefixReport:
    """Outcome of independently rechecking a plan's contract."""

    ok: bool
    flags: tuple[str, ...]
    deviation: float
    max_excursion: float
    length: int


def verify_prefix(fam: FamilyVector, plan: PrefixPlan, target,
                  dim: int | None = None) -> PrefixReport:
    """Recompute a plan's statistics from the series and flag violations.

    Never raises for a malformed plan; every problem becomes a flag.
    Indices that are negative, repeated or outside int64 are flagged
    ``negative-index``, ``duplicate-index`` or ``out-of-range-index``,
    and the plan's own statistics are then reported unchecked.
    """
    goal = _as_target(target)
    dim = len(goal) if dim is None else dim
    inj = plan.injection
    _, problems = index_problems(inj)
    flags = [f"{problem}-index" for problem in problems]
    deviation = plan.deviation
    max_excursion = plan.max_excursion
    if not flags:
        fresh = plan_from_injection(fam, inj, goal, dim)
        deviation, max_excursion = fresh.deviation, fresh.max_excursion
        if abs(deviation - plan.deviation) > 1e-12:
            flags.append("deviation-mismatch")
        if abs(max_excursion - plan.max_excursion) > 1e-9:
            flags.append("excursion-mismatch")
    return PrefixReport(not flags, tuple(flags), deviation, max_excursion,
                        len(inj))
