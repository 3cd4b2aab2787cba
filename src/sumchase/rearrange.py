"""Building injection prefixes whose partial sums approach a target.

The single-series routine follows the classic greedy rule: append the
next unused positive-term index while the running sum is at or below the
target, otherwise the next unused negative-term index.  Once the running
sum first crosses the target, its distance from the target is bounded by
the largest unused term magnitude at every later crossing, so the greedy
loop converges whenever the series is conditionally convergent.  Each
sign has its own stream of indices, read from ``series.term_array`` in
windows; every scan below reads its terms from there too, so the picks
rest on the same values as the sums and checks.

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
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (BudgetExhaustedError, InputError, PreconditionError,
                     StructureError)
from .series import (FamilyVector, SeriesSpec, _ExactSum, _InjectionRecord,
                     _add_terms, index_problems, index_vector,
                     is_conditionally_convergent, partial_sum_vector,
                     magnitude_array, reduce_spec, term_array, vector_terms)

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


@dataclass(frozen=True, eq=False)
class PrefixPlan(_InjectionRecord):
    """A finite injection prefix plus recomputable summary statistics.

    ``injection`` is a read-only int64 array, held as a condition holds
    it (``index_vector``).  ``deviation`` is the distance from the target
    the plan was built against, in the dimensions active at build time;
    ``max_excursion`` is the largest norm any running partial-sum vector
    reached.  verify_prefix recomputes both from the injection alone, and
    ``used_set``, the injection's range, is built on every access.  Two
    plans are equal when their injections and statistics are.
    """

    deviation: float
    max_excursion: float

    @property
    def used_set(self) -> frozenset[int]:
        return frozenset(self.injection.tolist())


#: Rows per ``np.linalg.norm`` call in :func:`_largest_running_norm`.
_NORM_ROWS = 1 << 16


def _largest_running_norm(fam: FamilyVector, indices: Sequence[int],
                          dim: int) -> float:
    """Largest norm of the running sums of the term vectors at
    ``indices`` over the first ``dim`` series, in the listed order (0.0
    for no indices).  One ``np.cumsum`` runs over the whole block; the
    norms are taken ``2**16`` rows at a time, each row with the bits of
    one whole-array call."""
    if not len(indices):
        return 0.0
    rows = vector_terms(fam, indices, dim)
    np.cumsum(rows, axis=0, out=rows)
    return max(float(np.linalg.norm(rows[start:start + _NORM_ROWS],
                                    axis=1).max())
               for start in range(0, len(rows), _NORM_ROWS))


def block_statistics(fam: FamilyVector, indices: Sequence[int],
                     dim: int) -> tuple[np.ndarray, float]:
    """Coordinate sums of the terms at ``indices`` over the first ``dim``
    series (``partial_sum_vector``), and the largest norm of their
    running sums in the listed order (0.0 for no indices)."""
    sums = partial_sum_vector(fam, indices, dim)
    return sums, _largest_running_norm(fam, indices, dim)


def _check_target_count(goal: np.ndarray, fam: FamilyVector) -> None:
    if len(goal) > len(fam):
        raise InputError(f"{len(goal)} targets for a family of {len(fam)} "
                         f"series")


def plan_from_injection(fam: FamilyVector, injection: Sequence[int],
                        target) -> PrefixPlan:
    """The canonical plan: all statistics recomputed from the series,
    measured over the first ``len(target)`` series.  More targets than
    the family has series are an InputError."""
    goal = _as_target(target)
    _check_target_count(goal, fam)
    inj = index_vector(injection)
    sums, max_excursion = block_statistics(fam, inj, len(goal))
    deviation = float(np.linalg.norm(sums - goal))
    return PrefixPlan(inj, deviation, max_excursion)


# ---------------------------------------------------------------------------
# Single series
# ---------------------------------------------------------------------------

def _signed_windows(spec: SeriesSpec, want: int,
                    used: UsedIndices | None = None, stop: int | None = None
                    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Ascending runs of the indices below ``stop``, not in ``used``, whose
    terms have the sign ``want``, each with the terms' magnitudes."""
    for ms in _lane_windows(1, (0,), stop):
        if used is not None:
            ms = ms[~used.contains(ms)]
        values = term_array(spec, ms)
        keep = values > 0.0 if want > 0 else values < 0.0
        yield ms[keep], np.abs(values[keep])


def _sign_stream(spec: SeriesSpec, sign: int) -> Iterator[tuple[int, float]]:
    """Every index whose term has the given sign, ascending, with its term."""
    for ms, sizes in _signed_windows(spec, sign):
        yield from zip(ms.tolist(), (sign * sizes).tolist())


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
    the budget runs out first, and StructureError when the deepest sign
    level needs a period above ``2**_LANE_PERIOD_BITS``, the lanes' own
    limit: the first term of the second sign is that deep, and the sign
    streams scan every index below it.
    """
    if not is_conditionally_convergent(spec):
        raise PreconditionError(
            "rearrangement needs a conditionally convergent series")
    _check_eps_budget(eps, budget)
    _check_period(max(level for level, _, _ in reduce_spec(spec).patterns))
    target = float(target)
    if not math.isfinite(target):
        raise InputError("target must be finite")
    fam = FamilyVector((spec,))
    # the two streams split the indices, so neither can repeat the other's
    streams = {sign: _sign_stream(spec, sign) for sign in (1, -1)}
    injection: list[int] = []
    running = 0.0
    best_dev = abs(running - target)
    best_len = 0
    while True:
        if abs(running - target) < eps:
            exact = partial_sum_vector(fam, injection, 1)[0]
            if abs(exact - target) < eps:
                return plan_from_injection(fam, injection, target)
            running = exact  # drift got us here; resync and keep going
            continue
        if len(injection) >= budget:
            break
        sign = 1 if running <= target else -1
        m, value = next(streams[sign])
        injection.append(m)
        running += value
        dev = abs(running - target)
        if dev < best_dev:
            best_dev, best_len = dev, len(injection)
    best = plan_from_injection(fam, injection[:best_len], target)
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


#: The widest residue period a lane structure enumerates is
#: ``2**_LANE_PERIOD_BITS``.  Sorting ``2**20`` residues into lanes takes
#: most of a second, each level more doubles that, and a chase rebuilds
#: its lanes every round.
_LANE_PERIOD_BITS = 20


def _check_period(deepest: int) -> None:
    """StructureError when sign level ``deepest`` needs a residue period
    above ``2**_LANE_PERIOD_BITS``."""
    if deepest + 1 > _LANE_PERIOD_BITS:
        raise StructureError(
            f"sign level {deepest} needs a residue period of "
            f"2**{deepest + 1}, above the limit of 2**{_LANE_PERIOD_BITS}")


def _lane_structure(fam: FamilyVector, dim: int) -> _LaneStructure | None:
    """The residue lanes of the first ``dim`` series, or None when they
    do not form a dyadic family (one sign-pattern component each, a
    common exponent, distinct levels).  Raises StructureError when the
    deepest level needs a period above ``2**_LANE_PERIOD_BITS``."""
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
    deepest = max(levels)
    _check_period(deepest)
    modulus = 1 << (deepest + 1)
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


def _projected_depth(frontier: float, mass: float, period: int,
                     p: float) -> float:
    """Index depth reached by drawing ``mass`` from a lane at ``frontier``
    whose members are ``period`` apart on average."""
    try:
        if p == 1.0:
            return frontier * math.exp(period * mass)
        shifted = frontier ** (1.0 - p) + (1.0 - p) * period * mass
        if shifted <= 0.0:
            return math.inf
        return shifted ** (1.0 / (1.0 - p))
    except OverflowError:  # wide lane moduli: deeper than any float
        return math.inf


_FILL_CHUNKS = 96


def _lane_masses(struct: _LaneStructure, residual: np.ndarray,
                 boosts: Mapping[tuple[int, ...], float],
                 frontiers: Mapping[tuple[int, ...], float]
                 ) -> dict[tuple[int, ...], float]:
    """Nonnegative per-lane masses whose signed sum reproduces ``residual``.

    The residual is split along coordinate axes and each axis load is
    spread over its antipodal lane pairs (equal mass on a pair cancels in
    every other coordinate).  Each axis fills its pairs greedily by
    marginal index cost: drawing mass from a lane consumes indices at a
    rate of depth**p per unit, so mass is routed through lanes whose
    unused frontier (``frontiers``, per lane) is shallow.  A lane holds
    ``modulus / 2**dim`` residues, so its members are ``period = 2**dim``
    apart on average; a lane asked to carry a move alone would be mined
    to depth ``exp(period * mass)`` times its frontier (for ``p = 1``),
    and every later selection touching that lane starts from that depth.
    """
    scaled = residual / np.array(struct.coeffs)
    dim = len(struct.levels)
    period = struct.modulus // len(struct.lane_residues[0])
    p = struct.exponent
    loads = {sig: 0.0 for sig in struct.sign_vectors}
    if dim == 1:
        if scaled[0] > 0.0:
            loads[(1,)] = float(scaled[0])
        elif scaled[0] < 0.0:
            loads[(-1,)] = float(-scaled[0])
    else:
        def marginal(sig: tuple[int, ...]) -> float:
            depth = _projected_depth(frontiers[sig], loads[sig], period, p)
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


class UsedIndices:
    """A set of nonnegative indices held as a boolean mask.

    The mask grows by doubling when an index past its end is added.  Every
    index at or past its end is unused, so a scan may look beyond it
    without growing it.
    """

    __slots__ = ("_bits",)

    def __init__(self, indices: Sequence[int] = ()) -> None:
        self._bits = np.zeros(0, dtype=bool)
        self.add(indices)

    def add(self, indices: Sequence[int]) -> None:
        ms = np.asarray(indices, dtype=np.int64)
        if not ms.size:
            return
        if int(ms.min()) < 0:
            raise InputError("used indices must be nonnegative")
        need = int(ms.max()) + 1
        if need > len(self._bits):
            grown = np.zeros(max(need, 2 * len(self._bits)), dtype=bool)
            grown[:len(self._bits)] = self._bits
            self._bits = grown
        self._bits[ms] = True

    def contains(self, ms: np.ndarray) -> np.ndarray:
        """Whether each of the nonnegative indices ``ms`` is in the set."""
        out = np.zeros(ms.shape, dtype=bool)
        inside = ms < len(self._bits)
        out[inside] = self._bits[ms[inside]]
        return out

    def missing_below(self, n: int) -> np.ndarray:
        """The indices below ``n`` that are not in the set, ascending."""
        free = np.ones(max(n, 0), dtype=bool)
        held = self._bits[:len(free)]
        np.logical_not(held, out=free[:len(held)])
        return np.flatnonzero(free)


#: The most lane members a scan reads at once.  Windows start at 256
#: members and double up to this size, so a lane that is done after a few
#: members costs little and a long scan holds a bounded amount of memory
#: (about 64 B per member of a window).
_SCAN_WINDOW = 1 << 14


def _lane_windows(modulus: int, residues: Sequence[int],
                  stop_block: int | None = None) -> Iterator[np.ndarray]:
    """Ascending runs of the lane members ``block * modulus + r`` of the
    residues, block by block from block 0 up to ``stop_block``."""
    lane = np.array(sorted(residues), dtype=np.int64)
    most = max(1, _SCAN_WINDOW // len(lane))
    blocks = max(1, 256 // len(lane))
    first = 0
    while stop_block is None or first < stop_block:
        count = min(blocks, most)
        if stop_block is not None:
            count = min(count, stop_block - first)
        firsts = np.arange(first, first + count, dtype=np.int64) * modulus
        yield (firsts[:, None] + lane).ravel()
        first += count
        blocks *= 2


def _take_if_fits(windows: Iterator[tuple[np.ndarray, np.ndarray]],
                  remaining: float, tol: float,
                  limit: float = math.inf) -> np.ndarray:
    """Take-if-fits over the candidates of ``windows``, runs of
    ``(indices, sizes)`` in scan order, from ``remaining`` down to below
    ``tol``: the picks as an int64 array.  The scan stops early, after
    the run of takes that brings the picks past ``limit``.

    A run of takes is one ``np.cumsum`` over ``[remaining, -a_1, -a_2,
    ...]``, the subtractions of a scalar loop in the same order.  In IEEE
    arithmetic ``fl(r - a) >= 0`` exactly when ``a <= r``, so the first
    entry below ``tol`` either is a take that ends the scan (nonnegative)
    or marks the first candidate that does not fit.  The next window is
    read only while ``tol`` or more remains.
    """
    picks = [np.zeros(0, dtype=np.int64)]
    taken = 0
    while remaining >= tol and taken <= limit:
        window = next(windows, None)
        if window is None:
            break
        free, sizes = window
        pos = 0
        while pos < len(sizes) and remaining >= tol and taken <= limit:
            left = np.cumsum(np.concatenate(([remaining], -sizes[pos:])))
            low = np.flatnonzero(left[1:] < tol)
            if not low.size:
                picks.append(free[pos:])
                taken += len(sizes) - pos
                remaining = float(left[-1])
                break
            end = int(low[0])
            if left[end + 1] >= 0.0:
                picks.append(free[pos:pos + end + 1])
                taken += end + 1
                remaining = float(left[end + 1])
                break
            picks.append(free[pos:pos + end])
            taken += end
            remaining = float(left[end])
            fits = np.flatnonzero(sizes[pos + end + 1:] <= remaining)
            pos = pos + end + 1 + int(fits[0]) if fits.size else len(sizes)
    return np.concatenate(picks)


def _take_from_lane(struct: _LaneStructure, residues: Sequence[int],
                    mass: float, lane_tol: float, used: UsedIndices,
                    scan_cap: float, limit: float = math.inf) -> np.ndarray:
    """Take-if-fits over the lane's unused members in ascending order,
    from ``mass`` down to below ``lane_tol``, in blocks starting at most
    ``scan_cap``, stopping once more than ``limit`` are taken; a member's
    size is its term magnitude (``magnitude_array``)."""
    stop_block = (None if scan_cap == math.inf
                  else int(scan_cap // struct.modulus) + 1)
    free = (members[~used.contains(members)] for members
            in _lane_windows(struct.modulus, residues, stop_block))
    return _take_if_fits(((ms, magnitude_array(ms, struct.exponent))
                          for ms in free), mass, lane_tol, limit)


def _first_unused(struct: _LaneStructure, residues: Sequence[int],
                  used: UsedIndices) -> int:
    """Smallest unused lane member."""
    # the windows never end, and every member past the mask is unused
    for members in _lane_windows(struct.modulus, residues):
        free = np.flatnonzero(~used.contains(members))
        if free.size:
            return int(members[free[0]])


def select_block_indices(fam: FamilyVector, dim: int, residual: np.ndarray,
                         used: UsedIndices, tol: float,
                         boosts: Mapping[tuple[int, ...], float] | None = None,
                         scan_cap: float | None = None,
                         budget: float = math.inf) -> np.ndarray:
    """Pick unused indices whose term-vector sum lands within ``tol`` of
    ``residual``, as an ascending int64 array.

    Adds the picks to ``used``.  Requires the active specs to form a
    dyadic sign-pattern family with a common exponent and distinct
    levels.  Each of the ``L = 2**dim`` sign lanes is assigned a mass
    (complementary ``boosts`` cancel in the sum) and scanned take-if-fits
    until less than ``lane_tol = tol / (L * sqrt(dim) * max|c|)`` of its
    mass is left, where ``c`` are the series' coefficients.  So
    coordinate ``i`` misses by less than ``|c_i| * L * lane_tol``, and the
    norm of the miss is below ``tol`` when ``scan_cap`` is ``math.inf``;
    the scan still terminates, because the terms tend to zero.  The
    default cap, a few lane periods past the depth where terms fall to
    ``lane_tol``, can stop a lane early and void the bound.  The scan
    also stops, and returns an incomplete block, once it has picked more
    than ``budget`` indices; the picks are kept within ``budget`` plus one
    scan window (``2**14`` members).
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
    parts = [np.zeros(0, dtype=np.int64)]
    left = budget
    masses = _lane_masses(struct, residual, boosts or {}, frontiers)
    for sig, mass in masses.items():
        residues = struct.lane_residues[struct.sign_vectors.index(sig)]
        parts.append(_take_from_lane(struct, residues, mass, lane_tol, used,
                                     scan_cap, left))
        left -= len(parts[-1])
        if left < 0:
            break
    picks = np.sort(np.concatenate(parts))
    used.add(picks)
    return picks


def lane_modulus(fam: FamilyVector, dim: int) -> int | None:
    """Residue period separating the sign patterns of the leading series,
    or None when they do not form a dyadic family; StructureError when
    the period is above the limit."""
    struct = _lane_structure(fam, dim)
    return None if struct is None else struct.modulus


def widest_lane_dim(fam: FamilyVector, lo: int, hi: int) -> int | None:
    """Largest dimension in [lo, hi] whose leading series form a dyadic
    sign-pattern family with a period within the limit, or None if even
    ``lo`` does not."""
    for dim in range(hi, lo - 1, -1):
        try:
            if _lane_structure(fam, dim) is not None:
                return dim
        except StructureError:
            continue
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
                      modulus: int | None = None) -> np.ndarray:
    """Balanced interleaving of residue lanes; the engine's block orderer.

    The sorted block is grouped by residue class mod ``modulus`` (by
    default ``lane_modulus(fam, dim)``, or 1 when the leading series do
    not form a dyadic family); each lane keeps ascending index order, so
    largest magnitudes first.  A term of norm ``t`` whose lane has norm
    total ``c`` up to and including it, and ``C`` in all, gets the key
    ``(c - t/2) / C``, the midpoint of its share of the lane's mass.  The
    block is taken in ascending key order; equal keys keep ascending
    index order, so a single lane comes out in ascending order.  The
    result is the ordered block as an int64 array.  It only orders:
    the caller measures the running sums it cares about (the chain's
    ``leq`` does, in its ``block-prefixes`` bullet).

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
        return idx
    norms = np.linalg.norm(vector_terms(fam, idx, dim), axis=1)
    lanes = idx % modulus
    by_lane = np.argsort(lanes, kind="stable")
    cuts = np.flatnonzero(np.diff(lanes[by_lane])) + 1
    key = np.empty(idx.size)
    for group in np.split(by_lane, cuts):
        t = norms[group]
        c = np.cumsum(t)
        key[group] = (c - t / 2) / c[-1]
    return idx[np.argsort(key, kind="stable")]


def _select_scalar(spec: SeriesSpec, residual: float, used: UsedIndices,
                   tol: float, scan_cap: int) -> np.ndarray:
    """Take-if-fits over the unused indices up to ``scan_cap`` whose terms
    have the sign of ``residual``, from ``|residual|`` down to below
    ``tol``; adds the picks to ``used``."""
    want = 1 if residual > 0.0 else -1
    picks = _take_if_fits(_signed_windows(spec, want, used, scan_cap + 1),
                          abs(residual), tol)
    used.add(picks)
    return picks


def order_block(fam: FamilyVector, indices: Sequence[int],
                dim: int) -> np.ndarray:
    """Order a block for appending: order_block_lanes with its default
    lanes, so running sums stay near the segment from the old sum to the
    new one."""
    return order_block_lanes(fam, indices, dim)


def chase_target(fam: FamilyVector, base: PrefixPlan | None, target,
                 eps: float, seed: int = 0,
                 budget: int = 10 ** 6) -> PrefixPlan:
    """Extend ``base`` until the partial sums of the first ``len(target)``
    series are within ``eps`` of ``target``.

    Rounds of select-order-append, with lane-mass jitter on stalls; each
    block is ordered by order_block.  ``eps`` must be finite and positive
    and ``budget`` nonnegative.  The result always has ``base.injection``
    as a prefix.  Raises BudgetExhaustedError carrying the best plan when
    the budget or round limit runs out.
    """
    goal = _as_target(target)
    dim = len(goal)
    _check_target_count(goal, fam)
    _check_eps_budget(eps, budget)
    injection = index_vector(() if base is None else base.injection)
    taken, problems = index_problems(injection)
    if "duplicate" in problems:
        raise PreconditionError("base plan has duplicate indices")
    rng = random.Random(seed)
    lanes_ok = _lane_structure(fam, dim) is not None
    if not lanes_ok and dim > 1:
        raise StructureError(
            "chasing several series at once needs dyadic sign-pattern "
            "structure; decompose the family first")
    used = UsedIndices(taken)
    # the exact sums of the prefix, carried from round to round
    accs = [_ExactSum() for _ in range(dim)]
    _add_terms(accs, fam, taken)
    appended = 0
    # the deviation and length of the closest prefix so far, as in
    # riemann_rearrange; its plan is built only when raising
    best_dev, best_len = math.inf, 0
    prev_dev = math.inf
    boosts: dict[tuple[int, ...], float] = {}
    for _ in range(_DEFAULT_MAX_ROUNDS):
        residual = goal - np.array([acc.value() for acc in accs])
        dev = float(np.linalg.norm(residual))
        if dev < best_dev:
            best_dev, best_len = dev, len(injection)
        if dev < eps * 0.95:
            return plan_from_injection(fam, injection, goal)
        if lanes_ok:
            picks = select_block_indices(fam, dim, residual, used, eps / 4.0,
                                         boosts=boosts)
        else:
            picks = _select_scalar(fam[0], float(residual[0]), used,
                                   tol=eps / 4.0,
                                   scan_cap=int(8.0 / eps) + 4096)
        boosts = {}
        if len(picks):
            appended += len(picks)
            if appended > budget:
                raise BudgetExhaustedError(
                    f"block selection exceeded the budget of {budget} terms",
                    best=plan_from_injection(fam, injection[:best_len], goal))
            injection = np.concatenate((injection,
                                        order_block(fam, picks, dim)))
            _add_terms(accs, fam, picks)
        stalled = not len(picks) or dev > prev_dev * 0.9
        if stalled and lanes_ok:
            boosts = complementary_boosts(fam, dim, max(dev, eps) * 0.5, rng)
        prev_dev = dev
    raise BudgetExhaustedError(
        f"no plan within eps={eps!r} after {_DEFAULT_MAX_ROUNDS} rounds "
        f"(best deviation {best_dev!r})",
        best=plan_from_injection(fam, injection[:best_len], goal))


def cover_indices(fam: FamilyVector, plan: PrefixPlan, n: int,
                  target) -> PrefixPlan:
    """Extend the plan so every index below ``n`` appears in its range.

    The missing indices are appended in order_block's order.  For
    sign-pattern families this keeps the running sums within
    order_block_lanes' bound of the segment from the plan's sum to the
    covered sum; other families get one lane, ascending index order, and
    no such bound.  The deviation of the result is whatever the covering
    forces it to be; chase the target again afterwards if it matters.
    The plan's statistics are measured over the first ``len(target)``
    series; more targets than series are an InputError.
    """
    goal = _as_target(target)
    _check_target_count(goal, fam)
    dim = len(goal)
    if n < 0:
        raise InputError("cover bound must be nonnegative")
    held = plan.injection[(plan.injection >= 0) & (plan.injection < n)]
    missing = UsedIndices(held).missing_below(n)
    if not missing.size:
        return plan
    injection = np.concatenate((plan.injection,
                                order_block(fam, missing, dim)))
    return plan_from_injection(fam, injection, goal)


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
    Indices that are negative or repeated are flagged ``negative-index``
    or ``duplicate-index``, and the plan's own statistics are then
    reported unchecked.  The statistics are measured over the first
    ``dim`` series (by default one per target); more targets than series,
    or a ``dim`` outside ``1..len(target)``, are an InputError.
    """
    goal = _as_target(target)
    _check_target_count(goal, fam)
    dim = len(goal) if dim is None else dim
    if not 1 <= dim <= len(goal):
        raise InputError(f"dimension {dim} outside 1..{len(goal)}")
    inj = plan.injection
    _, problems = index_problems(inj)
    flags = [f"{problem}-index" for problem in problems]
    deviation, max_excursion = plan.deviation, plan.max_excursion
    if not flags:
        fresh = plan_from_injection(fam, inj, goal[:dim])
        deviation, max_excursion = fresh.deviation, fresh.max_excursion
        if abs(deviation - plan.deviation) > 1e-12:
            flags.append("deviation-mismatch")
        if abs(max_excursion - plan.max_excursion) > 1e-9:
            flags.append("excursion-mismatch")
    return PrefixReport(not flags, tuple(flags), deviation, max_excursion,
                        len(inj))
