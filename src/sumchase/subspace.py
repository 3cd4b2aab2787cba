"""Which sum vectors are attainable: kernel directions, their complement,
and limits of dependent series.

For a finite family of series, the coefficient vectors whose linear
combination is absolutely convergent form a linear space (the kernel
directions here).  Rearranging with one shared permutation can move the
sum vector exactly within the orthogonal complement of that space, so the
attainable set is the classical-sum vector plus that complement.

Specs declare their structure, so the kernel has an exact description:
reduce every spec to its dyadic sign-pattern components; a combination is
absolutely convergent precisely when the pattern components cancel.  One
exact rational elimination over those pattern vectors, run in spec order,
yields both the kernel basis and the dependency decomposition.  A
numerical growth test cross-checks the declared structure and raises
DisagreementError instead of silently trusting either side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DisagreementError, InputError
from .series import (FamilyVector, SeriesSpec, _terms, classical_sum,
                     composite, reduce_spec)

#: Default index count for the numerical growth cross-check.
DEFAULT_TRUNCATION = 1 << 16

#: Absolute partial sums at or above ``GROWTH_THRESHOLD * ln(N)`` count
#: against membership (the value is unbounded evidence).
GROWTH_THRESHOLD = 0.5

_RATIO_BOUNDED = 1.05
_RATIO_DIVERGENT = 1.5

#: What rounding alone can leave of a combination that cancels exactly,
#: relative to ``GrowthStats.scale``: 64 units of roundoff ``2**-53``.
#: Each computed ``c * a_m`` and each addition of the k nonzero terms
#: errs by at most one unit of the magnitudes summed so far, and numpy's
#: power and a few levels of composite nesting add a few units per term;
#: 64 covers families of up to a few dozen series and shallow nesting.
_ROUNDING_BOUND = 64 * 2.0 ** -53

_CHUNK = 1 << 15


@dataclass(frozen=True)
class CoefficientVector:
    """Sparse real coefficient vector with finite support."""

    support: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.values):
            raise InputError("support and values must have the same length")
        if len(set(self.support)) != len(self.support):
            raise InputError("support entries must be distinct")
        if any(i < 0 for i in self.support):
            raise InputError("support entries must be nonnegative")
        if any(v == 0.0 or not math.isfinite(v) for v in self.values):
            raise InputError("values must be nonzero and finite on the support")

    @staticmethod
    def from_dense(coeffs: Sequence[float]) -> "CoefficientVector":
        pairs = [(i, float(v)) for i, v in enumerate(coeffs) if v != 0.0]
        return CoefficientVector(tuple(i for i, _ in pairs),
                                 tuple(v for _, v in pairs))

    def as_array(self, dim: int) -> np.ndarray:
        out = np.zeros(dim, dtype=np.float64)
        for i, v in zip(self.support, self.values):
            if i >= dim:
                raise InputError(f"support index {i} outside dimension {dim}")
            out[i] = v
        return out

    def dot(self, xs: Sequence[float]) -> float:
        total = 0.0
        for i, v in zip(self.support, self.values):
            if i >= len(xs):
                raise InputError(f"support index {i} outside the given vector")
            total += v * float(xs[i])
        return total


# ---------------------------------------------------------------------------
# Exact pattern algebra
# ---------------------------------------------------------------------------

def _pattern_vector(spec: SeriesSpec) -> dict[tuple[int, float], Fraction]:
    return {(lv, p): Fraction(c) for lv, p, c in reduce_spec(spec).patterns}


def _eliminate(fam: FamilyVector, dim: int
               ) -> tuple[list[int], dict[int, dict[int, Fraction]]]:
    """The one exact elimination over the pattern vectors of the leading
    ``dim`` specs, run greedily in spec order.

    Returns the independent indices and, for each dependent j (in
    ascending order), its relation: exact weights over j and earlier
    independents, with weight 1 at j, whose pattern components cancel.
    Spec order makes the result for ``dim`` the prefix of the result for
    any larger dimension.
    """
    independents: list[int] = []
    lead_keys: list[tuple[int, float]] = []
    rref_rows: list[dict[tuple[int, float], Fraction]] = []
    transforms: list[dict[int, Fraction]] = []
    relations: dict[int, dict[int, Fraction]] = {}
    for j, spec in enumerate(fam.specs[:dim]):
        residue = _pattern_vector(spec)
        combo: dict[int, Fraction] = {j: Fraction(1)}
        for r, lk in enumerate(lead_keys):
            f = residue.get(lk)
            if not f:
                continue
            for key, val in rref_rows[r].items():
                new = residue.get(key, Fraction(0)) - f * val
                if new:
                    residue[key] = new
                else:
                    residue.pop(key, None)
            for k, val in transforms[r].items():
                new = combo.get(k, Fraction(0)) - f * val
                if new:
                    combo[k] = new
                else:
                    combo.pop(k, None)
        if residue:
            lk = min(residue)
            pv = residue[lk]
            lead_keys.append(lk)
            rref_rows.append({k: v / pv for k, v in residue.items()})
            transforms.append({k: v / pv for k, v in combo.items()})
            independents.append(j)
        else:
            relations[j] = combo
    return independents, relations


def _normalize_exact(vec: list[Fraction]) -> list[Fraction]:
    denom_lcm = 1
    for x in vec:
        if x != 0:
            denom_lcm = denom_lcm * x.denominator // math.gcd(
                denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


# ---------------------------------------------------------------------------
# Numerical growth cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthStats:
    """Absolute partial sums of one coefficient combination.

    ``scale`` is the sum of ``|c_i * a^i_m|`` over the same indices and
    every nonzero coefficient: the magnitude that rounding errors in the
    combination are measured against.
    """

    abs_sum: float
    half_sum: float
    ratio: float
    truncation: int
    scale: float

    def verdict(self) -> str:
        """Classify the growth evidence; authority stays with declared
        structure, so anything short of a clear signal is inconclusive.

        An ``abs_sum`` within the rounding bound of ``scale`` is an exact
        cancellation seen through rounding, so it reads "member" whatever
        its halves' ratio.
        """
        if self.abs_sum <= _ROUNDING_BOUND * self.scale:
            return "member"
        if self.ratio >= _RATIO_DIVERGENT:
            return "divergent"
        if (self.ratio <= _RATIO_BOUNDED and self.abs_sum
                < GROWTH_THRESHOLD * math.log(self.truncation)):
            return "member"
        return "inconclusive"


def growth_statistics(fam: FamilyVector, coeffs: Sequence[float],
                      truncation: int = DEFAULT_TRUNCATION) -> GrowthStats:
    """Sum |<coeffs, a_m>| over m < truncation, recording the halfway
    value and the scale ``sum |c_i * a^i_m|``.

    This is the growth sweep of one vector: one pass over the indices in
    chunks of ``2**15``, each series with a nonzero coefficient evaluated
    once per chunk.  The chunk size fixes the bits of every field.
    """
    _check_truncation(truncation)
    dim = len(coeffs)
    if not 1 <= dim <= len(fam):
        raise InputError(f"{dim} coefficients for a family of {len(fam)} "
                         f"series")
    if not all(math.isfinite(c) for c in coeffs):
        raise InputError("coefficients must be finite")
    return _growth_sweep(fam, [coeffs], truncation)[0]


def _check_truncation(truncation: int) -> None:
    if truncation < 4:
        raise InputError("truncation too small for a meaningful growth test")


def _growth_sweep(fam: FamilyVector, vectors: Sequence[Sequence[float]],
                  truncation: int) -> list[GrowthStats]:
    """The growth statistics of each of the finite coefficient
    ``vectors`` (at most ``len(fam)`` entries each), from one pass over
    the indices below ``truncation``.

    Each half, ``[0, N/2)`` and ``[N/2, N)``, is read in chunks of
    ``_CHUNK`` indices.  In a chunk each series that a vector uses is
    evaluated once, and each exponent's magnitudes once.  Each vector
    scales the columns of its nonzero coefficients in spec order and sums
    them as a loop over that vector alone would, so every field has the
    bits of such a loop.  A vector with one nonzero coefficient has its
    scaled column as its combination, and one absolute sum serves its
    scale and its total.  Live arrays: one column, the chunk's
    magnitudes, and the combination of each vector with more than one
    nonzero coefficient, from the series of its first such coefficient
    to that of its last.
    """
    users: list[list[tuple[int, float]]] = [[] for _ in fam.specs]
    last: dict[int, int] = {}  # vectors with more than one nonzero entry
    for v, coeffs in enumerate(vectors):
        support = [j for j, c in enumerate(coeffs) if c != 0.0]
        for j in support:
            users[j].append((v, coeffs[j]))
        if len(support) > 1:
            last[v] = support[-1]
    half = truncation // 2
    scales = [0.0] * len(vectors)
    totals = []
    for lo, hi in ((0, half), (half, truncation)):
        accs = [0.0] * len(vectors)
        for start in range(lo, hi, _CHUNK):
            ms = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
            powers: dict[float, np.ndarray] = {}
            combos: dict[int, np.ndarray] = {}
            for j, (spec, uses) in enumerate(zip(fam.specs, users)):
                if not uses:
                    continue
                column = _terms(spec, ms, powers)
                for v, c in uses:
                    scaled = c * column
                    if v in last:
                        if v not in combos:
                            combos[v] = np.zeros(ms.shape, dtype=np.float64)
                        combos[v] += scaled
                    size = float(np.abs(scaled, out=scaled).sum())
                    scales[v] += size
                    if v not in last:
                        accs[v] += size
                    elif last[v] == j:
                        combo = combos.pop(v)
                        accs[v] += float(np.abs(combo, out=combo).sum())
                        del combo
                    del scaled
                # free the arrays before the next series is evaluated
                del column
        totals.append(accs)
    out = []
    for half_sum, rest, scale in zip(*totals, scales):
        abs_sum = half_sum + rest
        if half_sum > 0.0:
            ratio = abs_sum / half_sum
        else:
            ratio = 1.0 if abs_sum == 0.0 else math.inf
        out.append(GrowthStats(abs_sum, half_sum, ratio, truncation, scale))
    return out


# ---------------------------------------------------------------------------
# Kernel and complement
# ---------------------------------------------------------------------------

def k_space_basis(fam: FamilyVector, dim: int | None = None,
                  truncation: int = DEFAULT_TRUNCATION
                  ) -> list[CoefficientVector]:
    """Exact basis of the absolutely-convergent-combination space.

    Derived from declared spec structure (pattern cancellation) by the
    same exact elimination that ``dependency_decompose`` runs: one vector
    per dependent j of the leading ``dim`` series, in ascending j, its
    relation cleared to coprime integers with a positive leading entry.
    The elimination runs in spec order, so the basis for a leading
    ``dim`` is the full basis restricted to the vectors supported below
    ``dim``.  The numerical growth test runs as a cross-check on every
    basis vector and every coordinate direction, and a conclusive
    conflict raises DisagreementError.
    """
    return k_space_growth(fam, dim, truncation)[0]


def k_space_growth(fam: FamilyVector, dim: int | None = None,
                   truncation: int = DEFAULT_TRUNCATION
                   ) -> tuple[list[CoefficientVector], list[GrowthStats]]:
    """:func:`k_space_basis` and the growth statistics of the ``dim``
    coordinate directions that its cross-check computes, in order.

    The cross-check is one growth sweep over the kernel vectors and the
    unit directions together: one pass over the indices in chunks of
    ``2**15``, each series evaluated once per chunk and each exponent's
    powers once, with every statistic bit for bit what
    :func:`growth_statistics` gives for its vector alone (the chunk size
    fixes those bits).  The kernel vectors' verdicts are checked first,
    in order, then the directions'.
    """
    dim = len(fam) if dim is None else dim
    if not 1 <= dim <= len(fam):
        raise InputError(f"dimension {dim} outside the family")
    _, relations = _eliminate(fam, dim)
    dense = [[combo.get(k, Fraction(0)) for k in range(dim)]
             for combo in relations.values()]
    basis = [CoefficientVector.from_dense(
                 [float(x) for x in _normalize_exact(vec)]) for vec in dense]
    _check_truncation(truncation)
    units = [[1.0 if j == i else 0.0 for j in range(dim)]
             for i in range(dim)]
    stats = _growth_sweep(fam, [cv.as_array(dim) for cv in basis] + units,
                          truncation)
    for cv, kernel_stats in zip(basis, stats):
        if kernel_stats.verdict() == "divergent":
            raise DisagreementError(
                f"declared kernel vector {cv.values} tests divergent "
                f"(abs sum {kernel_stats.abs_sum:.6g} at N={truncation})")
    growth = stats[len(basis):]
    for i, unit_stats in enumerate(growth):
        # a unit vector lies in the kernel exactly when its series has no
        # pattern components
        declared_member = not reduce_spec(fam[i]).patterns
        verdict = unit_stats.verdict()
        if declared_member and verdict == "divergent":
            raise DisagreementError(
                f"series {i} is declared absolutely convergent but its "
                f"absolute sums grow past the threshold")
        if not declared_member and verdict == "member":
            raise DisagreementError(
                f"series {i} is declared conditionally convergent but its "
                f"absolute sums test bounded")
    return basis, growth


def r_space(k_basis: Sequence[CoefficientVector], dim: int) -> list[np.ndarray]:
    """Orthonormal basis of the complement of the kernel directions."""
    if dim < 1:
        raise InputError("dimension must be at least 1")
    if not k_basis:
        return [np.eye(dim)[i] for i in range(dim)]
    rows = np.vstack([cv.as_array(dim) for cv in k_basis])
    _, svals, vh = np.linalg.svd(rows)
    cutoff = svals[0] * max(rows.shape) * np.finfo(np.float64).eps
    rank = int((svals > cutoff).sum())
    return [vh[i].copy() for i in range(rank, dim)]


def membership_check(xbar: Sequence[float],
                     k_basis: Sequence[CoefficientVector],
                     tol: float) -> bool:
    """True when the deviation vector is orthogonal to every kernel
    generator within ``tol``."""
    if tol < 0.0:
        raise InputError("tol must be nonnegative")
    return all(abs(cv.dot(xbar)) <= tol for cv in k_basis)


# ---------------------------------------------------------------------------
# Dependency decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyStructure:
    """Independent core plus exact relations governing the dependents.

    For each dependent index j, ``coefficients[j]`` lists pairs (k, w)
    over earlier independent indices such that ``sum_k w * a^k + a^j`` is
    absolutely convergent with sum ``abs_sums[j]``.
    """

    independent_set: tuple[int, ...]
    coefficients: Mapping[int, tuple[tuple[int, float], ...]]
    abs_sums: Mapping[int, float]

    def dependents(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))


def dependency_decompose(fam: FamilyVector,
                         precision: float = 1e-9) -> DependencyStructure:
    """Split a family into independent generators and dependent series.

    Runs the one exact elimination (shared with ``k_space_basis``)
    greedily in spec order: a series whose pattern components are spanned
    by earlier independents becomes a dependent, with exact rational
    relation coefficients and a numerically summed constant.  The
    relations of the leading d series do not depend on the series after
    them.
    """
    if not 0.0 < precision < math.inf:
        raise InputError(f"precision must be finite and positive, got "
                         f"{precision!r}")
    independents, relations = _eliminate(fam, len(fam))
    coefficients = {j: tuple(sorted((k, float(v)) for k, v in combo.items()
                                    if k != j))
                    for j, combo in relations.items()}
    abs_sums = {j: classical_sum(composite([(w, fam[k]) for k, w in relation]
                                           + [(1.0, fam[j])]), precision)
                for j, relation in coefficients.items()}
    return DependencyStructure(tuple(independents), coefficients, abs_sums)


def predicted_dependent_limit(struct: DependencyStructure,
                              achieved: Mapping[int, float], j: int) -> float:
    """Rearranged-sum limit of dependent series j implied by the limits the
    independent core achieved: ``c_j - sum_k w_k * achieved[k]``."""
    if j not in struct.coefficients:
        raise InputError(f"series {j} is not a dependent")
    total = struct.abs_sums[j]
    for k, w in struct.coefficients[j]:
        if k not in achieved:
            raise InputError(f"no achieved sum supplied for independent {k}")
        total -= w * achieved[k]
    return total


# ---------------------------------------------------------------------------
# The attainable-sum description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineSumRange:
    """Classical-sum offset plus the deviation directions reachable by
    rearrangement."""

    offset: tuple[float, ...]
    subspace_basis: tuple[tuple[float, ...], ...]


def sum_range(fam: FamilyVector, dim: int | None = None,
              precision: float = 1e-6,
              truncation: int = DEFAULT_TRUNCATION) -> AffineSumRange:
    """Build the attainable-sum description for the leading dimensions."""
    dim = len(fam) if dim is None else dim
    offset = tuple(classical_sum(spec, precision) for spec in fam.specs[:dim])
    basis = r_space(k_space_basis(fam, dim, truncation), dim)
    return AffineSumRange(offset, tuple(tuple(float(x) for x in row)
                                        for row in basis))
