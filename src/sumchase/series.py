"""Finitely described real series: terms, partial sums, tail bounds.

Three spec kinds cover everything the rest of the package consumes:

* ``rademacher_harmonic(level i, exponent p)``:
  ``a_m = (-1)**floor(m / 2**i) / (m + 1)**p`` with ``p`` in ``(0, 1]``.
  The sign is constant on dyadic blocks of length ``2**i`` and distinct
  levels give jointly independent sign patterns.  The plain alternating
  series ``(-1)**m / (m + 1)**p`` is the level-0 pattern, which
  ``power_alternating(p)`` returns.
* ``abs_power(exponent q, scale)``: ``a_m = scale / (m + 1)**q`` with
  ``q > 1`` (absolutely convergent), optionally carrying a dyadic sign
  pattern of its own.
* ``composite``: a finite linear combination of other specs plus an
  optional absolutely convergent perturbation.

Specs are immutable, hashable and safe to share.  Every spec reduces to a
canonical finite set of ``(level, exponent)`` sign-pattern components plus
absolutely convergent leftovers; that reduction drives convergence
classification, tail bounds and classical summation.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import BudgetExhaustedError, InputError

KIND_RADEMACHER = "rademacher_harmonic"
KIND_ABS_POWER = "abs_power"
KIND_COMPOSITE = "composite"

_KINDS = (KIND_RADEMACHER, KIND_ABS_POWER, KIND_COMPOSITE)

#: Default cap on term evaluations inside classical_sum.
DEFAULT_TERM_BUDGET = 50_000_000

_CHUNK = 1 << 18


def _as_float(name: str, value: object) -> float:
    """``float(value)`` for a real number; strings, booleans and other
    objects given to the factories are input errors."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def _is_level(value: object) -> bool:
    """A sign-pattern level is a nonnegative int (``True`` is not 1)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SeriesSpec:
    """Immutable description of one real series.

    Use the factory helpers (:func:`rademacher_harmonic`,
    :func:`power_alternating`, :func:`abs_power`, :func:`composite`)
    rather than the raw constructor; the constructor validates whichever
    fields its ``kind`` requires and rejects the rest.
    """

    kind: str
    level: int | None = None
    exponent: float | None = None
    scale: float = 1.0
    sign_level: int | None = None
    combo: tuple[tuple[float, "SeriesSpec"], ...] = ()
    perturbation: Union["SeriesSpec", None] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InputError(f"unknown series kind {self.kind!r}")
        if self.kind == KIND_RADEMACHER:
            self._check_level_field()
            self._check_conditional_exponent()
            self._forbid(sign_level=self.sign_level, combo=self.combo,
                         perturbation=self.perturbation)
        elif self.kind == KIND_ABS_POWER:
            if self.level is not None:
                raise InputError("abs_power uses sign_level, not level")
            if self.exponent is None or not float(self.exponent) > 1.0:
                raise InputError(
                    "abs_power exponent must exceed 1 for absolute convergence, "
                    f"got {self.exponent!r}")
            _require_finite("scale", self.scale)
            if self.sign_level is not None and not _is_level(self.sign_level):
                raise InputError(f"sign_level must be a nonnegative int, got "
                                 f"{self.sign_level!r}")
            self._forbid(combo=self.combo, perturbation=self.perturbation)
        else:  # composite
            if not self.combo and self.perturbation is None:
                raise InputError("composite needs terms or a perturbation")
            for entry in self.combo:
                if len(entry) != 2:
                    raise InputError("composite terms are (coefficient, spec) pairs")
                coeff, ref = entry
                _require_finite("coefficient", coeff)
                if not isinstance(ref, SeriesSpec):
                    raise InputError("composite term reference must be a SeriesSpec")
            if self.perturbation is not None:
                if not isinstance(self.perturbation, SeriesSpec):
                    raise InputError("perturbation must be a SeriesSpec")
                if reduce_spec(self.perturbation).patterns:
                    raise InputError(
                        "perturbation must be absolutely convergent")

    def _check_level_field(self) -> None:
        if not _is_level(self.level):
            raise InputError(f"level must be a nonnegative int, got {self.level!r}")

    def _check_conditional_exponent(self) -> None:
        if self.exponent is None:
            raise InputError("exponent is required")
        p = float(self.exponent)
        if not (0.0 < p <= 1.0):
            raise InputError(
                f"exponent must lie in (0, 1] for conditional convergence, got {p!r}")

    def _forbid(self, **fields: object) -> None:
        for name, value in fields.items():
            empty = () if name == "combo" else None
            if value != empty:
                raise InputError(f"{self.kind} does not accept {name}")


def rademacher_harmonic(level: int, exponent: float = 1.0) -> SeriesSpec:
    """Sign pattern ``(-1)**floor(m / 2**level)`` on magnitudes ``1/(m+1)**p``."""
    return SeriesSpec(KIND_RADEMACHER, level=level,
                      exponent=_as_float("exponent", exponent))


def power_alternating(exponent: float = 1.0) -> SeriesSpec:
    """Plain alternating series ``(-1)**m / (m+1)**p``: the level-0
    pattern, ``rademacher_harmonic(0, p)``."""
    return rademacher_harmonic(0, exponent)


def abs_power(exponent: float, scale: float = 1.0,
              sign_level: int | None = None) -> SeriesSpec:
    """Absolutely convergent power series ``scale / (m+1)**q``, ``q > 1``."""
    return SeriesSpec(KIND_ABS_POWER, exponent=_as_float("exponent", exponent),
                      scale=_as_float("scale", scale), sign_level=sign_level)


def composite(terms: Sequence[tuple[float, SeriesSpec]],
              perturbation: SeriesSpec | None = None) -> SeriesSpec:
    """Finite linear combination of specs plus an optional absolutely
    convergent perturbation."""
    combo = tuple((_as_float("coefficient", c), ref) for c, ref in terms)
    return SeriesSpec(KIND_COMPOSITE, combo=combo, perturbation=perturbation)


# ---------------------------------------------------------------------------
# Term evaluation
# ---------------------------------------------------------------------------

def magnitude_array(ms: np.ndarray, p: float) -> np.ndarray:
    """``(m + 1) ** -p`` for each index of the int64 array ``ms``: the
    power behind every term (:func:`term_array`) and every magnitude a
    lane scan reads, so scans, sums and checks agree bit for bit."""
    return (ms + 1.0) ** -p


def term_array(spec: SeriesSpec, ms: np.ndarray) -> np.ndarray:
    """The terms at each index of ``ms``: the package's one evaluator.

    Powers are numpy's ``x ** -p`` (:func:`magnitude_array`), whose last
    bit may depend on the CPU features numpy dispatches to; it does not
    depend on the length or layout of ``ms``.  An index that is negative,
    not an integer or outside int64 is an InputError.
    """
    ms = np.asarray(ms)
    if ms.size and (ms.dtype.kind != "i" or int(ms.min()) < 0):
        raise InputError("indices must be nonnegative int64 values")
    return _terms(spec, ms.astype(np.int64, copy=False), {})


def _terms(spec: SeriesSpec, ms: np.ndarray,
           powers: dict[float, np.ndarray]) -> np.ndarray:
    """:func:`term_array` on the checked int64 indices ``ms``, reading
    each exponent's magnitudes from ``powers`` (filled on first use), so
    that the series of one evaluation, and a composite's refs, compute
    each power once.  ``powers`` must belong to ``ms`` alone; its arrays
    are never written."""
    if spec.kind == KIND_COMPOSITE:
        total = np.zeros(ms.shape, dtype=np.float64)
        for coeff, ref in spec.combo:
            total += coeff * _terms(ref, ms, powers)
        if spec.perturbation is not None:
            total += _terms(spec.perturbation, ms, powers)
        return total
    sizes = powers.get(spec.exponent)
    if sizes is None:
        sizes = powers[spec.exponent] = magnitude_array(ms, spec.exponent)
    if spec.kind == KIND_RADEMACHER:
        return (1.0 - 2.0 * ((ms >> spec.level) & 1)) * sizes
    values = spec.scale * sizes
    if spec.sign_level is not None:
        values = values * (1.0 - 2.0 * ((ms >> spec.sign_level) & 1))
    return values


@dataclass(frozen=True)
class FamilyVector:
    """Ordered finite family of series, addressed by coordinate."""

    specs: tuple[SeriesSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise InputError("family must contain at least one series")
        for spec in self.specs:
            if not isinstance(spec, SeriesSpec):
                raise InputError("family entries must be SeriesSpec values")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[SeriesSpec]:
        return iter(self.specs)

    def __getitem__(self, i: int) -> SeriesSpec:
        return self.specs[i]


def family(*specs: SeriesSpec) -> FamilyVector:
    return FamilyVector(tuple(specs))


def vector_terms(fam: FamilyVector, ms: Sequence[int],
                 d: int | None = None) -> np.ndarray:
    """Rows of term vectors for each index in ``ms`` (shape ``len(ms) x d``)."""
    d = len(fam) if d is None else d
    ms = np.asarray(ms, dtype=np.int64)
    if ms.size == 0:
        return np.zeros((0, d), dtype=np.float64)
    return np.column_stack([term_array(spec, ms) for spec in fam.specs[:d]])


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------

def index_problems(indices: Sequence[int]
                   ) -> tuple[np.ndarray, tuple[str, ...]]:
    """The indices as an int64 array, and what keeps them from being an
    injection's range: ``"out-of-range"`` (an entry outside int64; the
    array is then empty), ``"negative"`` and ``"duplicate"``.

    Never raises for bad entries; duplicates are found by sorting and
    comparing neighbours, which is far faster than ``np.unique`` on
    chain-sized index lists.
    """
    try:
        ms = np.asarray(indices, dtype=np.int64)
    except OverflowError:
        return np.empty(0, dtype=np.int64), ("out-of-range",)
    problems = []
    if ms.size and int(ms.min()) < 0:
        problems.append("negative")
    ordered = np.sort(ms, axis=None)
    if (ordered[1:] == ordered[:-1]).any():
        problems.append("duplicate")
    return ms, tuple(problems)


def index_vector(injection: Sequence[int]) -> np.ndarray:
    """The injection as the read-only 1-D int64 array that conditions and
    plans hold.  A read-only int64 array is taken as it is; anything else
    is copied, through Python ints when it is an array of another dtype,
    so that an entry outside int64 raises InputError instead of wrapping.
    Negative and repeated entries are kept for the checks to report."""
    if not (isinstance(injection, np.ndarray) and injection.dtype == np.int64
            and not injection.flags.writeable):
        if isinstance(injection, np.ndarray) and injection.dtype != np.int64:
            injection = injection.tolist()
        try:
            injection = np.array(injection, dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"injection entries must be int64 indices: "
                             f"{exc}") from exc
        injection.flags.writeable = False
    if injection.ndim != 1:
        raise InputError(f"injection must be one-dimensional, got shape "
                         f"{injection.shape}")
    return injection


@dataclass(frozen=True, eq=False)
class _InjectionRecord:
    """An injection held as :func:`index_vector` holds it, plus the fields
    a subclass declares after it.  Two records of one class are equal
    when their other fields are and their injections hold the same
    entries; equal records hash alike."""

    injection: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "injection", index_vector(self.injection))

    def _others(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self)[1:])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (all(a == b for a, b in zip(self._others(), other._others()))
                and np.array_equal(self.injection, other.injection))

    def __hash__(self) -> int:
        return hash((self.injection.tobytes(), *self._others()))


def _check_indices(indices: Sequence[int]) -> np.ndarray:
    ms, problems = index_problems(indices)
    if problems:
        raise InputError(f"partial sum indices must be distinct, "
                         f"nonnegative int64 values ({problems[0]})")
    return ms


#: Every float64 is a whole multiple of ``2**-_EXACT_SCALE``: ``np.frexp``
#: gives a 53-bit mantissa and an exponent of at least -1073.
_EXACT_SCALE = 1126

#: Values per ``np.bincount`` pass in :meth:`_ExactSum.add`.  A bin then
#: adds at most ``2**16`` halves of below ``2**27`` each, far inside the
#: ``2**53`` that float64 holds exactly.
_EXACT_CHUNK = 1 << 16


class _ExactSum:
    """The exact sum of float64 values, held as a Python int count of
    ``2**-1126`` (a long fixed-point accumulator).

    :meth:`add` splits each value with ``np.frexp`` into a signed 53-bit
    integer mantissa and an exponent, cuts the mantissa into halves
    below ``2**27`` and ``2**26``, and ``np.bincount``s each half by
    exponent.  Every bin total is a whole number below ``2**53``, so
    float64 holds it exactly; the bins are then shifted into the int.
    Nothing is rounded and no exponent range is excluded, so the sum does
    not depend on the order or grouping of the values, and :meth:`value`
    rounds it once to nearest, ties to even: ``math.fsum``'s result for
    every finite input that fsum can sum (fsum raises OverflowError on an
    intermediate overflow that the exact sum does not have).
    """

    __slots__ = ("units",)

    def __init__(self, units: int = 0) -> None:
        self.units = units

    def add(self, values: np.ndarray) -> None:
        """Add the 1-D float64 array ``values``; InputError if one of them
        is not finite."""
        for start in range(0, len(values), _EXACT_CHUNK):
            mant, exp = np.frexp(values[start:start + _EXACT_CHUNK])
            np.ldexp(mant, 53, out=mant)  # whole numbers below 2**53
            high = np.trunc(mant * 2.0 ** -26)
            mant -= high * 2.0 ** 26
            low = int(exp.min())
            bins = exp - low
            highs = np.bincount(bins, weights=high)
            lows = np.bincount(bins, weights=mant)
            if not (np.isfinite(highs).all() and np.isfinite(lows).all()):
                raise InputError("cannot sum non-finite terms")
            used = np.flatnonzero((highs != 0.0) | (lows != 0.0))
            shift = low - 53 + _EXACT_SCALE
            for k, h, lo in zip(used.tolist(),
                                highs[used].astype(np.int64).tolist(),
                                lows[used].astype(np.int64).tolist()):
                self.units += ((h << 26) + lo) << (k + shift)

    def value(self) -> float:
        """The sum rounded once to float64; OverflowError past its range."""
        return self.units / (1 << _EXACT_SCALE)


def _add_terms(sums: list[_ExactSum], fam: FamilyVector, ms: np.ndarray,
               first: int = 0) -> None:
    """Add the terms at the int64 indices ``ms`` of the series ``first``,
    ``first + 1``, ... to ``sums``, one series per accumulator, evaluated
    ``2**16`` indices at a time."""
    specs = fam.specs[first:first + len(sums)]
    for start in range(0, len(ms), _EXACT_CHUNK):
        part = ms[start:start + _EXACT_CHUNK]
        for acc, spec in zip(sums, specs):
            acc.add(term_array(spec, part))


def partial_sum_vector(fam: FamilyVector, indices: Sequence[int],
                       d: int | None = None) -> np.ndarray:
    """Sums of the terms at the given distinct indices, one per series
    over the first ``d`` series, each the exact sum rounded once
    (``_ExactSum``).

    So the values do not depend on the order in which indices are
    listed, and equal ``math.fsum`` of the terms.
    """
    d = len(fam) if d is None else d
    ms = _check_indices(indices)
    sums = [_ExactSum() for _ in fam.specs[:d]]
    _add_terms(sums, fam, ms)
    return np.array([acc.value() for acc in sums])


# ---------------------------------------------------------------------------
# Tail bounds
# ---------------------------------------------------------------------------

def _tail_spec(spec: SeriesSpec, m: int) -> float:
    """Upper bound on the size of the computed term at every index >= m.

    It repeats :func:`term_array`'s operations at ``m`` on magnitudes, in
    the same order, so a composite needs no rounding allowance: rounding
    is monotone and symmetric, so ``|fl(x + y)| <= fl(|x| + |y|)`` and
    ``|fl(c * t)| <= fl(|c| * b)`` when ``|t| <= b``.  Later indices are
    covered because ``magnitude_array`` does not increase with the index
    (the tests check this on the indices they use).
    """
    if spec.kind in (KIND_RADEMACHER, KIND_ABS_POWER):
        # float(m) + 1.0 rounds as an int64 entry would; m may exceed int64
        size = float(magnitude_array(np.array([float(m)]), spec.exponent)[0])
        return abs(spec.scale) * size if spec.kind == KIND_ABS_POWER else size
    bound = 0.0
    for coeff, ref in spec.combo:
        bound += abs(coeff) * _tail_spec(ref, m)
    if spec.perturbation is not None:
        bound += _tail_spec(spec.perturbation, m)
    return bound


def tail_sup_bound(obj: SeriesSpec | FamilyVector, m: int,
                   d: int | None = None) -> float:
    """Upper bound on every term (norm) at indices ``>= m``.

    Nonincreasing in ``m`` and tending to zero.  For a family the bound
    covers the Euclidean norm of the d-dimensional term vector: it
    combines the coordinate bounds with ``np.linalg.norm``'s own
    operations, so it is at least the norm the checks measure on any
    term vector within them (rounding is monotone).
    """
    if m < 0:
        raise InputError("tail start index must be nonnegative")
    if isinstance(obj, SeriesSpec):
        return _tail_spec(obj, m)
    d = len(obj) if d is None else d
    b = np.array([_tail_spec(spec, m) for spec in obj.specs[:d]])
    return float(np.sqrt(np.add.reduce(b * b)))


# ---------------------------------------------------------------------------
# Canonical reduction to sign-pattern components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternReduction:
    """Canonical form: signed harmonic components plus absolute leftovers.

    ``patterns`` maps each ``(level, exponent)`` sign-pattern component to
    its accumulated coefficient; ``absolute`` lists ``(coefficient, spec)``
    pairs of absolutely convergent parts in encounter order.
    """

    patterns: tuple[tuple[int, float, float], ...]
    absolute: tuple[tuple[float, SeriesSpec], ...]


def _reduce(spec: SeriesSpec, scale: float,
            patterns: dict[tuple[int, float], float],
            absolute: list[tuple[float, SeriesSpec]]) -> None:
    if spec.kind == KIND_RADEMACHER:
        key = (spec.level, spec.exponent)
        patterns[key] = patterns.get(key, 0.0) + scale
    elif spec.kind == KIND_ABS_POWER:
        absolute.append((scale, spec))
    else:
        for coeff, ref in spec.combo:
            _reduce(ref, scale * coeff, patterns, absolute)
        if spec.perturbation is not None:
            _reduce(spec.perturbation, scale, patterns, absolute)


@lru_cache(maxsize=None)
def reduce_spec(spec: SeriesSpec) -> PatternReduction:
    """Reduce a spec to its canonical sign-pattern components."""
    patterns: dict[tuple[int, float], float] = {}
    absolute: list[tuple[float, SeriesSpec]] = []
    _reduce(spec, 1.0, patterns, absolute)
    kept = tuple(sorted((lv, p, c) for (lv, p), c in patterns.items() if c != 0.0))
    return PatternReduction(kept, tuple(absolute))


def is_conditionally_convergent(spec: SeriesSpec) -> bool:
    """True when a nonzero sign-pattern component survives reduction."""
    return bool(reduce_spec(spec).patterns)


# ---------------------------------------------------------------------------
# Classical summation
# ---------------------------------------------------------------------------

class _BudgetTracker:
    __slots__ = ("remaining",)

    def __init__(self, budget: int):
        self.remaining = int(budget)

    def spend(self, n: int) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise BudgetExhaustedError(
                "classical summation exceeded its term budget before "
                "reaching the requested precision")


def _block_magnitudes(level: int, exponent: float, first: int,
                      count: int) -> np.ndarray:
    """Magnitudes of ``count`` consecutive sign blocks starting at block
    ``first``: each is the sum of ``2**level`` plain power terms."""
    block_len = 1 << level
    offsets = np.arange(block_len, dtype=np.float64)
    js = np.arange(first, first + count, dtype=np.float64)
    return ((js[:, None] * block_len + offsets[None, :] + 1.0)
            ** -exponent).sum(axis=1)


# How many blocks to sum directly before handing the rest to the Euler
# transform.  Large enough that the transformed tail is far inside its
# fast-convergence regime, small enough to keep term budgets low.
_DIRECT_BLOCK_CAP = 4096


def _euler_block_tail(level: int, exponent: float, start: int, tol: float,
                      tracker: _BudgetTracker) -> float:
    """Euler-transformed value of ``sum_{j>=start} (-1)**j * B_j``.

    Block magnitudes are completely monotone in the block number, so the
    forward differences ``D_k = (-delta)**k B`` at ``start`` are positive
    and decrease in k.  The transform rewrites the tail as
    ``sum_k D_k / 2**(k+1)``; cutting that series after the K-th term
    leaves at most ``D_{K+1} / 2**(K+1)``, which the last added term
    already dominates, hence the stopping rule.
    """
    block_len = 1 << level
    lead = -1.0 if start & 1 else 1.0
    diagonal: list[float] = []
    total = 0.0
    k = 0
    while True:
        tracker.spend(block_len)
        value = float(_block_magnitudes(level, exponent, start + k, 1)[0])
        updated = [value]
        for entry in diagonal:
            updated.append(entry - updated[-1])
        diagonal = updated
        contribution = diagonal[k] / 2.0 ** (k + 1)
        total += contribution
        if contribution <= tol:
            return lead * total
        k += 1


def _alternating_block_sum(level: int, exponent: float, tol: float,
                           tracker: _BudgetTracker) -> float:
    """Sum a sign-pattern harmonic series by grouping full sign blocks.

    Block magnitudes decrease, so the block series alternates and plain
    truncation errs by at most the first omitted block.  That rule alone
    would need about ``tol**(-1/exponent)`` blocks, so after a bounded
    direct stretch the remaining tail is closed with the Euler transform
    instead.
    """
    block_len = 1 << level
    chunk_blocks = max(1, _CHUNK // block_len)
    total = 0.0
    j = 0
    while j < _DIRECT_BLOCK_CAP:
        count = min(chunk_blocks, _DIRECT_BLOCK_CAP - j)
        tracker.spend(count * block_len)
        magnitudes = _block_magnitudes(level, exponent, j, count)
        signs = 1.0 - 2.0 * (np.arange(j, j + count) & 1)
        below = np.nonzero(magnitudes <= tol)[0]
        if below.size:
            stop = int(below[0])
            return total + float(np.dot(signs[:stop], magnitudes[:stop]))
        total += float(np.dot(signs, magnitudes))
        j += count
    return total + _euler_block_tail(level, exponent, j, tol, tracker)


def _abs_power_partial(spec: SeriesSpec, tol: float,
                       tracker: _BudgetTracker) -> float:
    """Sum an abs_power spec to within ``tol``.

    Signed specs alternate in blocks and reuse the block summation.  For
    unsigned ones, direct summation alone would need ``tol**(1/(1-q))``
    terms, so the tail past the cutoff is replaced by the expansion
    ``a**(1-q)/(q-1) + a**-q/2 + q*a**(-q-1)/12`` whose error stays
    below ``q(q+1)(q+2) * a**(-q-3) / 720``; that bound picks the cutoff.
    """
    q = spec.exponent
    scale_mag = abs(spec.scale)
    if scale_mag == 0.0:
        return 0.0
    if spec.sign_level is not None:
        block = _alternating_block_sum(spec.sign_level, q, tol / scale_mag,
                                       tracker)
        return spec.scale * block
    error_coeff = scale_mag * q * (q + 1.0) * (q + 2.0) / 720.0
    count = max(16, int(math.ceil((error_coeff / tol) ** (1.0 / (q + 3.0)))))
    tracker.spend(count)
    total = 0.0
    for start in range(0, count, _CHUNK):
        ms = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        total += float(term_array(spec, ms).sum())
    a = float(count + 1)
    tail = (a ** (1.0 - q) / (q - 1.0) + 0.5 * a ** -q
            + q / 12.0 * a ** (-q - 1.0))
    return total + spec.scale * tail


def classical_sum(spec: SeriesSpec, precision: float,
                  term_budget: int = DEFAULT_TERM_BUDGET) -> float:
    """Value of the convergent series to within ``precision``.

    The spec is reduced to sign-pattern components plus absolute parts;
    the precision budget is split evenly across them, each component is
    summed with its own truncation-error control, and the pieces are
    recombined linearly.
    """
    if not 0.0 < precision < math.inf:
        raise InputError(f"precision must be finite and positive, got "
                         f"{precision!r}")
    reduction = reduce_spec(spec)
    parts = len(reduction.patterns) + len(reduction.absolute)
    if parts == 0:
        return 0.0
    share = precision / parts
    tracker = _BudgetTracker(term_budget)
    total = 0.0
    for level, exponent, coeff in reduction.patterns:
        total += coeff * _alternating_block_sum(level, exponent,
                                                share / abs(coeff), tracker)
    for coeff, part in reduction.absolute:
        if coeff == 0.0:
            continue
        total += coeff * _abs_power_partial(part, share / abs(coeff), tracker)
    return total
