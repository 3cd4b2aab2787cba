"""Independent rechecking of emitted certificates.

This module re-derives every claim in a certificate from scratch:
per-coordinate sums over the recorded injections, a scan of the unused
indices below a cutoff, and exact rational comparisons against the
recorded tolerances.  It shares only the input parsers, the vectorized
term evaluator ``term_array`` and the tail envelope ``tail_sup_bound``
with the engine.  Its bookkeeping is its own: the index checks, the
used-index mask and the sums, so a bookkeeping bug in the engine that
builds chains cannot silently vouch for itself.

The sums are exact: Python ints counting ``2**-1126``, formed from
float64 limb running sums that never round (:func:`_exact_run`).  Each
link's extension is checked first, and a condition that extends the one
before adds the appended block's exact sums to that condition's, so
every index is summed once; a condition that does not is summed from
scratch.  Every deviation coordinate and every running-sum coordinate
of a link block is its exact value rounded once, so within ``2**-53`` of
it, relatively; the norms add at most one ulp per coordinate
(:func:`_running_sums`).  That is below 2e-13 on norms under 100, far
inside the 1e-9 that recorded norms must agree to, and
inside the slack margin with which every inequality is re-certified,
the engine's, restated here as a literal on purpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .confinement import ConstantSchedule, DEFAULT_SCHEDULE
from .errors import InputError
from .fileio import (CERTIFICATE_VERSION, CertificateData, LinkRecord,
                     parse_certificate, parse_spec_file)
from .series import FamilyVector, tail_sup_bound, term_array

#: Slack for certified strict inequalities, restated independently.
CHECK_SLACK = Fraction(1, 10 ** 9)

#: Allowed disagreement between a recorded norm and its recomputation.
RECORD_TOLERANCE = 1e-9

#: Unused indices below ``len(injection) + TAIL_CUTOFF_SPAN`` are scanned
#: one by one; the monotone tail envelope covers the rest.
TAIL_CUTOFF_SPAN = 10_000

#: Terms per chunk of the exact sums; each chunk's limb sums stay below
#: ``2**42``, far inside the ``2**53`` that float64 holds exactly.
_SUM_CHUNK = 1 << 16

#: Every float64 is a whole number of ``2**-_UNIT_PLACES``: a 53-bit
#: mantissa times ``2**(e - 53)`` with ``e >= -1073``.  The exact sums
#: are Python ints counting that unit.
_UNIT_PLACES = 1126

#: Indices per term evaluation in the unused-index scan, which keeps
#: memory flat on long injections.
_TERM_CHUNK = 1 << 16


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    conditions_checked: int
    links_checked: int

    def __str__(self) -> str:
        if self.ok:
            return (f"certificate ok: {self.conditions_checked} conditions, "
                    f"{self.links_checked} links")
        lines = [f"certificate FAILED ({len(self.failures)} problems)"]
        lines.extend("  " + f for f in self.failures)
        return "\n".join(lines)


def _certified_below(value: float, bound: Fraction) -> bool:
    return math.isfinite(value) and Fraction(value) + CHECK_SLACK < bound


def _index_array(injection: np.ndarray) -> np.ndarray | None:
    """The injection (an int64 array, as conditions hold it), or None
    unless its entries are distinct and nonnegative."""
    ordered = np.sort(injection)
    if ordered.size and (ordered[0] < 0
                         or (ordered[1:] == ordered[:-1]).any()):
        return None
    return injection


def _chunks(ms: np.ndarray, size: int) -> Iterator[np.ndarray]:
    return (ms[start:start + size] for start in range(0, len(ms), size))


def _largest_unused_term(fam: FamilyVector, d: int, used: np.ndarray,
                         cutoff: int) -> float:
    """Largest Euclidean norm of a d-dimensional term vector at an index
    below ``cutoff`` that ``used`` does not contain."""
    mask = np.ones(cutoff, dtype=bool)
    mask[used[used < cutoff]] = False
    worst = 0.0
    for part in _chunks(np.flatnonzero(mask), _TERM_CHUNK):
        sizes = np.abs(term_array(fam[0], part))
        for i in range(1, d):
            sizes = np.hypot(sizes, term_array(fam[i], part))
        worst = max(worst, float(sizes.max()))
    return worst


def _rounded(units: int, unit: int = -_UNIT_PLACES) -> float:
    """``units * 2**unit`` rounded once to float64 (the default unit is
    the exact sums' ``2**-1126``), or an infinity past its range."""
    try:
        return units / (1 << -unit) if unit < 0 else float(units << unit)
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _exact_run(terms: np.ndarray, before: int,
               prefixes: bool) -> tuple[np.ndarray | None, int]:
    """``before`` (an exact sum) plus the finite float64 ``terms``,
    exactly: the new sum, and with ``prefixes`` each running sum rounded
    once.

    The run is written in a unit ``2**u`` that divides every term and
    ``before``, so each term is a whole number ``I`` of units, which
    ``np.ldexp`` gives exactly.  ``I`` is cut into limbs
    ``h * 2**52 + m * 2**26 + l`` with ``0 <= m, l < 2**26``; the running
    sums of each limb, in float64, are exact while they stay below
    ``2**53``.  Carrying the low limbs up leaves a running sum as
    ``H * 2**52 + R`` with ``0 <= R < 2**52``, two floats whose one
    rounded addition is the correctly rounded running sum.  When the
    high limbs could reach ``2**52`` (a run spanning more than some 35
    binades), the terms are added one by one as Python ints instead.
    """
    sizes, exps = np.frexp(terms)
    if not np.isfinite(sizes).all():
        raise InputError("the family has a term that is not finite")
    lowest = exps[sizes != 0.0]
    places = min(([_UNIT_PLACES + int(lowest.min()) - 53] if lowest.size
                  else []) + ([(before & -before).bit_length() - 1]
                              if before else []), default=0)
    unit = places - _UNIT_PLACES  # the run's unit is 2**unit
    start = before >> places
    with np.errstate(over="ignore"):  # an infinity takes the wide path
        whole = np.ldexp(terms, -unit)
    high = np.floor(whole * 2.0 ** -52)
    base_high, base_rest = start >> 52, start & ((1 << 52) - 1)
    if (abs(base_high) >= 1 << 52
            or abs(base_high) + float(np.abs(high).sum()) >= 2.0 ** 52):
        # wide: every term as mantissa << (exponent - 53 - unit); that is
        # nonnegative but for zeros, whose exponent is 0
        mants = np.ldexp(sizes, 53).astype(np.int64).tolist()
        shifts = np.maximum(exps - 53 - unit, 0).tolist()
        ints = [m << s for m, s in zip(mants, shifts)]
        if not prefixes:
            return None, (start + sum(ints)) << places
        running = np.empty(len(ints))
        for j, value in enumerate(ints):
            start += value
            running[j] = _rounded(start, unit)
        return running, start << places
    rest = whole - high * 2.0 ** 52
    mid = np.floor(rest * 2.0 ** -26)
    low = rest - mid * 2.0 ** 26
    if not prefixes:
        total = (((int(high.sum()) + base_high) << 52) + base_rest
                 + (int(mid.sum()) << 26) + int(low.sum()))
        return None, total << places
    low = np.cumsum(low) + float(base_rest & ((1 << 26) - 1))
    mid = np.cumsum(mid) + float(base_rest >> 26)
    high = np.cumsum(high) + float(base_high)
    carry = np.floor(low * 2.0 ** -26)
    low -= carry * 2.0 ** 26
    mid += carry
    carry = np.floor(mid * 2.0 ** -26)
    mid -= carry * 2.0 ** 26
    high += carry
    rest = mid * 2.0 ** 26 + low
    # H * 2**52 alone can pass the top of the float64 range when the sum
    # is just below it, so there both parts are added at half scale; a
    # running sum past the range is an infinity
    half = 1 if unit > 0 else 0
    with np.errstate(over="ignore"):
        running = np.ldexp(high, unit + 52 - half) + np.ldexp(rest,
                                                              unit - half)
        if half:
            running = np.ldexp(running, 1)
    if len(terms):
        start = (int(high[-1]) << 52) + int(rest[-1])
    return running, start << places


def _running_sums(fam: FamilyVector, d: int, ms: np.ndarray,
                  dims: int) -> tuple[list[int], float]:
    """Exact coordinate sums of the terms at ``ms`` over the first
    ``dims >= d`` series, as ints counting ``2**-1126``,
    and the largest norm of their running sums over the first ``d``
    series, in the listed order (0.0 when ``d`` is 0 or ``ms`` empty).

    Each running sum coordinate is its exact value rounded once to
    nearest (:func:`_exact_run`), so it is within ``2**-53`` of that
    value, relatively.  The norm chains ``d - 1`` calls of ``np.hypot``
    over the coordinates, each within one ulp (``2**-52``, relatively),
    so the largest norm is within ``2 * d * 2**-53`` of the exact norm,
    relatively: below 2e-13 for norms under 100 and ``d <= 8``, far
    inside ``CHECK_SLACK``.
    """
    sums = [0] * dims
    peak = 0.0
    for part in _chunks(ms, _SUM_CHUNK):
        norms = None
        for i in range(dims):
            running, sums[i] = _exact_run(term_array(fam[i], part), sums[i],
                                          i < d)
            if running is not None:
                norms = (np.abs(running) if norms is None
                         else np.hypot(norms, running))
        if norms is not None:
            peak = max(peak, float(norms.max()))
    return sums, peak


def _condition_failures(fam: FamilyVector, cond, inj: np.ndarray | None,
                        sums: list[int] | None, targets: Sequence[float],
                        schedule: ConstantSchedule, label: str) -> list[str]:
    """The failed claims of a condition whose injection is ``inj`` (None
    unless distinct and nonnegative) with exact coordinate ``sums``."""
    fails = []
    if inj is None:
        fails.append(f"{label}: injection is not a map into distinct "
                     f"nonnegative indices")
    if not 1 <= cond.dim <= min(len(fam), len(targets)):
        fails.append(f"{label}: dimension {cond.dim} is out of range")
    if cond.eps <= 0:
        fails.append(f"{label}: tolerance {cond.eps} is not positive")
    if fails:
        return fails
    d = cond.dim
    dev = math.hypot(*(_rounded(sums[i]) - float(targets[i])
                       for i in range(d)))
    if not _certified_below(dev, cond.eps):
        fails.append(f"{label}: deviation {dev!r} is not certifiably below "
                     f"eps={cond.eps}")
    ceiling = cond.eps / Fraction(schedule.value_at(d))
    cutoff = len(inj) + TAIL_CUTOFF_SPAN
    worst = _largest_unused_term(fam, d, inj, cutoff)
    if worst > 0.0 and not _certified_below(worst, ceiling):
        fails.append(f"{label}: unused index below {cutoff} has size "
                     f"{worst!r}, not certifiably below eps/C={ceiling}")
    beyond = tail_sup_bound(fam, cutoff, d)
    if not _certified_below(beyond, ceiling):
        fails.append(f"{label}: tail envelope {beyond!r} beyond {cutoff} is "
                     f"not certifiably below eps/C={ceiling}")
    return fails


def _link_block(fam: FamilyVector, lower, upper,
                dims: int) -> tuple[list[int], float] | None:
    """When ``lower`` extends ``upper`` by a run of distinct nonnegative
    indices, the run's exact sums over the first ``dims`` series and, if
    the link keeps its dimension within the family, its largest prefix
    norm over the first ``upper.dim``; otherwise None."""
    k = len(upper.injection)
    if not np.array_equal(lower.injection[:k], upper.injection):
        return None
    block = _index_array(lower.injection[k:])
    if block is None:
        return None
    d = upper.dim if lower.dim >= upper.dim and upper.dim <= len(fam) else 0
    return _running_sums(fam, d, block, dims)


def _link_failures(fam: FamilyVector, lower, upper, record: LinkRecord,
                   label: str,
                   stats: tuple[list[int], float] | None) -> list[str]:
    """The failed claims of a link, given :func:`_link_block`'s ``stats``
    of its two conditions."""
    fails = []
    k = len(upper.injection)
    if not np.array_equal(lower.injection[:k], upper.injection):
        fails.append(f"{label}: lower condition does not extend the upper one")
        return fails
    if lower.dim < upper.dim:
        fails.append(f"{label}: active dimension shrank "
                     f"({upper.dim} -> {lower.dim})")
        return fails
    if upper.dim > len(fam):
        fails.append(f"{label}: dimension {upper.dim} is out of range")
        return fails
    if stats is None:
        fails.append(f"{label}: appended block is not a run of distinct "
                     f"nonnegative indices")
        return fails
    sums, prefix_max = stats
    block_norm = math.hypot(*map(_rounded, sums[:upper.dim]))
    two_eps = 2 * upper.eps
    if prefix_max > 0.0 and not _certified_below(prefix_max, two_eps):
        fails.append(f"{label}: appended block has a prefix of size "
                     f"{prefix_max!r}, not certifiably below 2*eps={two_eps}")
    two_delta = 2 * lower.eps
    if block_norm == 0.0:
        step_ok = two_delta <= two_eps
    else:
        step_ok = two_delta + Fraction(block_norm) + CHECK_SLACK <= two_eps
    if not step_ok:
        fails.append(f"{label}: 2*delta + block sum = "
                     f"{two_delta} + {block_norm!r} exceeds 2*eps={two_eps}")
    if abs(prefix_max - record.block_prefix_max) > RECORD_TOLERANCE:
        fails.append(f"{label}: recorded block_prefix_max="
                     f"{record.block_prefix_max!r} but recomputed "
                     f"{prefix_max!r}")
    if abs(block_norm - record.block_sum_norm) > RECORD_TOLERANCE:
        fails.append(f"{label}: recorded block_sum_norm="
                     f"{record.block_sum_norm!r} but recomputed "
                     f"{block_norm!r}")
    return fails


def verify_data(data: CertificateData, fam: FamilyVector,
                targets: Sequence[float] | None = None,
                schedule: ConstantSchedule | None = None
                ) -> VerificationReport:
    """Check an already-parsed certificate against a family.

    Supplied ``targets`` that are not all finite raise
    :class:`InputError`, as they do when a chain is built.
    """
    failures: list[str] = []
    if data.version != CERTIFICATE_VERSION:
        failures.append(f"header: unsupported version {data.version}")
    if targets is None:
        targets_t = data.targets
    else:
        targets_t = tuple(float(x) for x in targets)
        if not all(map(math.isfinite, targets_t)):
            raise InputError(f"targets must be finite, got "
                             f"{','.join(map(repr, targets_t))}")
        if data.targets and data.targets != targets_t:
            failures.append("header: recorded targets differ from the "
                            "supplied ones")
    if not targets_t:
        failures.append("header: no targets recorded or supplied")
        return VerificationReport(False, tuple(failures),
                                  0, 0)
    if schedule is None:
        schedule = (ConstantSchedule(data.schedule_values)
                    if data.schedule_values else DEFAULT_SCHEDULE)
    conds = data.conditions
    # Each link's extension is checked first; a condition that extends
    # the one before by a valid block then takes that condition's exact
    # sums plus the block's, so every index is summed once.  A condition
    # that does not is summed from scratch.
    dims = min(len(fam), max((c.dim for c in conds), default=1))
    blocks: list[tuple[list[int], float] | None] = []
    sums: list[int] | None = None
    for pos, cond in enumerate(conds):
        block = _link_block(fam, cond, conds[pos - 1], dims) if pos else None
        blocks.append(block)
        inj = _index_array(cond.injection)
        if inj is None:
            sums = None
        elif block is not None and sums is not None:
            sums = [a + b for a, b in zip(sums, block[0])]
        else:
            sums = _running_sums(fam, 0, inj, dims)[0]
        failures.extend(_condition_failures(fam, cond, inj, sums, targets_t,
                                            schedule, f"condition {pos}"))
    if len(data.links) != len(conds) - 1:
        failures.append(f"links: expected {len(conds) - 1} link lines, "
                        f"found {len(data.links)}")
    for pos, record in enumerate(data.links):
        label = f"link {record.lower}->{record.upper}"
        if record.lower != pos + 1 or record.upper != pos:
            failures.append(f"{label}: links must descend consecutive "
                            f"conditions")
            continue
        if record.lower >= len(conds):
            failures.append(f"{label}: refers to a missing condition")
            continue
        failures.extend(_link_failures(fam, conds[record.lower],
                                       conds[record.upper], record, label,
                                       blocks[record.lower]))
    return VerificationReport(not failures, tuple(failures), len(conds),
                              len(data.links))


def verify_certificate(cert_path: str, spec_path: str,
                       targets: Sequence[float] | None = None,
                       schedule: ConstantSchedule | None = None
                       ) -> VerificationReport:
    """Recheck every claim in a certificate file from first principles."""
    data = parse_certificate(cert_path)
    fam = parse_spec_file(spec_path)[0]
    return verify_data(data, fam, targets, schedule)
