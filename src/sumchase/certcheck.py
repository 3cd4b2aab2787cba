"""Independent rechecking of emitted certificates.

This module re-derives every claim in a certificate from scratch:
per-coordinate sums over the recorded injections, a scan of the unused
indices below a cutoff, and exact rational comparisons against the
recorded tolerances.  It shares only the input parsers, the vectorized
term evaluator ``term_array`` and the tail envelope ``tail_sup_bound``
with the engine.  Its bookkeeping is its own: the index checks, the
used-index mask and the sums, which it forms in its own chunked,
compensated way (``math.fsum`` per coordinate, and block prefixes from
short ``np.cumsum`` runs on an exactly rounded carry), so a bookkeeping
bug in the chain builder cannot silently vouch for itself.

Recorded norms must agree with the recomputed ones to within 1e-9, and
every inequality is re-certified with the same slack margin the builder
used (restated here as a literal on purpose).
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

#: Terms per ``np.cumsum`` run in a prefix scan; the error bound in
#: :func:`_running_sums` grows with it.
_PREFIX_RUN = 4096

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


def _running_sums(fam: FamilyVector, d: int,
                  ms: np.ndarray) -> tuple[list[float], float]:
    """Coordinate sums of the terms at ``ms`` and their largest prefix norm.

    The indices are cut into runs of at most ``n = _PREFIX_RUN`` terms.  A
    run's prefixes are ``c + np.cumsum(t)``, where the carry ``c`` is the
    sum of all earlier terms, kept as an unevaluated pair ``hi + lo`` of
    ``math.fsum`` results: ``hi`` is the exactly rounded sum and ``lo``
    the rounded rest, so the pair drifts from the exact sum by at most
    ``2**-106 |c|`` per run.  With unit roundoff ``u = 2**-53`` and
    ``g = (n + 1) u / (1 - (n + 1) u)``, each prefix coordinate is then
    within ``u |c| + g (|c| + sum |t_j|)`` of its exact value, the sum
    running over the run's terms.  For n = 4096, ``g < 4.6e-13``, so
    while ``|c| + sum |t_j|`` stays below 100 the error stays below
    5e-11, a twentieth of ``CHECK_SLACK``.  The norm adds a few ulps on
    top.  The returned sums are the ``hi`` parts after the last run.
    """
    hi = [0.0] * d
    lo = [0.0] * d
    peak = 0.0
    for part in _chunks(ms, _PREFIX_RUN):
        norms = None
        for i in range(d):
            run = term_array(fam[i], part)
            prefix = np.cumsum(run) + hi[i]
            norms = np.abs(prefix) if norms is None else np.hypot(norms,
                                                                  prefix)
            values = run.tolist()
            total = math.fsum([hi[i], lo[i], *values])
            lo[i] = math.fsum([hi[i], lo[i], *values, -total])
            hi[i] = total
        peak = max(peak, float(norms.max()))
    return hi, peak


def _condition_failures(fam: FamilyVector, cond, targets: Sequence[float],
                        schedule: ConstantSchedule, label: str) -> list[str]:
    fails = []
    inj = _index_array(cond.injection)
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
    sums, _ = _running_sums(fam, d, inj)
    dev = math.hypot(*(sums[i] - float(targets[i]) for i in range(d)))
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


def _link_failures(fam: FamilyVector, lower, upper, record: LinkRecord,
                   label: str) -> list[str]:
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
    block = _index_array(lower.injection[k:])
    if block is None:
        fails.append(f"{label}: appended block is not a run of distinct "
                     f"nonnegative indices")
        return fails
    sums, prefix_max = _running_sums(fam, upper.dim, block)
    block_norm = math.hypot(*sums) if len(block) else 0.0
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
    for pos, cond in enumerate(conds):
        failures.extend(_condition_failures(fam, cond, targets_t, schedule,
                                            f"condition {pos}"))
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
                                       conds[record.upper], record, label))
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
