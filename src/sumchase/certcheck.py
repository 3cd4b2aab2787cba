"""Independent rechecking of emitted certificates.

This module re-derives every claim in a certificate from scratch: plain
per-coordinate running sums over the recorded injections, term-by-term
scans of the unused indices, and exact rational comparisons against the
recorded tolerances.  It shares only the input parsers, the scalar term
evaluator ``term`` and the tail envelope ``tail_sup_bound`` with the
engine, which sums through the vectorized ``term_array`` instead, so a
bookkeeping bug in the chain builder cannot silently vouch for itself.

Recorded norms must agree with the recomputed ones to within 1e-9, and
every inequality is re-certified with the same slack margin the builder
used (restated here as a literal on purpose).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .confinement import ConstantSchedule, DEFAULT_SCHEDULE
from .fileio import (CERTIFICATE_VERSION, CertificateData, LinkRecord,
                     parse_certificate, parse_spec_file)
from .series import FamilyVector, tail_sup_bound, term

#: Slack for certified strict inequalities, restated independently.
CHECK_SLACK = Fraction(1, 10 ** 9)

#: Allowed disagreement between a recorded norm and its recomputation.
RECORD_TOLERANCE = 1e-9

#: Unused indices below ``len(injection) + TAIL_CUTOFF_SPAN`` are scanned
#: one by one; the monotone tail envelope covers the rest.
TAIL_CUTOFF_SPAN = 10_000


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


class _RunningSums:
    """Compensated per-coordinate accumulation of term vectors."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.values = [0.0] * dim
        self._carry = [0.0] * dim

    def add(self, fam: FamilyVector, index: int) -> None:
        for i in range(self.dim):
            y = term(fam[i], index) - self._carry[i]
            t = self.values[i] + y
            self._carry[i] = (t - self.values[i]) - y
            self.values[i] = t

    def norm(self) -> float:
        return math.hypot(*self.values)


def _certified_below(value: float, bound: Fraction) -> bool:
    return Fraction(value) + CHECK_SLACK < bound


def _condition_failures(fam: FamilyVector, cond, targets: Sequence[float],
                        schedule: ConstantSchedule, label: str) -> list[str]:
    fails = []
    inj = cond.injection
    if len(set(inj)) != len(inj) or any(i < 0 for i in inj):
        fails.append(f"{label}: injection is not a map into distinct "
                     f"nonnegative indices")
    if not 1 <= cond.dim <= min(len(fam), len(targets)):
        fails.append(f"{label}: dimension {cond.dim} is out of range")
    if cond.eps <= 0:
        fails.append(f"{label}: tolerance {cond.eps} is not positive")
    if fails:
        return fails
    d = cond.dim
    running = _RunningSums(d)
    for m in inj:
        running.add(fam, m)
    dev = math.hypot(*(running.values[i] - float(targets[i])
                       for i in range(d)))
    if not _certified_below(dev, cond.eps):
        fails.append(f"{label}: deviation {dev!r} is not certifiably below "
                     f"eps={cond.eps}")
    ceiling = cond.eps / Fraction(schedule.value_at(d))
    cutoff = len(inj) + TAIL_CUTOFF_SPAN
    used = set(inj)
    worst = 0.0
    for m in range(cutoff):
        if m in used:
            continue
        size = math.hypot(*(term(fam[i], m) for i in range(d)))
        if size > worst:
            worst = size
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
    if lower.injection[:k] != upper.injection:
        fails.append(f"{label}: lower condition does not extend the upper one")
        return fails
    if lower.dim < upper.dim:
        fails.append(f"{label}: active dimension shrank "
                     f"({upper.dim} -> {lower.dim})")
        return fails
    d = upper.dim
    block = lower.injection[k:]
    running = _RunningSums(d)
    prefix_max = 0.0
    for m in block:
        running.add(fam, m)
        size = running.norm()
        if size > prefix_max:
            prefix_max = size
    block_norm = running.norm() if block else 0.0
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
    """Check an already-parsed certificate against a family."""
    failures: list[str] = []
    if data.version != CERTIFICATE_VERSION:
        failures.append(f"header: unsupported version {data.version}")
    if targets is None:
        targets_t = data.targets
    else:
        targets_t = tuple(float(x) for x in targets)
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
