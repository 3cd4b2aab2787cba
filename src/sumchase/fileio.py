"""Reading family descriptions and writing traces and certificates.

Family files are JSON.  The root object holds a ``families`` list; each
family is a list of series descriptions keyed by ``kind``:

* ``rademacher_harmonic`` takes ``level`` (required) and ``exponent``
  (default 1.0),
* ``power_alternating`` takes ``exponent`` (default 1.0),
* ``abs_power`` takes ``exponent`` (required, above 1), ``scale``
  (default 1.0) and an optional ``level`` selecting a sign pattern,
* ``composite`` takes ``combo``, a list of ``{"coefficient": c, "ref": r}``
  entries where ``r`` is either the index of an earlier series in the
  same family or an inline description, plus an optional absolutely
  convergent ``perturbation``.

Output files are byte stable: floats are written with ``repr`` and lines
end with a bare newline, so identical runs produce identical bytes.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .conditions import CertificateChain, Condition
from .errors import InputError
from .series import (FamilyVector, SeriesSpec, abs_power, composite, family,
                     power_alternating, rademacher_harmonic, vector_terms)

CERTIFICATE_VERSION = 1

_COMMON_KEYS = {"kind"}
_KEYS_BY_KIND = {
    "rademacher_harmonic": {"level", "exponent"},
    "power_alternating": {"exponent"},
    "abs_power": {"exponent", "scale", "level"},
    "composite": {"combo", "perturbation"},
}


def _check_keys(obj: dict, kind: str, where: str) -> None:
    allowed = _COMMON_KEYS | _KEYS_BY_KIND[kind]
    extra = set(obj) - allowed
    if extra:
        raise InputError(
            f"{where}: unexpected keys {sorted(extra)} for kind {kind!r}")


def _parse_series(obj: object, earlier: Sequence[SeriesSpec],
                  where: str) -> SeriesSpec:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: series description must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KEYS_BY_KIND:
        raise InputError(f"{where}: unknown kind {kind!r}")
    _check_keys(obj, kind, where)
    if kind == "rademacher_harmonic":
        if "level" not in obj:
            raise InputError(f"{where}: rademacher_harmonic needs a level")
        return rademacher_harmonic(obj["level"], obj.get("exponent", 1.0))
    if kind == "power_alternating":
        return power_alternating(obj.get("exponent", 1.0))
    if kind == "abs_power":
        if "exponent" not in obj:
            raise InputError(f"{where}: abs_power needs an exponent")
        return abs_power(obj["exponent"], obj.get("scale", 1.0),
                         sign_level=obj.get("level"))
    entries = obj.get("combo")
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{where}: composite needs a nonempty combo list")
    terms = []
    for pos, entry in enumerate(entries):
        spot = f"{where}.combo[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"coefficient", "ref"}:
            raise InputError(
                f"{spot}: combo entries carry exactly coefficient and ref")
        coeff = entry["coefficient"]
        if not isinstance(coeff, (int, float)) or not math.isfinite(coeff):
            raise InputError(f"{spot}: coefficient must be a finite number")
        ref = entry["ref"]
        if isinstance(ref, int) and not isinstance(ref, bool):
            if not 0 <= ref < len(earlier):
                raise InputError(
                    f"{spot}: ref {ref} does not name an earlier series")
            spec = earlier[ref]
        else:
            spec = _parse_series(ref, earlier, spot)
        terms.append((coeff, spec))
    perturbation = None
    if obj.get("perturbation") is not None:
        perturbation = _parse_series(obj["perturbation"], earlier,
                                     f"{where}.perturbation")
    return composite(terms, perturbation=perturbation)


def parse_family(entries: Sequence[object], where: str = "family") -> FamilyVector:
    """Build a family from a list of JSON series descriptions."""
    specs: list[SeriesSpec] = []
    for pos, entry in enumerate(entries):
        specs.append(_parse_series(entry, specs, f"{where}[{pos}]"))
    return family(*specs)


def parse_spec_file(path: str) -> list[FamilyVector]:
    """Load every family from a JSON family file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: family file is not UTF-8 text") from exc
    if not isinstance(data, dict) or "families" not in data:
        raise InputError(f"{path}: root object must carry a families list")
    families = data["families"]
    if not isinstance(families, list) or not families:
        raise InputError(f"{path}: families must be a nonempty list")
    out = []
    for pos, entries in enumerate(families):
        if not isinstance(entries, list) or not entries:
            raise InputError(f"{path}: families[{pos}] must be a nonempty list")
        out.append(parse_family(entries, where=f"families[{pos}]"))
    return out


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TraceRow(NamedTuple):
    """One appended index with the term it contributed and the sums so far."""

    step: int
    index: int
    terms: tuple[float, ...]
    sums: tuple[float, ...]
    active_dim: int | None = None
    active_eps: Fraction | None = None


#: Steps per cumulative-sum chunk.  The running sums are carried from one
#: chunk to the next, so this constant fixes the bits of the sum columns.
_TRACE_CHUNK = 1 << 16

#: Rows converted from arrays to Python objects at a time.  Larger slices
#: hold more objects at once and were no faster.
_ROW_SLICE = 1024


def trace_rows(fam: FamilyVector, injection: Sequence[int], dim: int,
               chain: CertificateChain | None = None) -> Iterator[TraceRow]:
    """Recompute the running sums an injection produces, step by step.

    Yields rows lazily (chains can run to millions of steps).  With a
    chain, each row also records which condition was active when the
    index was appended: the shallowest condition whose prefix already
    contains that step.  Steps past the chain's last condition carry
    ``None`` for both.
    """
    labels: list[tuple[int | None, Fraction | None]] = [(None, None)]
    lengths = np.zeros(0, dtype=np.int64)
    if chain is not None:
        labels = [(c.dim, c.eps) for c in chain.conditions] + labels
        # the running maximum keeps "first condition longer than the
        # step" a sorted search even for hand-built chains
        lengths = np.maximum.accumulate(
            [len(c.injection) for c in chain.conditions])
    carry = np.zeros(dim)
    indices = np.asarray(injection, dtype=np.int64)
    for start in range(0, len(indices), _TRACE_CHUNK):
        part = indices[start:start + _TRACE_CHUNK]
        terms = vector_terms(fam, part, dim)
        sums = np.cumsum(terms, axis=0) + carry
        carry = sums[-1].copy()
        owner = np.searchsorted(lengths, np.arange(start, start + len(part)),
                                side="right")
        cuts = [0, *(np.flatnonzero(np.diff(owner)) + 1).tolist(), len(part)]
        for first, stop in zip(cuts[:-1], cuts[1:]):
            active_dim, active_eps = labels[int(owner[first])]
            for lo in range(first, stop, _ROW_SLICE):
                hi = min(lo + _ROW_SLICE, stop)
                for step, index, row_terms, row_sums in zip(
                        range(start + lo, start + hi), part[lo:hi].tolist(),
                        map(tuple, terms[lo:hi].tolist()),
                        map(tuple, sums[lo:hi].tolist())):
                    yield TraceRow(step, index, row_terms, row_sums,
                                   active_dim, active_eps)


def emit_trace(rows: Iterable[TraceRow], out: IO[str]) -> None:
    """Write trace rows as CSV with repr floats, streaming one write per
    row."""
    iterator = iter(rows)
    first = next(iterator, None)
    dim = len(first.terms) if first is not None else 1
    annotated = first is not None and first.active_dim is not None
    header = ["step", "index"]
    header += [f"term_{i}" for i in range(dim)]
    header += [f"sum_{i}" for i in range(dim)]
    if annotated:
        header += ["active_dim", "active_eps"]
    out.write(",".join(header) + "\n")
    if first is None:
        return
    row_format = "%s,%s" + ",%r" * (2 * dim) + "%s"
    # the condition columns change only at condition boundaries, so they
    # are rendered once per run of rows that share them
    suffix, shown_dim, shown_eps = "\n", None, None
    for row in itertools.chain((first,), iterator):
        if annotated and (row.active_eps is not shown_eps
                          or row.active_dim != shown_dim):
            shown_dim, shown_eps = row.active_dim, row.active_eps
            suffix = f",{shown_dim},{shown_eps}\n"
        out.write(row_format % (row.step, row.index, *row.terms, *row.sums,
                                suffix))


def write_trace(path: str, rows: Iterable[TraceRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        emit_trace(rows, handle)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def emit_certificate(chain: CertificateChain, targets: Sequence[float],
                     out: IO[str],
                     schedule_values: Sequence[float] = ()) -> None:
    """Serialize a chain as line-oriented text.

    Tolerances are written as exact fractions; every measured norm is
    written with ``repr`` so a checker can compare recomputed values
    against the recorded ones.
    """
    out.write(f"certificate-version: {CERTIFICATE_VERSION}\n")
    out.write("targets: " + ",".join(repr(float(x)) for x in targets) + "\n")
    if schedule_values:
        out.write("schedule: "
                  + ",".join(repr(float(v)) for v in schedule_values) + "\n")
    for pos, cond in enumerate(chain.conditions):
        f_text = ",".join(str(i) for i in cond.injection)
        out.write(f"condition {pos}: f={f_text} d={cond.dim} "
                  f"eps={cond.eps}\n")
    for pos, link in enumerate(chain.checks):
        prefix_max = link.bullet("block-prefixes").value
        block_norm = link.bullet("tolerance-step").value
        out.write(f"link {pos + 1}->{pos}: "
                  f"block_prefix_max={prefix_max!r} "
                  f"block_sum_norm={block_norm!r}\n")


def write_certificate(path: str, chain: CertificateChain,
                      targets: Sequence[float],
                      schedule_values: Sequence[float] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        emit_certificate(chain, targets, handle, schedule_values)


@dataclass(frozen=True)
class LinkRecord:
    lower: int
    upper: int
    block_prefix_max: float
    block_sum_norm: float


@dataclass(frozen=True)
class CertificateData:
    """Parsed certificate: recorded inputs, conditions and link norms."""

    version: int
    targets: tuple[float, ...]
    schedule_values: tuple[float, ...]
    conditions: tuple[Condition, ...]
    links: tuple[LinkRecord, ...] = field(default_factory=tuple)


def _parse_fields(text: str, where: str) -> dict[str, str]:
    fields = {}
    for chunk in text.split():
        if "=" not in chunk:
            raise InputError(f"{where}: expected key=value, got {chunk!r}")
        key, _, value = chunk.partition("=")
        fields[key] = value
    return fields


def _convert(kind, text: str, where: str, what: str):
    """``kind(text)``, with a malformed value reported as an InputError."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: {what} {text!r} is not a valid "
                         f"{kind.__name__}") from exc


def _finite_float(text: str, where: str, what: str) -> float:
    value = _convert(float, text, where, what)
    if not math.isfinite(value):
        raise InputError(f"{where}: {what} must be finite, got {text!r}")
    return value


def _certificate_lines(path: str) -> Iterator[tuple[str, str]]:
    """Yield ``(where, line)`` for each nonblank certificate line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                if raw.strip():
                    yield f"{path}:{lineno}", raw.rstrip("\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: certificate is not UTF-8 text") from exc


def parse_certificate(path: str) -> CertificateData:
    """Read a certificate file back into structured form.

    Every malformed line, including a non-finite target, schedule value
    or recorded norm, raises :class:`InputError`.
    """
    version = None
    targets: tuple[float, ...] = ()
    schedule_values: tuple[float, ...] = ()
    conditions: dict[int, Condition] = {}
    links: list[LinkRecord] = []
    for where, line in _certificate_lines(path):
        head, _, rest = line.partition(":")
        rest = rest.strip()
        head = head.strip()
        if head == "certificate-version":
            version = _convert(int, rest, where, "version")
        elif head == "targets":
            targets = tuple(_finite_float(x, where, "target")
                            for x in rest.split(","))
        elif head == "schedule":
            schedule_values = tuple(_finite_float(x, where, "schedule value")
                                    for x in rest.split(","))
        elif head.startswith("condition "):
            pos = _convert(int, head.split()[1], where, "condition number")
            fields = _parse_fields(rest, where)
            if set(fields) != {"f", "d", "eps"}:
                raise InputError(f"{where}: condition lines carry f, d, eps")
            f_text = fields["f"]
            try:
                injection = (tuple(map(int, f_text.split(",")))
                             if f_text else ())
            except ValueError as exc:
                raise InputError(f"{where}: f must be comma-separated "
                                 f"integers") from exc
            conditions[pos] = Condition(
                injection, _convert(int, fields["d"], where, "d"),
                _convert(Fraction, fields["eps"], where, "eps"))
        elif head.startswith("link "):
            arrow = head.split()[1]
            lower_s, _, upper_s = arrow.partition("->")
            fields = _parse_fields(rest, where)
            if set(fields) != {"block_prefix_max", "block_sum_norm"}:
                raise InputError(
                    f"{where}: link lines carry block_prefix_max and "
                    f"block_sum_norm")
            links.append(LinkRecord(
                _convert(int, lower_s, where, "condition number"),
                _convert(int, upper_s, where, "condition number"),
                _finite_float(fields["block_prefix_max"], where,
                              "block_prefix_max"),
                _finite_float(fields["block_sum_norm"], where,
                              "block_sum_norm")))
        else:
            raise InputError(f"{where}: unrecognized line {line!r}")
    if version is None:
        raise InputError(f"{path}: missing certificate-version line")
    if not conditions:
        raise InputError(f"{path}: certificate carries no conditions")
    ordered = tuple(conditions[i] for i in sorted(conditions))
    if sorted(conditions) != list(range(len(conditions))):
        raise InputError(f"{path}: condition numbering has gaps")
    return CertificateData(version, targets, schedule_values, ordered,
                           tuple(links))
