"""Reading family descriptions and writing traces and certificates.

Family files are JSON.  The root object holds a ``families`` list; each
family is a list of series descriptions keyed by ``kind``:

* ``rademacher_harmonic`` takes ``level`` (required) and ``exponent``
  (default 1.0),
* ``power_alternating`` takes ``exponent`` (default 1.0) and builds the
  level-0 ``rademacher_harmonic`` pattern,
* ``abs_power`` takes ``exponent`` (required, above 1), ``scale``
  (default 1.0) and an optional ``level`` selecting a sign pattern,
* ``composite`` takes ``combo``, a list of ``{"coefficient": c, "ref": r}``
  entries where ``r`` is either the index of an earlier series in the
  same family or an inline description, plus an optional absolutely
  convergent ``perturbation``.

Output files are byte stable: floats are written as ``repr`` writes them
and lines end with a bare newline, so identical runs produce identical
bytes.  A trace is written only from what :func:`trace_rows` returns,
and all of it in this process: its sums are computed in ``2**16``-step
chunks and its rows are formatted in jobs of ``2**11`` rows.  A job's
text is built column by column in numpy, each float with the bytes of
its ``repr`` (see :mod:`._shortest`); a term column whose magnitudes
equal those of an earlier column in the job reuses that column's text
and sets its own signs, so a sign-pattern family with coefficients of
±1 formats one magnitude per row (see :func:`_format_job`).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .conditions import CertificateChain, Condition
from ._shortest import float_cells, int_cells
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
    """Load every family from a JSON family file.

    A file nested deeper than the interpreter's recursion limit allows is
    an input error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: family file is not UTF-8 text") from exc
    except RecursionError:
        raise _too_deep(path) from None
    if not isinstance(data, dict) or "families" not in data:
        raise InputError(f"{path}: root object must carry a families list")
    families = data["families"]
    if not isinstance(families, list) or not families:
        raise InputError(f"{path}: families must be a nonempty list")
    out = []
    for pos, entries in enumerate(families):
        if not isinstance(entries, list) or not entries:
            raise InputError(f"{path}: families[{pos}] must be a nonempty list")
        try:
            out.append(parse_family(entries, where=f"families[{pos}]"))
        except RecursionError:
            raise _too_deep(path) from None
    return out


def _too_deep(path: str) -> InputError:
    return InputError(f"{path}: series descriptions are nested too deeply")


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

#: Rows per formatting job.  It divides ``_TRACE_CHUNK``, so a trace of
#: ``n`` steps makes ``ceil(n / _JOB_ROWS)`` jobs.  Jobs of ``2**10`` to
#: ``2**12`` rows format the benchmark chain's trace equally fast; the
#: smaller the job, the fewer bytes its intermediates hold at once.
_JOB_ROWS = 1 << 11


class _TraceJob(NamedTuple):
    """Consecutive trace rows, formatted as one unit.

    ``runs`` cuts the rows into ``(first, stop, active_dim, active_eps)``
    runs that share their condition columns, and ``annotated`` says
    whether those columns are written at all.
    """

    start: int
    indices: np.ndarray
    terms: np.ndarray
    sums: np.ndarray
    runs: tuple[tuple[int, int, int | None, Fraction | None], ...]
    annotated: bool


def _header(dim: int, annotated: bool) -> str:
    header = ["step", "index"]
    header += [f"term_{i}" for i in range(dim)]
    header += [f"sum_{i}" for i in range(dim)]
    if annotated:
        header += ["active_dim", "active_eps"]
    return ",".join(header) + "\n"


def _format_job(job: _TraceJob) -> list[str]:
    """The CSV lines of one job, each ending in a bare newline.

    The bytes are those of ``%r``-formatting each float row by row, but the
    text is built column by column: every cell of the job goes into one
    uint8 matrix, padded with NUL bytes (see :mod:`._shortest`), and one
    ``bytes.translate`` drops the padding of every row at once.  A term
    column whose ``np.abs`` equals that of an earlier column over the
    whole job reuses that column's magnitude cells and writes its own
    sign byte (``repr(-x) == "-" + repr(x)`` for every float but NaN,
    whose ``repr`` has no sign): in a sign-pattern family with
    coefficients of ±1 and one exponent, every term column shares the
    first column's magnitudes, so a row of ``d`` terms formats one
    magnitude instead of ``d``.
    """
    terms = job.terms
    rows, dim = terms.shape
    magnitudes = np.abs(terms)
    unique: list[np.ndarray] = []
    sources = []
    for col in range(dim):
        source = next((pos for pos, earlier in enumerate(unique)
                       if np.array_equal(earlier, magnitudes[:, col])), None)
        if source is None:
            source = len(unique)
            unique.append(magnitudes[:, col])
        sources.append(source)
    floats = float_cells(np.column_stack(unique + [job.sums]))
    ints = int_cells(np.column_stack(
        [np.arange(job.start, job.start + rows), job.indices]))
    suffixes = [f",{active_dim},{active_eps}\n".encode() if job.annotated
                else b"\n" for _, _, active_dim, active_eps in job.runs]
    # every cell but the last is followed by a comma, the row by a suffix
    int_width = ints.shape[2] + 1
    float_width = floats.shape[2] + 1
    start = 2 * int_width
    end = start + 2 * dim * float_width
    matrix = np.zeros((rows, end + max(map(len, suffixes))), dtype=np.uint8)
    matrix[:, :start].reshape(rows, 2, int_width)[:, :, :-1] = ints
    matrix[:, int_width - 1:start:int_width] = ord(",")
    cells = matrix[:, start:end].reshape(rows, 2 * dim, float_width)
    for col, source in enumerate(sources):
        cells[:, col, :-1] = floats[:, source]
    # a magnitude cell has an empty sign byte, which takes the term's sign
    cells[:, :dim, 0] = np.signbit(terms) & ~np.isnan(terms)
    cells[:, :dim, 0] *= ord("-")
    cells[:, dim:, :-1] = floats[:, len(unique):]
    cells[:, :-1, -1] = ord(",")
    for (first, stop, _, _), suffix in zip(job.runs, suffixes):
        matrix[first:stop, end:end + len(suffix)] = np.frombuffer(
            suffix, dtype=np.uint8)
    text = matrix.tobytes().translate(None, b"\0").decode("ascii")
    return text.splitlines(keepends=True)


class _Trace:
    """What :func:`trace_rows` returns: an iterable of :class:`TraceRow`
    whose rows :func:`emit_trace` takes as formatting jobs.

    Only the lengths of the chain's conditions are read up front; nothing
    is computed until the rows or the jobs are asked for.
    """

    def __init__(self, fam: FamilyVector, injection: Sequence[int],
                 dim: int, chain: CertificateChain | None) -> None:
        self._args = (fam, injection)
        self.dim = dim
        self._labels: list[tuple[int | None, Fraction | None]] = [
            (None, None)]
        self._lengths = np.zeros(0, dtype=np.int64)
        if chain is not None:
            self._labels = [(c.dim, c.eps)
                            for c in chain.conditions] + self._labels
            # the running maximum keeps "first condition longer than the
            # step" a sorted search even for hand-built chains
            self._lengths = np.maximum.accumulate(
                [len(c.injection) for c in chain.conditions])
        # the condition columns are written when step 0 has a condition
        self.annotated = bool(len(self._lengths) and self._lengths[-1] > 0)

    def _jobs(self) -> Iterator[_TraceJob]:
        fam, injection = self._args
        dim, labels, lengths = self.dim, self._labels, self._lengths
        carry = np.zeros(dim)
        indices = np.asarray(injection, dtype=np.int64)
        for start in range(0, len(indices), _TRACE_CHUNK):
            part = indices[start:start + _TRACE_CHUNK]
            terms = vector_terms(fam, part, dim)
            sums = np.cumsum(terms, axis=0) + carry
            carry = sums[-1].copy()
            owner = np.searchsorted(
                lengths, np.arange(start, start + len(part)), side="right")
            for lo in range(0, len(part), _JOB_ROWS):
                hi = min(lo + _JOB_ROWS, len(part))
                cuts = [0, *(np.flatnonzero(np.diff(owner[lo:hi])) + 1
                             ).tolist(), hi - lo]
                runs = tuple((first, stop, *labels[int(owner[lo + first])])
                             for first, stop in zip(cuts[:-1], cuts[1:]))
                yield _TraceJob(start + lo, part[lo:hi], terms[lo:hi],
                                sums[lo:hi], runs, self.annotated)

    def __iter__(self) -> Iterator[TraceRow]:
        for job in self._jobs():
            for first, stop, active_dim, active_eps in job.runs:
                for step, index, terms, sums in zip(
                        range(job.start + first, job.start + stop),
                        job.indices[first:stop].tolist(),
                        job.terms[first:stop].tolist(),
                        job.sums[first:stop].tolist()):
                    yield TraceRow(step, index, tuple(terms), tuple(sums),
                                   active_dim, active_eps)


def trace_rows(fam: FamilyVector, injection: Sequence[int], dim: int,
               chain: CertificateChain | None = None) -> _Trace:
    """Recompute the running sums an injection produces, step by step.

    Iterating the result yields rows lazily (chains can run to millions
    of steps), and each pass computes them again.  With a chain, each row
    also records which condition was active when the index was appended:
    the shallowest condition whose prefix already contains that step.
    Steps past the chain's last condition carry ``None`` for both.

    The sums are ``np.cumsum`` runs over ``2**16``-step chunks with the
    total carried from chunk to chunk, so their bits do not depend on
    how the rows are consumed.  :func:`emit_trace` and
    :func:`write_trace` write only this object, as formatting jobs of
    ``2**11`` rows whose text is built a column at a time; iterating it
    first changes nothing they write.  ``dim`` must lie between 1 and
    ``len(fam)``; any other value is an InputError.
    """
    if not 1 <= dim <= len(fam):
        raise InputError(f"trace dimension {dim} outside 1..{len(fam)}")
    return _Trace(fam, injection, dim, chain)


def _check_trace(rows: object) -> None:
    if not isinstance(rows, _Trace):
        raise TypeError("a trace is written from what trace_rows returns, "
                        f"not from {type(rows).__name__}")


def emit_trace(rows: _Trace, out: IO[str]) -> None:
    """Write a trace as CSV with repr floats, one ``out.write`` per row.

    ``rows`` must be what :func:`trace_rows` returns; anything else raises
    ``TypeError``.  Its rows are formatted job by job in this process,
    under the header of the trace's dimension even when it has no rows,
    and written in step order.  A write per row, not per job, keeps a
    sink that buffers a fixed number of writes as small as it was.
    """
    _check_trace(rows)
    write = out.write
    write(_header(rows.dim, rows.annotated))
    for job in rows._jobs():
        for line in _format_job(job):
            write(line)


def write_trace(path: str, rows: _Trace) -> None:
    """Write a trace to ``path`` as :func:`emit_trace` does; a rejected
    ``rows`` leaves no file behind."""
    _check_trace(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        emit_trace(rows, handle)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

#: Indices per ``str`` conversion when a condition line is written.
_INDEX_CHUNK = 1 << 16


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
        out.write(f"condition {pos}: f=")
        injection = cond.injection
        for start in range(0, len(injection), _INDEX_CHUNK):
            if start:
                out.write(",")
            # a list of ints has the repr "[i, j, ...]"; this is faster
            # than joining the str of each entry
            chunk = injection[start:start + _INDEX_CHUNK].tolist()
            out.write(repr(chunk)[1:-1].replace(", ", ","))
        out.write(f" d={cond.dim} eps={cond.eps}\n")
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


#: Numbers long enough to fall outside int64.
_LONG_INDEX = re.compile(r"[+-]?[0-9]{19,}")

_INT64 = np.iinfo(np.int64)


def _index_text_ok(text: str) -> bool:
    """Whether ``text`` is comma-separated decimal integers, each with an
    optional sign."""
    # with the signs that start a number dropped, only digits and commas
    # that separate two digits may remain
    bare = text.replace(",-", ",").replace(",+", ",")
    if bare[:1] in ("-", "+"):
        bare = bare[1:]
    return (bare.isascii() and bare.replace(",", "").isdecimal()
            and ",," not in bare and bare[0] != "," and bare[-1] != ",")


def _parse_indices(text: str, where: str) -> np.ndarray:
    """The comma-separated integers of an ``f=`` value as a read-only
    int64 array, with no Python object per entry.  Negative entries
    parse, for the checker to report."""
    if text and not _index_text_ok(text):
        raise InputError(f"{where}: f must be comma-separated integers")
    indices = np.fromstring(text, dtype=np.int64, sep=",")
    # np.fromstring clamps an entry outside int64 to the nearest bound
    # instead of failing, so entries at a bound are checked by their digits
    if indices.size and (indices.max() == _INT64.max
                         or indices.min() == _INT64.min):
        for token in _LONG_INDEX.findall(text):
            if not _INT64.min <= int(token) <= _INT64.max:
                raise InputError(f"{where}: index {token} lies outside int64")
    indices.flags.writeable = False
    return indices


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
            conditions[pos] = Condition(
                _parse_indices(fields["f"], where),
                _convert(int, fields["d"], where, "d"),
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
