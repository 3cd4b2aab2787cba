"""Family files, trace CSVs and certificate round-trips."""
import io
import json
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest

from sumchase import (InputError, abs_power, family, parse_certificate,
                      parse_spec_file, power_alternating, rademacher_harmonic,
                      trace_rows, write_certificate, write_trace)
from sumchase import fileio
from sumchase.conditions import CertificateChain, Condition
from sumchase.fileio import emit_trace, parse_family
from sumchase.series import vector_terms
from conftest import write_family_file


def test_family_file_with_every_kind(tmp_path):
    path = write_family_file(tmp_path / "fam.json", [[
        {"kind": "rademacher_harmonic", "level": 0},
        {"kind": "power_alternating", "exponent": 0.5},
        {"kind": "abs_power", "exponent": 2.0, "scale": 0.25, "level": 1},
        {"kind": "composite",
         "combo": [{"coefficient": -1.0, "ref": 0},
                   {"coefficient": 2.0,
                    "ref": {"kind": "rademacher_harmonic", "level": 2}}],
         "perturbation": {"kind": "abs_power", "exponent": 3.0}},
    ]])
    fams = parse_spec_file(path)
    assert len(fams) == 1
    assert len(fams[0]) == 4
    assert fams[0][0] == rademacher_harmonic(0)
    assert fams[0][2] == abs_power(2.0, 0.25, sign_level=1)


def test_multiple_families_parse_independently(tmp_path):
    path = write_family_file(tmp_path / "two.json", [
        [{"kind": "power_alternating"}],
        [{"kind": "rademacher_harmonic", "level": 1}],
    ])
    fams = parse_spec_file(path)
    assert [len(f) for f in fams] == [1, 1]
    assert fams[0][0] == power_alternating(1.0)


@pytest.mark.parametrize("entries, fragment", [
    ([{"kind": "unknown_kind"}], "unknown kind"),
    ([{"kind": "rademacher_harmonic"}], "needs a level"),
    ([{"kind": "abs_power"}], "needs an exponent"),
    ([{"kind": "power_alternating", "level": 1}], "unexpected keys"),
    ([{"kind": "composite", "combo": []}], "nonempty combo"),
    ([{"kind": "composite",
       "combo": [{"coefficient": 1.0, "ref": 5}]}], "earlier series"),
    ([{"kind": "composite",
       "combo": [{"coefficient": 1.0}]}], "coefficient and ref"),
])
def test_malformed_series_entries_are_reported(entries, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_family(entries)


def test_spec_file_errors_carry_positions(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"families": [[{"kind":')
    with pytest.raises(InputError, match="line"):
        parse_spec_file(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"families": []}))
    with pytest.raises(InputError, match="nonempty"):
        parse_spec_file(str(empty))
    rootless = tmp_path / "rootless.json"
    rootless.write_text(json.dumps([1, 2]))
    with pytest.raises(InputError, match="families"):
        parse_spec_file(str(rootless))


def test_trace_rows_replay_the_running_sums():
    fam = family(power_alternating(1.0))
    rows = list(trace_rows(fam, (0, 1, 2), 1))
    assert [r.step for r in rows] == [0, 1, 2]
    assert [r.index for r in rows] == [0, 1, 2]
    assert rows[0].sums == (1.0,)
    assert rows[1].sums == (0.5,)
    assert rows[2].sums[0] == pytest.approx(0.5 + 1.0 / 3.0)
    assert rows[0].active_dim is None


def test_trace_rows_annotate_chain_stages(small_chain):
    fam, targets, chain, plan, _ = small_chain
    rows = trace_rows(fam, chain.final().injection, 2, chain)
    first = next(rows)
    # the empty initial condition owns no steps, so the first round's
    # condition is the active one from step zero
    assert first.active_dim == chain.conditions[1].dim
    assert first.active_eps == chain.conditions[1].eps


def test_rows_from_any_iterable_give_the_same_csv(small_chain):
    fam, _, chain, _, _ = small_chain
    injection = chain.final().injection
    direct, listed = io.StringIO(), io.StringIO()
    emit_trace(trace_rows(fam, injection, 2, chain), direct)
    emit_trace(list(trace_rows(fam, injection, 2, chain)), listed)
    assert listed.getvalue() == direct.getvalue()
    assert direct.getvalue().startswith(
        "step,index,term_0,term_1,sum_0,sum_1,active_dim,active_eps\n")


def test_empty_trace_is_just_a_header():
    buf = io.StringIO()
    emit_trace(iter(()), buf)
    assert buf.getvalue() == "step,index,term_0,sum_0\n"


def test_trace_files_are_byte_stable(tmp_path):
    fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
    injection = tuple(range(16))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(str(a), trace_rows(fam, injection, 2))
    write_trace(str(b), trace_rows(fam, injection, 2))
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "step,index,term_0,term_1,sum_0,sum_1"


def _reference_trace(fam, injection, dim, chain=None) -> str:
    """Row-by-row trace formatter: per-row condition lookup, ``repr`` of
    each float, running sums carried across chunks of 2**16 steps."""
    chunk = 1 << 16
    boundaries = None if chain is None else [
        (len(c.injection), c.dim, c.eps) for c in chain.conditions]
    header = ["step", "index"] + [f"term_{i}" for i in range(dim)]
    header += [f"sum_{i}" for i in range(dim)]
    if chain is not None:
        header += ["active_dim", "active_eps"]
    lines = [",".join(header)]
    carry = np.zeros(dim)
    for start in range(0, len(injection), chunk):
        part = np.asarray(injection[start:start + chunk], dtype=np.int64)
        terms = vector_terms(fam, part, dim)
        sums = np.cumsum(terms, axis=0) + carry
        carry = sums[-1].copy()
        for offset in range(len(part)):
            step = start + offset
            cells = [str(step), str(int(part[offset]))]
            cells += [repr(float(v)) for v in terms[offset]]
            cells += [repr(float(v)) for v in sums[offset]]
            if boundaries is not None:
                active = (None, None)
                for length, cdim, ceps in boundaries:
                    if step < length:
                        active = (cdim, ceps)
                        break
                cells += [str(active[0]), str(active[1])]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("annotated", [True, False])
def test_trace_bytes_across_chunk_and_condition_boundaries(tmp_path,
                                                           annotated):
    # conditions end at steps 0, 40 000 and 70 000, so the trace crosses
    # a condition boundary inside the first 2**16-step chunk and a chunk
    # boundary inside the last condition; five steps run past the chain
    fam = family(rademacher_harmonic(0), rademacher_harmonic(3))
    order = np.random.default_rng(7).permutation(90_000)[:70_005].tolist()
    chain = CertificateChain(
        (Condition((), 1, Fraction(3)),
         Condition(tuple(order[:40_000]), 1, Fraction(1, 7)),
         Condition(tuple(order[:70_000]), 2, Fraction(22, 7_000))), (), ())
    use = chain if annotated else None
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace_rows(fam, order, 2, use))
    assert path.read_bytes() == _reference_trace(fam, order, 2,
                                                 use).encode()


@pytest.fixture(scope="module")
def long_trace():
    """A 150 005-step order over a two-series family, a chain over it and
    the reference CSV of its plain and annotated trace.

    Conditions end at steps 0, 40 000 and 100 000, each inside a
    2**10-row formatting job, and the trace runs past the chain.  Chunks
    start at step 0, so the trace of a prefix of the order is a prefix of
    the reference.
    """
    fam = family(rademacher_harmonic(0), rademacher_harmonic(3))
    order = np.random.default_rng(11).permutation(170_000)[:150_005].tolist()
    chain = CertificateChain(
        (Condition((), 1, Fraction(3)),
         Condition(tuple(order[:40_000]), 1, Fraction(1, 7)),
         Condition(tuple(order[:100_000]), 2, Fraction(22, 7_000))), (), ())
    expected = {annotated: _reference_trace(
        fam, order, 2, chain if annotated else None).encode()
        for annotated in (True, False)}
    return fam, order, chain, expected


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(fileio.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))


@pytest.mark.parametrize("length, annotated, cpus", [
    (150_005, True, 3), (150_005, False, 2),
    (131_072, True, 2), (131_072, False, 3),
    (150_005, True, 1), (150_005, False, 1),
], ids=["three-chunks-annotated-3cpu", "three-chunks-plain-2cpu",
        "two-chunks-exact-annotated-2cpu", "two-chunks-exact-plain-3cpu",
        "inline-annotated", "inline-plain"])
def test_long_traces_keep_their_bytes_in_workers_and_inline(
        long_trace, monkeypatch, tmp_path, length, annotated, cpus):
    fam, order, chain, expected = long_trace
    order = order[:length]
    _pin_cpus(monkeypatch, cpus)
    formatted_here = []
    format_job = fileio._format_job

    def counting(job):
        # a forked worker appends to its own copy of the list
        formatted_here.append(job.start)
        return format_job(job)

    monkeypatch.setattr(fileio, "_format_job", counting)
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace_rows(fam, order, 2,
                                      chain if annotated else None))
    lines = expected[annotated].splitlines(keepends=True)
    assert path.read_bytes() == b"".join(lines[:length + 1])
    # the workers format every job in the pooled case, this process
    # every job in the inline case
    jobs = -(-length // fileio._JOB_ROWS)
    assert len(formatted_here) == (jobs if cpus == 1 else 0)
    assert multiprocessing.active_children() == []


class _FailingSink:
    def __init__(self, after):
        self.left = after

    def write(self, text):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("sink full")
        return len(text)


def test_a_failing_sink_stops_the_workers(long_trace, monkeypatch):
    fam, order, chain, _ = long_trace
    _pin_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="sink full"):
        emit_trace(trace_rows(fam, order, 2, chain), _FailingSink(10_000))
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_early_is_an_error(long_trace, monkeypatch):
    fam, order, chain, _ = long_trace
    _pin_cpus(monkeypatch, 2)
    parent = os.getpid()

    def exit_at_once(job):
        if os.getpid() == parent:
            raise AssertionError("a pooled trace was formatted inline")
        os._exit(3)

    monkeypatch.setattr(fileio, "_format_job", exit_at_once)
    with pytest.raises(EOFError):
        emit_trace(trace_rows(fam, order, 2, chain), io.StringIO())
    assert multiprocessing.active_children() == []


def test_certificate_roundtrip_preserves_everything(small_chain, tmp_path):
    fam, targets, chain, _, _ = small_chain
    path = tmp_path / "chain.cert"
    write_certificate(str(path), chain, targets, (2.0, 3.0))
    data = parse_certificate(str(path))
    assert data.version == 1
    assert data.targets == tuple(float(t) for t in targets)
    assert data.schedule_values == (2.0, 3.0)
    assert data.conditions == chain.conditions
    assert len(data.links) == len(chain.checks)
    text = path.read_text()
    # tolerances are serialized as exact fractions
    assert f"eps={chain.final().eps}" in text


def test_certificate_rejects_damaged_files(tmp_path):
    good = tmp_path / "good.cert"
    good.write_text("certificate-version: 1\n"
                    "condition 0: f= d=1 eps=3\n")
    parsed = parse_certificate(str(good))
    assert parsed.conditions[0].injection == ()
    assert parsed.conditions[0].eps == Fraction(3)

    missing_version = tmp_path / "no_version.cert"
    missing_version.write_text("condition 0: f=1,2 d=1 eps=1/2\n")
    with pytest.raises(InputError, match="version"):
        parse_certificate(str(missing_version))

    gap = tmp_path / "gap.cert"
    gap.write_text("certificate-version: 1\n"
                   "condition 1: f=0 d=1 eps=1/2\n")
    with pytest.raises(InputError, match="gap"):
        parse_certificate(str(gap))

    junk = tmp_path / "junk.cert"
    junk.write_text("certificate-version: 1\n"
                    "condition 0: f=0 d=1 eps=1/2\n"
                    "mystery: 4\n")
    with pytest.raises(InputError, match="unrecognized"):
        parse_certificate(str(junk))


def test_certificate_files_are_byte_stable(small_chain, tmp_path):
    fam, targets, chain, _, _ = small_chain
    a, b = tmp_path / "a.cert", tmp_path / "b.cert"
    write_certificate(str(a), chain, targets)
    write_certificate(str(b), chain, targets)
    assert a.read_bytes() == b.read_bytes()
