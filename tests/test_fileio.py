"""Family files, trace CSVs and certificate round-trips."""
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sumchase import (InputError, abs_power, chase_target, composite,
                      cover_indices, family, parse_certificate,
                      parse_spec_file, power_alternating, rademacher_harmonic,
                      run, trace_rows, write_certificate, write_trace)
from sumchase import fileio
from sumchase.cli import main
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
    fam, targets, chain, _, _ = small_chain
    rows = trace_rows(fam, chain.final().injection, 2, chain)
    first = next(iter(rows))
    # the empty initial condition owns no steps, so the first round's
    # condition is the active one from step zero
    assert first.active_dim == chain.conditions[1].dim
    assert first.active_eps == chain.conditions[1].eps


def test_traces_are_written_only_from_trace_rows(small_chain, tmp_path):
    fam, _, chain, _, _ = small_chain
    listed = list(trace_rows(fam, chain.final().injection, 2, chain))
    for rows in (listed, iter(())):
        buf = io.StringIO()
        with pytest.raises(TypeError, match="trace_rows"):
            emit_trace(rows, buf)
        assert buf.getvalue() == ""
        path = tmp_path / "rejected.csv"
        with pytest.raises(TypeError, match="trace_rows"):
            write_trace(str(path), rows)
        assert not path.exists()


def test_trace_rows_iterate_again_and_emit_in_full(small_chain):
    fam, _, chain, _, _ = small_chain
    injection = chain.final().injection
    rows = trace_rows(fam, injection, 2, chain)
    first = list(rows)
    assert len(first) == len(injection)
    assert list(rows) == first
    iterated, fresh = io.StringIO(), io.StringIO()
    emit_trace(rows, iterated)
    emit_trace(trace_rows(fam, injection, 2, chain), fresh)
    assert iterated.getvalue() == fresh.getvalue()
    assert fresh.getvalue().startswith(
        "step,index,term_0,term_1,sum_0,sum_1,active_dim,active_eps\n")
    assert fresh.getvalue().count("\n") == len(injection) + 1


def test_empty_trace_is_just_a_header():
    buf = io.StringIO()
    emit_trace(trace_rows(family(power_alternating(1.0)), (), 1), buf)
    assert buf.getvalue() == "step,index,term_0,sum_0\n"


@pytest.mark.parametrize("injection, dim", [
    ((0, 1, 2), 3), ((0, 1, 2), 0), ((0, 1, 2), -1), ((), 3)],
    ids=["past-the-family", "zero", "negative", "empty-past-the-family"])
def test_a_trace_dimension_outside_the_family_is_refused(tmp_path,
                                                        injection, dim):
    fam = family(power_alternating(1.0))
    buf = io.StringIO()
    with pytest.raises(InputError, match="trace dimension"):
        emit_trace(trace_rows(fam, injection, dim), buf)
    assert buf.getvalue() == ""
    path = tmp_path / "refused.csv"
    with pytest.raises(InputError, match="trace dimension"):
        write_trace(str(path), trace_rows(fam, injection, dim))
    assert not path.exists()


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


#: Families whose term columns share their magnitudes in different ways:
#: all of them (levels 0 and 3, levels 0-3), all but the first (a
#: composite with coefficient 8), none (two exponents) and one column.
_TRACE_FAMILIES = {
    "rad-0-3": family(rademacher_harmonic(0), rademacher_harmonic(3)),
    "rad-0123": family(*(rademacher_harmonic(i) for i in range(4))),
    "scaled": family(composite([(8.0, rademacher_harmonic(0))]),
                     rademacher_harmonic(1), rademacher_harmonic(2)),
    "mixed-exponents": family(rademacher_harmonic(0, 1.0),
                              rademacher_harmonic(1, 0.75)),
    "power-alternating": family(power_alternating(1.0)),
}


@pytest.mark.parametrize("annotated", [True, False])
@pytest.mark.parametrize("name", list(_TRACE_FAMILIES))
def test_trace_bytes_across_chunk_and_condition_boundaries(tmp_path, name,
                                                           annotated):
    # conditions end at steps 0, 40 000 and 70 000, so the trace crosses
    # a condition boundary inside the first 2**16-step chunk and a chunk
    # boundary inside the last condition; five steps run past the chain
    fam = _TRACE_FAMILIES[name]
    dim = len(fam)
    order = np.random.default_rng(7).permutation(90_000)[:70_005].tolist()
    chain = CertificateChain(
        (Condition((), 1, Fraction(3)),
         Condition(tuple(order[:40_000]), 1, Fraction(1, 7)),
         Condition(tuple(order[:70_000]), dim, Fraction(22, 7_000))), (), ())
    use = chain if annotated else None
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace_rows(fam, order, dim, use))
    assert path.read_bytes() == _reference_trace(fam, order, dim,
                                                 use).encode()


@pytest.mark.parametrize("annotated", [True, False])
def test_format_job_writes_the_row_format(annotated):
    # column 0 holds signed zeros and shares its magnitudes with column 4;
    # column 1 shares its magnitudes only with the later column 3; column
    # 2 holds infinities and a NaN whose sign bit is set
    terms = np.array([
        [0.0, 0.5, -np.nan, -0.5, -0.0],
        [-0.0, -1 / 3, np.inf, 1 / 3, 0.0],
        [-0.0, 1e-300, -np.inf, -1e-300, -0.0],
        [0.0, -0.1, 2.0, -0.1, 0.0],
    ])
    sums = np.array([
        [0.0, 0.5, -1.5, -0.5, -0.0],
        [-0.0, 1 / 6, 2.5, -1 / 6, 0.0],
        [-0.0, 1e-300, -np.nan, -1e-300, -0.0],
        [0.25, -0.1, np.inf, -0.1, 7.0],
    ])
    labels = [(1, Fraction(1, 3))] + [(2, Fraction(3))] * 3
    job = fileio._TraceJob(5, np.array([9, 3, 7, 0]), terms, sums,
                           ((0, 1, *labels[0]), (1, 4, *labels[1])),
                           annotated)
    row_format = "%s,%s" + ",%r" * 10 + "%s"
    expected = [row_format % (5 + row, int(job.indices[row]),
                              *terms[row].tolist(), *sums[row].tolist(),
                              f",{active_dim},{active_eps}\n" if annotated
                              else "\n")
                for row, (active_dim, active_eps) in enumerate(labels)]
    assert fileio._format_job(job) == expected


def test_trace_bytes_with_wide_and_zero_values(tmp_path):
    # 12345 * a0 has up to five digits before the point, and a combination
    # that cancels writes zero terms and zero sums
    level1 = rademacher_harmonic(1)
    fam = family(composite([(12345.0, rademacher_harmonic(0))]),
                 composite([(1.0, level1), (-1.0, level1)]))
    order = np.random.default_rng(3).permutation(5_000)[:3_000].tolist()
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace_rows(fam, order, 2))
    expected = _reference_trace(fam, order, 2)
    assert ",0.0," in expected and ",5022.875144781435," in expected
    assert path.read_bytes() == expected.encode()


@pytest.fixture(scope="module")
def long_trace():
    """A 150 005-step order over a two-series family, a chain over it and
    the reference CSV of its plain and annotated trace.

    Conditions end at steps 0, 40 000 and 100 000, each inside a
    formatting job, and the trace runs past the chain.  Chunks
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


@pytest.mark.parametrize("length, annotated, cpus", [
    (150_005, True, 3), (150_005, False, 2),
    (131_072, True, 2), (131_072, False, 3),
    (150_005, True, 1), (150_005, False, 1),
], ids=["three-chunks-annotated-3cpu", "three-chunks-plain-2cpu",
        "two-chunks-exact-annotated-2cpu", "two-chunks-exact-plain-3cpu",
        "inline-annotated", "inline-plain"])
def test_long_traces_keep_their_bytes_in_workers_and_inline(
        long_trace, monkeypatch, tmp_path, length, annotated, cpus):
    # however many CPUs the process may run on, the trace is formatted
    # inline: the CPU count no longer sends jobs to workers
    fam, order, chain, expected = long_trace
    order = order[:length]
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    formatted = []
    format_job = fileio._format_job

    def counting(job):
        formatted.append(job.start)
        return format_job(job)

    monkeypatch.setattr(fileio, "_format_job", counting)
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace_rows(fam, order, 2,
                                      chain if annotated else None))
    lines = expected[annotated].splitlines(keepends=True)
    assert path.read_bytes() == b"".join(lines[:length + 1])
    # this process formats every job, in step order
    assert formatted == list(range(0, length, fileio._JOB_ROWS))


def test_traces_start_no_other_process():
    # a trace past one 2**16-step chunk, which the old pool would have
    # formatted in workers, is written without importing multiprocessing
    code = ("import sys, io; from sumchase import family, "
            "rademacher_harmonic, trace_rows; from sumchase.fileio import "
            "emit_trace; fam = family(rademacher_harmonic(0)); "
            "emit_trace(trace_rows(fam, range(70_000), 1), io.StringIO()); "
            "print('multiprocessing' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


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
    assert tuple(parsed.conditions[0].injection) == ()
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


#: The benchmark's chain request without its target jitter: levels 0-3,
#: these targets, two rounds.
BENCH_TARGETS = (0.1, -0.2, 0.3, 0.0)
BENCH_CERT_SHA256 = (
    "1d407651c160183ec6708493198804bc291276c460e92232ca54dbabf4ac33de")
BENCH_TRACE_SHA256 = (
    "0f3211e0316c60f96cc8304b5845369451d089d541dbb7c069bd1c5a7b38ede3")


@pytest.fixture(scope="module")
def bench_chain(tmp_path_factory):
    fam = family(*(rademacher_harmonic(level) for level in range(4)))
    chain, _ = run(fam, BENCH_TARGETS, 2)
    path = tmp_path_factory.mktemp("bench") / "chain.cert"
    write_certificate(str(path), chain, BENCH_TARGETS)
    return fam, chain, path


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def test_benchmark_chain_certificate_and_trace_bytes_are_pinned(bench_chain):
    fam, chain, path = bench_chain
    assert _sha256(path) == BENCH_CERT_SHA256
    trace = path.with_name("chain.trace")
    final = chain.final()
    write_trace(str(trace), trace_rows(fam, final.injection, final.dim,
                                       chain))
    digest = _sha256(trace)
    trace.unlink()
    assert digest == BENCH_TRACE_SHA256


#: ``sumchase rearrange --trace`` on the alternating harmonic series:
#: target 1.3, eps 1e-5.
RIEMANN_STDOUT = ("length=757 deviation=8.241283795396015e-06 "
                  "max_excursion=1.378210678210678\n")
RIEMANN_TRACE_SHA256 = (
    "a9c963540b97de5463992b51e627f6c776bc241e999d3afc586ab7a93495760a")
#: The benchmark's cover recipe on levels 0 and 1, targets (0.2, 0.3),
#: eps 1e-3, seed 4: chase (9 indices, up to 12,210), cover every index
#: below 512, chase again (2,955 indices).
RECHASE_TRACE_SHA256 = (
    "7381c0ab9efc8980ffc8df2ade9963efab662cbf4f9cf66e54800ea1b1e5fb91")


def test_rearrange_plan_trace_bytes_are_pinned(tmp_path, capsys):
    spec = write_family_file(tmp_path / "alt.json",
                             [[{"kind": "power_alternating"}]])
    trace = tmp_path / "riemann.csv"
    assert main(["rearrange", "--spec", spec, "--targets", "1.3",
                 "--eps", "1e-5", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == RIEMANN_STDOUT
    assert _sha256(trace) == RIEMANN_TRACE_SHA256
    pair = family(rademacher_harmonic(0), rademacher_harmonic(1))
    targets = (0.2, 0.3)
    plan = chase_target(pair, None, targets, 1e-3, seed=4)
    plan = cover_indices(pair, plan, 512, targets)
    plan = chase_target(pair, plan, targets, 1e-3, seed=4)
    trace = tmp_path / "rechase.csv"
    write_trace(str(trace), trace_rows(pair, plan.injection, 2))
    assert _sha256(trace) == RECHASE_TRACE_SHA256


def test_certificate_parse_holds_few_bytes_per_index(bench_chain):
    _, chain, path = bench_chain
    indices = sum(len(cond.injection) for cond in chain.conditions)
    tracemalloc.start()
    try:
        data = parse_certificate(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.conditions == chain.conditions
    assert peak <= 64 * indices, f"{peak / indices:.1f} B per index"


@pytest.mark.parametrize("text, expected", [
    ("", ()),
    ("4,0,17", (4, 0, 17)),
    ("-1,+2,007", (-1, 2, 7)),
    ("9223372036854775807,-9223372036854775808",
     (2 ** 63 - 1, -2 ** 63)),
    ("0000000000000000000000012", (12,)),
    ("9223372036854775808", None),
    ("-9223372036854775809", None),
    ("12,99999999999999999999999999", None),
    ("1,,2", None), ("1,", None), (",1", None), ("1-2", None),
    ("-", None), ("1,-", None), ("+-1", None), ("1_0", None),
    ("1.0", None), ("0x10", None), ("١", None), ("²", None),
])
def test_certificate_indices_parse_as_int64_or_fail(tmp_path, text,
                                                    expected):
    path = tmp_path / "f.cert"
    path.write_text(f"certificate-version: 1\n"
                    f"condition 0: f={text} d=1 eps=3\n", encoding="utf-8")
    if expected is None:
        with pytest.raises(InputError, match="f must be|outside int64"):
            parse_certificate(str(path))
        return
    injection = parse_certificate(str(path)).conditions[0].injection
    assert injection.dtype == np.int64
    assert tuple(injection) == expected
