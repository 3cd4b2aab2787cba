"""Seeded inputs, requests and output checks for the three workloads.

A request is one user command.  It issues the same library calls, in
the same order, as the matching ``sumchase`` CLI handler, and it calls
them through module attributes so the tracer can wrap them.  The
program sees only the generated inputs: family files on disk, target
values, vector lists.  Each request returns a result; ``check`` then
validates that result outside the timed span.

* ``chain``: ``extend-run`` (2 rounds on the 4-series Rademacher family,
  with a certificate and the annotated trace) followed by ``verify``.
* ``rearrange``: single-series ``riemann_rearrange``, ``chase_target``
  from scratch, the chase / ``cover_indices`` / chase recipe, and
  ``confine_zero_sum`` / ``confine_with_anchor``.
* ``analyze``: the ``analyze`` handler on families of 3-6 series.

The mix of request kinds and sizes in one pass is fixed; the seed varies
targets, vectors and family coefficients, so runs with different seeds
do comparable work.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sumchase import (certcheck, conditions, confinement, fileio, rearrange,
                      series, subspace)
from sumchase.errors import SumchaseError

WORKLOADS = ("chain", "rearrange", "analyze")

CHAIN_TARGETS = (0.1, -0.2, 0.3, 0.0)
# A jitter of 0.05 moved the final injection length by about 15% from
# seed to seed (348 k to 479 k indices); 0.005 keeps it within 2%.
CHAIN_JITTER = 0.005
CHAIN_ROUNDS = 2
CHAIN_BUDGET = 10 ** 7
PLAN_BUDGET = 10 ** 6
CONFINE_TOL = 1e-9
ANALYZE_PRECISION = 1e-6


class HashSink:
    """Text sink that hashes what is written instead of keeping it.

    Writes are buffered and hashed in chunks, so a trace costs about what
    a buffered file would.
    """

    _FLUSH_AT = 4096

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._parts: list[str] = []
        self.bytes = 0
        self.lines = 0

    def write(self, text: str) -> int:
        self._parts.append(text)
        if len(self._parts) >= self._FLUSH_AT:
            self._flush()
        return len(text)

    def _flush(self) -> None:
        chunk = "".join(self._parts)
        self._parts.clear()
        data = chunk.encode("utf-8")
        self._hash.update(data)
        self.bytes += len(data)
        self.lines += chunk.count("\n")

    def close(self) -> None:
        self._flush()

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()


@dataclass
class Result:
    """What one request produced, as seen by the checks and the metrics."""

    digests: tuple[str, ...] = ()
    length: int = 0
    trace_rows: int = 0
    trace_bytes: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    payload: object = None


@dataclass
class Request:
    label: str
    run: Callable[[], Result]
    check: Callable[[Result], list[str]]


def _write_family(path: str, entries: list) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"families": [entries]}, handle)
    return path


def _rad(level: int, exponent: float = 1.0) -> dict:
    return {"kind": "rademacher_harmonic", "level": level,
            "exponent": exponent}


def _abs(exponent: float, scale: float = 1.0, level: int | None = None):
    entry = {"kind": "abs_power", "exponent": exponent, "scale": scale}
    if level is not None:
        entry["level"] = level
    return entry


def _combo(pairs, perturbation=None) -> dict:
    entry = {"kind": "composite",
             "combo": [{"coefficient": c, "ref": r} for c, r in pairs]}
    if perturbation is not None:
        entry["perturbation"] = perturbation
    return entry


def _trace(fam, injection, dim, chain=None) -> HashSink:
    sink = HashSink()
    fileio.emit_trace(fileio.trace_rows(fam, injection, dim, chain), sink)
    sink.close()
    return sink


def _file_digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data).hexdigest(), len(data)


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def verifier_terms(chain) -> int:
    """Term evaluations ``verify_data`` makes on a chain's certificate,
    computed from the certificate contents (not counted at run time)."""
    total = 0
    conds = chain.conditions
    for cond in conds:
        inj = cond.injection
        cutoff = len(inj) + certcheck.TAIL_CUTOFF_SPAN
        used_below = sum(1 for m in set(inj) if m < cutoff)
        total += cond.dim * (len(inj) + cutoff - used_below)
    for lower, upper in zip(conds[1:], conds[:-1]):
        total += upper.dim * (len(lower.injection) - len(upper.injection))
    return total


def _chain_request(workdir: str, label: str, n_series: int, rounds: int,
                   targets: tuple[float, ...], seed: int) -> Request:
    spec_path = _write_family(os.path.join(workdir, f"{label}.json"),
                              [_rad(i) for i in range(n_series)])
    cert_path = os.path.join(workdir, f"{label}.cert")
    clock = time.perf_counter

    def run() -> Result:
        t0 = clock()
        fam = fileio.parse_spec_file(spec_path)[0]
        chain, _plan = conditions.run(fam, targets, rounds, seed=seed,
                                      budget=CHAIN_BUDGET)
        fileio.write_certificate(cert_path, chain, targets, ())
        t1 = clock()
        final = chain.final()
        sink = _trace(fam, final.injection, final.dim, chain)
        t2 = clock()
        report = certcheck.verify_certificate(cert_path, spec_path, targets)
        t3 = clock()
        return Result(
            digests=(sink.hexdigest(),),
            length=len(final.injection), trace_rows=sink.lines - 1,
            trace_bytes=sink.bytes,
            phases={"chain_s": t1 - t0, "trace_s": t2 - t1,
                    "verify_s": t3 - t2},
            payload=(chain, report))

    def check(result: Result) -> list[str]:
        chain, report = result.payload
        cert_digest, cert_bytes = _file_digest(cert_path)
        result.digests = (cert_digest,) + result.digests
        result.phases["cert_bytes"] = cert_bytes
        problems = []
        if not report.ok:
            problems.append(f"certificate rejected: {report}")
        if report.conditions_checked != rounds + 1:
            problems.append(f"verifier saw {report.conditions_checked} "
                            f"conditions, expected {rounds + 1}")
        final = chain.final()
        if final.dim != rounds + 1 or not final.eps < 1:
            problems.append(f"final condition d={final.dim} "
                            f"eps={final.eps} is not round {rounds}'s")
        result.phases["terms_computed"] = verifier_terms(chain)
        result.payload = None  # keep memory flat across passes
        return problems

    return Request(label, run, check)


def chain_requests(rng: random.Random, workdir: str,
                   smoke: bool) -> list[Request]:
    n_series, rounds = (2, 1) if smoke else (4, CHAIN_ROUNDS)
    targets = tuple(t + rng.uniform(-CHAIN_JITTER, CHAIN_JITTER)
                    for t in CHAIN_TARGETS[:n_series])
    return [_chain_request(workdir, "chain", n_series, rounds, targets,
                           rng.randrange(1 << 31))]


# ---------------------------------------------------------------------------
# rearrange
# ---------------------------------------------------------------------------

def _plan_check(spec_path: str, targets, eps: float,
                cover: int = 0) -> Callable[[Result], list[str]]:
    def check(result: Result) -> list[str]:
        fam = fileio.parse_spec_file(spec_path)[0]
        plan = result.payload
        result.payload = None
        dim = len(targets)
        report = rearrange.verify_prefix(fam, plan, targets, dim)
        problems = [f"plan flags {report.flags}"] if not report.ok else []
        if not report.deviation < eps:
            problems.append(f"deviation {report.deviation!r} not below "
                            f"eps={eps!r}")
        if cover and not set(range(cover)) <= plan.used_set:
            problems.append(f"plan does not cover every index below {cover}")
        return problems
    return check


def _riemann_request(workdir, label, exponent, target, eps) -> Request:
    spec_path = _write_family(os.path.join(workdir, f"{label}.json"),
                              [{"kind": "power_alternating",
                                "exponent": exponent}])

    def run() -> Result:
        fam = fileio.parse_spec_file(spec_path)[0]
        spec = fam[0]
        if not series.is_conditionally_convergent(spec):
            raise SumchaseError("first series is not conditionally "
                                "convergent")
        plan = rearrange.riemann_rearrange(spec, target, eps,
                                           budget=PLAN_BUDGET)
        sink = _trace(fam, plan.injection, 1)
        return Result((sink.hexdigest(),), len(plan.injection),
                      sink.lines - 1, sink.bytes, payload=plan)

    return Request(label, run, _plan_check(spec_path, (target,), eps))


def _chase_request(workdir, label, n_series, targets, eps, seed,
                   cover: int = 0) -> Request:
    spec_path = _write_family(os.path.join(workdir, f"{label}.json"),
                              [_rad(i) for i in range(n_series)])

    def run() -> Result:
        fam = fileio.parse_spec_file(spec_path)[0]
        plan = rearrange.chase_target(fam, None, targets, eps, seed=seed,
                                      budget=PLAN_BUDGET)
        if cover:
            plan = rearrange.cover_indices(fam, plan, cover, targets)
            plan = rearrange.chase_target(fam, plan, targets, eps,
                                          seed=seed, budget=PLAN_BUDGET)
        sink = _trace(fam, plan.injection, len(targets))
        return Result((sink.hexdigest(),), len(plan.injection),
                      sink.lines - 1, sink.bytes, payload=plan)

    return Request(label, run, _plan_check(spec_path, targets, eps, cover))


def _zero_sum_vectors(rng: np.random.Generator, n: int, d: int):
    vs = rng.uniform(-1.0, 1.0, size=(n - 1, d))
    vs = np.vstack([vs, -vs.sum(axis=0)])
    top = float(np.linalg.norm(vs, axis=1).max())
    if top > 1.0:
        vs /= top
    return vs


def _anchored_vectors(rng: np.random.Generator, n: int, d: int, rho: float):
    raw = rng.uniform(-1.0, 1.0, size=(n, d))
    b = raw.sum(axis=0)
    scale = rho / float(np.linalg.norm(raw, axis=1).max())
    b_norm = float(np.linalg.norm(b))
    if b_norm > 0.0:
        scale = min(scale, rho / b_norm)
    return raw * (scale * 0.99), b * (scale * 0.99)


def _confine_request(label, vectors, anchor=None, rho=1.0) -> Request:
    def run() -> Result:
        if anchor is None:
            result = confinement.confine_zero_sum(vectors, tol=CONFINE_TOL)
        else:
            result = confinement.confine_with_anchor(vectors, anchor, rho,
                                                     tol=CONFINE_TOL)
        norms = confinement.prefix_norms(vectors, result.permutation)
        sink = HashSink()
        sink.write("step,input_position,prefix_norm\n")
        for step, pos in enumerate(result.permutation):
            sink.write(f"{step},{pos},{float(norms[step])!r}\n")
        return Result((sink.hexdigest(),), payload=result)

    def check(result: Result) -> list[str]:
        res = result.payload
        result.payload = None
        problems = []
        if sorted(res.permutation) != list(range(len(vectors))):
            problems.append("ordering is not a permutation of the input")
            return problems
        if anchor is None and res.permutation[0] != 0:
            problems.append("zero-sum ordering moved the first vector")
        reached = float(np.max(confinement.prefix_norms(vectors,
                                                        res.permutation)))
        if not reached <= res.bound_used:
            problems.append(f"prefix norm {reached!r} above bound "
                            f"{res.bound_used!r}")
        return problems

    return Request(label, run, check)


# (exponent, eps): every index whose term exceeds eps lies below 10**4,
# which bounds the greedy plan length.
RIEMANN_CASES = ((1.0, 1e-4), (0.75, 1e-3), (0.5, 1e-2))
CHASE_CASES = ((2, 1e-3), (2, 1e-4), (3, 1e-3), (3, 1e-4))
# A pass holds 25 requests, sorted by cost into three tiers: 7 riemann
# and chase requests below about 35 ms, 14 confinements of about 35-150
# ms, and 4 covers above 170 ms.  Pooled over the passes of a run, p50
# then falls in the middle of the 13th cheapest request's latencies and
# p90 in the middle of the 23rd's (0.5 * 25 and 0.9 * 25 are both
# k + 0.5), whatever the number of passes.  Only the riemann and chase
# costs vary much with the seed (their random stall escapes), and they
# stay within the lowest tier, so the seed cannot move which request
# holds a percentile.  An earlier 19-request pass put p90 on the edge
# between two covers and let a slow chase shift the median by one rank.
#
# Confinements use n > 512, where ordering is the greedy search, whose
# cost depends on n and d but hardly on the vectors; their costs grow
# by about 10% per step, so neighbours of the median request overlap
# under host noise rather than jump.
#
# The rechase after cover_indices orders its block with the quadratic
# greedy search: about 0.4 s at n = 512, 1 s at 1024 and 2.4 s at 2048.
# Sizes stay at or below 1024 so that a run holds over 100 requests.
CHASE_TARGET = (0.1, -0.2, 0.3)
COVER_TARGET = (0.2, 0.3)
TARGET_JITTER = 0.01
COVER_SIZES = (384, 512, 640, 1024)
# (n, d); even positions are zero-sum lists, odd ones anchored lists.
CONFINE_CASES = ((760, 3), (1500, 2), (860, 4), (1180, 3), (940, 2),
                 (1700, 4), (1020, 3), (1300, 2), (1100, 4), (1820, 3),
                 (1400, 4), (1080, 2), (1600, 3), (1250, 4))
ANCHOR_RHOS = (0.5, 1.0, 2.0)


def _jittered(center: tuple[float, ...], rng: random.Random):
    return tuple(t + rng.uniform(-TARGET_JITTER, TARGET_JITTER)
                 for t in center)


def rearrange_requests(rng: random.Random, workdir: str,
                       smoke: bool) -> list[Request]:
    nrng = np.random.default_rng(rng.randrange(1 << 31))
    riemann = RIEMANN_CASES[:1] if smoke else RIEMANN_CASES
    chases = CHASE_CASES[:1] if smoke else CHASE_CASES
    covers = (256,) if smoke else COVER_SIZES
    confines = ((64, 2), (64, 2)) if smoke else CONFINE_CASES
    out: list[Request] = []
    for pos, (p, eps) in enumerate(riemann):
        out.append(_riemann_request(workdir, f"riemann{pos}", p,
                                    rng.uniform(-1.5, 1.5), eps))
    for pos, (n_series, eps) in enumerate(chases):
        targets = _jittered(CHASE_TARGET[:n_series], rng)
        out.append(_chase_request(workdir, f"chase{pos}", n_series, targets,
                                  eps, rng.randrange(1 << 31)))
    for pos, n in enumerate(covers):
        targets = _jittered(COVER_TARGET, rng)
        out.append(_chase_request(workdir, f"cover{pos}", 2, targets, 1e-3,
                                  rng.randrange(1 << 31), cover=n))
    for pos, (n, d) in enumerate(confines):
        if pos % 2 == 0:
            out.append(_confine_request(f"zero{pos}",
                                        _zero_sum_vectors(nrng, n, d)))
        else:
            rho = ANCHOR_RHOS[pos // 2 % len(ANCHOR_RHOS)]
            vectors, anchor = _anchored_vectors(nrng, n, d, rho)
            out.append(_confine_request(f"anchor{pos}", vectors, anchor,
                                        rho))
    return out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

_COEFFS = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
_ABS_EXPONENTS = (1.5, 2.0, 2.5, 3.0)
_SCALES = (0.125, 0.5, 1.0, 2.0)


def _analyze_families(rng: random.Random) -> list[tuple[list, int]]:
    """(family entries, truncation) for each analyze request, in order.

    Sign levels and the exponents of signed parts are fixed per family,
    because classical summation cost grows with them; the seed picks
    coefficients, scales and the exponents of unsigned perturbations.
    """
    def c():
        return rng.choice(_COEFFS)

    def q():
        return rng.choice(_ABS_EXPONENTS)

    def s():
        return rng.choice(_SCALES)

    def heaviest():
        return ([_rad(0, 0.75), _rad(1, 0.75),
                 _combo([(c(), 0), (c(), 1)], _abs(q(), s())),
                 _rad(3, 0.75), _abs(q(), s())], 1 << 18)

    alt_half = {"kind": "power_alternating", "exponent": 0.5}
    # The heaviest family appears twice, so that p90 falls inside one
    # group of equal-cost requests rather than on the low tail of one.
    return [
        ([_rad(0), _rad(1), _combo([(c(), 0), (c(), 1)], _abs(q()))],
         1 << 16),
        ([_rad(0, 0.75), _rad(2, 0.75), _rad(3, 0.75),
          _combo([(c(), 1)], _abs(q(), s()))], 1 << 18),
        ([_rad(0), _rad(1), _rad(2), _combo([(c(), 0)], _abs(1.5)),
          _combo([(-2.0, 0), (c(), 1), (c(), 2)], _abs(3.0, 0.5))],
         1 << 16),
        ([_rad(0), _rad(1), _rad(2), _rad(3), _abs(2.0, s(), level=2),
          _combo([(c(), 1), (c(), 3)], _abs(2.5))], 1 << 16),
        ([alt_half, _combo([(c(), 0)], _abs(2.0)), _rad(2, 0.5)], 1 << 18),
        ([_rad(1), _rad(0), _abs(2.5, s(), level=1),
          _combo([(c(), 0)], _abs(q(), s())),
          _combo([(c(), 1), (c(), 0)], _abs(q())), _rad(3)], 1 << 16),
        ([_rad(0), _combo([(c(), _rad(2))], _abs(q(), s())), _rad(2),
          _combo([(c(), 0), (c(), 2)], _abs(q()))], 1 << 16),
        heaviest(),
        heaviest(),
    ]


def _analyze_request(workdir, label, entries, truncation) -> Request:
    spec_path = _write_family(os.path.join(workdir, f"{label}.json"),
                              entries)

    def run() -> Result:
        fam = fileio.parse_spec_file(spec_path)[0]
        dim = len(fam)
        lines = [f"series: {dim}"]
        basis = subspace.k_space_basis(fam, dim, truncation=truncation)
        lines.append(f"kernel dimension: {len(basis)}")
        for cv in basis:
            pairs = ",".join(f"{k}:{v!r}"
                             for k, v in zip(cv.support, cv.values))
            lines.append(f"kernel vector: {pairs}")
        comp = subspace.r_space(basis, dim)
        lines.append(f"complement dimension: {len(comp)}")
        for row in comp:
            lines.append("complement vector: "
                         + ",".join(repr(float(x)) for x in row))
        struct = subspace.dependency_decompose(fam,
                                               precision=ANALYZE_PRECISION)
        lines.append("independent set: "
                     + ",".join(str(i) for i in struct.independent_set))
        for j in struct.dependents():
            rel = " ".join(f"{w!r}*a{k}" for k, w in struct.coefficients[j])
            lines.append(f"dependent {j}: a{j} = {struct.abs_sums[j]!r} "
                         f"- ({rel})" if rel else
                         f"dependent {j}: a{j} sums to "
                         f"{struct.abs_sums[j]!r}")
        rng_ = subspace.sum_range(fam, dim, precision=ANALYZE_PRECISION,
                                  truncation=truncation)
        lines.append("classical sums: "
                     + ",".join(repr(x) for x in rng_.offset))
        for i in range(dim):
            coeffs = [1.0 if j == i else 0.0 for j in range(dim)]
            stats = subspace.growth_statistics(fam, coeffs,
                                               truncation=truncation)
            lines.append(f"growth {i}: abs_sum={stats.abs_sum!r} "
                         f"ratio={stats.ratio!r} verdict={stats.verdict()}")
        sink = HashSink()
        sink.write("\n".join(lines) + "\n")
        return Result((sink.hexdigest(),),
                      payload=(dim, len(basis), len(comp),
                               len(struct.independent_set)))

    def check(result: Result) -> list[str]:
        dim, kernel, complement, independent = result.payload
        result.payload = None
        problems = []
        if kernel != dim - independent:
            problems.append(f"kernel dimension {kernel} != {dim} - "
                            f"{independent} independent series")
        if kernel + complement != dim:
            problems.append(f"kernel {kernel} + complement {complement} "
                            f"!= {dim}")
        return problems

    return Request(label, run, check)


def analyze_requests(rng: random.Random, workdir: str,
                     smoke: bool) -> list[Request]:
    families = _analyze_families(rng)
    if smoke:
        families = families[:1]
    return [_analyze_request(workdir, f"family{pos}", entries, truncation)
            for pos, (entries, truncation) in enumerate(families)]


_BUILDERS = {"chain": chain_requests, "rearrange": rearrange_requests,
             "analyze": analyze_requests}


def build(workload: str, seed: int, workdir: str,
          smoke: bool = False) -> list[Request]:
    """One pass of requests for ``workload``, generated from ``seed``."""
    return _BUILDERS[workload](random.Random(seed), workdir, smoke)


def warm_up(workload: str, workdir: str) -> None:
    """Fill the per-spec caches and run one small request of each kind.

    Parses every family file the pass will read and reduces each spec
    (filling the ``reduce_spec`` cache), then runs the smoke-size pass
    of the workload once with an unrelated seed.
    """
    for name in sorted(os.listdir(workdir)):
        if name.endswith(".json"):
            for fam in fileio.parse_spec_file(os.path.join(workdir, name)):
                for spec in fam:
                    series.reduce_spec(spec)
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir, exist_ok=True)
    for request in build(workload, 0, warm_dir, smoke=True):
        request.check(request.run())

