"""Command-line entry points.

Subcommands: ``confine`` orders a vector list so running sums stay small,
``rearrange`` builds an index order steering partial sums to targets,
``extend-run`` drives the full certified chain and writes a certificate,
``analyze`` reports the structure of a family, and ``verify`` rechecks a
certificate from scratch.  Only ``rearrange`` takes ``--seed``, for the
chase's random stall escapes; ``extend-run`` draws no random numbers.

Exit codes: 0 on success, 1 when a verification or structure check
fails, 2 on bad input, 3 when a search runs out of budget.  The
environment variable ``RL_CONSTANT_SCHEDULE`` (comma-separated values,
one per dimension starting at 1) overrides the confinement constants
for ``confine``, ``extend-run`` and ``verify``; ``rearrange`` and
``analyze`` do not use them.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from .certcheck import verify_certificate
from .conditions import run as run_chain
from .confinement import (ConstantSchedule, confine_with_anchor,
                          confine_zero_sum, prefix_norms)
from .errors import (BudgetExhaustedError, DisagreementError,
                     InfeasibleEtaError, InputError, SearchError)
from .fileio import parse_spec_file, trace_rows, write_certificate, write_trace
from .rearrange import chase_target, riemann_rearrange
from .series import classical_sum
from .subspace import dependency_decompose, k_space_growth, r_space

SCHEDULE_ENV = "RL_CONSTANT_SCHEDULE"


def _schedule_from_env() -> ConstantSchedule | None:
    raw = os.environ.get(SCHEDULE_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        values = tuple(float(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(
            f"{SCHEDULE_ENV} must be comma-separated numbers, got {raw!r}"
        ) from exc
    return ConstantSchedule(values)


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{what} must be comma-separated numbers, "
                         f"got {text!r}") from exc


def _read_vector_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: vector file is not UTF-8 text") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(x)
                         for x in stripped.replace(",", " ").split()])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not a numeric row: "
                             f"{stripped!r}") from exc
    if not rows:
        raise InputError(f"{path}: no vectors found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError(f"{path}: rows have mixed lengths")
    return np.array(rows, dtype=np.float64)


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _single_family(path: str):
    return parse_spec_file(path)[0]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_confine(args, schedule) -> int:
    vectors = _read_vector_file(args.vectors)
    if args.anchor is not None:
        anchor = np.array(_parse_floats(args.anchor, "--anchor"))
        result = confine_with_anchor(vectors, anchor, args.rho, tol=args.tol,
                                     schedule=schedule)
    else:
        result = confine_zero_sum(vectors, tol=args.tol, schedule=schedule)
    norms = prefix_norms(vectors, result.permutation)
    out, close = _open_out(args.out)
    try:
        out.write("step,input_position,prefix_norm\n")
        for step, pos in enumerate(result.permutation):
            out.write(f"{step},{pos},{float(norms[step])!r}\n")
    finally:
        if close:
            out.close()
    print(f"max_prefix_norm={result.max_prefix_norm!r} "
          f"bound={result.bound_used!r}", file=sys.stderr)
    return 0


def _cmd_rearrange(args, schedule) -> int:
    del schedule  # the chasers order blocks without confinement constants
    fam = _single_family(args.spec)
    targets = _parse_floats(args.targets, "--targets")
    if len(targets) == 1:
        plan = riemann_rearrange(fam[0], targets[0], args.eps,
                                 budget=args.budget)
    else:
        plan = chase_target(fam, None, targets, args.eps, seed=args.seed,
                            budget=args.budget)
    dim = len(targets)
    if args.trace:
        write_trace(args.trace, trace_rows(fam, plan.injection, dim))
    print(f"length={len(plan.injection)} deviation={plan.deviation!r} "
          f"max_excursion={plan.max_excursion!r}")
    return 0


def _cmd_extend_run(args, schedule) -> int:
    fam = _single_family(args.spec)
    targets = _parse_floats(args.targets, "--targets")
    chain, report = run_chain(fam, targets, args.rounds, budget=args.budget,
                              schedule=schedule)
    schedule_values = schedule.values if schedule is not None else ()
    write_certificate(args.cert, chain, targets, schedule_values)
    final = chain.final()
    if args.trace:
        write_trace(args.trace,
                    trace_rows(fam, final.injection, final.dim, chain))
    print(f"rounds={args.rounds} dim={final.dim} eps={final.eps} "
          f"length={len(final.injection)} "
          f"deviation={report.bullet('deviation').value!r}")
    return 0


def _cmd_analyze(args, schedule) -> int:
    del schedule  # structure analysis does not touch the constants
    fam = _single_family(args.spec)
    dim = len(fam)
    lines = [f"series: {dim}"]
    basis, growth = k_space_growth(fam, dim, truncation=args.truncation)
    lines.append(f"kernel dimension: {len(basis)}")
    for cv in basis:
        pairs = ",".join(f"{k}:{v!r}" for k, v in zip(cv.support, cv.values))
        lines.append(f"kernel vector: {pairs}")
    comp = r_space(basis, dim)
    lines.append(f"complement dimension: {len(comp)}")
    for row in comp:
        lines.append("complement vector: "
                     + ",".join(repr(float(x)) for x in row))
    struct = dependency_decompose(fam, precision=args.precision)
    lines.append("independent set: "
                 + ",".join(str(i) for i in struct.independent_set))
    for j in struct.dependents():
        rel = " ".join(f"{w!r}*a{k}" for k, w in struct.coefficients[j])
        lines.append(f"dependent {j}: a{j} = {struct.abs_sums[j]!r} - ({rel})"
                     if rel else
                     f"dependent {j}: a{j} sums to {struct.abs_sums[j]!r}")
    lines.append("classical sums: "
                 + ",".join(repr(classical_sum(spec, args.precision))
                            for spec in fam.specs))
    for i, stats in enumerate(growth):
        lines.append(f"growth {i}: abs_sum={stats.abs_sum!r} "
                     f"ratio={stats.ratio!r} verdict={stats.verdict()}")
    out, close = _open_out(args.out)
    try:
        out.write("\n".join(lines) + "\n")
    finally:
        if close:
            out.close()
    return 0


def _cmd_verify(args, schedule) -> int:
    targets = (_parse_floats(args.targets, "--targets")
               if args.targets else None)
    report = verify_certificate(args.cert, args.spec, targets,
                                schedule=schedule)
    print(report)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumchase",
        description="Rearrange series, confine vector sums, and certify "
                    "the chains that do it.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("confine",
                       help="order vectors so every running sum stays small")
    p.add_argument("vectors", help="text file, one vector per line")
    p.add_argument("--anchor", help="comma-separated anchor vector")
    p.add_argument("--rho", type=float, default=1.0,
                   help="norm ceiling for the anchored variant")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="write the ordering CSV here "
                                 "(default stdout)")
    p.set_defaults(handler=_cmd_confine)

    p = sub.add_parser("rearrange",
                       help="steer partial sums to the given targets")
    p.add_argument("--spec", required=True, help="family file (JSON)")
    p.add_argument("--targets", required=True,
                   help="comma-separated target values")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--trace", help="write the step trace CSV here")
    p.set_defaults(handler=_cmd_rearrange)

    p = sub.add_parser("extend-run",
                       help="drive the certified chain and write a "
                            "certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--cert", required=True, help="certificate output path")
    p.add_argument("--trace", help="write the annotated step trace here")
    p.set_defaults(handler=_cmd_extend_run)

    p = sub.add_parser("analyze",
                       help="report kernel, complement and dependencies")
    p.add_argument("--spec", required=True)
    p.add_argument("--truncation", type=int, default=1 << 16)
    p.add_argument("--precision", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("verify", help="recheck a certificate from scratch")
    p.add_argument("--cert", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--targets")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        schedule = _schedule_from_env()
        return args.handler(args, schedule)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhaustedError, SearchError, InfeasibleEtaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
