"""One measured run of one workload, in a fresh process.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the
checkout's ``src`` and BLAS threads pinned to one.  The run is a closed
loop with one client: it repeats the seeded pass of requests until the
requests have been busy for ``--seconds`` (always finishing the pass it
is in), checks every output outside the timed span, and prints one JSON
object as its last line.

With ``--trace 1`` the first half of the time runs untraced and the
second half traced, so the tracing overhead is measured on the same
inputs in the same process; spans are written to ``perfbench/out``.
``--setup-only`` stops after set-up and prints only ``setup_s``.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Chain phase numbers reported by the traced run (untraced half).
CHAIN_PHASES = ("chain_s", "verify_s", "trace_s", "cert_bytes")


class Ledger:
    """Latencies, failures and per-request outputs of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.first_digests: dict[int, tuple[str, ...]] = {}
        self.results: list[tuple[bool, workloads.Result | None]] = []

    def record(self, pos: int, request: workloads.Request,
               result: workloads.Result | None, error: str | None,
               seconds: float, traced: bool) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        problems = [error] if error else []
        if result is not None:
            try:
                problems.extend(request.check(result))
            except Exception as exc:  # a crashing check is a failed output
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            first = self.first_digests.setdefault(pos, result.digests)
            if result.digests != first:
                problems.append("output hash differs from the first pass "
                                "of the same seed")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {request.label}: {problem}", file=sys.stderr)
        self.results.append((traced, result))


def run_phase(requests, budget: float, ledger: Ledger,
              tracer: tracing.Tracer | None = None) -> list[float]:
    """Repeat whole passes until their request time reaches ``budget``.

    Returns the request time of each pass.
    """
    clock = time.perf_counter
    passes: list[float] = []
    while not passes or sum(passes) < budget:
        pass_time = 0.0
        for pos, request in enumerate(requests):
            result = error = None
            if tracer is not None:
                tracer.begin(ledger.attempted)
            start = clock()
            try:
                result = request.run()
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            seconds = clock() - start
            if tracer is not None:
                tracer.end()
            pass_time += seconds
            ledger.record(pos, request, result, error, seconds,
                          tracer is not None)
        passes.append(pass_time)
    return passes


def end_to_end(ledger: Ledger, passes: list[float],
               setup_s: float) -> dict[str, float]:
    lat_ms = np.array(ledger.latencies) * 1000.0
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(passes),
        "req_per_s": ledger.attempted / sum(ledger.latencies),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(ledger: Ledger, tracer: tracing.Tracer, plain: list[float],
              traced: list[float]) -> dict[str, float]:
    traced_results = [r for t, r in ledger.results if t and r is not None]
    plain_results = [r for t, r in ledger.results if not t and r is not None]
    requests = sum(1 for t, _ in ledger.results if t)
    out = tracing.layer_metrics(tracer.spans, tracer.counts, requests)
    per = 1.0 / max(requests, 1)
    produced = sum(r.length for r in traced_results)
    summed = tracer.counts.get("series.psum_indices", 0)
    out["series.psum_useful_ratio"] = produced / summed if summed else 0.0
    out["fileio.trace_rows"] = sum(r.trace_rows for r in traced_results) * per
    out["fileio.trace_bytes"] = (sum(r.trace_bytes for r in traced_results)
                                 * per)
    out["certcheck.terms_computed"] = sum(
        r.phases.get("terms_computed", 0) for r in traced_results) * per
    for name in CHAIN_PHASES:
        values = [r.phases[name] for r in plain_results if name in r.phases]
        out[name] = statistics.median(values) if values else 0.0
    lengths = [r.length for r in plain_results if "chain_s" in r.phases]
    out["idx_per_s"] = (statistics.median(lengths) / out["chain_s"]
                        if lengths else 0.0)
    out["tracing.overhead_frac"] = (statistics.median(traced)
                                    / statistics.median(plain) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small version of the workload")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests = workloads.build(args.workload, args.seed, workdir,
                                   smoke=args.smoke)
        workloads.warm_up(args.workload, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ledger = Ledger()
        correct = True
        if args.trace:
            plain = run_phase(requests, args.seconds / 2, ledger)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(requests, args.seconds / 2, ledger,
                                   tracer)
            finally:
                tracer.restore()
            metrics = per_layer(ledger, tracer, plain, traced)
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.csv"))
            print(f"largest self time: {tracing.top_layer(metrics)}; "
                  f"coverage {metrics['tracing.coverage']:.3f}; "
                  f"{len(tracer.spans)} spans")
            if metrics["tracing.coverage"] < 0.9:
                print("FAIL layer self times cover less than 90% of "
                      "traced request time", file=sys.stderr)
                correct = False
        else:
            passes = run_phase(requests, args.seconds, ledger)
            metrics = end_to_end(ledger, passes, setup_s)
        for pos, digests in sorted(ledger.first_digests.items()):
            print(f"sha256 {requests[pos].label}: {' '.join(digests)}")
        print(json.dumps({
            "correct": correct and ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
