"""Benchmark entry point for sumchase.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads are ``chain``, ``rearrange``
and ``analyze`` (see ``workloads.py`` and ``RATIONALE.md``).  The run
happens in a fresh child process (``worker.py``) with ``src`` on
``PYTHONPATH`` and BLAS threads pinned to one, so memory and set-up time
belong to that workload alone.  Set-up is also repeated in
``SETUP_PROBES`` extra processes and ``setup_s`` is the median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 when a result was printed and 2 when
the run could not happen (no ``src/sumchase`` here, a worker crash, or a
metric set that does not match ``BENCHMARK.json``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("chain", "rearrange", "analyze")

#: Extra set-up-only processes per untraced run; with the measured
#: run's own set-up, ``setup_s`` is the median of this many plus one.
SETUP_PROBES = 6

SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The run could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> tuple[list[str], dict]:
    """Run the worker to completion; return its output lines and result."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout}s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError("worker printed no result line") from exc


def expected_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sumchase",
                                           "__init__.py")):
            raise BenchError("no src/sumchase in this checkout")
        units = expected_metrics(args.trace)
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            common.append("--smoke")
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                _, probe = run_worker(common + ["--setup-only"],
                                      SETUP_TIMEOUT_S)
                setups.append(probe["setup_s"])
        lines, result = run_worker(
            common + ["--seconds", repr(args.seconds),
                      "--trace", str(args.trace)], RUN_TIMEOUT_S)
        values = result["metrics"]
        if not args.trace:
            setups.append(values["setup_s"])
            values["setup_s"] = statistics.median(setups)
        if set(values) != set(units):
            raise BenchError(
                f"metric names differ from BENCHMARK.json: "
                f"{sorted(set(values) ^ set(units))}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
