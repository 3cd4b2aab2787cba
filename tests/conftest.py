"""Shared fixtures and the acceptance summary hook.

The forcing chain used by the acceptance tests is expensive (tens of
seconds), so it is built once per session here and reused.  Unit tests
get a much smaller one-round chain instead.
"""
import json
import time

import pytest

from sumchase import (FamilyVector, abs_power, composite, rademacher_harmonic,
                      run)

# One entry per acceptance criterion: (number, title, passed, detail).
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((number, title, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} ({title}): {status}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def write_family_file(path, families) -> str:
    """Dump family descriptions as the JSON layout the CLI reads."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"families": families}, handle)
    return path


ALT_HARMONIC_ENTRY = {"kind": "power_alternating"}
RAD_PAIR_ENTRIES = [{"kind": "rademacher_harmonic", "level": 0},
                    {"kind": "rademacher_harmonic", "level": 1}]


@pytest.fixture(scope="session")
def rad_pair() -> FamilyVector:
    return FamilyVector((rademacher_harmonic(0), rademacher_harmonic(1)))


@pytest.fixture(scope="session")
def triple_family() -> FamilyVector:
    """Two free generators plus one declared combination of them."""
    a0 = rademacher_harmonic(0)
    a1 = rademacher_harmonic(1)
    a2 = composite([(-1.0, a0), (-1.0, a1)], perturbation=abs_power(2.0))
    return FamilyVector((a0, a1, a2))


@pytest.fixture(scope="session")
def small_chain(rad_pair):
    """One-round chain on the level-0/1 pair; cheap enough for unit tests.

    Returns (family, targets, chain, final_report, elapsed_seconds), where
    final_report is run's check of the final condition.
    """
    targets = (0.1, -0.2)
    start = time.perf_counter()
    chain, report = run(rad_pair, targets, 1, seed=3, budget=10 ** 6)
    elapsed = time.perf_counter() - start
    return rad_pair, targets, chain, report, elapsed
