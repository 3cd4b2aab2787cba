"""Independent certificate verification, including tamper detection."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sumchase import verify_certificate, write_certificate
from sumchase.certcheck import _rounded, _running_sums, verify_data
from sumchase.series import partial_sum_vector, term_array
from sumchase.fileio import parse_certificate
from conftest import RAD_PAIR_ENTRIES, write_family_file


@pytest.fixture()
def cert_setup(small_chain, tmp_path):
    fam, targets, chain, _, _ = small_chain
    cert = tmp_path / "chain.cert"
    spec = write_family_file(tmp_path / "fam.json", [RAD_PAIR_ENTRIES])
    write_certificate(str(cert), chain, targets)
    return str(cert), spec, targets


def test_fresh_certificate_verifies(cert_setup):
    cert, spec, targets = cert_setup
    report = verify_certificate(cert, spec)
    assert report.ok
    assert report.failures == ()
    assert report.conditions_checked == 2
    assert report.links_checked == 1
    assert str(report).startswith("certificate ok")


def test_explicit_targets_must_match_the_recorded_ones(cert_setup):
    cert, spec, targets = cert_setup
    assert verify_certificate(cert, spec, targets).ok
    report = verify_certificate(cert, spec, (0.9, 0.9))
    assert not report.ok
    assert any("targets" in f for f in report.failures)


def test_tampered_tolerance_is_caught(cert_setup):
    cert, spec, _ = cert_setup
    lines = open(cert).read().splitlines(keepends=True)
    out = []
    for line in lines:
        if line.startswith("condition 1:"):
            # shrink the tolerance so the recorded deviation no longer fits
            line = re.sub(r"eps=\S+", "eps=1/100000", line)
        out.append(line)
    open(cert, "w").writelines(out)
    report = verify_certificate(cert, spec)
    assert not report.ok


def test_tampered_injection_is_caught(cert_setup):
    cert, spec, _ = cert_setup
    lines = open(cert).read().splitlines(keepends=True)
    out = []
    for line in lines:
        if line.startswith("condition 1:"):
            line = line.replace("f=", "f=0,0,", 1)
        out.append(line)
    open(cert, "w").writelines(out)
    report = verify_certificate(cert, spec)
    assert not report.ok
    assert any("condition 1" in f for f in report.failures)


def test_tampered_link_norm_is_caught(cert_setup):
    cert, spec, _ = cert_setup
    text = open(cert).read()
    doctored = re.sub(r"block_prefix_max=\S+", "block_prefix_max=99.0", text)
    assert doctored != text
    open(cert, "w").write(doctored)
    report = verify_certificate(cert, spec)
    assert not report.ok
    assert any("link" in f for f in report.failures)


def test_unsupported_version_is_reported(cert_setup, small_chain):
    cert, spec, _ = cert_setup
    text = open(cert).read().replace("certificate-version: 1",
                                     "certificate-version: 99")
    open(cert, "w").write(text)
    report = verify_certificate(cert, spec)
    assert not report.ok
    assert any("version" in f for f in report.failures)


def test_verify_data_works_on_parsed_structures(cert_setup, small_chain):
    cert, spec, targets = cert_setup
    fam = small_chain[0]
    data = parse_certificate(cert)
    report = verify_data(data, fam, targets)
    assert report.ok


def _sub(prefix, pattern, repl):
    """Certificate edit: ``re.sub`` once on the line starting with
    ``prefix``."""
    def edit(lines):
        return [re.sub(pattern, repl, line, count=1)
                if line.startswith(prefix) else line for line in lines]
    return edit


def _compose(*edits):
    def edit(lines):
        for step in edits:
            lines = step(lines)
        return lines
    return edit


# The one-round chain has condition 0 (empty, d=1, eps=3) and condition 1
# (d=2), joined by link 1->0.
@pytest.mark.parametrize("edit, label, fragment", [
    (_compose(_sub("condition 0:", "f= ", "f=-1 "),
              _sub("condition 1:", "f=", "f=-1,")),
     "condition 0", "distinct nonnegative"),
    (_sub("condition 1:", r"d=\d+", "d=3"), "condition 1",
     "dimension 3 is out of range"),
    (_sub("condition 1:", r"f=\d+,", "f="), "condition 1",
     "unused index below"),
    (_sub("condition 0:", r"eps=\S+", "eps=1/10"), "link 1->0",
     "appended block has a prefix"),
    (_sub("condition 1:", r"eps=\S+", "eps=3"), "link 1->0",
     "exceeds 2*eps"),
    (_sub("condition 0:", "f= ", "f=1 "), "link 1->0", "does not extend"),
    (_compose(_sub("condition 0:", r"d=\d+", "d=2"),
              _sub("condition 1:", r"d=\d+", "d=1")),
     "link 1->0", "dimension shrank (2 -> 1)"),
    (_sub("link ", r"(?s).*", ""), "links", "expected 1 link lines, found 0"),
    (_sub("link ", r"block_sum_norm=\S+", "block_sum_norm=0.5"),
     "link 1->0", "recorded block_sum_norm=0.5"),
    (_sub("condition 1:", "f=", "f=-1,"), "link 1->0",
     "appended block is not"),
    (_compose(_sub("condition 0:", r"d=\d+", "d=3"),
              _sub("condition 1:", r"d=\d+", "d=3")),
     "link 1->0", "dimension 3 is out of range"),
], ids=["negative-index", "dim-out-of-range", "unused-small-index",
        "block-prefix", "tolerance-step", "not-an-extension",
        "shrinking-dim", "link-count", "tampered-block-sum",
        "negative-block-index", "link-dim-out-of-range"])
def test_each_broken_claim_is_reported_under_its_label(cert_setup, edit,
                                                       label, fragment):
    cert, spec, _ = cert_setup
    lines = open(cert).read().splitlines(keepends=True)
    doctored = edit(lines)
    assert doctored != lines
    open(cert, "w").writelines(doctored)
    report = verify_certificate(cert, spec)
    assert not report.ok
    assert any(f.startswith(label + ":") and fragment in f
               for f in report.failures), report.failures


def test_a_condition_whose_link_does_not_extend_is_summed_from_scratch(
        cert_setup, small_chain):
    """Condition 1 no longer extends condition 0, so it cannot take
    condition 0's sums plus a block: its deviation, wrong against a
    shrunken tolerance, is reported at its value from scratch."""
    cert, spec, targets = cert_setup
    fam = small_chain[0]
    lines = open(cert).read().splitlines(keepends=True)
    doctored = _compose(_sub("condition 0:", "f= ", "f=1 "),
                        _sub("condition 1:", r"eps=\S+", "eps=1/1000000"))(
        lines)
    open(cert, "w").writelines(doctored)
    data = parse_certificate(cert)
    lower = data.conditions[1]
    assert lower.injection[0] != 1
    sums = partial_sum_vector(fam, lower.injection, lower.dim)
    dev = math.hypot(*(float(s) - t for s, t in zip(sums, targets)))
    report = verify_certificate(cert, spec)
    assert not report.ok
    assert any(f.startswith("link 1->0:") and "does not extend" in f
               for f in report.failures), report.failures
    assert (f"condition 1: deviation {dev!r} is not certifiably below "
            f"eps=1/1000000") in report.failures, report.failures


def test_running_sums_match_an_exact_running_sum(rad_pair):
    # 10 000 terms cross two prefix-run boundaries; the reference adds
    # every term exactly (dyadic fractions) and rounds each prefix once
    block = np.random.default_rng(5).permutation(20_000)[:10_000]
    cols = [term_array(spec, block).tolist() for spec in rad_pair]
    exact = [Fraction(0), Fraction(0)]
    peak = 0.0
    for row in zip(*cols):
        exact = [s + Fraction(t) for s, t in zip(exact, row)]
        peak = max(peak, math.hypot(*(float(s) for s in exact)))
    units, prefix_max = _running_sums(rad_pair, 2, block, 2)
    sums = [_rounded(u) for u in units]
    assert sums == [float(s) for s in exact]
    assert abs(prefix_max - peak) <= 1e-12
