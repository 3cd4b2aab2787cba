"""Command-line behavior: subcommands, exit codes, reproducible files."""
import subprocess
import sys

import pytest

from sumchase.cli import main
from conftest import (ALT_HARMONIC_ENTRY, RAD_PAIR_ENTRIES, write_family_file)

TRIPLE_ENTRIES = RAD_PAIR_ENTRIES + [
    {"kind": "composite",
     "combo": [{"coefficient": -1.0, "ref": 0},
               {"coefficient": -1.0, "ref": 1}],
     "perturbation": {"kind": "abs_power", "exponent": 2.0}}]


@pytest.fixture()
def vectors_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("# three planar vectors with zero total\n"
                    "0.6 0.0\n"
                    "-0.3, 0.4\n"
                    "-0.3 -0.4\n")
    return str(path)


def test_confine_writes_the_ordering_csv(vectors_file, tmp_path, capsys):
    out = tmp_path / "order.csv"
    assert main(["confine", vectors_file, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,input_position,prefix_norm"
    assert len(lines) == 4
    for line in lines[1:]:
        step, pos, norm = line.split(",")
        assert step.isdigit() and pos.isdigit()
        float(norm)  # plain repr floats, no wrapper text
    assert "max_prefix_norm=" in capsys.readouterr().err


def test_confine_anchored_variant(vectors_file, tmp_path, capsys):
    out = tmp_path / "order.csv"
    code = main(["confine", vectors_file, "--anchor", "0.0,0.0",
                 "--rho", "1.0", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_confine_rejects_unreadable_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["confine", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_confine_rejects_garbage_rows(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\npotato\n")
    assert main(["confine", str(bad)]) == 2
    assert "numeric" in capsys.readouterr().err
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"1.0 2.0\n\xe9\xff 1.0\n")
    assert main(["confine", str(latin)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_rearrange_single_target_with_trace(tmp_path, capsys):
    spec = write_family_file(tmp_path / "alt.json", [[ALT_HARMONIC_ENTRY]])
    trace = tmp_path / "trace.csv"
    code = main(["rearrange", "--spec", spec, "--targets", "0.25",
                 "--eps", "1e-3", "--trace", str(trace)])
    assert code == 0
    assert "deviation=" in capsys.readouterr().out
    assert trace.read_text().startswith("step,index,term_0,sum_0")


def test_rearrange_multi_target_pair(tmp_path, capsys):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    code = main(["rearrange", "--spec", spec, "--targets", "0.2,-0.3",
                 "--eps", "0.01", "--seed", "4"])
    assert code == 0
    assert "length=" in capsys.readouterr().out


def test_rearrange_refuses_absolutely_convergent_specs(tmp_path, capsys):
    spec = write_family_file(tmp_path / "abs.json",
                             [[{"kind": "abs_power", "exponent": 2.0}]])
    code = main(["rearrange", "--spec", spec, "--targets", "0.5",
                 "--eps", "0.01"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_rearrange_budget_exhaustion_exits_three(tmp_path, capsys):
    spec = write_family_file(tmp_path / "alt.json", [[ALT_HARMONIC_ENTRY]])
    code = main(["rearrange", "--spec", spec, "--targets", "3.5",
                 "--eps", "1e-6", "--budget", "40"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["rearrange", "--targets", "0.25", "--eps", "0.01", "--budget", "-5"],
    ["rearrange", "--targets", "0.1,0.2", "--eps", "0.01", "--budget", "-5"],
    ["rearrange", "--targets", "0.25", "--eps", "inf"],
    ["rearrange", "--targets", "0.1,0.2", "--eps", "inf"],
    ["extend-run", "--targets", "0.1,-0.2", "--rounds", "1",
     "--budget", "-5", "--cert", "{tmp}/chain.cert"],
], ids=["riemann-budget", "chase-budget", "riemann-eps", "chase-eps",
        "extend-run-budget"])
def test_bad_budget_or_eps_is_an_input_error(argv, tmp_path, capsys):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--spec", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_rearrange_same_seed_reproduces_trace_bytes(tmp_path):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    traces = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = main(["rearrange", "--spec", spec, "--targets", "0.15,0.1",
                     "--eps", "0.005", "--seed", "21",
                     "--trace", str(path)])
        assert code == 0
        traces.append(path.read_bytes())
    assert traces[0] == traces[1]


def test_extend_run_then_verify_roundtrip(tmp_path, capsys):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    cert = tmp_path / "chain.cert"
    code = main(["extend-run", "--spec", spec, "--targets", "0.1,-0.2",
                 "--rounds", "1", "--budget", "1000000",
                 "--cert", str(cert)])
    assert code == 0
    assert "rounds=1" in capsys.readouterr().out

    assert main(["verify", "--cert", str(cert), "--spec", spec]) == 0
    assert "certificate ok" in capsys.readouterr().out

    lines = cert.read_text().splitlines(keepends=True)
    doctored = [line.replace("f=", "f=0,0,", 1)
                if line.startswith("condition 1:") else line
                for line in lines]
    cert.write_text("".join(doctored))
    assert main(["verify", "--cert", str(cert), "--spec", spec]) == 1
    assert "FAILED" in capsys.readouterr().out


_GOOD_CERT = ("certificate-version: 1\n"
              "targets: 0.1,-0.2\n"
              "condition 0: f= d=1 eps=3\n")


@pytest.mark.parametrize("old, new", [
    ("certificate-version: 1", "certificate-version: x"),
    ("targets: 0.1,-0.2", "targets: 0.1,abc"),
    ("targets: 0.1,-0.2", "targets: nan,-0.2"),
    ("targets: 0.1,-0.2", "targets: 0.1,-0.2\nschedule: 2.0,inf"),
    ("f= ", "f=5,x,7 "),
    ("eps=3", "eps=1/0"),
    ("d=1", "d=one"),
    ("condition 0:", "condition zero:"),
    ("eps=3\n", "eps=3\nlink 1->x: block_prefix_max=0.1 "
                "block_sum_norm=0.1\n"),
    ("eps=3\n", "eps=3\nlink 1->0: block_prefix_max=nan "
                "block_sum_norm=0.1\n"),
    ("0.1,-0.2", "0.1,-0.2\udcff"),
], ids=["version", "target", "nan-target", "inf-schedule", "index",
        "zero-denominator", "dim", "condition-number", "link-number",
        "nan-norm", "not-utf8"])
def test_malformed_certificate_is_an_input_error(tmp_path, old, new):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    cert = tmp_path / "bad.cert"
    assert old in _GOOD_CERT
    cert.write_bytes(_GOOD_CERT.replace(old, new, 1).encode(
        "utf-8", "surrogateescape"))
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "verify", "--cert", str(cert),
         "--spec", spec], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("targets", ["nan,0", "0,inf"])
def test_non_finite_verify_targets_are_an_input_error(tmp_path, targets):
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    cert = tmp_path / "good.cert"
    cert.write_text(_GOOD_CERT)
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "verify", "--cert", str(cert),
         "--spec", spec, "--targets", targets],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "targets must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", [
    '{"families": [[{"kind": "rademacher_harmonic", "level": 0, '
    '"exponent": "abc"}]]}',
    '{"families": [[{"kind": "rademacher_harmonic", "level": 0}]]}\udcff',
    '{"families": [[{"kind": "rademacher_harmonic", "level": true}]]}',
    '{"families": [[{"kind": ["rademacher_harmonic"], "level": 0}]]}',
    '{"families": [[{"kind": "rademacher_harmonic", "level": 0}, '
    '{"kind": "composite", "combo": [{"coefficient": true, "ref": 0}]}]]}',
], ids=["string-exponent", "not-utf8", "bool-level", "list-kind",
        "bool-coefficient"])
def test_malformed_spec_file_is_an_input_error(tmp_path, text):
    spec = tmp_path / "bad.json"
    spec.write_bytes(text.encode("utf-8", "surrogateescape"))
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "analyze", "--spec",
         str(spec)], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_reports_structure(tmp_path, capsys):
    spec = write_family_file(tmp_path / "triple.json", [TRIPLE_ENTRIES])
    out = tmp_path / "report.txt"
    code = main(["analyze", "--spec", spec, "--truncation", "4096",
                 "--precision", "1e-6", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "series: 3" in text
    assert "kernel dimension: 1" in text
    assert "independent set: 0,1" in text
    assert "dependent 2:" in text


def test_schedule_env_overrides_the_constants(vectors_file, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.setenv("RL_CONSTANT_SCHEDULE", "9.0,9.0")
    assert main(["confine", vectors_file, "--out",
                 str(tmp_path / "o.csv")]) == 0
    assert "bound=9.0" in capsys.readouterr().err


def test_schedule_env_reaches_extend_run_and_verify(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setenv("RL_CONSTANT_SCHEDULE", "9.0,9.0")
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    cert = tmp_path / "chain.cert"
    assert main(["extend-run", "--spec", spec, "--targets", "0.1,-0.2",
                 "--rounds", "1", "--cert", str(cert)]) == 0
    assert "rounds=1" in capsys.readouterr().out
    assert main(["verify", "--cert", str(cert), "--spec", spec]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_invalid_schedule_env_is_an_input_error(vectors_file, capsys,
                                                monkeypatch):
    monkeypatch.setenv("RL_CONSTANT_SCHEDULE", "fast,loose")
    assert main(["confine", vectors_file]) == 2
    assert "RL_CONSTANT_SCHEDULE" in capsys.readouterr().err


def test_module_entry_point_runs_as_a_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "confine",
         str(tmp_path / "missing.txt")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
