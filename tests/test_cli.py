"""Command-line behavior: subcommands, exit codes, reproducible files."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sumchase import subspace
from sumchase.cli import main
from sumchase.fileio import parse_certificate, parse_spec_file
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


def _unit_zero_sum(seed: int, n: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1, 1, size=(n, d))
    v -= v.mean(axis=0)
    return v / np.linalg.norm(v, axis=1).max()


def test_confine_csv_bytes_are_pinned(tmp_path):
    """sha256 of the ``step,input_position,prefix_norm`` output for CI's
    600x3 zero-sum list (seed 7) and 400x2 anchored list (seed 8), a 1-D
    list and a 4-D one, files written as CI writes them (``%.17g``); the
    prefix_norm column pins the norm bits, not only the permutation."""
    rng = np.random.default_rng(8)
    anchored = rng.uniform(-1, 1, size=(400, 2))
    anchored *= 0.99 / max(np.linalg.norm(anchored, axis=1).max(),
                           np.linalg.norm(anchored.sum(axis=0)))
    lists = {"zero": _unit_zero_sum(7, 600, 3), "anchored": anchored,
             "line": _unit_zero_sum(9, 300, 1),
             "four": _unit_zero_sum(10, 900, 4)}
    want = {"zero": "0799a09ad811d3dbfce1afc4e86d24e6"
                    "fdfda878df6cdcbc867e259188f5f668",
            "anchored": "97f439030f55529dafdcfbce9176ad94"
                        "a55b1b1ce803076a75e44a349a2bf370",
            "line": "f6d31353623dc4dad4f778cdb2c925e4"
                    "7a5c538a1a027e88441aa07f13a4983f",
            "four": "a9db4201dc902b38342125f63b979dab"
                    "b675e5ce5505aba02bf69d543030988c"}
    for name, vectors in lists.items():
        path = tmp_path / f"{name}.txt"
        out = tmp_path / f"{name}.csv"
        np.savetxt(path, vectors, fmt="%.17g")
        argv = ["confine", str(path), "--out", str(out)]
        if name == "anchored":
            total = np.loadtxt(path).sum(axis=0)
            argv.append("--anchor=" + ",".join(repr(float(x)) for x in total))
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want[name], name


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


def test_confine_reports_an_oversized_norm_as_a_plain_float(tmp_path,
                                                            capsys):
    rows = tmp_path / "one.txt"
    rows.write_text("1 2 3\n")
    assert main(["confine", str(rows)]) == 2
    assert ("error: vector 0 has norm 3.7416573867739413, above 1 + tol"
            in capsys.readouterr().err)
    assert main(["confine", str(rows), "--anchor", "1,2,3",
                 "--rho", "1.0"]) == 2
    assert ("error: vector 0 has norm 3.7416573867739413, above rho=1.0"
            in capsys.readouterr().err)


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


def test_an_empty_trace_has_the_header_of_its_dimension(tmp_path, capsys):
    # eps 10 already holds at the empty rearrangement
    spec = write_family_file(tmp_path / "pair.json", [RAD_PAIR_ENTRIES])
    trace = tmp_path / "empty.csv"
    code = main(["rearrange", "--spec", spec, "--targets", "0.1,0.2",
                 "--eps", "10", "--trace", str(trace)])
    assert code == 0
    assert "length=0 " in capsys.readouterr().out
    assert trace.read_text() == "step,index,term_0,term_1,sum_0,sum_1\n"


def test_rearrange_on_a_wide_lane_modulus(tmp_path, capsys):
    # a level-12 sign pattern splits the indices into 2**13 residue lanes,
    # so a lane's projected depth leaves the float range
    spec = write_family_file(tmp_path / "wide.json", [[
        {"kind": "rademacher_harmonic", "level": 0},
        {"kind": "rademacher_harmonic", "level": 12}]])
    code = main(["rearrange", "--spec", spec, "--targets", "0.1,0.2",
                 "--eps", "0.01"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert captured.out.startswith("length=")


@pytest.mark.parametrize("command, extra", [
    ("rearrange", ["--eps", "0.01"]),
    ("extend-run", ["--rounds", "1", "--cert", "deep.cert"])],
    ids=["rearrange", "extend-run"])
def test_a_sign_level_too_deep_for_lanes_is_bad_input(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      extra):
    # a level-24 pattern would need 2**25 residues sorted into lanes
    monkeypatch.chdir(tmp_path)
    spec = write_family_file(tmp_path / "deep.json", [[
        {"kind": "rademacher_harmonic", "level": 0},
        {"kind": "rademacher_harmonic", "level": 24}]])
    code = main([command, "--spec", spec, "--targets", "0.1,0.2"] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert "sign level 24" in err and "2**20" in err
    assert not (tmp_path / "deep.cert").exists()


@pytest.mark.parametrize("level, code, out", [
    (40, 2, ""), (20, 2, ""), (19, 0, "length=49375 ")],
    ids=["level-40", "level-20", "level-19"])
def test_riemann_refuses_sign_levels_past_the_lane_limit(tmp_path, level,
                                                         code, out):
    # the first negative term of a level-40 series is at index 2**40, and
    # the sign stream would scan every index below it
    spec = write_family_file(tmp_path / "one.json", [[
        {"kind": "rademacher_harmonic", "level": level}]])
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "rearrange", "--spec", spec,
         "--targets=-0.1", "--eps", "0.01", "--budget", "100000"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(out)
    if code == 2:
        assert (f"sign level {level} needs a residue period of "
                f"2**{level + 1}, above the limit of 2**20") in proc.stderr
        assert "Traceback" not in proc.stderr


def _limit_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def test_a_block_past_the_budget_stops_inside_the_lane_scan(tmp_path):
    """The lane scan stops once the block passes the budget, so the chain
    ends with exit 3 instead of filling memory with picks (under this
    1.5 GB limit the scan used to end in a numpy allocation error)."""
    spec = write_family_file(tmp_path / "deep3.json", [[
        {"kind": "rademacher_harmonic", "level": level}
        for level in (3, 7, 12)]])
    proc = subprocess.run(
        [sys.executable, "-m", "sumchase.cli", "extend-run", "--spec", spec,
         "--targets", "0.1,0.2,-0.1", "--rounds", "2", "--budget", "200000",
         "--cert", str(tmp_path / "deep3.cert")],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "round 1:" in proc.stderr
    assert "remaining budget of 200000" in proc.stderr


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
    ("f= ", "f=0,9223372036854775808 "),
    ("f= ", "f=-9223372036854775809 "),
    ("f= ", "f=1,,2 "),
    ("f= ", "f=1-2 "),
], ids=["version", "target", "nan-target", "inf-schedule", "index",
        "zero-denominator", "dim", "condition-number", "link-number",
        "nan-norm", "not-utf8", "index-past-int64", "index-below-int64",
        "empty-index", "sign-inside-index"])
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


def test_deeply_nested_spec_file_is_an_input_error(tmp_path):
    # 400 composite levels nest the JSON past the interpreter's recursion
    # limit; 300 still parse
    text = json.dumps({"kind": "rademacher_harmonic", "level": 0})
    for _ in range(400):
        text = ('{"kind": "composite", "combo": [{"coefficient": 1.0, '
                f'"ref": {text}}}]}}')
    spec = tmp_path / "deep.json"
    spec.write_text(f'{{"families": [[{text}]]}}')
    cert = tmp_path / "chain.cert"
    cert.write_text("certificate-version: 1\ntargets: 0.1\n"
                    "condition 0: f=0 d=1 eps=3\n")
    for command in (["analyze"], ["verify", "--cert", str(cert)]):
        proc = subprocess.run(
            [sys.executable, "-m", "sumchase.cli", *command, "--spec",
             str(spec)], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "nested too deeply" in proc.stderr
        assert "Traceback" not in proc.stderr


#: numpy's AVX512 dispatch targets; names a numpy build does not know are
#: ignored, so on other machines both modes below are the same.
DISPATCH_OFF = "AVX512_SPR AVX512_ICL X86_V4"


def test_certificates_verify_across_numpy_dispatch_modes(tmp_path, capsys):
    """A p = 0.75 chain built with numpy's AVX512 dispatch switched off
    verifies in this process, and one built here verifies with it off;
    the bytes may differ in last digits, the chosen indices may not."""
    entries = [{"kind": "rademacher_harmonic", "level": level,
                "exponent": 0.75} for level in range(4)]
    spec = write_family_file(tmp_path / "p075.json", [entries])
    chain = ["extend-run", "--spec", spec, "--targets", "0.1,-0.2,0.3,0.0",
             "--rounds", "3", "--cert"]
    off_env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISPATCH_OFF)
    built_off = str(tmp_path / "off.cert")
    built_here = str(tmp_path / "here.cert")
    proc = subprocess.run([sys.executable, "-m", "sumchase.cli", *chain,
                           built_off], env=off_env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["verify", "--cert", built_off, "--spec", spec]) == 0
    assert main([*chain, built_here]) == 0
    proc = subprocess.run([sys.executable, "-m", "sumchase.cli", "verify",
                           "--cert", built_here, "--spec", spec],
                          env=off_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    finals = [np.sort(parse_certificate(path).conditions[-1].injection)
              for path in (built_off, built_here)]
    assert np.array_equal(*finals)


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


@pytest.mark.parametrize("precision", ["inf", "nan", "0", "-1e-6"])
def test_analyze_refuses_a_precision_that_is_not_finite_and_positive(
        precision, tmp_path, capsys):
    # an infinite precision used to print sums of 0.0 and exit 0
    spec = write_family_file(tmp_path / "rad4.json", [[
        {"kind": "rademacher_harmonic", "level": level}
        for level in range(4)]])
    assert main(["analyze", "--spec", spec, f"--precision={precision}"]) == 2
    captured = capsys.readouterr()
    assert "precision must be finite and positive" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_analyze_measures_each_direction_once(tmp_path, capsys,
                                              monkeypatch):
    # the kernel cross-check already measures every unit direction, and
    # the report's growth lines reuse those measurements
    spec = write_family_file(tmp_path / "triple.json", [TRIPLE_ENTRIES])
    fam = parse_spec_file(spec)[0]
    expected = [
        f"growth {i}: abs_sum={stats.abs_sum!r} ratio={stats.ratio!r} "
        f"verdict={stats.verdict()}"
        for i, stats in enumerate(
            subspace.growth_statistics(fam, [float(i == j) for j in range(3)])
            for i in range(3))]
    # every growth_statistics call, however it is imported, ends in one
    # GrowthStats
    made = []
    growth_stats = subspace.GrowthStats

    def counting(*args):
        made.append(args)
        return growth_stats(*args)

    monkeypatch.setattr(subspace, "GrowthStats", counting)
    assert main(["analyze", "--spec", spec]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "kernel dimension: 1" in lines
    assert lines[-3:] == expected
    # one kernel vector and three unit directions
    assert len(made) == 1 + 3


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
