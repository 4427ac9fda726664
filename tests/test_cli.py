import os
import subprocess
import sys
from pathlib import Path

import pytest

from faultsim import oracles
from faultsim.ablation import ablation_run
from faultsim.cli import main
from faultsim.faults import parse_fault_csv
from faultsim.genbench import gen_bench
from faultsim.report import parse_report_csv
from faultsim.rtl import elaborate_text
from faultsim.stimulus import parse_stimulus

ROOT = Path(__file__).resolve().parent.parent
AND2_NL = ROOT / "benchmarks" / "and2.nl"
AND2_STIM = ROOT / "benchmarks" / "and2.stim"


def run_cli(*args):
    return main([str(a) for a in args])


def test_and2_coverage_half(tmp_path, capsys):
    """Hand enumeration with a=b=1: the three stuck-at-0 faults flip the
    output; the stuck-at-1 faults agree with the good values.  6 faults,
    3 detected, coverage 0.5."""

    report = tmp_path / "r.csv"
    code = run_cli(
        "run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
        "--gen-faults", "sa0,sa1", "--workers", "1", "--mode", "serial",
        "--report", report,
    )
    assert code == 0
    assert "coverage=0.5000" in capsys.readouterr().out
    rows = parse_report_csv(report.read_text())
    verdicts = {(r.location_name, r.kind): r.detected for r in rows}
    assert verdicts == {
        ("a", "sa0"): True, ("a", "sa1"): False,
        ("b", "sa0"): True, ("b", "sa1"): False,
        ("y", "sa0"): True, ("y", "sa1"): False,
    }
    assert all(r.detect_cycle == 0 and r.observing_output == "o"
               for r in rows if r.detected)


def test_oracle_check_passes(capsys):
    code = run_cli(
        "run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
        "--gen-faults", "sa0,sa1", "--workers", "4", "--mode", "full",
        "--oracle-check",
    )
    assert code == 0
    assert "oracle-check: ok" in capsys.readouterr().out


def test_missing_netlist_is_usage_error(capsys):
    assert run_cli("run", "--stimulus", AND2_STIM, "--gen-faults", "sa0") == 1
    assert "netlist" in capsys.readouterr().err


def test_unparseable_netlist_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.nl"
    bad.write_text("module m\nassign y 1 = FROB a\nend\n")
    code = run_cli("run", "--netlist", bad, "--stimulus", AND2_STIM,
                   "--gen-faults", "sa0")
    assert code == 2
    assert "unknown operator" in capsys.readouterr().err


def test_bad_stimulus_exits_2(tmp_path, capsys):
    stim = tmp_path / "bad.stim"
    stim.write_text("cycle a\n0 1\n")
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", stim,
                   "--gen-faults", "sa0")
    assert code == 2


def test_missing_file_exits_2(tmp_path):
    code = run_cli("run", "--netlist", tmp_path / "nope.nl",
                   "--stimulus", AND2_STIM, "--gen-faults", "sa0")
    assert code == 2


def test_fault_csv_flow(tmp_path):
    bench = gen_bench("uniform", 50, 6, cycles=5, fault_count=15)
    paths = bench.write(tmp_path, "u")
    report = tmp_path / "rep.csv"
    stats = tmp_path / "stats.txt"
    code = run_cli(
        "run", "--netlist", paths[0], "--stimulus", paths[1],
        "--faults", paths[2], "--workers", "2", "--report", report,
        "--stats", stats, "--oracle-check",
    )
    assert code == 0
    assert len(parse_report_csv(report.read_text())) == 15
    assert stats.read_text().startswith("config ")


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("gen", "--profile", "skewed", "--size", "120",
                       "--seed", "9", "--out", out) == 0
    for name in ("skewed_120_9.nl", "skewed_120_9.stim", "skewed_120_9.flt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_fault_sampling_with_limit(tmp_path, capsys):
    code = run_cli(
        "run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
        "--gen-faults", "sa0,sa1", "--fault-limit", "3", "--seed", "5",
    )
    assert code == 0
    assert "faults=3" in capsys.readouterr().out


def test_transient_gen_spec(tmp_path, capsys):
    code = run_cli(
        "run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
        "--gen-faults", "transient:0:0",
    )
    assert code == 0
    assert "faults=3" in capsys.readouterr().out


def test_ablate_smoke(tmp_path, capsys):
    bench = gen_bench("skewed", 150, 2, cycles=5)
    paths = bench.write(tmp_path, "s")
    out = tmp_path / "table.txt"
    code = run_cli(
        "ablate", "--netlist", paths[0], "--stimulus", paths[1],
        "--faults", paths[2], "--workers", "1,4", "--trials", "2",
        "--out", out,
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].split()[2] == "schedule_ms"
    assert text.splitlines()[1].startswith("serial")
    assert "verdicts consistent across cells: yes" in text
    assert "overhead fraction" in text


def test_ablate_says_when_nothing_is_expanded():
    """With no node expanded, no task was added: the table prints ``none
    expanded`` rather than a 0.0000 fraction that reads as a measurement.
    Its footer names the clock of each row and of ``speedup``."""

    for args, expanded in ((("uniform", 200, 3), False), (("skewed", 150, 2), True)):
        bench = gen_bench(*args, cycles=3)
        _, stim, faults = bench.build()
        table = ablation_run(bench.netlist, stim, faults, [2], trials=1)
        assert bool(table.expanded) == expanded, args
        text = table.format()
        assert ("overhead fraction: none expanded" in text) != expanded, args
        assert "serial row: host time; other rows: modeled schedule makespan" in text
        assert "speedup: serial host time / modeled makespan" in text


def test_ablate_bad_workers(capsys, tmp_path):
    bench = gen_bench("uniform", 40, 1, cycles=3)
    paths = bench.write(tmp_path, "u")
    for workers, message in [
        ("0,4", "worker count must lie in 1..1024"),
        ("4,1025", "worker count must lie in 1..1024"),
        ("1,a", "--workers needs comma-separated integers"),
        (",", "--workers needs comma-separated integers"),
    ]:
        capsys.readouterr()
        code = run_cli("ablate", "--netlist", paths[0], "--stimulus", paths[1],
                       "--faults", paths[2], "--workers", workers)
        assert code == 1
        assert one_line_error(capsys) == f"error: {message}\n", workers


AND2_FAULTS = "fid,location_kind,location_name,bit,kind\n0,wire,y,0,sa0\n1,port,a,0,sa1\n"


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


def test_negative_fault_bit_exits_2(tmp_path, capsys):
    flt = tmp_path / "f.csv"
    flt.write_text("0,wire,y,-1,sa0\n")
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                   "--faults", flt)
    assert code == 2
    assert "bit -1 out of range" in one_line_error(capsys)


def test_negative_fid_exits_2(tmp_path, capsys):
    flt = tmp_path / "f.csv"
    flt.write_text("fid,location_kind,location_name,bit,kind\n-3,wire,y,0,sa0\n")
    for mode in ("serial", "full"):
        code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                       "--faults", flt, "--mode", mode, "--workers", "4")
        assert code == 2
        assert "fault -3: fid must be >= 0" in one_line_error(capsys)


def test_overlong_fault_field_exits_2(tmp_path, capsys):
    """A field over the csv module's field limit is a parse error, not a
    traceback."""

    flt = tmp_path / "f.csv"
    flt.write_text(f"0,wire,y,0,sa0\n1,wire,{'y' * 200_000},0,sa0\n")
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                   "--faults", flt)
    assert code == 2
    assert one_line_error(capsys).startswith(
        "error: fault CSV line 2: field larger than field limit")


def test_run_prints_both_clocks(capsys):
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                   "--gen-faults", "sa0,sa1", "--workers", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert " schedule_ms=" in out and " host_ms=" in out and "wall_ms" not in out
    ratio = float(out.split(" bound_ratio=")[1].split()[0])
    assert ratio >= 1.0


@pytest.mark.parametrize("args, mode", [
    ((), "serial"), (("--workers", "1"), "serial"), (("--workers", "3"), "full"),
    (("--workers", "1", "--mode", "full"), "full"),
    (("--workers", "3", "--mode", "structural"), "structural"),
])
def test_default_mode_follows_the_worker_count(tmp_path, capsys, args, mode):
    """Without ``--mode`` one worker runs ``serial``: a one-worker pool
    models nothing serial does not.  An explicit mode always holds."""

    stats = tmp_path / "s.txt"
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                   "--gen-faults", "sa0,sa1", "--stats", stats, *args)
    assert code == 0
    config = stats.read_text().splitlines()[0]
    assert f" mode={mode} " in config
    totals = next(ln for ln in stats.read_text().splitlines() if ln.startswith("totals "))
    assert " bound_ns=" in totals and " bound_ratio=" in totals
    assert "bound_ratio=" in capsys.readouterr().out


def test_python_dash_m_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "faultsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: faultsim")


def test_negative_stimulus_value_exits_2(tmp_path, capsys):
    stim = tmp_path / "s.stim"
    stim.write_text("cycle a b\n0 1 -1\n")
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", stim,
                   "--gen-faults", "sa0")
    assert code == 2
    assert "negative value" in one_line_error(capsys)


def test_non_utf8_inputs_exit_2(tmp_path, capsys):
    files = {
        "netlist": AND2_NL.read_bytes(),
        "stimulus": AND2_STIM.read_bytes(),
        "faults": AND2_FAULTS.encode(),
    }
    for which in files:
        args = []
        for name, data in files.items():
            path = tmp_path / f"{name}.in"
            path.write_bytes(b"\xff\xfe" + data if name == which else data)
            args += [f"--{name}", path]
        assert run_cli("run", *args) == 2, which
        assert "not UTF-8" in one_line_error(capsys)
    (tmp_path / "faults.in").write_bytes(files["faults"])
    assert run_cli("run", *args) == 0


def test_oracle_check_computes_good_trace_once(monkeypatch, tmp_path, capsys):
    """--oracle-check resimulates the fault-free trace once for all faults,
    not once per fault, and its verdict is unchanged."""

    calls = []
    plain_sim = oracles._plain_sim
    monkeypatch.setattr(oracles, "_plain_sim",
                        lambda *a: calls.append(len(a)) or plain_sim(*a))
    bench = gen_bench("uniform", 40, 3, cycles=4, fault_count=12)
    paths = bench.write(tmp_path, "u")
    code = run_cli("run", "--netlist", paths[0], "--stimulus", paths[1],
                   "--faults", paths[2], "--oracle-check")
    assert code == 0
    assert "oracle-check: ok" in capsys.readouterr().out
    assert len(calls) == 12 + 1
    assert calls.count(2) == 1  # the one fault-free run: (graph, rows)

    # The shared trace gives every fault the verdict it gets on its own.
    stim = parse_stimulus(bench.stimulus)
    g_shared, g_alone = elaborate_text(bench.netlist), elaborate_text(bench.netlist)
    good = oracles.run_good_trace(g_shared, stim)
    for fault in parse_fault_csv(bench.faults_csv):
        assert (oracles.run_single_fault(g_shared, fault, stim, good=good)
                == oracles.run_single_fault(g_alone, fault, stim))


def _bench_args(tmp_path):
    paths = gen_bench("uniform", 20, 1, cycles=2, fault_count=4).write(tmp_path, "u")
    return ["--netlist", paths[0], "--stimulus", paths[1], "--faults", paths[2]]


@pytest.mark.parametrize("args, message", [
    (["run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
      "--gen-faults", "sa0,sa1", "--fault-limit", "-1"], "--fault-limit must be >= 0"),
    (["gen", "--profile", "uniform", "--size", "40", "--fault-count", "-3"],
     "--fault-count must be >= 0"),
    (["gen", "--profile", "pipeline", "--size", "-5"], "--size must be >= 10"),
    (["gen", "--profile", "skewed", "--size", "9"], "--size must be >= 10"),
    (["gen", "--profile", "uniform", "--size", "40", "--cycles", "-1"],
     "--cycles must be >= 0"),
    (["ablate", "--trials", "0"], "--trials must be >= 1"),
    (["ablate", "--threshold", "-1"], "threshold must lie in (0, 1)"),
    (["run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
      "--gen-faults", "sa0", "--workers", "1025"], "worker count must lie in 1..1024"),
])
def test_out_of_range_numeric_option_exits_1(tmp_path, capsys, args, message):
    if args[0] == "gen":
        args = args + ["--out", tmp_path / "out"]
    elif args[0] == "ablate":
        args = [args[0], *_bench_args(tmp_path), *args[1:]]
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_zero_counts_mean_defaults(tmp_path, capsys):
    assert run_cli("gen", "--help") == 0
    assert "0 means the profile default" in capsys.readouterr().out
    defaults = gen_bench("uniform", 40, 2)
    run_cli("gen", "--profile", "uniform", "--size", "40", "--seed", "2",
            "--cycles", "0", "--fault-count", "0", "--out", tmp_path)
    assert (tmp_path / "uniform_40_2.flt").read_text() == defaults.faults_csv
    assert (tmp_path / "uniform_40_2.stim").read_text() == defaults.stimulus


@pytest.mark.parametrize("spec, message", [
    ("transient:5:2", "error: transient window 5..2 is empty"),
    ("transient:x:2", "error: bad transient spec 'transient:x:2'"),
    ("sa0,transient:1", "error: bad transient spec 'transient:1'"),
])
def test_bad_transient_gen_spec_exits_2(capsys, spec, message):
    code = run_cli("run", "--netlist", AND2_NL, "--stimulus", AND2_STIM,
                   "--gen-faults", spec)
    assert code == 2
    assert one_line_error(capsys) == message + "\n"


def test_fault_on_undriven_output_bit_exits_2(tmp_path, capsys):
    nl = tmp_path / "m.nl"
    nl.write_text("module m\ninput a 8\nassign n 8 = NOT a\noutput o 16 = n\n"
                  "assign x 8 = SHR n #8:8\noutput ox 8 = x\nend\n")
    stim = tmp_path / "m.stim"
    stim.write_text("cycle a\n0 5\n")
    flt = tmp_path / "f.csv"
    flt.write_text("0,wire,o,10,sa1\n")
    code = run_cli("run", "--netlist", nl, "--stimulus", stim, "--faults", flt)
    assert code == 2
    assert "bit 10 of 'o' is undriven" in one_line_error(capsys)


DEAD_BANK_NL = """module bank
input a 2
input b 2
reg r0 2 = 1
reg r1 2 = 2
assign w0 2 = ADD r0 b
assign w1 2 = XOR r1 w0
assign y 2 = NOT a
output o 2 = y
next r0 = w0
next r1 = w1
end
"""


def test_dead_register_bank_reads_undetected_under_oracle_check(tmp_path, capsys):
    """The bank (r0, r1, their next logic and the input b feeding only it)
    reaches no output: its 20 faults are never simulated, and the oracle
    check, which resimulates every fault, agrees that they go undetected.
    Its two registers, w0, w1 and the carrier that b's port faults splice
    in are swept: never evaluated or committed."""

    nl, stim = tmp_path / "bank.nl", tmp_path / "bank.stim"
    nl.write_text(DEAD_BANK_NL)
    stim.write_text("cycle a b\n0 0 1\n1 3 2\n2 1 3\n")
    report, stats = tmp_path / "r.csv", tmp_path / "s.txt"
    code = run_cli(
        "run", "--netlist", nl, "--stimulus", stim, "--gen-faults", "sa0,sa1",
        "--workers", "4", "--oracle-check", "--report", report, "--stats", stats,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle-check: ok" in out
    assert "faults=28 " in out and " swept=5 unobservable=20 " in out
    totals = next(ln for ln in stats.read_text().splitlines() if ln.startswith("totals "))
    assert totals.split()[-2:] == ["swept=5", "unobservable=20"]
    rows = parse_report_csv(report.read_text())
    bank = [r for r in rows if r.location_name in ("r0", "r1", "w0", "w1", "b")]
    assert len(bank) == 20 and not any(r.detected for r in bank)
    assert all(r.detected for r in rows if r.location_name in ("a", "y"))
