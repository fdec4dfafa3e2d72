import contextlib
import csv
import dataclasses
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qrbs import cli
from qrbs.cli import main
from qrbs.compiler import compile_ruleset
from qrbs.inference import infer_exact, infer_shots, oracle
from qrbs.reference import TABLE8, demo_ruleset
from qrbs.ruledsl import RuleSet, parse, to_source, topo_order

DEMO_SRC = to_source(demo_ruleset())


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.qrbs"
    path.write_text(DEMO_SRC, encoding="utf-8")
    return str(path)


def _read_rows(path):
    lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")]
    return list(csv.reader(lines))


def test_run_exact_human(demo_file, capsys):
    assert main(["run", demo_file]) == 0
    out = capsys.readouterr().out
    assert "R p_true=0.468750 p_false=0.531250" in out
    assert "method=exact" in out


def test_run_shots_echoes_seed_and_is_deterministic(demo_file, capsys):
    assert main(["run", demo_file, "--mode", "shots", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert "seed=7" in first and "shots=8192" in first
    assert main(["run", demo_file, "--mode", "shots", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_run_csv_format(demo_file, capsys):
    assert main(["run", demo_file, "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["goal", "p_true", "p_false", "method", "shots", "seed"]
    assert rows[1][:4] == ["R", "0.468750", "0.531250", "exact"]


def test_run_jsonl_format(demo_file, capsys):
    assert main(["run", demo_file, "--format", "jsonl", "--mode", "shots",
                 "--shots", "256", "--seed", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["goal"] == "R"
    assert record["shots"] == 256 and record["seed"] == 3
    assert record["p_true"] + record["p_false"] == pytest.approx(1.0)


def test_run_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.qrbs"
    bad.write_text("fact A\nrule R: if A or then B\ngoal B", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "2:" in err  # line:col diagnostic


@pytest.mark.parametrize(
    "argv",
    [["run"], ["run", "--format", "csv"], ["run", "--format", "jsonl"],
     ["run", "--mode", "shots", "--seed", "7"], ["validate"]],
)
def test_program_saved_with_a_byte_order_mark_runs_as_without(tmp_path, capsys, argv):
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.qrbs"
        path.write_bytes(prefix + DEMO_SRC.encode("utf-8"))
        assert main(argv[:1] + [str(path)] + argv[1:]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "source,position",
    [("fact A$\ngoal A", "1:7: unexpected character '$'"),
     ("fact A\nfact A\ngoal A", "2:6: duplicate fact 'A'"),
     ("fact A", "1:7: missing goal declaration")],
)
def test_error_after_a_byte_order_mark_keeps_its_position(tmp_path, capsys, source, position):
    path = tmp_path / "bom.qrbs"
    path.write_bytes(b"\xef\xbb\xbf" + source.encode("utf-8"))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:{position}\n"


def test_run_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.qrbs")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_budget_exceeded_exits_2(tmp_path, capsys):
    big = tmp_path / "big.qrbs"
    big.write_text(
        "\n".join(f"fact F{i}" for i in range(30)) + "\ngoal F0\n",
        encoding="utf-8",
    )
    assert main(["run", str(big)]) == 2
    assert "24" in capsys.readouterr().err


def test_validate_ok(demo_file, capsys):
    assert main(["validate", demo_file]) == 0
    assert "5 facts, 3 rules" in capsys.readouterr().out


def test_validate_bad_goal(tmp_path, capsys):
    bad = tmp_path / "bad.qrbs"
    bad.write_text("fact A\ngoal Q\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "neither a base fact nor concluded" in capsys.readouterr().err


def test_tables4_contents_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["tables", "4", "--out", str(out1)]) == 0
    assert main(["tables", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_rows(out1)
    assert len(rows) == 1 + 5
    assert rows[3] == ["50", "90", "1.57080", "0.78540"]


def test_tables5_prob_total_column(tmp_path):
    out = tmp_path / "t5.csv"
    assert main(["tables", "5", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1 + 19
    assert all(row[-1] == "1.00000" for row in rows[1:])


def test_tables6_labels_and_probs(tmp_path):
    out = tmp_path / "t6.csv"
    assert main(["tables", "6", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1 + 11
    by_delta = {row[0]: row for row in rows[1:]}
    assert by_delta["80"][2] == "Very Unlikely"
    assert float(by_delta["80"][6]) == pytest.approx(0.095, abs=1e-3)
    assert float(by_delta["80"][7]) == pytest.approx(0.905, abs=1e-3)


def test_tables7_shape_and_provenance(tmp_path):
    out = tmp_path / "t7.csv"
    assert main(["tables", "7", "--out", str(out), "--seed", "4"]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# shots=8192 seed=4\n")
    rows = _read_rows(out)
    assert len(rows) == 1 + 11
    for row in rows[1:]:
        exact, sampled = float(row[1]), float(row[6])
        assert abs(exact - sampled) <= 0.03


def test_table8_report(tmp_path):
    out = tmp_path / "t8.csv"
    assert main(["table8", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert len(rows) == 1 + 28
    first, last = rows[1], rows[28]
    assert first[:5] == ["0", "0", "20", "0", "0"] and first[-1] == "MATCH"
    assert last[:5] == ["100"] * 5 and last[-1] == "MATCH"
    by_deltas = {tuple(row[:5]): row for row in rows[1:]}
    diverging = by_deltas[("60", "100", "20", "0", "0")]
    assert diverging[-1] == "DIVERGES"
    assert float(diverging[5]) == pytest.approx(0.90451, abs=1e-5)


def test_table8_flags_match_golden(tmp_path):
    out = tmp_path / "t8.csv"
    assert main(["table8", "--out", str(out), "--seed", "11"]) == 0
    flags = [",".join(row[:5] + [row[-1]]) for row in _read_rows(out)[1:]]
    golden = (Path(__file__).parent / "data" / "table8_flags.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert flags == golden


@pytest.mark.parametrize("argv,golden", [
    (["table8", "--seed", "7"], "table8_seed7.csv"),
    (["tables", "7", "--seed", "7"], "tables7_seed7.csv"),
    (["gatedemo", "and", "--seed", "7"], "gatedemo_and_seed7.csv"),
    (["gatedemo", "or", "--seed", "7"], "gatedemo_or_seed7.csv"),
])
def test_sampled_tables_reproduce_their_golden_files(argv, golden, tmp_path, monkeypatch):
    def unavailable(self, *args):
        raise AssertionError("each row replays the seeded stream; no state is saved")

    # a shots column seeds its generator once and never rewinds it
    monkeypatch.setattr(random.Random, "getstate", unavailable)
    monkeypatch.setattr(random.Random, "setstate", unavailable)
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()


def test_compiled_demo_reproduces_its_golden_circuit(tmp_path):
    # ancilla numbering and gate order are part of the text format
    program = Path(__file__).parents[1] / "demos" / "programs" / "three_rules.qrbs"
    out = tmp_path / "three_rules.circuit"
    assert main(["compile", str(program), "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / "three_rules.circuit").read_bytes()


DEMO_PROGRAM = Path(__file__).parents[1] / "demos" / "programs" / "three_rules.qrbs"
RUN_MODES = {"exact": ["--mode", "exact"], "shots": ["--mode", "shots", "--seed", "7"]}


def test_run_reproduces_its_golden_output(capsys):
    # human, then csv, each in exact and in shots mode
    for fmt in ("human", "csv"):
        for mode in RUN_MODES.values():
            assert main(["run", str(DEMO_PROGRAM), "--format", fmt, *mode]) == 0
    golden = (Path(__file__).parent / "data" / "three_rules_run.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


@pytest.mark.parametrize("mode", list(RUN_MODES))
def test_run_jsonl_holds_the_result_fields_in_sorted_order(mode, capsys):
    assert main(["run", str(DEMO_PROGRAM), "--format", "jsonl", *RUN_MODES[mode]]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["goal", "method", "p_false", "p_true", "seed", "shots"]
    cp = compile_ruleset(parse(DEMO_PROGRAM.read_text(encoding="utf-8")))
    result = infer_exact(cp) if mode == "exact" else infer_shots(cp, cli.DEFAULT_SHOTS, 7)
    assert record == dataclasses.asdict(result)


def test_demo_program_is_the_table8_network():
    # table8 runs demo_ruleset(); the README and the golden circuit use the file
    assert parse(DEMO_PROGRAM.read_text(encoding="utf-8")) == demo_ruleset()


def _table8_row_by_row(shots, seed):
    """Table 8 rows as four separate calls per row would make them."""
    rows = []
    for deltas, printed in TABLE8:
        rs = demo_ruleset(deltas)
        truth = oracle(rs).p_true
        cp = compile_ruleset(rs)
        deviation = abs(truth - printed)
        rows.append([*map(str, deltas), *(f"{v:.5f}" for v in (
            truth, infer_exact(cp).p_true, infer_shots(cp, shots, seed).p_true,
            printed, deviation)), "MATCH" if deviation <= 0.02 else "DIVERGES"])
    return rows


def _table7_row_by_row(shots, seed):
    """Table 7's shot columns with the fact compiled afresh for each row."""
    return [[f"{v:.5f}" for v in (result.p_true, result.p_false)]
            for result in (infer_shots(compile_ruleset(RuleSet({"F": float(d)}, (), "F")),
                                       shots, seed)
                           for d in range(0, 101, 10))]


@pytest.mark.parametrize("shots", [1, 8192, 10**6])
def test_tables_from_one_compile_equal_the_row_by_row_reference(shots):
    for seed in range(21):
        assert cli.table8_rows(shots, seed) == _table8_row_by_row(shots, seed)
        assert ([row[6:] for row in cli.table7_rows(shots, seed)]
                == _table7_row_by_row(shots, seed))


def test_compile_command(tmp_path, capsys):
    program = tmp_path / "one.qrbs"
    program.write_text("fact F disbelief 50\ngoal F\n", encoding="utf-8")
    out = tmp_path / "one.circuit"
    assert main(["compile", str(program), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == (
        "qubits 1\nM(theta=0.785398) q0\nmeasure q0\n"
    )
    first = out.read_bytes()
    assert main(["compile", str(program), "--out", str(out)]) == 0
    assert out.read_bytes() == first  # idempotent


def test_compile_demo_has_five_preparations(demo_file, tmp_path):
    out = tmp_path / "demo.circuit"
    assert main(["compile", demo_file, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert sum(1 for line in lines if line.startswith("M(")) == 5


def test_compile_invalid_program_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.qrbs"
    bad.write_text("fact A\ngoal Q\n", encoding="utf-8")
    out = tmp_path / "bad.circuit"
    assert main(["compile", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,golden", [
    (["table8", "--seed", "7"], "table8_seed7.csv"),
    (["tables", "7", "--seed", "7"], "tables7_seed7.csv"),
])
@pytest.mark.parametrize("old_size", [100, 100_000])  # shorter, longer
def test_existing_out_file_is_left_holding_exactly_the_new_bytes(argv, golden, old_size,
                                                                  tmp_path):
    out = tmp_path / golden
    out.write_bytes(b"x" * old_size)
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()


def test_compile_over_a_longer_file_leaves_only_the_circuit(demo_file, tmp_path):
    fresh, stale = tmp_path / "fresh.circuit", tmp_path / "stale.circuit"
    stale.write_bytes(b"qubits 99\n" * 10_000)
    assert main(["compile", demo_file, "--out", str(fresh)]) == 0
    assert main(["compile", demo_file, "--out", str(stale)]) == 0
    assert stale.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("command", [["table8"], ["tables", "4"], ["compile", "PROGRAM"]])
def test_out_directory_exits_1_and_dev_null_exits_0(command, demo_file, tmp_path,
                                                    capsys):
    argv = [demo_file if arg == "PROGRAM" else arg for arg in command]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert main([*argv, "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out.startswith("wrote /dev/null")


def test_out_to_a_pipe_writes_the_file_bytes(tmp_path):
    # /dev/stdout is the pipe that subprocess reads: it cannot be truncated
    assert main(["tables", "4", "--out", str(tmp_path / "t4.csv")]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "qrbs", "tables", "4", "--out", "/dev/stdout"],
        capture_output=True, check=True)
    assert result.stdout == (tmp_path / "t4.csv").read_bytes() + b"wrote /dev/stdout\n"


def test_gatedemo_and(tmp_path):
    out = tmp_path / "and.csv"
    assert main(["gatedemo", "and", "--out", str(out), "--seed", "7"]) == 0
    rows = _read_rows(out)
    assert [row[2] for row in rows[1:]] == ["0", "0", "0", "1"]
    assert [row[0] for row in rows[1:]] == ["000", "010", "100", "111"]
    for row in rows[1:]:
        assert row[4] == "25.00000"
        assert abs(float(row[3]) - 25.0) <= 1.5


def test_gatedemo_or_truth_column(tmp_path):
    out = tmp_path / "or.csv"
    assert main(["gatedemo", "or", "--out", str(out), "--seed", "7"]) == 0
    rows = _read_rows(out)
    assert [row[2] for row in rows[1:]] == ["0", "1", "1", "1"]
    assert [row[0] for row in rows[1:]] == ["000", "011", "101", "111"]


def test_sampled_csv_outputs_byte_deterministic(tmp_path):
    for argv in (["table8"], ["gatedemo", "or", "--seed", "5"], ["tables", "7"]):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_gatedemo_four_shots_quantized(tmp_path):
    out = tmp_path / "and4.csv"
    assert main(["gatedemo", "and", "--shots", "4", "--seed", "3", "--out", str(out)]) == 0
    for row in _read_rows(out)[1:]:
        assert float(row[3]) % 25.0 == 0.0


def test_module_entry_point(demo_file):
    result = subprocess.run(
        [sys.executable, "-m", "qrbs", "run", demo_file],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "R p_true=0.468750" in result.stdout


def test_run_huge_shot_count_exits_0(demo_file, capsys):
    assert main(["run", demo_file, "--mode", "shots", "--shots", "100000000000"]) == 0
    assert "shots=100000000000" in capsys.readouterr().out


@pytest.mark.parametrize("shots", [10**8 + 1, 2**63 - 1])
def test_gatedemo_past_the_sampling_budget_exits_2(shots, tmp_path, capsys):
    out = tmp_path / "and.csv"
    assert main(["gatedemo", "and", "--shots", str(shots), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: sampling {shots} shots exceeds the "
                            "register-sampling budget of 100000000\n")
    assert captured.out == "" and not out.exists()


def _fresh_interpreter(script, *args):
    """stdout of ``script`` run by a new interpreter with ``args`` as argv[1:]."""
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, check=True).stdout


def test_shot_commands_leave_numpy_random_unloaded(demo_file, tmp_path):
    script = """
import sys
import numpy
if "numpy.random" in sys.modules:
    print("preloaded")
    raise SystemExit
from qrbs.cli import main
demo, out = sys.argv[1:]
codes = [main(["run", demo, "--mode", "shots", "--seed", "7"]),
         main(["tables", "7", "--out", out, "--seed", "7"]),
         main(["table8", "--out", out, "--seed", "7"])]
print(codes, "numpy.random" in sys.modules)
"""
    result = _fresh_interpreter(script, demo_file, str(tmp_path / "t.csv"))
    if result == "preloaded\n":
        pytest.skip("importing numpy alone loads numpy.random")
    assert result.splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, its unit on Linux")
def test_run_on_24_base_facts_peaks_below_128_mib(tmp_path):
    # 24 facts, 24 qubits: 2^24 worlds, a 2 MiB plane per qubit and a 16 MiB
    # mask of the goal's plane; 128 MiB of float64 weights per world would
    # break the bound, and so would one byte per world per plane, 384 MiB
    path = tmp_path / "facts24.qrbs"
    path.write_text("\n".join(f"fact F{i} disbelief {4 * i}" for i in range(24))
                    + "\ngoal F23\n", encoding="utf-8")
    script = """
import resource, sys
from qrbs.cli import main
code = main(["run", sys.argv[1], "--format", "jsonl"])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    lines = _fresh_interpreter(script, str(path)).splitlines()
    code, max_rss_kib = lines[-1].split()
    assert code == "0"
    assert json.loads(lines[0])["p_true"] == pytest.approx(oracle(parse(
        "fact F23 disbelief 92\ngoal F23\n")).p_true, abs=1e-12)
    assert int(max_rss_kib) < 128 * 1024


def _fill(template, demo_file, out):
    """``template`` with DEMO replaced by the demo program and OUT by ``out``."""
    return [demo_file if a == "DEMO" else str(out) if a == "OUT" else a for a in template]


_SAMPLING_COMMANDS = [
    ["run", "DEMO", "--mode", "shots"],
    ["tables", "7", "--out", "OUT"],
    ["table8", "--out", "OUT"],
    ["gatedemo", "and", "--out", "OUT"],
]


@pytest.mark.parametrize("command", _SAMPLING_COMMANDS)
def test_shot_count_past_int64_exits_1(command, demo_file, tmp_path, capsys):
    argv = _fill(command, demo_file, tmp_path / "x.csv")
    assert main(argv + ["--shots", str(10**30)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shots must be in [1, ")
    assert "Traceback" not in err


def test_validate_too_deep_nesting_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.qrbs"
    deep.write_text("fact a\nrule r: if " + "not " * 3000 + "a then b\ngoal b\n",
                    encoding="utf-8")
    assert main(["validate", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{deep}:2:")
    assert "nested deeper" in err and "Traceback" not in err


def _flat_and_chain(terms):
    return "fact a\nrule r: if " + " and ".join(["a"] * terms) + " then b\ngoal b\n"


def _reverse_rule_chain(rules):
    lines = ["fact f0 disbelief 30"]
    lines += [f"rule r{i}: if f{i} then f{i + 1}" for i in reversed(range(rules))]
    return "\n".join(lines + [f"goal f{rules}"]) + "\n"


@pytest.mark.parametrize("source,summary", [
    (_flat_and_chain(3000), "OK: 1 facts, 1 rules, goal b"),
    (_reverse_rule_chain(1500), "OK: 1 facts, 1500 rules, goal f1500"),
], ids=["3000-term-and", "1500-rules-reversed"])
def test_validate_far_past_the_recursion_limit_exits_0(source, summary, tmp_path,
                                                       capsys):
    path = tmp_path / "deep.qrbs"
    path.write_text(source, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == summary
    assert "Traceback" not in captured.err


def test_run_1500_rules_reversed_exits_0_and_orders_them(tmp_path, capsys):
    source = _reverse_rule_chain(1500)
    path = tmp_path / "chain.qrbs"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "f1500 p_true=0.793893 p_false=0.206107 method=exact\n"
    assert captured.err == ""
    order = [rule.name for rule in topo_order(parse(source))]
    assert order == [f"r{i}" for i in range(1500)]


def test_validate_non_ascii_digit_exits_1_at_its_position(tmp_path, capsys):
    path = tmp_path / "digit.qrbs"
    path.write_text("fact a disbelief ①\ngoal a\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:1:18: unexpected character '①'\n"


def test_run_flat_3000_term_rule_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.qrbs"
    path.write_text(_flat_and_chain(3000), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: program needs 3000 qubits; compiled programs may use at most 24\n"


def test_run_23_qubit_chain_prints_the_oracle_value(tmp_path, capsys):
    # 12 facts joined by 11 alternating and/or rules: 12 + 11 = 23 qubits
    lines = [f"fact f{i} disbelief {7 * i + 5}" for i in range(12)]
    previous = "f0"
    for i in range(1, 12):
        op = "and" if i % 2 else "or"
        lines.append(f"rule r{i}: if {previous} {op} f{i} then c{i}")
        previous = f"c{i}"
    source = "\n".join(lines + [f"goal {previous}"]) + "\n"
    path = tmp_path / "chain23.qrbs"
    path.write_text(source, encoding="utf-8")
    assert main(["run", str(path), "--format", "jsonl"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    p_true = json.loads(captured.out)["p_true"]
    assert p_true == pytest.approx(oracle(parse(source)).p_true, abs=1e-9)


@pytest.mark.parametrize("command", _SAMPLING_COMMANDS)
def test_negative_seed_exits_1(command, demo_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(_fill(command, demo_file, out) + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["run", "DEMO", "--shots", "abc"], "argument --shots: invalid int value: 'abc'"),
    (["run", "DEMO", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
    (["tables", "9", "--out", "OUT"], "argument which: invalid choice: 9"),
], ids=["no-command", "shots-abc", "mode-bogus", "tables-9"])
def test_usage_error_returns_1(argv, message, demo_file, tmp_path, capsys):
    assert main(_fill(argv, demo_file, tmp_path / "x.csv")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qrbs")
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["run", "--help"]])
def test_help_returns_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qrbs") and captured.err == ""


# --- one parser per process -------------------------------------------------


def _cli_round(demo_file, tmp_path):
    """The commands of one round of the benchmark's cli workload, plus help,
    a usage error and gatedemo."""
    runs = [["run", demo_file, "--format", fmt, *mode]
            for mode in (["--mode", "exact"], ["--mode", "shots", "--seed", "7"])
            for fmt in ("human", "csv", "jsonl")]
    return runs + [
        ["compile", demo_file, "--out", str(tmp_path / "demo.circuit")],
        ["tables", "7", "--out", str(tmp_path / "t7.csv"), "--seed", "7"],
        ["table8", "--out", str(tmp_path / "t8.csv"), "--seed", "7"],
        ["gatedemo", "and", "--out", str(tmp_path / "and.csv"), "--seed", "7"],
        ["gatedemo", "or", "--out", str(tmp_path / "or.csv"), "--seed", "7"],
        ["run", "--help"],
        ["tables", "9", "--out", str(tmp_path / "t9.csv")],
    ]


def _outputs(argvs, tmp_path, capsys):
    results = []
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        results.append((argv, code, captured.out, captured.err, files))
    return results


def test_shared_parser_output_matches_a_fresh_parser(demo_file, tmp_path, monkeypatch,
                                                     capsys):
    argvs = _cli_round(demo_file, tmp_path)
    shared = _outputs(argvs + argvs, tmp_path, capsys)
    for path in tmp_path.iterdir():
        if str(path) != demo_file:
            path.unlink()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _outputs(argvs + argvs, tmp_path, capsys)
    assert [code for _, code, *_ in fresh] == ([0] * 12 + [1]) * 2
    assert shared == fresh


def test_nine_calls_build_the_parser_once(demo_file, tmp_path, monkeypatch, capsys):
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        codes = [main(argv) for argv in _cli_round(demo_file, tmp_path)[:9]]
    finally:
        cli._parser.cache_clear()
    assert codes == [0] * 9
    assert len(builds) == 1


def _mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


_PROGRAMS = ["demo.qrbs", "bad.qrbs", "big.qrbs", "missing.qrbs", "."]
_PATHS = {*_PROGRAMS, "out.csv", "nodir/out.csv"}  # names under tmp_path
_PROGRAM = _mostly(st.just("demo.qrbs"), st.sampled_from(_PROGRAMS[1:]))
_OUT = _mostly(st.just("out.csv"), st.sampled_from(["nodir/out.csv", "."]))
# per command: its positional arguments and its options besides --out
_COMMANDS = {
    "run": ([_PROGRAM], ["--mode", "--format", "--shots", "--seed"]),
    "validate": ([_PROGRAM], []),
    "compile": ([_PROGRAM], []),
    "tables": ([_mostly(st.sampled_from("4567"), st.just("9"))], ["--shots", "--seed"]),
    "table8": ([], ["--shots", "--seed"]),
    "gatedemo": ([_mostly(st.sampled_from(["and", "or"]), st.just("xor"))],
                 ["--shots", "--seed"]),
    "bogus": ([], []),
}
_OPTION_VALUES = {
    "--mode": _mostly(st.sampled_from(["exact", "shots"]), st.just("bogus")),
    "--format": _mostly(st.sampled_from(["human", "csv", "jsonl"]), st.just("xml")),
    "--shots": _mostly(st.integers(1, 10**4), st.sampled_from([-1, 0, "abc"])),
    "--seed": _mostly(st.integers(0, 2**70), st.sampled_from([-1, "x"])),
}


@st.composite
def _argvs(draw):
    """A command with its positionals and options, each value valid three
    times in four; now and then one token that does not belong, or nothing."""
    command = draw(st.sampled_from([None, *_COMMANDS]))
    if command is None:
        return []
    positionals, options = _COMMANDS[command]
    argv = [command] + [draw(positional) for positional in positionals]
    if command in ("compile", "tables", "table8", "gatedemo"):
        argv += ["--out", draw(_OUT)]
    for flag in draw(st.lists(st.sampled_from(options), unique=True)) if options else []:
        argv += [flag, str(draw(_OPTION_VALUES[flag]))]
    argv += draw(_mostly(st.just([]), st.sampled_from([["-h"], ["--shots"], ["extra"]])))
    return argv


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_main_returns_a_status_for_any_arguments(argv, tmp_path, demo_file):
    (tmp_path / "bad.qrbs").write_text("fact A\ngoal Q\n", encoding="utf-8")
    (tmp_path / "big.qrbs").write_text(
        "\n".join(f"fact F{i}" for i in range(30)) + "\ngoal F0\n", encoding="utf-8")
    argv = [str(tmp_path / a) if a in _PATHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
