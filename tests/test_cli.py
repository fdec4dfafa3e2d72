import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qrbs.cli import main
from qrbs.reference import demo_ruleset
from qrbs.ruledsl import parse, to_source, topo_order

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


@pytest.mark.parametrize("command", [
    ["run", "DEMO", "--mode", "shots"],
    ["tables", "7", "--out", "OUT"],
    ["table8", "--out", "OUT"],
    ["gatedemo", "and", "--out", "OUT"],
])
def test_shot_count_past_int64_exits_1(command, demo_file, tmp_path, capsys):
    argv = [demo_file if a == "DEMO" else str(tmp_path / "x.csv") if a == "OUT" else a
            for a in command]
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
    assert err == "error: program needs 3000 qubits; the dense simulator supports 24\n"
