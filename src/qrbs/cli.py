"""Command-line front end.

Commands: run, validate, compile, tables, table8, gatedemo. ``main``
returns the exit status and never raises ``SystemExit``: 0 on success
(``-h`` included), 1 on a usage error or a parse/validation problem
(diagnostics on stderr), 2 when a program exceeds the simulator or
enumeration budget. ``main`` may be called many times in one process; it
builds its argument parser once, on first use.

All CSV output uses '.' as the decimal separator, LF line endings and
fixed 5-decimal formatting, so files are byte-identical across runs given
the same inputs, shots and seed. Commands that sample echo their seed both
on stdout and in a leading comment line of the CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

from .compiler import BudgetError, circuit_to_text, compile_ruleset, rq_gate_demo
from .inference import infer_exact, infer_shots, oracle_rows, shots_rows
from .reference import TABLE8, demo_ruleset
from .ruledsl import DslError, RuleSet, parse
from .uncertainty import (
    delta_to_alpha,
    fact_amplitudes,
    qualitative_label,
)

DEFAULT_SHOTS = 8192
DEFAULT_SEED = 0
# largest gap between the oracle and the reference value of a Table 8 row
# that is flagged MATCH
DIVERGENCE_THRESHOLD = 0.02


def _fmt(value: float) -> str:
    return f"{value:.5f}"


def _load_ruleset(path: str) -> RuleSet:
    # utf-8-sig drops the byte-order mark some editors save first
    text = Path(path).read_text(encoding="utf-8-sig")
    try:
        return parse(text)
    except DslError as err:
        err.source_path = path
        raise


def _write_out(path: str, text: str) -> None:
    """Make the file at ``path`` hold exactly ``text``, UTF-8 encoded.

    The file is not opened with O_TRUNC: on ext4, closing a file that was
    truncated to zero starts its writeback, and the rewrite waits for it.
    The new bytes overwrite the old ones, and the file is cut to their
    length only when it was longer, so an --out that cannot be truncated,
    such as /dev/null or a pipe, still works.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # a pipe may take fewer bytes than it is given
            rest = rest[os.write(fd, rest):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_csv(path: str, header: list[str], rows: list[list[str]],
               comment: str | None = None) -> None:
    buffer = io.StringIO()
    if comment is not None:
        buffer.write(f"# {comment}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_out(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Table generators (pure; the commands only format and write)


def table4_rows() -> list[list[str]]:
    rows = []
    for delta in (0, 25, 50, 75, 100):
        alpha = delta_to_alpha(delta)
        theta = fact_amplitudes(delta).theta
        rows.append([str(delta), str(int(round(math.degrees(alpha)))),
                     _fmt(alpha), _fmt(theta)])
    return rows


def table5_rows() -> list[list[str]]:
    rows = []
    for k in range(19):
        alpha = k * math.pi / 18.0
        theta = (math.pi - alpha) / 2.0
        mod0, mod1 = math.sin(theta), math.cos(theta)
        rows.append([_fmt(alpha), _fmt(theta), _fmt(mod0), _fmt(mod1),
                     _fmt(mod0**2), _fmt(mod1**2), _fmt(mod0**2 + mod1**2)])
    return rows


def table6_rows() -> list[list[str]]:
    rows = []
    for delta in range(0, 101, 10):
        amps = fact_amplitudes(delta)
        rows.append([
            str(delta),
            str(100 - delta),
            qualitative_label(delta),
            _fmt(amps.theta),
            _fmt(amps.amp_true),
            _fmt(amps.amp_false),
            _fmt(amps.p_true),
            _fmt(amps.p_false),
            _fmt(amps.p_true + amps.p_false),
        ])
    return rows


def table7_rows(shots: int, seed: int) -> list[list[str]]:
    """Table 7: one fact at disbelief 0, 10, ..., 100.

    The single-fact program is compiled once. The shots column is one call
    of ``shots_rows`` on the exact marginals of all rows, which come from
    one ``CompiledProgram.goal_marginals`` call, so each row's shots are
    the draw ``infer_shots`` would make on that row's program.
    """
    cp = compile_ruleset(RuleSet({"F": 0.0}, (), "F"))
    deltas = range(0, 101, 10)
    sampled = shots_rows(cp.goal, cp.goal_marginals([[d] for d in deltas]), shots, seed)
    rows = []
    for delta, shot in zip(deltas, sampled):
        amps = fact_amplitudes(delta)
        rows.append([
            str(delta),
            _fmt(amps.p_true),
            _fmt(amps.p_false),
            _fmt(amps.p_true + amps.p_false),
            _fmt(amps.amp_true),
            _fmt(amps.amp_false),
            _fmt(shot.p_true),
            _fmt(shot.p_false),
        ])
    return rows


def table8_rows(shots: int, seed: int) -> list[list[str]]:
    """Table 8: the demonstration network at each of its 28 disbelief rows.

    The network's structure is fixed, so it is compiled once and enumerated
    once, and each column takes all rows in one call: the oracle column
    ``oracle_rows``, which enumerates the worlds once and weighs them for
    each row in turn,
    the exact column the compiled program's ``goal_marginals`` and the
    shots column ``shots_rows`` on the exact values, which seeds one
    generator and replays its uniforms for each row. Every value equals
    what a per-row oracle, compile, ``infer_exact`` and ``infer_shots``
    would give. A row is flagged MATCH when its oracle value is within
    DIVERGENCE_THRESHOLD of the reference value, and DIVERGES otherwise.
    """
    rs = demo_ruleset()
    cp = compile_ruleset(rs)
    deltas = [row for row, _ in TABLE8]
    truths = oracle_rows(rs, deltas)
    exacts = cp.goal_marginals(deltas)
    sampled = shots_rows(cp.goal, exacts, shots, seed)
    rows = []
    for (row, printed), truth, exact, shot in zip(TABLE8, truths, exacts, sampled):
        deviation = abs(truth.p_true - printed)
        flag = "MATCH" if deviation <= DIVERGENCE_THRESHOLD else "DIVERGES"
        rows.append([
            *[str(d) for d in row],
            _fmt(truth.p_true),
            _fmt(exact),
            _fmt(shot.p_true),
            _fmt(printed),
            _fmt(deviation),
            flag,
        ])
    return rows


def gatedemo_rows(which: str, shots: int, seed: int) -> list[list[str]]:
    rows = []
    for row in rq_gate_demo(which, shots=shots, seed=seed):
        a, b = row.input_bits
        measured = row.percentage
        estimated = 25.0
        low, high = sorted((measured, estimated))
        precision = low / high if high > 0 else 1.0
        rows.append([
            f"{a}{b}{row.output_bit}",
            f"{a}{b}",
            str(row.output_bit),
            _fmt(measured),
            _fmt(estimated),
            _fmt(precision),
        ])
    return rows


# ---------------------------------------------------------------------------
# Commands


def cmd_run(args: argparse.Namespace) -> int:
    rs = _load_ruleset(args.input)
    cp = compile_ruleset(rs)
    if args.mode == "exact":
        result = infer_exact(cp)
    else:
        result = infer_shots(cp, args.shots, args.seed)

    record = vars(result)  # the result's fields, in declaration order
    if args.format == "jsonl":
        print(json.dumps(record, sort_keys=True))
        return 0
    shown = {**record, "p_true": f"{result.p_true:.6f}",
             "p_false": f"{result.p_false:.6f}"}
    if args.format == "csv":
        # csv writes None as ""
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            [shown.keys(), shown.values()])
    else:  # human
        goal = shown.pop("goal")
        print(goal, *(f"{key}={value}" for key, value in shown.items()
                      if value is not None))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    rs = _load_ruleset(args.input)
    print(f"OK: {len(rs.base_facts)} facts, {len(rs.rules)} rules, "
          f"goal {rs.goal}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    rs = _load_ruleset(args.input)
    _write_out(args.out, circuit_to_text(compile_ruleset(rs).circuit))
    print(f"wrote {args.out}")
    return 0


# each reference table's CSV header and rows function; only table 7 samples
_TABLES = {
    4: (["DELTA (Subjective Disbelief)", "ALPHA (Degrees)", "ALPHA (Radians)",
         "THETA (Radians)"], table4_rows),
    5: (["ALPHA", "THETA", "Mod 0", "Mod 1", "Prob (0)", "Prob (1)",
         "ProbTotal"], table5_rows),
    6: (["Subjective Disbelief", "Subjective Credibility",
         "Subjective Classification", "THETA", "Ket 0", "Ket 1",
         "Prob (True)", "Prob (False)", "Total Probability"], table6_rows),
    7: (["DELTA", "Prob (True)", "Prob (False)", "Total Probability",
         "Amplitude (Ket 0)", "Amplitude (Ket 1)", "Prob (True) shots",
         "Prob (False) shots"], table7_rows),
}


def cmd_tables(args: argparse.Namespace) -> int:
    header, rows_of = _TABLES[args.which]
    if rows_of is table7_rows:
        rows = rows_of(args.shots, args.seed)
        comment = f"shots={args.shots} seed={args.seed}"
    else:
        rows, comment = rows_of(), None
    _write_csv(args.out, header, rows, comment)
    suffix = f" ({comment})" if comment else ""
    print(f"wrote {args.out}{suffix}")
    return 0


def cmd_table8(args: argparse.Namespace) -> int:
    header = ["DELTA A", "DELTA B", "DELTA C", "DELTA D", "DELTA E",
              "Prob (True) oracle", "Prob (True) exact", "Prob (True) shots",
              "Prob (True) reference", "Deviation", "Flag"]
    rows = table8_rows(args.shots, args.seed)
    comment = (f"shots={args.shots} seed={args.seed} "
               f"divergence_threshold={DIVERGENCE_THRESHOLD}")
    _write_csv(args.out, header, rows, comment)
    diverging = sum(1 for row in rows if row[-1] == "DIVERGES")
    print(f"wrote {args.out} ({comment}); "
          f"{len(rows) - diverging} rows MATCH, {diverging} DIVERGE")
    return 0


def cmd_gatedemo(args: argparse.Namespace) -> int:
    header = ["Input Vector", "Input Truth Table", "Output Truth Table",
              "Measured Percentage", "Estimated Percentage", "Precision"]
    rows = gatedemo_rows(args.which, args.shots, args.seed)
    comment = f"block={args.which} shots={args.shots} seed={args.seed}"
    _write_csv(args.out, header, rows, comment)
    print(f"wrote {args.out} ({comment})")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrbs",
        description="Rule-based inference under subjective disbelief, "
                    "compiled to reversible quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                       help=f"samples to draw (default {DEFAULT_SHOTS})")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED})")

    p_run = sub.add_parser("run", help="infer the goal probability of a program")
    p_run.add_argument("input", help="path to a .qrbs program")
    p_run.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p_run.add_argument("--format", choices=("human", "csv", "jsonl"),
                       default="human")
    add_sampling(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a program")
    p_val.add_argument("input")
    p_val.set_defaults(func=cmd_validate)

    p_comp = sub.add_parser("compile", help="write the compiled circuit as text")
    p_comp.add_argument("input")
    p_comp.add_argument("--out", required=True)
    p_comp.set_defaults(func=cmd_compile)

    p_tab = sub.add_parser("tables", help="regenerate a reference table as CSV")
    p_tab.add_argument("which", type=int, choices=sorted(_TABLES))
    p_tab.add_argument("--out", required=True)
    add_sampling(p_tab)
    p_tab.set_defaults(func=cmd_tables)

    p_t8 = sub.add_parser(
        "table8",
        help="compare the demo network against the reference results",
    )
    p_t8.add_argument("--out", required=True)
    add_sampling(p_t8)
    p_t8.set_defaults(func=cmd_table8)

    p_demo = sub.add_parser("gatedemo", help="drive one connective block "
                            "with superposed inputs")
    p_demo.add_argument("which", choices=("and", "or"))
    p_demo.add_argument("--out", required=True)
    add_sampling(p_demo)
    p_demo.set_defaults(func=cmd_gatedemo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Sharing one parser is safe: parse_args reads its actions and defaults
    # but never writes them, and help text gets a fresh formatter, and with
    # it the current terminal width, each time it is printed.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 0 after -h and 2 after printing a usage error; 2 is
        # the budget status here, so a usage error returns 1
        return 1 if exit_.code else 0
    try:
        return args.func(args)
    except DslError as err:
        path = getattr(err, "source_path", "<input>")
        print(f"{path}:{err}", file=sys.stderr)
        return 1
    except BudgetError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
