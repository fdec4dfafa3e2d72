"""Spans around every call into a qrbs layer, for the traced run.

``Tracer.install`` replaces each layer function named in LAYERS, in every
loaded ``qrbs`` module that refers to it, with a wrapper that records a
span: (id, name, start_ns, end_ns, parent id, operation id, extra). Calls
that qrbs makes between its own modules are therefore traced too, so
``infer_shots`` shows its ``statevec.run`` and ``statevec.sample`` as
children. Spans stay in memory until ``write`` dumps them as JSONL.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np


def _compiled(cp: Any) -> tuple[int, int]:
    return cp.circuit.n_qubits, len(cp.circuit.ops)


def _state(state: Any) -> tuple[int, int]:
    return int(np.count_nonzero(state.amps != 0)), state.amps.nbytes  # != 0 is faster on complex


# (module, function, span name, extra taken from the result)
LAYERS: tuple[tuple[str, str, str, Callable[[Any], Any] | None], ...] = (
    ("ruledsl", "parse", "ruledsl.parse", None),
    ("ruledsl", "validate", "ruledsl.validate", None),
    ("compiler", "compile_ruleset", "compiler.compile", _compiled),
    ("compiler", "circuit_to_text", "compiler.export", None),
    ("compiler", "circuit_from_text", "compiler.import", None),
    ("statevec", "run", "statevec.run", _state),
    ("statevec", "marginal_prob_one", "statevec.marginal", None),
    ("statevec", "sample", "statevec.sample", None),
    ("inference", "infer_exact", "inference.exact", None),
    ("inference", "infer_shots", "inference.shots", None),
    ("inference", "oracle", "inference.oracle", lambda r: r.enumerated_assignments),
    ("cli", "main", "cli", None),  # named cli.<command> from its argv
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._paused = False

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qrbs" or n.startswith("qrbs.")]
        for module, function, name, extra in LAYERS:
            original = getattr(sys.modules[f"qrbs.{module}"], function)
            traced = self.wrap(name, original, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)

    def wrap(self, name: str, fn: Callable, extra: Callable[[Any], Any] | None = None
             ) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._paused:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
            label = f"cli.{args[0][0]}" if name == "cli" else name
            self.spans.append((span_id, label, start, end, parent, self.op,
                               extra(result) if extra else None))
            return result

        return traced

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op, extra in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "extra": extra,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: the median over calls of each span's duration.

        A layer the workload never calls reads 0.
        """
        ms: dict[str, list[float]] = defaultdict(list)
        extras: dict[str, list[tuple[int, Any]]] = defaultdict(list)
        for _, name, start, end, _, _, extra in self.spans:
            ms[name].append((end - start) / 1e6)
            if extra is not None:
                extras[name].append((end - start, extra))

        def median(values: list[float]) -> float:
            return float(statistics.median(values)) if values else 0.0

        compiled = extras["compiler.compile"]
        states = extras["statevec.run"]
        oracle = extras["inference.oracle"]
        oracle_ns = sum(ns for ns, _ in oracle)
        metrics = {
            "ruledsl.parse_ms": (median(ms["ruledsl.parse"]), "ms"),
            "ruledsl.validate_ms": (median(ms["ruledsl.validate"]), "ms"),
            "compiler.compile_ms": (median(ms["compiler.compile"]), "ms"),
            "compiler.qubits": (median([q for _, (q, _) in compiled]), "count"),
            "compiler.gates": (median([g for _, (_, g) in compiled]), "count"),
            "compiler.export_ms": (median(ms["compiler.export"]), "ms"),
            "compiler.import_ms": (median(ms["compiler.import"]), "ms"),
            "statevec.run_ms": (median(ms["statevec.run"]), "ms"),
            "statevec.ns_per_support_amp": (
                median([ns / nnz for ns, (nnz, _) in states]), "ns"),
            "statevec.state_mb": (median([b / 2**20 for _, (_, b) in states]), "MiB"),
            "statevec.marginal_ms": (median(ms["statevec.marginal"]), "ms"),
            "statevec.sample_ms": (median(ms["statevec.sample"]), "ms"),
            "inference.exact_ms": (median(ms["inference.exact"]), "ms"),
            "inference.shots_ms": (median(ms["inference.shots"]), "ms"),
            "inference.oracle_ms": (median(ms["inference.oracle"]), "ms"),
            "inference.worlds_per_s": (
                sum(n for _, n in oracle) / (oracle_ns / 1e9) if oracle_ns else 0.0, "1/s"),
        }
        for command in ("run", "compile", "tables", "table8"):
            metrics[f"cli.{command}_ms"] = (median(ms[f"cli.{command}"]), "ms")
        return metrics
