"""Span tracing of qfrt's public functions, from outside the package.

Each traced function is rebound where its caller looks it up (for example
``qfrt.cli.fractional_oracle`` and ``qfrt.fractional.fractional_oracle``)
with a wrapper that records a span: name, start, end, parent and the scope
(set-up or op block) it ran in. Spans stay in memory; :meth:`Tracer.dump`
writes them when the run ends. Nothing under ``src/`` changes.

Everything runs in one thread and nothing waits on another thread or
process, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


def _circuit_counts(args, result):
    return {"gates": len(args[0].ops)}


def _run_counts(args, result):
    ops = args[0].ops
    return {
        "gates": len(ops),
        "payload_bytes": sum(op.matrix.nbytes for op in ops if op.matrix is not None),
    }


def _export_counts(args, result):
    return {"bytes": len(result.encode())}


#: Counts computed from the circuit or text a call takes or returns. They
#: repeat exactly for the same inputs and are not timings.
COMPUTED = {
    "circuits.circuit_unitary": (("gates",), _circuit_counts),
    "simulator.run": (("gates", "payload_bytes"), _run_counts),
    "qasm.export_circuit": (("bytes",), _export_counts),
}

#: (module under ``qfrt``, attribute, span name). A function imported by
#: name into another module is rebound in each module that calls it.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "make_transform", "base_transforms.make_transform"),
    ("base_transforms", "make_transform", "base_transforms.make_transform"),
    ("cli", "fractional_oracle", "fractional.fractional_oracle"),
    ("fractional", "fractional_oracle", "fractional.fractional_oracle"),
    ("cli", "shih_coefficients", "fractional.shih_coefficients"),
    ("fractional", "shih_coefficients", "fractional.shih_coefficients"),
    ("cli", "build_qfru_circuit", "fractional.build_qfru_circuit"),
    ("fractional", "build_qfru_circuit", "fractional.build_qfru_circuit"),
    ("cli", "build_qfrin_circuit", "fractional.build_qfrin_circuit"),
    ("fractional", "build_qfrin_circuit", "fractional.build_qfrin_circuit"),
    ("cli", "extract_data_block", "fractional.extract_data_block"),
    ("fractional", "extract_data_block", "fractional.extract_data_block"),
    ("fractional", "multiplexed_powers", "circuits.multiplexed_powers"),
    ("circuits", "multiplexed_powers", "circuits.multiplexed_powers"),
    ("cli", "circuit_unitary", "circuits.circuit_unitary"),
    ("circuits", "circuit_unitary", "circuits.circuit_unitary"),
    ("linalg", "is_unitary", "linalg.is_unitary"),
    ("linalg", "matrix_power", "linalg.matrix_power"),
    ("linalg", "max_norm_diff", "linalg.max_norm_diff"),
    ("simulator", "run", "simulator.run"),
    ("qasm", "export_circuit", "qasm.export_circuit"),
    ("qasm", "import_circuit", "qasm.import_circuit"),
)

#: Every span name, in report order.
LAYERS = tuple(dict.fromkeys(name for _, _, name in TRACED))


@dataclass
class Span:
    name: str
    scope: str
    parent: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around the functions in :data:`TRACED` while installed.

    ``scope`` labels the spans opened from now on; ``paused`` turns
    recording off, for work the benchmark does on its own behalf (output
    checks, reference oracles).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.scope = ""
        self.paused = False
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for module_name, attr, name in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        counts = COMPUTED[name][1] if name in COMPUTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, self.scope, parent, perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """scope -> span name -> {"calls", "self_s", computed counts...}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span, children in zip(self.spans, child_time):
            row = out[span.scope][span.name]
            row["calls"] += 1
            row["self_s"] += span.end - span.start - children
            for key, value in span.counts.items():
                row[key] += value
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "name": s.name, "scope": s.scope,
                    "start": s.start, "end": s.end, **s.counts,
                }) + "\n")
