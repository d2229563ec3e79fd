"""Span recorder for the traced run, and per-operation layer summaries.

Spans are kept in memory and written out once, when the run ends.  The
recorder wraps, at runtime, every function that the ``tsp_qsearch.cli``
namespace imports from one of the layer modules (found by its
``__module__``), so a refactor that changes which functions the CLI
calls is still attributed to the right layer.  Only the outermost layer
call is timed: a wrapped function that calls another wrapped function
records one span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

PACKAGE = "tsp_qsearch"
LAYERS = ("core", "circuits", "simulator", "matrix_model")
AMPLITUDE_BYTES = 16  # complex128


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced run: name, start, end, parent span index and op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        self._in_layer = False

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def layer_call(self, fn, name: str, counter, args, kwargs):
        if self._in_layer:
            return fn(*args, **kwargs)
        self._in_layer = True
        try:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, kwargs, result)
            return result
        finally:
            self._in_layer = False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record)) + "\n")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _bytes_touched(gate, width: int) -> int:
    # Computed, not measured: amplitudes a gate reads and writes once
    # each.  H and the X family address both target halves of the
    # control subspace; MCP only the half with the target set.
    addressed = 2 ** (width - len(gate.controls))
    if gate.kind.value == "MCP":
        addressed //= 2
    return 2 * AMPLITUDE_BYTES * addressed


def _count_run(args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    width = circuit.layout.width
    return {
        "gates": len(circuit.gates),
        "x_gates": sum(g.kind.value == "X" for g in circuit.gates),
        "bytes": sum(_bytes_touched(g, width) for g in circuit.gates),
    }


def _count_new_state(args, kwargs, result):
    return {"state_bytes": AMPLITUDE_BYTES * 2 ** _arg(args, kwargs, 0, "width")}


def _count_iterations(position: int, name: str):
    return lambda args, kwargs, result: {"iterations": _arg(args, kwargs, position, name)}


def _count_built(args, kwargs, result):
    return {"gates_built": len(result.gates)} if hasattr(result, "gates") else {}


# Counts recorded at the boundary, from arguments and results only.
COUNTERS = {
    "simulator.run": _count_run,
    "simulator.new_state": _count_new_state,
    "matrix_model.evolve": _count_iterations(1, "t_max"),
    "matrix_model.state_at": _count_iterations(1, "t"),
}


def instrument(cli, recorder: Recorder):
    """Wrap the layer functions in `cli`'s namespace; return a function that undoes it."""
    originals = {
        name: obj
        for name, obj in vars(cli).items()
        if callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith(PACKAGE + ".")
        and obj.__module__.rpartition(".")[2] in LAYERS
    }
    for name, fn in originals.items():
        span_name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        counter = COUNTERS.get(span_name)
        if counter is None and span_name.startswith("circuits."):
            counter = _count_built

        def traced(*args, _fn=fn, _name=span_name, _counter=counter, **kwargs):
            return recorder.layer_call(_fn, _name, _counter, args, kwargs)

        setattr(cli, name, functools.wraps(fn)(traced))

    def restore():
        for name, fn in originals.items():
            setattr(cli, name, fn)

    return restore


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def op_summaries(recorder: Recorder) -> list[dict[str, float]]:
    """Per traced op: its duration, self time per layer, time per function and counts.

    Keys: ``op`` (op duration), ``<layer>`` (self seconds of the layer;
    ``cli`` is the self time of the ``cli.<command>`` spans), ``<span
    name>`` (seconds in that function), ``<layer>.calls`` and
    ``<counter>`` totals (``state_bytes`` is the largest state).
    """
    own = self_seconds(recorder.spans)
    by_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(recorder.spans, own):
        summary = by_op[s.op]
        if s.parent is None:
            summary["op"] += s.seconds
            continue
        layer = s.name.partition(".")[0]
        summary[layer] += self_s
        if layer != "cli":
            summary[s.name] += s.seconds
            summary[f"{layer}.calls"] += 1
        for key, value in s.counts.items():
            if key == "state_bytes":
                summary[key] = max(summary[key], value)
            else:
                summary[key] += value
        if "gates_built" in s.counts:
            summary["circuits.build"] += s.seconds
    return [dict(by_op[op]) for op in sorted(by_op)]
