"""Per-block and per-gate-kind simulator profile of a circuit workload's op.

Block boundaries come from the lengths of the public builders (R1 =
``build_oracle_r1``, D1 = ``build_diffusion_d1``, R2 =
``build_cost_oracle_r2``, D2 = ``build_d2``; ``prep`` is what precedes
the first R1).  The slices run through the public ``run`` on one state
and per-kind times through ``apply_gate``; both final states must equal
the one-shot ``run`` of the whole circuit.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import numpy as np

BLOCKS = ("prep", "R1", "D1", "R2", "D2")
KINDS = ("H", "X", "CX", "MCX", "MCP")


def block_plan(pkg, layout, phases, q1: int, q2: int, total: int) -> list[tuple[str, int]]:
    """(block name, gate count) in circuit order for a q1, q2 two-step circuit of `total` gates."""
    r1 = len(pkg.build_oracle_r1(layout))
    d1 = len(pkg.build_diffusion_d1(layout))
    r2 = len(pkg.build_cost_oracle_r2(layout, phases))
    d2 = len(pkg.build_d2(layout, q1))
    prep = total - q1 * (r1 + d1) - q2 * (r2 + d2)
    if prep < 0:
        raise ValueError(f"builder lengths exceed the {total}-gate circuit")
    return [("prep", prep)] + [("R1", r1), ("D1", d1)] * q1 + [("R2", r2), ("D2", d2)] * q2


def profile(pkg, n: int, dataset, q1: int, q2: int, reps: int) -> tuple[dict[str, float], list[str]]:
    """Block and kind metrics (medians over `reps`) and any state-mismatch errors."""
    layout = pkg.HoboLayout.for_cities(n)
    phases = pkg.load_phases(dataset)
    circuit = pkg.build_two_step(layout, phases, pkg.Schedule(q1, q2))
    plan = block_plan(pkg, layout, phases, q1, q2, len(circuit))
    pieces, start = [], 0
    for name, count in plan:
        pieces.append((name, pkg.Circuit(layout, circuit.gates[start : start + count])))
        start += count
    one_shot = pkg.run(circuit, pkg.new_state(layout.width)).amplitudes

    errors = []
    block_s: dict[str, list[float]] = defaultdict(list)
    kind_s: dict[str, list[float]] = defaultdict(list)
    for _ in range(reps):
        state = pkg.new_state(layout.width)
        spent: dict[str, float] = Counter()
        for name, piece in pieces:
            t0 = time.perf_counter()
            pkg.run(piece, state)
            spent[name] += time.perf_counter() - t0
        if not np.array_equal(state.amplitudes, one_shot):
            errors.append("block-sliced run differs from the one-shot run")
        for name in BLOCKS:
            block_s[name].append(spent[name])

        state = pkg.new_state(layout.width)
        spent = Counter()
        for gate in circuit.gates:
            t0 = time.perf_counter()
            pkg.apply_gate(state, gate)
            spent[gate.kind.value] += time.perf_counter() - t0
        if not np.array_equal(state.amplitudes, one_shot):
            errors.append("gate-by-gate apply_gate differs from the one-shot run")
        for kind in KINDS:
            kind_s[kind].append(spent[kind])

    block_gates = Counter()
    for name, count in plan:
        block_gates[name] += count
    kind_gates = Counter(g.kind.value for g in circuit.gates)
    metrics = {}
    for name in BLOCKS:
        metrics[f"simulator.block.{name}_ms"] = 1e3 * statistics.median(block_s[name])
        metrics[f"simulator.block.{name}.gates"] = block_gates[name]
    for kind in KINDS:
        gates = kind_gates[kind]
        metrics[f"simulator.kind.{kind}.us_per_gate"] = 1e6 * statistics.median(kind_s[kind]) / gates if gates else 0.0
        metrics[f"simulator.kind.{kind}.gates"] = gates
    return metrics, errors


def empty() -> dict[str, float]:
    """The profile's metrics for a workload that simulates no gates."""
    return {name: 0.0 for name in profile_names()}


def profile_names() -> list[str]:
    names = []
    for name in BLOCKS:
        names += [f"simulator.block.{name}_ms", f"simulator.block.{name}.gates"]
    for kind in KINDS:
        names += [f"simulator.kind.{kind}.us_per_gate", f"simulator.kind.{kind}.gates"]
    return names
