"""Gate-level circuit builders for the two-stage tour search.

The gate set is deliberately small: Hadamard, NOT, controlled NOT,
multi-controlled NOT, and multi-controlled phase, all with positive
controls only.  Negative controls are realized by NOT conjugation.
Multi-controlled gates are kept atomic; no decomposition into a basis
gate set is performed, so the depth metric counts every gate as one
unit.

Builder overview for an n-city layout:

* ``build_oracle_r1`` flips the phase of exactly the feasible tour
  bitstrings via phase kickback on the marker qubit (held in the minus
  state), computing validity and uniqueness ancillas and uncomputing
  them in reverse order.
* ``build_diffusion_d1`` reflects the main register about the uniform
  superposition.
* ``build_cost_oracle_r2`` imprints each tour's cost phase on its basis
  state with one conjugated multi-controlled phase gate per tour.
* ``build_d2`` reflects about the feasible-tour superposition prepared
  by the first stage, by conjugating a zero reflection with that
  preparation circuit.
* ``build_g2`` is one second-stage iteration: the cost oracle, then
  that diffusion.
* ``build_two_step`` chains marker preparation, the Hadamard layer, q1
  first-stage iterations and q2 second-stage iterations.
* ``assemble_two_step`` chains the same from G1 and G2 circuits that
  were already built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

from .core import HoboLayout, PhaseAssignment, Schedule


class GateKind(str, Enum):
    H = "H"
    X = "X"
    CX = "CX"
    MCX = "MCX"
    MCP = "MCP"


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    controls: tuple[int, ...]
    target: int
    phase: float = 0.0

    def __post_init__(self):
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate controls in {self}")
        if self.target in self.controls:
            raise ValueError(f"target {self.target} is also a control in {self}")
        if self.kind in (GateKind.H, GateKind.X) and self.controls:
            raise ValueError(f"{self.kind.value} takes no controls")
        if self.kind is GateKind.CX and len(self.controls) != 1:
            raise ValueError("CX takes exactly one control")
        if self.kind is GateKind.MCX and not self.controls:
            raise ValueError("MCX needs at least one control")
        if not -2 * math.pi < self.phase <= 2 * math.pi:
            raise ValueError(f"phase {self.phase} outside (-2*pi, 2*pi]")

    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)


def h(target: int) -> Gate:
    return Gate(GateKind.H, (), target)


def x(target: int) -> Gate:
    return Gate(GateKind.X, (), target)


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control,), target)


def mcx(controls, target: int) -> Gate:
    return Gate(GateKind.MCX, tuple(controls), target)


def mcp(controls, target: int, phase: float) -> Gate:
    return Gate(GateKind.MCP, tuple(controls), target, phase)


@dataclass(frozen=True)
class Circuit:
    layout: HoboLayout
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        # Builders repeat Gate objects (every G1 and G2 round), so each
        # distinct object is checked once.
        for gate in {id(g): g for g in self.gates}.values():
            if any(q >= self.layout.width or q < 0 for q in gate.qubits()):
                raise ValueError(f"gate {gate} outside layout width {self.layout.width}")

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class CircuitMetrics:
    width: int
    unit_depth: int
    gate_counts: dict[str, int]


def _main(layout: HoboLayout) -> list[int]:
    return list(range(layout.main_qubits))


def _x_layer(qubits) -> list[Gate]:
    return [x(q) for q in qubits]


def _zero_reflection(qubits: list[int]) -> list[Gate]:
    # NOT-conjugated MCP(pi): phase -1 on the all-zeros state of `qubits`.
    return _x_layer(qubits) + [mcp(qubits[:-1], qubits[-1], math.pi)] + _x_layer(qubits)


def build_validity_suboracle(layout: HoboLayout) -> Circuit:
    """Flag visit slots holding a code with no matching city.

    For every slot and every out-of-range code, a NOT-conjugated
    multi-controlled NOT raises that (slot, code) ancilla iff the slot
    holds exactly that code; the slot qubits are restored after each
    conjugation.  Empty when 2**k == n.
    """
    return Circuit(layout, _validity_gates(layout))


def build_uniqueness_suboracle(layout: HoboLayout, slot_a: int, slot_b: int) -> Circuit:
    """Raise the pair ancilla iff slots a and b hold different codes.

    A CX fan XORs slot a's bits onto slot b's, an OR over the XORed bits
    (NOT-conjugated multi-controlled NOT plus a final NOT) lands in the
    pair ancilla, and the fan is reapplied to restore slot b.
    """
    return Circuit(layout, _uniqueness_gates(layout, slot_a, slot_b))


def build_oracle_r1(layout: HoboLayout) -> Circuit:
    """Phase-flip feasible tour bitstrings via kickback on the marker.

    Computes all validity and uniqueness ancillas, applies one
    multi-controlled NOT onto the marker (positive controls on the pair
    ancillas, NOT-conjugated zero controls on the validity ancillas),
    then uncomputes the sub-oracles in reverse order so every ancilla
    returns to zero.
    """
    return Circuit(layout, _r1_gates(layout))


def build_diffusion_d1(layout: HoboLayout) -> Circuit:
    """Reflection about the uniform superposition of the main register."""
    return Circuit(layout, _d1_gates(layout))


def build_g1(layout: HoboLayout) -> Circuit:
    """One first-stage iteration: feasibility oracle then diffusion."""
    return Circuit(layout, _g1_gates(layout))


def build_cost_oracle_r2(layout: HoboLayout, phases: PhaseAssignment) -> Circuit:
    """Diagonal cost oracle: phase e^{i w} on each feasible tour state.

    Each tour bitstring gets one multi-controlled phase gate across the
    main register, NOT-conjugated on the tour's zero bits so the gate
    fires on exactly that basis state.  Infeasible states are untouched.
    """
    return Circuit(layout, _r2_gates(layout, phases))


def invert_circuit(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, phase gates negated."""
    return Circuit(circuit.layout, _inverse(circuit.gates))


def build_d2(layout: HoboLayout, q1: int) -> Circuit:
    """Reflection about the first stage's output state.

    With A the first-stage preparation (Hadamard layer plus q1 search
    iterations), emits invert(A), a zero reflection on the main
    register, then A, realizing 2|psi><psi| - I for psi = A|0> up to
    global phase.
    """
    return Circuit(layout, _d2_gates(layout, q1))


def build_g2(layout: HoboLayout, phases: PhaseAssignment, q1: int) -> Circuit:
    """One second-stage iteration: cost oracle R2 then diffusion D2."""
    return Circuit(layout, _g2_gates(layout, phases, q1))


def build_two_step(layout: HoboLayout, phases: PhaseAssignment, schedule: Schedule) -> Circuit:
    """Full two-stage search circuit.

    Marker preparation (NOT then Hadamard, leaving it in the minus
    state), Hadamard layer on the main register, q1 first-stage
    iterations, then q2 second-stage iterations (cost oracle first,
    then the feasible-subspace diffusion).
    """
    g2 = _g2_gates(layout, phases, schedule.q1)
    return Circuit(layout, _two_step_gates(layout, _g1_gates(layout), g2, schedule))


def assemble_two_step(g1: Circuit, g2: Circuit, schedule: Schedule) -> Circuit:
    """The `build_two_step` circuit from its iterations already built.

    `g1` is `build_g1(layout)` and `g2` is `build_g2(layout, phases,
    schedule.q1)`; a caller that needs those blocks anyway saves
    building them twice.
    """
    if g1.layout != g2.layout:
        raise ValueError("G1 and G2 are built for different layouts")
    return Circuit(g1.layout, _two_step_gates(g1.layout, g1.gates, g2.gates, schedule))


# The builders above compose the gate lists below and wrap each result
# in one `Circuit`, so every gate is range-checked once per public call.


def _validity_gates(layout: HoboLayout) -> list[Gate]:
    gates: list[Gate] = []
    for slot in range(layout.n):
        slot_bits = layout.slot_qubits(slot)
        for code in range(layout.n, 2**layout.k):
            zeros = [
                layout.main_qubit(slot, b)
                for b in range(layout.k)
                if not (code >> (layout.k - 1 - b)) & 1
            ]
            gates += _x_layer(zeros)
            gates.append(mcx(slot_bits, layout.validity_ancilla(slot, code)))
            gates += _x_layer(zeros)
    return gates


def _uniqueness_gates(layout: HoboLayout, slot_a: int, slot_b: int) -> list[Gate]:
    fan = [
        cx(layout.main_qubit(slot_a, b), layout.main_qubit(slot_b, b))
        for b in range(layout.k)
    ]
    slot_b_bits = list(layout.slot_qubits(slot_b))
    ancilla = layout.pair_ancilla(slot_a, slot_b)
    or_into_ancilla = (
        _x_layer(slot_b_bits)
        + [mcx(slot_b_bits, ancilla)]
        + _x_layer(slot_b_bits)
        + [x(ancilla)]
    )
    return fan + or_into_ancilla + fan


def _r1_gates(layout: HoboLayout) -> list[Gate]:
    compute = _validity_gates(layout)
    for a in range(layout.n):
        for b in range(a + 1, layout.n):
            compute += _uniqueness_gates(layout, a, b)

    validity = list(range(layout.main_qubits, layout.main_qubits + layout.valid_ancillas))
    pairs = list(
        range(
            layout.main_qubits + layout.valid_ancillas,
            layout.main_qubits + layout.valid_ancillas + layout.unique_ancillas,
        )
    )
    mark = (
        _x_layer(validity)
        + [mcx(validity + pairs, layout.marker)]
        + _x_layer(validity)
    )
    return compute + mark + _inverse(compute)


def _d1_gates(layout: HoboLayout) -> list[Gate]:
    main = _main(layout)
    return [h(q) for q in main] + _zero_reflection(main) + [h(q) for q in main]


def _g1_gates(layout: HoboLayout) -> list[Gate]:
    return _r1_gates(layout) + _d1_gates(layout)


def _r2_gates(layout: HoboLayout, phases: PhaseAssignment) -> list[Gate]:
    if phases.n != layout.n:
        raise ValueError(f"phase dataset is for n={phases.n}, layout is n={layout.n}")
    main = _main(layout)
    gates: list[Gate] = []
    for bits, w in phases.phases.items():
        zeros = [main[i] for i, ch in enumerate(bits) if ch == "0"]
        gates += _x_layer(zeros)
        gates.append(mcp(main[:-1], main[-1], w))
        gates += _x_layer(zeros)
    return gates


def _inverse_gate(gate: Gate) -> Gate:
    if gate.kind is GateKind.MCP:
        return replace(gate, phase=-gate.phase)
    return gate


def _inverse(gates) -> list[Gate]:
    return [_inverse_gate(g) for g in reversed(gates)]


def _state_prep(layout: HoboLayout, q1: int) -> list[Gate]:
    # A = (G1)^q1 * H-layer: prepares the feasible-tour superposition.
    return [h(q) for q in _main(layout)] + _g1_gates(layout) * q1


def _d2_gates(layout: HoboLayout, q1: int) -> list[Gate]:
    if q1 < 0:
        raise ValueError(f"q1 must be non-negative, got {q1}")
    prep = _state_prep(layout, q1)
    return _inverse(prep) + _zero_reflection(_main(layout)) + prep


def _g2_gates(layout: HoboLayout, phases: PhaseAssignment, q1: int) -> list[Gate]:
    return _r2_gates(layout, phases) + _d2_gates(layout, q1)


def _two_step_gates(layout: HoboLayout, g1, g2, schedule: Schedule) -> list[Gate]:
    prep = [x(layout.marker), h(layout.marker)] + [h(q) for q in _main(layout)]
    return prep + list(g1) * schedule.q1 + list(g2) * schedule.q2


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Width, unit-gate depth, and per-kind gate counts."""
    depth_at: dict[int, int] = {}
    for gate in circuit.gates:
        qubits = gate.qubits()
        level = 1 + max((depth_at.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            depth_at[q] = level
    counts = Counter(g.kind.value for g in circuit.gates)
    return CircuitMetrics(
        width=circuit.layout.width,
        unit_depth=max(depth_at.values(), default=0),
        gate_counts=dict(sorted(counts.items())),
    )


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented dump, one gate per line, for diffing and goldens."""
    layout = circuit.layout
    lines = [f"width={layout.width} n={layout.n} k={layout.k}"]
    for gate in circuit.gates:
        controls = ",".join(str(c) for c in gate.controls)
        line = f"{gate.kind.value} controls=[{controls}] target={gate.target}"
        if gate.kind is GateKind.MCP:
            line += f" phase={gate.phase!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"
