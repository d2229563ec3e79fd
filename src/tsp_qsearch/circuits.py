"""Gate-level circuit builders for the two-stage tour search.

The gate set is deliberately small: Hadamard, NOT, controlled NOT,
multi-controlled NOT, and multi-controlled phase, all with positive
controls only.  Negative controls are realized by NOT conjugation.
Multi-controlled gates are kept atomic; no decomposition into a basis
gate set is performed, so the depth metric counts every gate as one
unit.

Every block has one builder, and each builder composes the builders of
its parts with ``Circuit``'s ``+`` (run one circuit, then the other)
and ``* times`` (repeat), following the paper's operator products.
Builder overview for an n-city layout:

* ``build_oracle_r1`` flips the phase of exactly the feasible tour
  bitstrings via phase kickback on the marker qubit (held in the minus
  state): the validity sub-oracle, the uniqueness sub-oracle of every
  slot pair, the marking gate, then the inverse of those sub-oracles.
* ``build_diffusion_d1`` reflects the main register about the uniform
  superposition: Hadamard layer, zero reflection, Hadamard layer.
* ``build_g1`` is one first-stage iteration, R1 + D1.
* ``build_cost_oracle_r2`` imprints each tour's cost phase on its basis
  state with one conjugated multi-controlled phase gate per tour.
* ``build_d2`` reflects about the feasible-tour superposition prepared
  by the first stage: invert(A) + zero reflection + A, with
  A = Hadamard layer + G1 * q1.
* ``build_g2`` is one second-stage iteration, R2 + D2.
* ``assemble_two_step`` chains marker preparation, the Hadamard layer,
  G1 * q1 and G2 * q2 from G1 and G2 circuits already built;
  ``build_two_step`` builds those two and assembles them.
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
    """A gate sequence on one layout, every qubit checked against its width.

    ``a + b`` runs ``a`` then ``b`` (both on the same layout) and
    ``c * times`` runs ``c`` that many times.  Their operands were
    checked already, so neither checks the gates again.
    """

    layout: HoboLayout
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if any(q >= self.layout.width or q < 0 for q in gate.qubits()):
                raise ValueError(f"gate {gate} outside layout width {self.layout.width}")

    @classmethod
    def _of_checked(cls, layout: HoboLayout, gates: tuple[Gate, ...]) -> Circuit:
        # For gates already checked against `layout`: skips __post_init__.
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "layout", layout)
        object.__setattr__(circuit, "gates", gates)
        return circuit

    def __add__(self, other: Circuit) -> Circuit:
        if self.layout != other.layout:
            raise ValueError("cannot join circuits built for different layouts")
        return Circuit._of_checked(self.layout, self.gates + other.gates)

    def __mul__(self, times: int) -> Circuit:
        if times < 0:
            raise ValueError(f"repeat count must be non-negative, got {times}")
        return Circuit._of_checked(self.layout, self.gates * times)

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


def _h_layer(layout: HoboLayout) -> Circuit:
    return Circuit(layout, [h(q) for q in _main(layout)])


def _zero_reflection(layout: HoboLayout) -> Circuit:
    # NOT-conjugated MCP(pi): phase -1 on the all-zeros main register.
    main = _main(layout)
    return Circuit(layout, _x_layer(main) + [mcp(main[:-1], main[-1], math.pi)] + _x_layer(main))


def build_validity_suboracle(layout: HoboLayout) -> Circuit:
    """Flag visit slots holding a code with no matching city.

    For every slot and every out-of-range code, a NOT-conjugated
    multi-controlled NOT raises that (slot, code) ancilla iff the slot
    holds exactly that code; the slot qubits are restored after each
    conjugation.  Empty when 2**k == n.
    """
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
    return Circuit(layout, gates)


def build_uniqueness_suboracle(layout: HoboLayout, slot_a: int, slot_b: int) -> Circuit:
    """Raise the pair ancilla iff slots a and b hold different codes.

    A CX fan XORs slot a's bits onto slot b's, an OR over the XORed bits
    (NOT-conjugated multi-controlled NOT plus a final NOT) lands in the
    pair ancilla, and the fan is reapplied to restore slot b.
    """
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
    return Circuit(layout, fan + or_into_ancilla + fan)


def build_oracle_r1(layout: HoboLayout) -> Circuit:
    """Phase-flip feasible tour bitstrings via kickback on the marker.

    Computes all validity and uniqueness ancillas, applies one
    multi-controlled NOT onto the marker (positive controls on the pair
    ancillas, NOT-conjugated zero controls on the validity ancillas),
    then uncomputes the sub-oracles in reverse order so every ancilla
    returns to zero.
    """
    compute = build_validity_suboracle(layout)
    for a in range(layout.n):
        for b in range(a + 1, layout.n):
            compute += build_uniqueness_suboracle(layout, a, b)

    validity = list(range(layout.main_qubits, layout.main_qubits + layout.valid_ancillas))
    pairs = list(
        range(
            layout.main_qubits + layout.valid_ancillas,
            layout.main_qubits + layout.valid_ancillas + layout.unique_ancillas,
        )
    )
    mark = Circuit(
        layout,
        _x_layer(validity) + [mcx(validity + pairs, layout.marker)] + _x_layer(validity),
    )
    return compute + mark + invert_circuit(compute)


def build_diffusion_d1(layout: HoboLayout) -> Circuit:
    """Reflection about the uniform superposition of the main register."""
    hadamards = _h_layer(layout)
    return hadamards + _zero_reflection(layout) + hadamards


def build_g1(layout: HoboLayout) -> Circuit:
    """One first-stage iteration: feasibility oracle then diffusion."""
    return build_oracle_r1(layout) + build_diffusion_d1(layout)


def build_cost_oracle_r2(layout: HoboLayout, phases: PhaseAssignment) -> Circuit:
    """Diagonal cost oracle: phase e^{i w} on each feasible tour state.

    Each tour bitstring gets one multi-controlled phase gate across the
    main register, NOT-conjugated on the tour's zero bits so the gate
    fires on exactly that basis state.  Infeasible states are untouched.
    """
    if phases.n != layout.n:
        raise ValueError(f"phase dataset is for n={phases.n}, layout is n={layout.n}")
    main = _main(layout)
    gates: list[Gate] = []
    for bits, w in phases.phases.items():
        zeros = [main[i] for i, ch in enumerate(bits) if ch == "0"]
        gates += _x_layer(zeros)
        gates.append(mcp(main[:-1], main[-1], w))
        gates += _x_layer(zeros)
    return Circuit(layout, gates)


def _inverse_gate(gate: Gate) -> Gate:
    # MCP(2*pi) is the identity, its own adjoint; -2*pi is outside the phase range.
    if gate.kind is GateKind.MCP and gate.phase != 2 * math.pi:
        return replace(gate, phase=-gate.phase)
    return gate


def invert_circuit(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, phase gates negated."""
    gates = tuple(_inverse_gate(g) for g in reversed(circuit.gates))
    return Circuit._of_checked(circuit.layout, gates)


def build_d2(layout: HoboLayout, q1: int) -> Circuit:
    """Reflection about the first stage's output state.

    With A the first-stage preparation (Hadamard layer plus q1 search
    iterations), emits invert(A), a zero reflection on the main
    register, then A, realizing 2|psi><psi| - I for psi = A|0> up to
    global phase.
    """
    prepare = _h_layer(layout) + build_g1(layout) * q1
    return invert_circuit(prepare) + _zero_reflection(layout) + prepare


def build_g2(layout: HoboLayout, phases: PhaseAssignment, q1: int) -> Circuit:
    """One second-stage iteration: cost oracle R2 then diffusion D2."""
    return build_cost_oracle_r2(layout, phases) + build_d2(layout, q1)


def build_two_step(layout: HoboLayout, phases: PhaseAssignment, schedule: Schedule) -> Circuit:
    """Full two-stage search circuit.

    Marker preparation (NOT then Hadamard, leaving it in the minus
    state), Hadamard layer on the main register, q1 first-stage
    iterations, then q2 second-stage iterations (cost oracle first,
    then the feasible-subspace diffusion).
    """
    return assemble_two_step(build_g1(layout), build_g2(layout, phases, schedule.q1), schedule)


def assemble_two_step(g1: Circuit, g2: Circuit, schedule: Schedule) -> Circuit:
    """The `build_two_step` circuit from its iterations already built.

    `g1` is `build_g1(layout)` and `g2` is `build_g2(layout, phases,
    schedule.q1)`; a caller that needs those blocks anyway saves
    building them twice.  Raises `ValueError` when their layouts differ.
    """
    layout = g1.layout
    prep = Circuit(layout, (x(layout.marker), h(layout.marker))) + _h_layer(layout)
    return prep + g1 * schedule.q1 + g2 * schedule.q2


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
