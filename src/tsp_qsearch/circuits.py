"""Gate-level circuit builders for the two-stage tour search.

The gate set is deliberately small: Hadamard, NOT, controlled NOT,
multi-controlled NOT, and multi-controlled phase, all with positive
controls only.  Negative controls are realized by NOT conjugation,
every one by ``_fires_on``, which makes a gate fire on one bit pattern
of its qubits.
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
  superposition: Hadamard layer, zero reflection, Hadamard layer.  The
  zero reflection is one multi-controlled phase of pi across the main
  register, NOT-conjugated to fire on the all-zeros bitstring.
* ``build_g1`` is one first-stage iteration, R1 + D1.  It depends on
  the layout only and is built once per layout: every builder below
  repeats that same object.
* ``build_cost_oracle_r2`` imprints each tour's cost phase on its basis
  state with one conjugated multi-controlled phase gate per tour: a
  ``PhaseOracle`` of the dataset's {bitstring: phase}, which holds that
  table and builds its gates only when they are read.
* ``build_d2`` reflects about the feasible-tour superposition prepared
  by the first stage: invert(A) + zero reflection + A, with
  A = Hadamard layer + G1 * q1.
* ``build_g2`` is one second-stage iteration, R2 + D2.
* ``build_two_step`` chains marker preparation, the Hadamard layer,
  G1 * q1 and G2 * q2.

Only R2 depends on the dataset.  G1, the marker preparation, the
Hadamard layer and the zero reflection are each built once per layout,
and every builder reuses those objects.  So a new dataset builds no
gate: its R2 is its table, and D2, G2 and the two-step circuit are new
sequences of kept parts, whose compiled steps the simulator keeps on
those parts as well.  R2's gate counts, depth and dump lines come from
its key set, the layout's tours, so its metrics and its text dump build
no gate either.

A ``Circuit`` keeps the structure these builders give it: a leaf holds
gates, and ``+`` and ``*`` give a sequence of (part, repeat count)
pairs whose parts are the operand objects themselves.  The 2048 gates
of the two-step circuit at n=4 come from 26 distinct leaves holding 431
gates, and its 462,678 gates at n=6 from 44 leaves holding 17,281 (most
of them the 720-tour cost oracle).  Whatever walks gates works once per
distinct part and combines the results: ``metrics`` keeps each part's
gate counts and longest-path matrix on the part and combines them with
the repeat counts, ``circuit_to_text`` keeps each part's text on the
part, so it formats each distinct part once per process,
``invert_circuit`` inverts part by part, so parts stay shared, and the
simulator compiles each repeated part once into a step that loops its
plan.  A circuit is frozen; the flattened ``gates`` tuple, its inverse
and every other value derived from it are computed on first use and
cached on the instance.  An inverse holds its original as its own
inverse, so inverting twice gives the original object back.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from itertools import chain
from enum import Enum

import numpy as np

from .core import HoboLayout, PhaseAssignment, Schedule


class GateKind(str, Enum):
    H = "H"
    X = "X"
    CX = "CX"
    MCX = "MCX"
    MCP = "MCP"


# Enum members bound once, as in the simulator's `_relabel`: on Python
# 3.11 each GateKind.X is a class attribute lookup, and a gate's checks
# made four of them.
_UNCONTROLLED, _CX, _MCX = (GateKind.H, GateKind.X), GateKind.CX, GateKind.MCX


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    controls: tuple[int, ...]
    target: int
    phase: float = 0.0

    def __post_init__(self):
        kind, controls = self.kind, self.controls
        if len(set(controls)) != len(controls):
            raise ValueError(f"duplicate controls in {self}")
        if self.target in controls:
            raise ValueError(f"target {self.target} is also a control in {self}")
        if kind in _UNCONTROLLED and controls:
            raise ValueError(f"{kind.value} takes no controls")
        if kind is _CX and len(controls) != 1:
            raise ValueError("CX takes exactly one control")
        if kind is _MCX and not controls:
            raise ValueError("MCX needs at least one control")
        if not -2 * math.pi < self.phase <= 2 * math.pi:
            raise ValueError(f"phase {self.phase} outside (-2*pi, 2*pi]")

    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)


# H and X take nothing but their qubit, so each is built once per qubit
# and shared: a cost oracle reuses one X per zero bit of every tour.
# Typed, so that x(1.0) or x(True) never hands back the gate x(1) made,
# whose text would read differently.
@lru_cache(maxsize=None, typed=True)
def h(target: int) -> Gate:
    return Gate(GateKind.H, (), target)


@lru_cache(maxsize=None, typed=True)
def x(target: int) -> Gate:
    return Gate(GateKind.X, (), target)


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control,), target)


def mcx(controls, target: int) -> Gate:
    return Gate(GateKind.MCX, tuple(controls), target)


def mcp(controls, target: int, phase: float) -> Gate:
    return Gate(GateKind.MCP, tuple(controls), target, phase)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A gate sequence on one layout, every qubit checked against its width.

    A circuit is a ``leaf``, which holds its gates, or ``parts``, a
    sequence of (circuit, repeat count) pairs on the same layout, never
    both.  ``a + b`` runs ``a`` then ``b`` and ``c * times`` runs ``c``
    that many times, keeping the operands as parts.  ``gates`` (the
    flattened gate tuple), the inverse and the values ``metrics``
    combines are computed on first use and kept on the instance.
    ``len``, ``==`` and ``hash`` are those of the gate sequence,
    whatever its structure.
    """

    layout: HoboLayout
    leaf: tuple[Gate, ...] = ()
    parts: tuple[tuple[Circuit, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "leaf", tuple(self.leaf))
        width = self.layout.width
        if self.leaf:
            if self.parts:
                raise ValueError("a circuit holds gates or parts, not both")
            qubits = [gate.target for gate in self.leaf]
            qubits += chain.from_iterable([gate.controls for gate in self.leaf])
            if min(qubits) < 0 or max(qubits) >= width:
                bad = next(g for g in self.leaf if not all(0 <= q < width for q in g.qubits()))
                raise ValueError(f"gate {bad} outside layout width {width}")
        if any(type(times) is not int for _, times in self.parts):
            # A NumPy integer becomes an int; a float raises TypeError, as `tuple * 2.0` does.
            object.__setattr__(self, "parts", tuple((part, operator.index(times)) for part, times in self.parts))
        for part, times in self.parts:
            if part.layout is not self.layout and part.layout != self.layout:
                raise ValueError("cannot join circuits built for different layouts")
            if times < 0:
                raise ValueError(f"repeat count must be non-negative, got {times}")

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(chain.from_iterable(p.gates * t for p, t in self.parts)) if self.parts else self.leaf

    @cached_property
    def _counts(self) -> Counter:
        if not self.parts:
            return Counter(g.kind for g in self.leaf)
        counts: Counter = Counter()
        for part, times in self.parts:
            for kind, count in part._counts.items():
                counts[kind] += count * times
        return counts

    @cached_property
    def _paths(self) -> np.ndarray:
        """paths[p, q]: the most gates on a path from input wire p to
        output wire q, -inf without a path.

        The unit depth of a circuit run on fresh wires is the largest
        entry, and running `a` then `b` composes their matrices by a
        max-plus product.
        """
        width = self.layout.width
        if self.parts:
            paths = _no_gates(width)
            for part, times in self.parts:
                for _ in range(times):
                    paths = _max_plus(paths, part._paths)
            return paths
        # reach[q] maps each input wire to the most gates on a path from it
        # to wire q, not counting the gates without controls that `pending`
        # counts: such a gate only lengthens the paths ending on its wire.
        reach = [{q: 0} for q in range(width)]
        pending = [0] * width
        for gate in self.leaf:
            if not gate.controls:
                pending[gate.target] += 1
                continue
            qubits = gate.qubits()
            merged: dict[int, int] = {}
            for q in qubits:
                for p, length in reach[q].items():
                    length += pending[q] + 1
                    if merged.get(p, -1) < length:
                        merged[p] = length
            for q in qubits:
                reach[q] = merged
                pending[q] = 0
        paths = _no_gates(width)
        for q, lengths in enumerate(reach):
            for p, length in lengths.items():
                paths[p, q] = length + pending[q]
        return paths

    @cached_property
    def _text(self) -> str:
        # The dump's gate lines: a leaf's formatted, a sequence's its parts' repeated.
        if self.parts:
            return "".join(part._text * times for part, times in self.parts if times)
        return "".join(map(_gate_line, self.leaf))

    @cached_property
    def _inverse(self) -> Circuit:
        if self.parts:
            inverse = Circuit(self.layout, parts=tuple((p._inverse, t) for p, t in reversed(self.parts)))
        else:
            inverse = Circuit(self.layout, [_inverse_gate(g) for g in reversed(self.leaf)])
        # The pair forms a reference cycle, which the cyclic collector frees.
        vars(inverse)["_inverse"] = self
        return inverse

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __add__(self, other: Circuit) -> Circuit:
        if not isinstance(other, Circuit):
            return NotImplemented
        return Circuit(self.layout, parts=(self.parts or ((self, 1),)) + (other.parts or ((other, 1),)))

    def __mul__(self, times: int) -> Circuit:
        return Circuit(self.layout, parts=((self, times),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self is other or (self.layout == other.layout and self.gates == other.gates)

    def __hash__(self) -> int:
        return hash((self.layout, self.gates))


@dataclass(frozen=True)
class CircuitMetrics:
    width: int
    unit_depth: int
    gate_counts: dict[str, int]


def _main(layout: HoboLayout) -> list[int]:
    return list(range(layout.main_qubits))


def _fires_on(gate: Gate, qubits, pattern: str) -> list[Gate]:
    """`gate` NOT-conjugated on each of `qubits` whose `pattern` bit is "0".

    Positive controls on `qubits` then fire on exactly that pattern, and
    the qubits are restored afterwards.  The pattern has one bit per
    qubit, in qubit order; one of another length raises ValueError.
    """
    flips = [x(q) for q, bit in zip(qubits, pattern, strict=True) if bit == "0"]
    return flips + [gate] + flips


class PhaseOracle(Circuit):
    """A leaf held as its {bitstring: phase} table: phase e^{i w} on each
    main-register basis state `bits`.

    Its gates, one MCP across the main register NOT-conjugated to fire
    on each bitstring, in table order, are built on first use of
    ``leaf``, and so of ``gates``, ``==``, ``hash`` and the inverse.  A
    plan on a main-register state reads the table instead, so such a
    run of a cost oracle builds no gate.  Nor do ``len``,
    ``metrics`` and the text dump: the gates' kinds and qubits follow
    from the keys alone, so the gate counts, path matrix and each key's
    NOT lines are kept per key set, and every table of the same keys,
    such as each dataset's cost oracle, reads that one entry.
    The table is copied, and each entry is checked as its gates would
    be: a bitstring of the main register, a phase in (-2*pi, 2*pi].
    """

    # Not a dataclass of its own: `dataclass` would add about 0.5 ms to
    # each import of this module.  `table` is read-only as a property.
    def __init__(self, layout: HoboLayout, table: dict[str, float]) -> None:
        table = dict(table)
        for bits, w in table.items():
            if len(bits) != layout.main_qubits or bits.strip("01"):
                raise ValueError(f"{bits!r} is not a bitstring of the {layout.main_qubits}-qubit main register")
            if not -2 * math.pi < w <= 2 * math.pi:
                raise ValueError(f"phase {w} outside (-2*pi, 2*pi]")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "_table", table)

    @property
    def table(self) -> dict[str, float]:
        return self._table

    @cached_property
    def leaf(self) -> tuple[Gate, ...]:
        main = _main(self.layout)
        gates: list[Gate] = []
        for bits, w in self.table.items():
            gates += _fires_on(mcp(main[:-1], main[-1], w), main, bits)
        return tuple(gates)

    @cached_property
    def _counts(self) -> Counter:
        return _key_shape(self.layout, tuple(self.table))[0]

    @cached_property
    def _paths(self) -> np.ndarray:
        return _key_shape(self.layout, tuple(self.table))[1]

    @cached_property
    def _text(self) -> str:
        # Each key's NOT lines, its MCP line with the key's phase, the NOT lines again.
        _, _, nots, head = _key_shape(self.layout, tuple(self.table))
        return "".join([f"{flips}{_phase_line(head, w)}{flips}" for flips, w in zip(nots, self.table.values())])


@lru_cache(maxsize=16)
def _key_shape(layout: HoboLayout, keys: tuple[str, ...]) -> tuple[Counter, np.ndarray, tuple[str, ...], str]:
    # What a phase oracle with these keys, in this order, has whatever its
    # phases: its gate counts, its path matrix, each key's NOT lines and its
    # MCP lines' head.  A cost oracle's keys are the layout's n! tours, so
    # one entry serves every dataset; it keeps no gate.  The gates are walked
    # as a plain leaf, whose counts and paths are Circuit's.
    main = _main(layout)
    gate = mcp(main[:-1], main[-1], 0.0)
    blocks = [_fires_on(gate, main, bits) for bits in keys]
    leaf = Circuit(layout, chain.from_iterable(blocks))
    paths = leaf._paths
    paths.flags.writeable = False  # shared by every oracle with these keys
    nots = tuple("".join(map(_gate_line, block[: len(block) // 2])) for block in blocks)
    return leaf._counts, paths, nots, _gate_head(gate)


@cache
def _h_layer(layout: HoboLayout) -> Circuit:
    return Circuit(layout, [h(q) for q in _main(layout)])


@cache
def _zero_reflection(layout: HoboLayout) -> Circuit:
    # Phase -1 on the all-zeros main register: a plain leaf, which a folded
    # plan compiles with the H layers around it into one reflection step.
    main = _main(layout)
    return Circuit(layout, _fires_on(mcp(main[:-1], main[-1], math.pi), main, "0" * layout.main_qubits))


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
            flag = mcx(slot_bits, layout.validity_ancilla(slot, code))
            gates += _fires_on(flag, slot_bits, format(code, f"0{layout.k}b"))
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
    slot_b_bits = layout.slot_qubits(slot_b)
    ancilla = layout.pair_ancilla(slot_a, slot_b)
    or_into_ancilla = _fires_on(mcx(slot_b_bits, ancilla), slot_b_bits, "0" * layout.k) + [x(ancilla)]
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

    # The ancillas sit between the main register and the marker: validity flags, then pair flags.
    flags = range(layout.main_qubits, layout.marker)
    pattern = "0" * layout.valid_ancillas + "1" * layout.unique_ancillas
    mark = Circuit(layout, _fires_on(mcx(flags, layout.marker), flags, pattern))
    return compute + mark + invert_circuit(compute)


def build_diffusion_d1(layout: HoboLayout) -> Circuit:
    """Reflection about the uniform superposition of the main register."""
    hadamards = _h_layer(layout)
    return hadamards + _zero_reflection(layout) + hadamards


@cache
def build_g1(layout: HoboLayout) -> Circuit:
    """One first-stage iteration: feasibility oracle then diffusion.

    Built once per layout and shared by every builder, so its gates,
    metrics and simulator plans are computed once.
    """
    return build_oracle_r1(layout) + build_diffusion_d1(layout)


def build_cost_oracle_r2(layout: HoboLayout, phases: PhaseAssignment) -> Circuit:
    """Diagonal cost oracle: phase e^{i w} on each feasible tour state.

    Each tour bitstring gets one multi-controlled phase gate across the
    main register, NOT-conjugated on the tour's zero bits so the gate
    fires on exactly that basis state.  Infeasible states are untouched.
    """
    if phases.n != layout.n:
        raise ValueError(f"phase dataset is for n={phases.n}, layout is n={layout.n}")
    return PhaseOracle(layout, phases.phases)


def _inverse_gate(gate: Gate) -> Gate:
    # MCP(2*pi) is the identity, its own adjoint; -2*pi is outside the phase range.
    if gate.kind is GateKind.MCP and gate.phase != 2 * math.pi:
        return replace(gate, phase=-gate.phase)
    return gate


def invert_circuit(circuit: Circuit) -> Circuit:
    """Adjoint circuit: gates reversed, phase gates negated.

    A sequence is inverted part by part.  The inverse is built once and
    kept on the circuit, and it keeps the circuit as its own inverse, so
    parts stay shared and inverting twice gives the original back.
    """
    return circuit._inverse


def build_d2(layout: HoboLayout, q1: int) -> Circuit:
    """Reflection about the first stage's output state.

    With A the first-stage preparation (Hadamard layer plus q1 repeats
    of the layout's one G1), emits invert(A), a zero reflection on the
    main register, then A, realizing 2|psi><psi| - I for psi = A|0> up
    to global phase.
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
    then the feasible-subspace diffusion).  Its parts are those four
    circuits; the first stage and every D2 repeat the layout's one G1.
    """
    q1, q2 = schedule.q1, schedule.q2
    return _marker_prep(layout) + _h_layer(layout) + build_g1(layout) * q1 + build_g2(layout, phases, q1) * q2


@cache
def _marker_prep(layout: HoboLayout) -> Circuit:
    return Circuit(layout, (x(layout.marker), h(layout.marker)))


def _max_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest paths through `a` then `b`: c[p, r] = max over q of a[p, q] + b[q, r]."""
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


def _no_gates(width: int) -> np.ndarray:
    paths = np.full((width, width), -np.inf)
    np.fill_diagonal(paths, 0.0)
    return paths


def metrics(circuit: Circuit) -> CircuitMetrics:
    """Width, unit-gate depth, and per-kind gate counts.

    Both are combined from the circuit's parts, each computed once and
    kept on its instance.
    """
    return CircuitMetrics(
        width=circuit.layout.width,
        unit_depth=int(circuit._paths.max()),
        gate_counts={kind.value: count for kind, count in sorted(circuit._counts.items()) if count},
    )


def _gate_head(gate: Gate) -> str:
    # A gate's dump line up to its phase field, which only an MCP line has.
    controls = ",".join(str(c) for c in gate.controls)
    return f"{gate.kind.value} controls=[{controls}] target={gate.target}"


def _phase_line(head: str, phase: float) -> str:
    return f"{head} phase={phase!r}\n"


def _gate_line(gate: Gate) -> str:
    head = _gate_head(gate)
    return _phase_line(head, gate.phase) if gate.kind is GateKind.MCP else head + "\n"


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented dump, one gate per line, for diffing and goldens.

    Each part keeps its lines once formatted, and a sequence repeats
    its parts' lines, so a part kept per layout (G1, its inverse, the
    Hadamard layer, the zero reflection) is formatted once per process.
    A cost oracle writes its lines from its table, each phase between
    its key's NOT lines.
    """
    layout = circuit.layout
    return f"width={layout.width} n={layout.n} k={layout.k}\n" + circuit._text
