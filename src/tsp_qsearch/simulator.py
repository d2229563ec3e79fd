"""Dense state-vector simulation of the gate set in `circuits`.

Amplitudes are stored as one complex128 array of length 2**width, in
C order with qubit 0 as the most significant bit of the array index, so
a printed basis index reads exactly like the layout's bitstring (visit
slot 1 leftmost).  Gates act in place through strided views and index
arrays; nothing is ever promoted to a dense matrix.

A dense state holds one of two views of a layout: all its qubits, or
the main register alone, with the marker held in |-> as a sign; a
`TourState` holds that main register in n! + 1 numbers (see below).  Every
ancilla of the paper's circuits is uncomputed, and after the marker's
preparation no gate reads it or puts an H on it, so its 1 column stays
minus its 0 column: the main register alone holds the whole result in
2**(nk) amplitudes, sqrt(2) times the full state's marker-0 column
with every ancilla 0.  That brings the 5- and 6-city circuits (41 and
46 qubits in full) within `MAX_WIDTH` on 15 and 18 qubits.

`run` compiles a circuit into one plan per state width, of four kinds
of kernel step (see `_compile`) and one more on the main register (see
below).  Apart from H, every gate is classical: X, CX and MCX permute
basis states and MCP multiplies some of them by a phase.  So the
compiler keeps, for each position of the state it runs on, a label:
the basis state whose amplitude that position holds.  X, CX and MCX
only change labels and emit nothing; an MCP is one phase step on the
positions whose label it fires on.  An H first emits the pending
relabelling as one move, `flat[dest] = flat[source]` over the
positions whose label changed, and then joins the current H layer: one
contiguous pass per qubit on a copy with the layer's axes first (see
`_hadamards`).  A repeated part compiles once into a step that loops
its plan, so compile cost depends on the distinct parts, not on q1 or
q2; a part moves its labels home before it ends.

A full-width state runs the plan compiled over all its qubits.  Each
step does the arithmetic of the gates it replaces, so every amplitude
is bit-identical to gate-by-gate `apply_gate`, zero signs included: an
H layer does a lone H's arithmetic, qubit by qubit in gate order.  At
n=4 the 2048 gates become 4 steps (marker move, one H layer on 9
qubits, G1 * q1 and G2 * q2) that unroll to 96.

A state of the main register alone runs the plan compiled over its
qubits, with every ancilla bit 0: 256 of the 32,768 amplitudes at n=4.
A label may set an ancilla bit between moves, and an MCP may read it
there, so each feasibility oracle R1 computes and uncomputes its
ancillas into one relabelling.  The marker gets a label bit too, which
X, CX and MCX may flip; a position whose label ends with it set holds
the marker's 1 column, minus its 0 column, so R1's flip of the marker
of each feasible tour is one phase step of -1 on the tours, and no
move.  An H that names an ancilla or the marker, a gate that reads the
marker, or a move that leaves an ancilla set needs a qubit the state
does not hold, and `run` refuses the circuit.  So the state, which
holds the marker already prepared, refuses a circuit that prepares it:
the caller runs the circuit after its preparation, and may start it
from `uniform_state`, after the opening H layer too.  This plan differs
from the full-width one in one step kind and in reading each
`PhaseOracle` leaf, such as a cost oracle R2, as its table's one phase
step (see `_oracle_steps`), so it builds none of its gates.

That step kind, `_reflect`, is I + (f - 1)|psi><psi| for a unit psi
that takes one value a on some positions and another, b, on the rest:
two sums over the state and the positions, one add to every amplitude
and one more on the positions.  D1 and the centre of every D2 are each
an H layer on the main register, a phase -1 on its all-zeros state and
the same H layer; each such sandwich is the reflection about the
register's uniform state |s>, psi with no positions, in two passes
over the state instead of one per qubit in each layer (see `_fold`).
D2 is then inv(A), that reflection and A, for A = G1 * q1 after the H
layer; with U = G1^q1 it is U R U^-1 = I + (f - 1)|psi><psi|, psi =
U|s>.  R1 is -1 on the n! tours and D1 reflects about |s>, so psi
stays in the span of |s> and the tours: one value on the tours and one
off them.  So each D2 becomes one `_reflect` step on the tours instead
of 2 * q1 runs of G1's plan, and inv(G1) is never compiled (see
`_fold_projection`).  psi is computed once per layout, q1 and state
form, a tour state's on its n! + 1 numbers, and only its n! positions
and two values are kept on the layout's one G1.  With q1 = 0 D2 is its
centre reflection, and with q1 = 1 its G1 is compiled with its other
leaves.  The main register's amplitudes are
not bit-identical to the exact plan's: they agree with sqrt(2) times
the exact marker-0 column to within 1e-12 each (at most 2.3e-14 at n=2
to 4 with q1, q2 <= 4), and the norm drifts less.

No step of the two-step circuit's main-register plan tells apart two
states off the tours: R1 is -1 on the tours, R2 a phase on each tour,
and D1 and D2 reflect about vectors that are one value on the tours
and one off them.  From |s> the state stays in the span of the n! tours and the
uniform superposition of the 2**(nk) - n! other states, amplitude
amplification's subspace (Brassard, Hoyer, Mosca, Tapp,
quant-ph/0005055).  A `TourState` holds exactly that: the n! tour
amplitudes in basis order (`enumerate_feasible`) and, last, the
coordinate on that superposition, the background; 721 numbers at n=6
instead of 262,144, whose norm is the plain sum of their |v|^2.  It
runs the main register's plan, compiled as for a dense state of it,
with each step mapped (see `_on_tours`): a phase on tour positions puts
its factors on their coordinates, a slice for R1's -1 and every R2, and
a reflection whose class has no positions, or exactly the tours, is
one sum over the tours, one scalar for the background and one add on
the tours (see `_reflect_tours`).  Any other step has no image there:
an H layer the fold left, a move, a phase off the tours or a class on
only some tours, so `run` refuses such a circuit with CapacityError, as
it refuses a circuit that a view cannot run.  Its capacity rule is the
main register's, as the compile walks 2**(nk) labels.  `main_probabilities`
spreads the background's probability evenly over the rows off the
tours; `tour_probabilities` gives the tours' and the background's.  The
dense main-register state stays for circuits whose plans keep an H
layer, a move or a phase off the tours, and as the tour state's
reference in the tests.

What is compiled is kept for as long as what it was compiled from: a
plan on its circuit, by the width of its state; the steps of a run of leaves on the
run's first leaf, while the run's other leaves live (see
`_leaf_steps`); the positions and values of D2's psi on G1.  Every
leaf of the two-step circuit but R2 is built once per layout (see
`circuits`), and a main-register plan's runs of leaves stop at R2.  So
a main-register run on a new dataset compiles nothing but binds R2:
its runs of leaves and D2's reflection are reused, and R2's one phase
step takes positions kept per set of tours and one new factor array.
A tour state's plans are kept beside them, under their own key: a
circuit's with its plans, a run of leaves' mapped steps on its first
leaf, and D2's tour class, computed on a tour state, with its class on
G1.  So a tour state's run on a new dataset maps R2's one step and
nothing else, and that step's positions are the layout's tour positions
themselves: the whole slice.

`_repeat` is the one executor of every plan, dense or on the tours.
`matrix_model` runs the ideal model through it too: the tours of a
dataset and a background of 0, one phase step and one `_reflect_tours`
step per iteration.

`apply_gate` compiles nothing: it swaps, butterflies or multiplies
strided views of the state in place.  A swap or butterfly allocates a
temporary of half the amplitudes the gate acts on, and numpy copies
operands too when the two halves' memory bounds overlap, so the peak
is one to two and a half such halves: on 15 qubits, under
`tracemalloc`, X(0) peaks at 264 KB, X(3) at 526 KB and H(3) at 658
KB.  A phase allocates nothing.  An H layer step allocates two
state-sized buffers; a reflection, move or phase step allocates and
holds arrays only as large as the positions it names, and a tour
state's steps no more than its n! + 1 numbers.
"""

from __future__ import annotations

import cmath
import itertools
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, GateKind, PhaseOracle
from .core import CapacityError, HoboLayout, enumerate_feasible

# 2**22 complex128 amplitudes = 64 MiB; enough for the 4-city layout
# (width 15) and for the 6-city main register (18 qubits), and still
# desk scale.
MAX_WIDTH = 22

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Largest |norm^2 - 1| that `run` accepts.
NORM_TOLERANCE = 1e-10

# The key of a tour state's plans, next to the widths of the dense states' plans.
_TOURS = "tours"


class NormError(ValueError):
    """A state's squared norm is not 1 to within `NORM_TOLERANCE`."""


@dataclass
class StateVector:
    """The amplitudes of `width` qubits: all of a layout's, or its main register's."""

    width: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.width,):
            raise ValueError(
                f"width {self.width} needs {2**self.width} amplitudes, got shape {self.amplitudes.shape}"
            )
        if self.amplitudes.dtype != np.complex128:
            raise ValueError(f"amplitudes must be complex128, got {self.amplitudes.dtype}")

    def norm_sq(self) -> float:
        # The squares of the real and imaginary parts, without a square root
        # per amplitude; a strided array is copied, as the float view needs.
        # np.add.reduce is ndarray.sum without its Python wrapper.
        return float(np.add.reduce(np.square(np.ascontiguousarray(self.amplitudes).view(np.float64))))


class TourState:
    """The main register of `layout` as its n! tour amplitudes and one amplitude off the tours.

    amplitudes[:n!] are the tours' in basis order (`enumerate_feasible`);
    amplitudes[n!] is the coordinate on the normalised uniform
    superposition of the other 2**(nk) - n! basis states, the
    background.  The background may be 0: the ideal model
    (`matrix_model`) runs its tour-form steps on n! + 1 numbers of this
    form whose background stays 0, as no step of it leaves the tours.
    """

    # Not a dataclass: `dataclass` would add about 0.4 ms to each import of this module.
    def __init__(self, layout: HoboLayout, amplitudes: np.ndarray) -> None:
        size = math.factorial(layout.n) + 1
        if amplitudes.shape != (size,):
            raise ValueError(f"n={layout.n} needs {size} amplitudes, the tours and one more, got {amplitudes.shape}")
        if amplitudes.dtype != np.complex128:
            raise ValueError(f"amplitudes must be complex128, got {amplitudes.dtype}")
        self.layout, self.amplitudes = layout, amplitudes

    norm_sq = StateVector.norm_sq  # reads only `amplitudes`


def _check_capacity(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise CapacityError(f"the simulator holds 1 to {MAX_WIDTH} qubits; this state needs {width}")


def new_state(width: int) -> StateVector:
    """The all-zeros basis state on `width` qubits."""
    _check_capacity(width)
    amps = np.zeros(2**width, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(width, amps)


def uniform_state(width: int) -> StateVector:
    """The uniform superposition |s> on `width` qubits: an H on each qubit of `new_state(width)`."""
    state = new_state(width)
    state.amplitudes[:] = 1 / math.sqrt(2**width)
    return state


def tour_state(layout: HoboLayout) -> TourState:
    """`uniform_state` of the layout's main register as a `TourState`.

    Each tour holds 2**(-nk/2), and the background sqrt(2**(nk) - n!)
    times that.  The main register must fit `MAX_WIDTH`, as for a dense
    state, since a circuit's plan is compiled on it.
    """
    _check_capacity(layout.main_qubits)
    size, tours = 2**layout.main_qubits, math.factorial(layout.n)
    amplitude = 1 / math.sqrt(size)
    amps = np.full(tours + 1, amplitude, dtype=np.complex128)
    amps[-1] = amplitude * math.sqrt(size - tours)
    return TourState(layout, amps)


def _axis_index(assignments: dict[int, int]) -> tuple:
    # The trailing Ellipsis stands for the remaining full axes and makes
    # the result a writable view even when every axis is fixed.
    index: list = [slice(None)] * (max(assignments) + 1)
    for qubit, value in assignments.items():
        index[qubit] = value
    return (*index, ...)


def _swap(view: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    lo = view[idx0]
    tmp = lo.copy()
    lo[...] = view[idx1]
    view[idx1] = tmp


def _butterfly(view: np.ndarray, idx0: tuple, idx1: tuple) -> None:
    # Same operations as (lo + hi) * c and (lo - hi) * c on fresh arrays.
    lo = view[idx0]
    hi = view[idx1]
    diff = lo - hi
    lo += hi
    lo *= _INV_SQRT2
    np.multiply(diff, _INV_SQRT2, out=hi)


def _hadamards(view: np.ndarray, transposes: tuple, passes: int) -> None:
    # H on the first `passes` axes of view.transpose(transposes[0]), in
    # order.  A pass does _butterfly's arithmetic on the low and high halves
    # of one buffer and writes the results to the other's even and odd
    # slots, so its axis moves last; transposes[1] restores the view's order.
    first = view.transpose(transposes[0]).flatten()
    src, dst = ((*b.reshape(2, -1), b[::2], b[1::2], b) for b in (first, np.empty_like(first)))
    for _ in range(passes):
        (lo, hi, _, _, _), (_, _, sums, diffs, out) = src, dst
        np.add(lo, hi, out=sums)
        np.subtract(lo, hi, out=diffs)
        out *= _INV_SQRT2
        src, dst = dst, src
    view[...] = src[-1].reshape(view.shape).transpose(transposes[1])


def _phase(view: np.ndarray, positions: np.ndarray, factor: complex) -> None:
    view.reshape(-1)[positions] *= factor


def _permute(view: np.ndarray, dest: np.ndarray, source: np.ndarray) -> None:
    flat = view.reshape(-1)
    flat[dest] = flat[source]


def _reflect(view: np.ndarray, members: tuple, factor: complex) -> None:
    # I + (factor - 1)|psi><psi|, psi the unit vector that is a on `positions`
    # and b everywhere else: <psi|flat> is two sums, the whole view's and
    # the positions', and the update one add to every amplitude and one
    # more on the positions.  The sums are ufuncs, which add pairwise;
    # np.vdot or a matmul would call BLAS, whose default threads wait on a
    # busy core (np.vdot made a dense projection at n=5 take 16 ms, against
    # about 0.5 ms for ufuncs), and einsum adds in one running sum, which
    # drifted the norm 100 times more at n=5.
    if not view.flags.c_contiguous:
        raise ValueError("a reflection step reshapes its view in place, which needs it C-contiguous")
    positions, a, b = members
    flat = view.reshape(-1)
    if not positions.size:  # about the view's uniform state: no gather, no scatter
        flat += (factor - 1) * (b.conjugate() * flat.sum()) * b
        return
    scale = (factor - 1) * (b.conjugate() * flat.sum() + (a - b).conjugate() * flat[positions].sum())
    flat += scale * b
    flat[positions] += scale * (a - b)


def _reflect_tours(view: np.ndarray, members: tuple, factor: complex) -> None:
    # `_reflect` on a tour state, whose last coordinate is the background:
    # psi is c on every tour and d on the background (see `_tour_class`), so
    # <psi|view> is one sum over the tours and one product, and the update
    # one add on the tours and one on the background.
    _, c, d = members
    tours = view[:-1]
    scale = (factor - 1) * (c.conjugate() * tours.sum() + d.conjugate() * view[-1])
    tours += scale * c
    view[-1] += scale * d


class _Woken(Exception):
    """A step needs a qubit outside the view it is compiled for."""


def _compile(gates, qubits: tuple[int, ...], sign: int | None = None) -> list:
    """Kernel steps equal to `gates` applied one by one on the view whose axis i is qubits[i].

    Each step is (kernel, first, second), run as ``kernel(view, first,
    second)``.  Each run of gates other than H becomes its phase steps
    and at most one move (see `_relabel`).  Each H joins the current H
    layer, which such a step or a second H on one of its qubits closes;
    a lone H is a layer of one.  The steps do exactly the arithmetic of
    the gates; a main-register plan folds them afterwards (see
    `_leaf_steps`).
    `sign` is the marker of a view that holds it as a sign, if any.
    Raises `_Woken` if an H names a qubit outside the view, a gate reads
    `sign` or a move leaves a label outside the view.
    """
    width = len(qubits)
    axes = {qubit: axis for axis, qubit in enumerate(qubits)}
    steps, layer = [], []
    H = GateKind.H  # bound once, as in `_relabel`
    for hadamards, run in itertools.groupby(gates, key=lambda gate: gate.kind is H):
        if hadamards:
            for gate in run:
                if gate.target not in axes:
                    raise _Woken
                if axes[gate.target] in layer:
                    steps += _layer(layer, width)
                    layer = []
                layer.append(axes[gate.target])
        elif classical := _relabel(run, qubits, sign):
            steps += _layer(layer, width) + classical
            layer = []
    return steps + _layer(layer, width)


def _fold(steps: list, width: int) -> list:
    """`steps` with each reflection sandwich as one `_reflect` step.

    A sandwich is an H layer on all the view's m axes, one phase step
    that fires on its all-zeros position alone and an H layer on all its
    axes again, in any order (the inverse of a layer reverses it).  By
    H^m (I + (f - 1)|0><0|) H^m = I + (f - 1)|s><s| it is a reflection
    about the view's uniform state |s>, the class of no positions and
    a = b = 2^(-m/2): two passes over the view instead of 2m.  A
    sandwich on fewer axes stays as it is.
    """
    amplitude = 1 / math.sqrt(2**width)
    uniform = (np.empty(0, dtype=np.int64), amplitude, amplitude)
    folded: list = []
    for step in steps:
        folded.append(step)
        if len(folded) >= 3 and _is_sandwich(*folded[-3:], width):
            _, _, factor = folded[-2]
            folded[-3:] = [(_reflect, uniform, factor)]
    return folded


def _is_sandwich(first: tuple, middle: tuple, last: tuple, width: int) -> bool:
    # A layer's axes are distinct, so a layer of `width` passes covers them all.
    return (
        (first[0], middle[0], last[0]) == (_hadamards, _phase, _hadamards)
        and first[2] == last[2] == width
        and np.array_equal(middle[1], [0])
    )


def _relabel(gates, qubits: tuple[int, ...], sign: int | None = None) -> list:
    """The phase steps and the move of X, CX, MCX and MCP gates on the view of `qubits`.

    labels[p] is the basis state that view position p stands for: bit
    width-1-i is axis i, and qubits outside the view get bits above
    those, in order of first use.  X, CX and MCX only relabel (an X
    toggles `flip`, applied to every label).  An MCP is one phase step
    on the positions whose label fires; an MCP that fires on no
    position of the view, as one controlled on an ancilla that the main
    register's view holds at 0, is no step.  The move takes the
    amplitude at each position p to labels[p] ^ flip, if any moves.

    The `sign` qubit, a marker held in |-> outside the view, gets the
    first bit above the view.  X, CX and MCX may flip it, which a gate
    that reads it would tell apart, so such a gate raises `_Woken`.  A
    position whose label ends with it set holds the marker's 1 column,
    minus its 0 column: one phase step of -1 on those positions, before
    the move.
    """
    width = len(qubits)
    bits = {qubit: 1 << (width - 1 - axis) for axis, qubit in enumerate(qubits)}
    sign_bit = 0 if sign is None else 1 << width
    if sign_bit:
        bits[sign] = sign_bit
    positions = np.arange(2**width, dtype=np.int64)
    labels, flip, steps = positions, 0, []
    # Enum members bound once: on Python 3.11 each GateKind.X is a class
    # attribute lookup that costs about as much as the rest of an X's work.
    X, MCP = GateKind.X, GateKind.MCP
    for gate in gates:
        target = bits.setdefault(gate.target, 1 << len(bits))
        kind = gate.kind
        if kind is X:
            flip ^= target
            continue
        on = sum(bits.setdefault(qubit, 1 << len(bits)) for qubit in gate.controls)
        if kind is MCP:
            on |= target
        if on & sign_bit:  # reads the sign qubit, which no label holds
            raise _Woken
        value = on & ~flip
        if kind is not MCP:  # CX and MCX
            labels = np.where((labels & on) == value, labels ^ target, labels)
            continue
        fired = np.flatnonzero((labels & on) == value)
        if fired.size:
            steps.append((_phase, fired, cmath.exp(1j * gate.phase)))
    dest = labels ^ flip
    if sign_bit:
        signed = np.flatnonzero(dest & sign_bit)
        if signed.size:
            steps.append((_phase, signed, -1.0))
        dest &= ~sign_bit
    if np.any(dest >= positions.size):  # a label has a bit outside the view set
        raise _Woken
    source = np.flatnonzero(dest != positions)
    return steps + [(_permute, dest[source], source)] if source.size else steps


def _layer(axes: list[int], width: int) -> list:
    """The H layer step on `axes`, in order, if there are any."""
    if not axes:
        return []
    rest = [axis for axis in range(width) if axis not in axes]
    return [(_hadamards, ((*axes, *rest), tuple(np.argsort(rest + axes))), len(axes))]


def _view(layout: HoboLayout, width: int) -> tuple[tuple[int, ...], int | None]:
    """The qubits a state of `width` qubits holds, and the marker it holds as a sign, if any.

    All the layout's qubits, or the main register with the marker held
    in |-> (see `_relabel`).
    """
    if width == layout.width:
        return tuple(range(width)), None
    return tuple(range(layout.main_qubits)), layout.marker


def _unit_plan(circuit: Circuit, form: int | str) -> tuple:
    """The circuit's compiled steps for a state of `form`, built on first use.

    `form` is a dense state's width, or `_TOURS` for a `TourState`.  A
    full-width plan is exact over all the layout's qubits.  A plan on
    the main register (see `_view`) reads each `PhaseOracle` leaf from
    its table (see `_oracle_steps`), folds reflection sandwiches and
    folds each reflection that a repeated part and its inverse conjugate
    (see `_fold_projection`).  A tour state's plan is the main register's,
    with each of its steps mapped onto the tours (see `_on_tours`).  A part
    repeated more than once becomes the
    step ``(_repeat, plan of the part, times)``, and the leaves between
    such parts, and on the main register between tables, compile
    together (see `_leaf_steps`).  A part is compiled only once the plan
    is otherwise complete, so a part folded away is never compiled.
    Plans are kept on their circuit, by form, so they are freed with it
    and a shared part compiles, and maps, once.  Raises `_Woken` if the
    state cannot run the circuit.
    """
    plans = vars(circuit).setdefault("_plans", {})  # Circuit is frozen
    if form not in plans:
        layout = circuit.layout
        exact = form == layout.width
        plan = []
        try:
            # A repeated part, or a table on the main register, is a unit of its own.
            for joined, units in itertools.groupby(
                _units(circuit), key=lambda unit: unit[1] == 1 and (exact or not isinstance(unit[0], PhaseOracle))
            ):
                if joined:
                    plan += _leaf_steps([leaf for leaf, _ in units], form)
                    continue
                for part, times in units:
                    if times > 1:
                        plan.append((_repeat, part, times))
                        _fold_projection(plan, form)
                    else:
                        steps = _oracle_steps(part.table)
                        plan += _on_tours(steps, layout) if form == _TOURS else steps
            plans[form] = tuple(
                (_repeat, _unit_plan(part, form), times) if kernel is _repeat else (kernel, part, times)
                for kernel, part, times in plan
            )
        except _Woken:
            plans[form] = None
    if plans[form] is None:
        raise _Woken
    return plans[form]


def _leaf_steps(leaves: list, form: int | str) -> tuple:
    """The steps of a run of leaves on a state of `form` (see `_unit_plan`), compiled once while its leaves live.

    The run's gates compile together (see `_compile`), and the steps of
    a run on the main register are then folded (see `_fold`); on a tour
    state they are the main register's, mapped (see `_on_tours`).  The
    steps are kept on the run's first leaf, keyed by the form and the
    identities of the other leaves, which the entry holds weakly: it
    goes once one of them has died, so a reused id never matches it.  A
    run on the main register holds no table, so the runs of the two-step
    circuit's plans there are of leaves kept per layout and compile once
    per process.
    """
    first, rest = leaves[0], leaves[1:]
    runs = vars(first).setdefault("_runs", {})  # Circuit is frozen
    for stale in [key for key, (_, refs) in runs.items() if any(ref() is None for ref in refs)]:
        del runs[stale]
    key = (form, *map(id, rest))
    if key not in runs:
        layout = first.layout
        if form == _TOURS:
            steps = _on_tours(_leaf_steps(leaves, layout.main_qubits), layout)
        else:
            steps = _compile(itertools.chain.from_iterable(leaf.leaf for leaf in leaves), *_view(layout, form))
            steps = steps if form == layout.width else _fold(steps, form)
        runs[key] = (tuple(steps), [weakref.ref(leaf) for leaf in rest])
    return runs[key][0]


def _oracle_steps(table: dict[str, float]) -> tuple:
    """The phase step of a `PhaseOracle` with `table` on the main register, without building its gates.

    Each bitstring fires on its one position with its factor e^{iw}: the
    positions of the exact compile of its gates, one step per entry,
    joined in table order into one step with a factor per position, so
    that an R2 is one step instead of n! of them.  An empty table is no
    step.  Multiplying by an array, not a scalar, may move an amplitude
    in the last bit, which a folded plan allows.
    """
    if not table:
        return ()
    factors = np.array([cmath.exp(1j * w) for w in table.values()])
    return ((_phase, _tour_positions(tuple(table)), factors),)


@lru_cache(maxsize=16)
def _tour_positions(keys: tuple[str, ...]) -> np.ndarray:
    # Each bitstring's position, in key order.  A cost oracle's keys are the
    # layout's n! tours, whatever the dataset, so its entry is made once.
    positions = np.array([int(bits, 2) for bits in keys], dtype=np.int64)
    positions.flags.writeable = False  # shared by every plan that reads the table's keys
    return positions


def _on_tours(steps, layout: HoboLayout) -> tuple:
    """Main-register `steps` as the steps of a `TourState` of `layout`.

    A `_phase` on tour positions puts its factors on their coordinates:
    a slice for every tour in basis order, as R1's -1 and each cost
    oracle R2, else their indices.  A `_reflect` whose class has no
    positions, or exactly the tours, becomes `_reflect_tours` (see
    `_tour_class`).  Any other step raises `_Woken`: an H layer, a move,
    a phase off the tours or a class on only some of them takes the
    state out of the tours and one uniform value off them.
    """
    tours = _layout_tours(layout)
    mapped = []
    for kernel, first, second in steps:
        if kernel is _phase:
            mapped.append((_phase, _tour_index(first, tours), second))
        elif kernel is _reflect:
            mapped.append((_reflect_tours, _tour_class(first, layout), second))
        else:
            raise _Woken
    return tuple(mapped)


def _layout_tours(layout: HoboLayout) -> np.ndarray:
    # The tours' positions in basis order: a cost oracle's, so the same array.
    return _tour_positions(enumerate_feasible(layout.n))


def _tour_index(positions: np.ndarray, tours: np.ndarray):
    """The coordinates of a tour state that `positions` name, in their order; `_Woken` if one is no tour."""
    if positions is tours or np.array_equal(positions, tours):  # a cost oracle's positions are `tours` itself
        return slice(0, tours.size)
    index = np.searchsorted(tours, positions)
    if not (np.all(index < tours.size) and np.array_equal(tours[index], positions)):
        raise _Woken
    return index


def _tour_class(members: tuple, layout: HoboLayout) -> tuple:
    """A `_reflect` class (positions, a, b) as `_reflect_tours`'s (positions, c, d).

    Its psi is a on its positions, none or every tour, and b on the
    2**(nk) - n! others: c = a, or b with no positions, on each tour,
    and d = b * sqrt(2**(nk) - n!) on the background.  A class on only
    some tours, or off them, raises `_Woken`.
    """
    positions, a, b = members
    tours = _layout_tours(layout)
    if positions.size and not np.array_equal(positions, tours):
        raise _Woken
    return positions, a if positions.size else b, b * math.sqrt(2**layout.main_qubits - tours.size)


def _fold_projection(plan: list, form: int | str) -> None:
    """Fold the last three steps into one reflection step if a part and its inverse conjugate a reflection about |s>.

    The steps are ``(_repeat, P^-1, t)``, a reflection step
    R = I + (f - 1)|s><s| about the register's uniform state, with no
    positions (a centre with positions, itself a folded D2, reflects
    about another psi), and ``(_repeat, P, t)``, with P^-1 the inverse
    that P keeps, neither yet compiled.  With U = P^t,
    U R U^-1 = I + (f - 1)|psi><psi| for psi = U|s>: one step of a few
    passes over the state instead of 2t runs of P, and P^-1 is never
    compiled.  The step needs psi to take at most two values (see
    `_projection_class`); otherwise the three steps stay, and run P^-1
    and P.  Computing psi compiles P, which refuses a P that the view
    cannot run; a P that the view runs, it runs under P^-1 too.  Only a
    folded plan, on the main register or a tour state, holds reflection
    steps, so only a folded plan folds.
    """
    if len(plan) < 3:
        return
    (first, inverse, count), (middle, centre, factor), (last, part, times) = plan[-3:]
    if (first, last) != (_repeat, _repeat) or middle not in (_reflect, _reflect_tours) or centre[0].size:
        return
    if count == times and part._inverse is inverse and (members := _projection_class(part, times, form)):
        plan[-3:] = [(middle, members, factor)]


def _projection_class(part: Circuit, times: int, form: int | str) -> tuple | None:
    """psi = P^t|s> of `_fold_projection` as (positions, a, b), or None if it takes three values or more.

    P is the plan of `part` on a main register of `form` qubits.  psi
    is a on `positions` and b = psi[0] everywhere else, compared
    exactly.  The two-step circuit's psi = G1^q1|s> passes at every q1:
    R1 multiplies by -1.0 and D1 adds one scalar to every amplitude, so
    psi is one value on the n! tours and one off them.  For a tour state
    psi is P's tour plan run on `tour_state`, n! + 1 numbers, and its
    class is (the tours, c, d) of `_tour_class`, c compared exactly on
    every tour; a psi that is not one value on the tours has no such
    class and raises `_Woken`.  Kept on the part by
    repeat count and form, next to its plans: the layout's one G1
    computes it once per q1 and form, and every D2 that repeats it
    shares it.  It holds the positions, n! of them for G1, not the
    2**width amplitudes of psi.
    """
    classes = vars(part).setdefault("_projections", {})
    key = (times, form)
    if key not in classes:
        if form == _TOURS:
            psi = tour_state(part.layout).amplitudes
            _repeat(psi, _unit_plan(part, form), times)
            if np.any(psi[:-1] != psi[0]):
                raise _Woken
            classes[key] = (_layout_tours(part.layout), complex(psi[0]), complex(psi[-1]))
        else:
            psi = uniform_state(form).amplitudes
            _repeat(psi.reshape((2,) * form), _unit_plan(part, form), times)
            positions = np.flatnonzero(psi != psi[0])
            a, b = psi[positions[0] if positions.size else 0], psi[0]
            classes[key] = None if np.any(psi[positions] != a) else (positions, complex(a), complex(b))
    return classes[key]


def _units(circuit: Circuit):
    # In order, (leaf, 1) for each leaf run once and (part, times) for each repeated part.
    if not circuit.parts:
        yield circuit, 1
    for part, times in circuit.parts:
        if times == 1:
            yield from _units(part) if part.parts else ((part, 1),)
        elif times:
            yield part, times


def _repeat(view: np.ndarray, plan: tuple, times: int) -> None:
    for _ in range(times):
        for kernel, first, second in plan:
            kernel(view, first, second)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    if not all(0 <= q < state.width for q in gate.qubits()):
        raise ValueError(f"gate {gate} outside width {state.width}")
    view = state.amplitudes.reshape((2,) * state.width)
    on = dict.fromkeys(gate.controls, 1)
    low, high = _axis_index({**on, gate.target: 0}), _axis_index({**on, gate.target: 1})
    if gate.kind is GateKind.H:
        _butterfly(view, low, high)
    elif gate.kind is GateKind.MCP:
        view[high] *= cmath.exp(1j * gate.phase)
    else:  # X, CX and MCX
        _swap(view, low, high)
    return state


def _form(state: StateVector | TourState, layout: HoboLayout) -> int | str:
    """The key of the plans that `state` runs (see `_unit_plan`); ValueError if it is not a state of `layout`."""
    if isinstance(state, TourState):
        if state.layout is not layout and state.layout != layout:
            raise ValueError(f"the tour state's layout {state.layout} is not the layout {layout}")
        return _TOURS
    if state.width not in (layout.width, layout.main_qubits):
        raise ValueError(
            f"state width {state.width} is neither the layout's width {layout.width} "
            f"nor its main register's width {layout.main_qubits}"
        )
    return state.width


def run(circuit: Circuit, state: StateVector | TourState) -> StateVector | TourState:
    """Apply the circuit in place through its compiled plan.

    A full-width state runs the exact plan.  A state of the main
    register alone, whose marker is held in |-> (see the module
    docstring), runs the plan that folds each H·S0·H sandwich, and each
    D2, into one reflection step, and a `TourState` that plan mapped
    onto its tours.  Raises CapacityError if the state does not hold a
    qubit the circuit needs: an ancilla it sets, or a marker it prepares
    or reads; or, for a tour state, if a step leaves the tours and one
    uniform value off them.  Raises NormError
    if the state's squared norm is not 1 afterwards, so an input that
    was not normalised or a drifting kernel is reported.
    """
    layout = circuit.layout
    form = _form(state, layout)
    try:
        plan = _unit_plan(circuit, form)
    except _Woken:
        if form == _TOURS:
            raise CapacityError(
                f"the circuit takes the main register out of its {state.amplitudes.size - 1} tours and one uniform "
                f"value off them, which a tour state holds; a state of the main register's {layout.main_qubits} "
                f"qubits or of all {layout.width} may run it"
            ) from None
        raise CapacityError(
            f"the circuit sets an ancilla, or prepares or reads the marker, which a state of {state.width} "
            f"qubits may not hold; a full-width state needs {layout.width}"
        ) from None
    _repeat(state.amplitudes if form == _TOURS else state.amplitudes.reshape((2,) * form), plan, 1)
    drift = abs(state.norm_sq() - 1.0)
    if not drift < NORM_TOLERANCE:
        raise NormError(f"state norm drifted: |norm^2 - 1| = {drift:.3g}")
    return state


def tour_probabilities(state: TourState) -> np.ndarray:
    """The n! tour probabilities in basis order, then the probability off the tours."""
    return np.abs(state.amplitudes) ** 2


def main_probabilities(state: StateVector | TourState, layout: HoboLayout) -> np.ndarray:
    """Marginal probabilities of the main register over all other qubits, by basis index.

    A tour state's background share is spread evenly over the
    2**(nk) - n! basis states off the tours.
    """
    if _form(state, layout) == _TOURS:
        probs = tour_probabilities(state)
        tours = _layout_tours(layout)
        spread = np.full(2**layout.main_qubits, probs[-1] / (2**layout.main_qubits - tours.size))
        spread[tours] = probs[:-1]
        return spread
    probs = np.abs(state.amplitudes) ** 2
    if state.width == layout.main_qubits:  # one amplitude per main-register state
        return probs
    return probs.reshape(2**layout.main_qubits, -1).sum(axis=1)


def main_distribution(state: StateVector, layout: HoboLayout) -> dict[str, float]:
    """`main_probabilities` by bitstring."""
    n_main = layout.main_qubits
    return {format(i, f"0{n_main}b"): float(p) for i, p in enumerate(main_probabilities(state, layout))}


def sample(probabilities, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts over `probabilities`, in their order, deterministic per seed.

    `probabilities` is an array or a sequence, normalised here; the
    counts are an int64 array of the same length.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    pvals = np.asarray(probabilities, dtype=float)
    return np.random.default_rng(seed).multinomial(shots, pvals / pvals.sum())


def success_probability(dist: dict[str, float], targets) -> float:
    """Total probability mass on the target bitstrings."""
    targets = set(targets)
    if not targets:
        raise ValueError("targets must be non-empty")
    return float(sum(dist.get(t, 0.0) for t in targets))
