import cmath
import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsp_qsearch import (
    CapacityError,
    HoboLayout,
    NormError,
    Schedule,
    StateVector,
    apply_gate,
    build_d2,
    build_g1,
    build_oracle_r1,
    build_two_step,
    builtin_phases,
    circuit_to_text,
    enumerate_feasible,
    gen_gaussian_phases,
    invert_circuit,
    main_distribution,
    main_probabilities,
    metrics,
    new_state,
    run,
    sample,
    success_probability,
    uniform_state,
)
from tsp_qsearch import PhaseOracle, circuits, simulator
from tsp_qsearch.circuits import Circuit, CircuitMetrics, cx, h, mcp, mcx, x
from tsp_qsearch.simulator import (
    MAX_WIDTH,
    _compile,
    _execute,
    _hadamards,
    _permute,
    _phase,
    _reflect,
    _repeat,
    _unit_plan,
    _view,
    _Woken,
)
from tsp_qsearch.cli import _after_state_prep

from helpers import BUILDER_CACHES, clear_builder_caches, prepare_main_basis, two_step_reference

# Largest per-amplitude gap allowed between a main-register run, whose
# plan folds each H·S0·H sandwich and each D2 into one `_reflect` step,
# and the exact plan; the gap measured on the
# two-step circuits at n=2 to 4 with q1, q2 <= 4 is at most 2.3e-14.
FOLD_TOLERANCE = 1e-12


def _reference_gate(amps: np.ndarray, gate, width: int) -> np.ndarray:
    """One gate by the textbook formula on fresh arrays, independent of the plan."""
    out = amps.reshape((2,) * width).copy()
    region = [slice(None)] * width
    for c in gate.controls:
        region[c] = 1
    lo, hi = list(region), list(region)
    lo[gate.target], hi[gate.target] = 0, 1
    lo, hi = tuple(lo), tuple(hi)
    a, b = out[lo].copy(), out[hi].copy()
    if gate.kind.value == "H":
        out[lo] = (a + b) * (1 / math.sqrt(2))
        out[hi] = (a - b) * (1 / math.sqrt(2))
    elif gate.kind.value == "MCP":
        out[hi] = b * cmath.exp(1j * gate.phase)
    else:  # X, CX, MCX
        out[lo], out[hi] = b, a
    return out.reshape(-1)


class TestNewState:
    def test_small_widths(self):
        assert np.array_equal(new_state(1).amplitudes, [1, 0])
        assert np.array_equal(new_state(2).amplitudes, [1, 0, 0, 0])

    def test_four_city_layout_width(self):
        state = new_state(15)
        assert len(state.amplitudes) == 32768
        assert state.amplitudes[0] == 1.0
        assert state.norm_sq() == 1.0

    def test_required_capacity(self):
        assert MAX_WIDTH >= 16
        assert new_state(16).width == 16

    def test_over_capacity(self):
        for make in (new_state, uniform_state):
            with pytest.raises(CapacityError, match=f"needs {MAX_WIDTH + 1}"):
                make(MAX_WIDTH + 1)

    @pytest.mark.parametrize("width", [1, 6, 15])
    def test_uniform_state_is_the_h_layer_on_the_all_zeros_state(self, width):
        hadamards = Circuit(_bare_layout(width), tuple(h(q) for q in range(width)))
        expected = run(hadamards, new_state(width)).amplitudes
        got = uniform_state(width)
        assert got.width == width and np.abs(got.amplitudes - expected).max() <= 1e-16

    @pytest.mark.parametrize("amps", [np.zeros(2**12, complex), np.zeros((2**6, 2**7), complex)])
    def test_amplitudes_must_match_the_width(self, amps):
        with pytest.raises(ValueError, match="width 13 needs 8192 amplitudes"):
            StateVector(13, amps)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.complex128])
    def test_amplitudes_must_be_complex128(self, dtype):
        amps = np.zeros(8, dtype)
        amps[0] = 1.0
        if dtype is np.complex128:
            assert StateVector(3, amps).norm_sq() == 1.0
        else:
            with pytest.raises(ValueError, match=f"complex128, got {np.dtype(dtype)}"):
                StateVector(3, amps)


class TestApplyGate:
    def test_hadamard(self):
        state = apply_gate(new_state(1), h(0))
        assert np.allclose(state.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_not_twice_is_identity(self):
        state = new_state(3)
        apply_gate(state, x(1))
        assert state.amplitudes[2] == 1.0  # qubit 0 is the most significant bit
        apply_gate(state, x(1))
        assert abs(state.amplitudes[0] - 1.0) < 1e-12

    def test_qubit_zero_is_most_significant(self):
        state = apply_gate(new_state(3), x(0))
        assert state.amplitudes[4] == 1.0

    def test_controlled_phase_on_active_controls(self):
        state = new_state(2)
        apply_gate(state, x(0))
        apply_gate(state, x(1))  # |11>
        apply_gate(state, mcp((0,), 1, math.pi / 2))
        assert state.amplitudes[3] == pytest.approx(np.exp(1j * math.pi / 2))

    def test_controls_gate_the_action(self):
        state = new_state(2)  # |00>
        apply_gate(state, cx(0, 1))
        assert state.amplitudes[0] == 1.0  # control low: no action
        apply_gate(state, x(0))
        apply_gate(state, cx(0, 1))  # |10> -> |11>
        assert state.amplitudes[3] == 1.0

    def test_multi_controlled_not(self):
        state = new_state(3)
        apply_gate(state, x(0))
        apply_gate(state, x(1))
        apply_gate(state, mcx((0, 1), 2))
        assert state.amplitudes[7] == 1.0

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_gate(new_state(2), x(2))

    @pytest.mark.parametrize("gate", [x(-1), cx(-3, 1), x(3)], ids=["x(-1)", "cx(-3,1)", "x(3)"])
    def test_qubit_outside_width_is_a_value_error(self, gate):
        state = new_state(3)
        with pytest.raises(ValueError, match="outside width 3"):
            apply_gate(state, gate)
        assert np.array_equal(state.amplitudes, new_state(3).amplitudes)

    def test_the_marker_is_outside_a_main_register_state(self):
        # apply_gate indexes a state's own qubits; the layout's marker is past them.
        layout = HoboLayout.for_cities(3)
        with pytest.raises(ValueError, match=f"outside width {layout.main_qubits}"):
            apply_gate(new_state(layout.main_qubits), x(layout.marker))

    @pytest.mark.parametrize("gate, half", [(x(3), 2**14), (cx(2, 9), 2**13)], ids=["x", "cx"])
    def test_one_gate_allocates_only_two_halves_of_its_region(self, gate, half):
        # 15 qubits, as at n=4.  A swap copies the low half of the amplitudes
        # its controls select, and numpy copies the high half before it
        # assigns it, as the halves interleave.  Compiling the gate would add
        # int64 arrays of all 2**15 labels, 256 KiB each.
        state = new_state(15)
        tracemalloc.start()
        try:
            apply_gate(state, gate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * half * 16

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_in_place_kernels_match_fresh_array_arithmetic(self, width):
        rng = np.random.default_rng(width)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)
        for target in range(width):
            for gate in (h(target), x(target)):
                got = apply_gate(StateVector(width, amps.copy()), gate).amplitudes
                assert np.array_equal(got, _reference_gate(amps, gate, width))


class TestRun:
    def test_empty_circuit(self):
        layout = HoboLayout.for_cities(3)
        state = run(Circuit(layout, ()), new_state(layout.width))
        assert state.amplitudes[0] == 1.0

    def test_hadamard_layer_gives_uniform_main_distribution(self):
        layout = HoboLayout.for_cities(3)
        circuit = Circuit(layout, tuple(h(q) for q in range(layout.main_qubits)))
        state = run(circuit, new_state(layout.width))
        dist = main_distribution(state, layout)
        assert len(dist) == 64
        assert all(p == pytest.approx(1 / 64, abs=1e-12) for p in dist.values())

    def test_circuit_then_inverse_restores_input(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_g1(layout)
        state = prepare_main_basis(layout, "011010")
        reference = state.amplitudes.copy()
        run(invert_circuit(circuit), run(circuit, state))
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-10

    # n=3: main register 6, full width 13; 7 is the main register and the marker.
    @pytest.mark.parametrize("width", [4, 12, 8, 14, 7])
    def test_width_mismatch(self, width):
        layout = HoboLayout.for_cities(3)
        state = new_state(width)
        message = f"state width {width} is neither the layout's width 13 nor its main register's width 6"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(Circuit(layout, (h(0),)), state)
        assert np.array_equal(state.amplitudes, new_state(width).amplitudes)

    def test_unnormalised_state_raises(self):
        layout = HoboLayout.for_cities(3)
        state = new_state(layout.width)
        state.amplitudes[0] = 2.0
        with pytest.raises(NormError):
            run(Circuit(layout, (h(0),)), state)

    def test_fifty_thousand_first_stage_rounds_drift_past_the_tolerance(self):
        # The round-off of the exact plan, which a full-width state runs,
        # drifts |norm^2 - 1| past NORM_TOLERANCE at n=3.
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(50000, 0))
        with pytest.raises(NormError, match="state norm drifted"):
            run(circuit, new_state(layout.width))

    def test_norm_check_survives_optimised_bytecode(self):
        # `python -O` strips assert statements; the norm check must not be one.
        code = (
            "from tsp_qsearch import Circuit, HoboLayout, NormError, new_state, run\n"
            "try:\n"
            "    assert False\n"
            "except AssertionError:\n"
            "    raise SystemExit('asserts were not stripped')\n"
            "layout = HoboLayout.for_cities(3)\n"
            "state = new_state(layout.width)\n"
            "state.amplitudes[0] = 2.0\n"
            "try:\n"
            "    run(Circuit(layout, ()), state)\n"
            "except NormError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('run accepted a state of norm 2')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


def _bare_layout(width: int) -> HoboLayout:
    """A layout that is only a register of `width` qubits."""
    return HoboLayout(
        n=1, k=1, main_qubits=width, valid_ancillas=0, unique_ancillas=0, marker_qubits=0, width=width
    )


def _marked_layout(width: int) -> HoboLayout:
    """A register of `width` qubits and a marker, whose state of `width` qubits folds its plan."""
    return HoboLayout(
        n=1, k=1, main_qubits=width, valid_ancillas=0, unique_ancillas=0, marker_qubits=1, width=width + 1
    )


def _x_dense_gates(draw, width: int, phases, max_gates: int = 24) -> list:
    """Random gates of all five kinds, most of them wrapped in runs of X.

    X gates land before and after gates on their controls and targets
    (and before H), and the trailing X's are drawn independently of the
    leading ones, so circuits often end with a NOT still pending.  MCP
    phases are drawn from `phases`.
    """
    kinds = ["H", "X", "MCP"] + (["CX", "MCX"] if width >= 2 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        order = draw(st.permutations(range(width)))
        if kind in ("H", "X"):
            core = h(order[0]) if kind == "H" else x(order[0])
        else:
            n_controls = 1 if kind == "CX" else draw(st.integers(0 if kind == "MCP" else 1, width - 1))
            controls, target = tuple(order[:n_controls]), order[n_controls]
            if kind == "CX":
                core = cx(controls[0], target)
            elif kind == "MCX":
                core = mcx(controls, target)
            else:
                core = mcp(controls, target, draw(phases))
        involved = st.sampled_from(core.qubits())
        gates += [x(q) for q in draw(st.lists(involved, max_size=4))]
        gates.append(core)
        gates += [x(q) for q in draw(st.lists(involved, max_size=4))]
    return gates


@st.composite
def _x_dense_circuits(draw, phases=st.floats(-math.pi, math.pi)):
    """One circuit of `_x_dense_gates` on 1 to 6 qubits."""
    width = draw(st.integers(1, 6))
    return Circuit(_bare_layout(width), tuple(_x_dense_gates(draw, width, phases)))


_ANY_PHASE = st.one_of(st.just(2 * math.pi), st.floats(-2 * math.pi, 2 * math.pi, exclude_min=True))


@st.composite
def _composed_circuits(draw) -> list:
    """Circuits on one layout, each a leaf of `_x_dense_gates` or made from
    earlier ones by +, * (0 to 3 times), invert_circuit or a + b +
    invert(a), so parts are shared between them and repeated within them."""
    width = draw(st.integers(1, 6))
    layout = _bare_layout(width)

    def leaf():
        return Circuit(layout, _x_dense_gates(draw, width, _ANY_PHASE, max_gates=6))

    made = [leaf()]
    for _ in range(draw(st.integers(0, 6))):
        step = draw(st.sampled_from(["leaf", "+", "*", "invert", "uncompute"]))
        a = draw(st.sampled_from(made))
        if step == "leaf":
            made.append(leaf())
        elif step == "+":
            made.append(a + draw(st.sampled_from(made)))
        elif step == "uncompute":  # as R1 and D2 are built
            made.append(a + draw(st.sampled_from(made)) + invert_circuit(a))
        elif step == "*":
            made.append(a * draw(st.integers(0, 3)))
        else:
            made.append(invert_circuit(a))
    return made


@st.composite
def _diagonal_runs(draw) -> Circuit:
    """A run of X and MCP gates on 1 to 6 qubits, at least two MCPs, which may fire on one basis state.

    Each MCP fires on a pattern of a shared set of qubits, which others
    may repeat, and on any pattern of further qubits of its choice,
    NOT-conjugated as `_fires_on` does; X's before the run change every
    pattern alike and X's after it leave a move.
    """
    width = draw(st.integers(1, 6))
    order = draw(st.permutations(range(width)))
    shared = order[: draw(st.integers(1, width))]
    others = order[len(shared):]
    patterns = draw(st.lists(st.integers(0, 2 ** len(shared) - 1), min_size=2, max_size=8))
    gates = [x(q) for q in draw(st.lists(st.sampled_from(order), max_size=3))]
    for pattern in patterns:
        extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        bits = [pattern >> i & 1 for i in range(len(shared))] + [draw(st.integers(0, 1)) for _ in extra]
        flips = [x(q) for q, bit in zip([*shared, *extra], bits) if not bit]
        *controls, target = draw(st.permutations([*shared, *extra]))
        gates += [*flips, mcp(controls, target, draw(st.floats(-math.pi, math.pi))), *flips]
    gates += [x(q) for q in draw(st.lists(st.sampled_from(order), max_size=3))]
    return Circuit(_bare_layout(width), tuple(gates))


def _walked_metrics(gates, width: int) -> CircuitMetrics:
    """Unit depth and gate counts by one walk over the gates."""
    depth_at: dict[int, int] = {}
    for gate in gates:
        level = 1 + max(depth_at.get(q, 0) for q in gate.qubits())
        for q in gate.qubits():
            depth_at[q] = level
    counts = Counter(g.kind.value for g in gates)
    return CircuitMetrics(width, max(depth_at.values(), default=0), dict(sorted(counts.items())))


def _assert_bit_identical(got: np.ndarray, expected: np.ndarray) -> None:
    # Zero signs included: -0.0 and 0.0 differ.
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _assert_same_steps(got: list, expected: list) -> None:
    """Equal kernels, and equal arrays or values in each step's arguments."""
    assert [step[0] for step in got] == [step[0] for step in expected]
    for step, want_step in zip(got, expected):
        for arg, want in zip(step[1:], want_step[1:]):
            assert np.array_equal(arg, want) if isinstance(arg, np.ndarray) else arg == want


def _unrolled(plan: tuple) -> list:
    """The plan's steps with every repeat step written out."""
    steps = []
    for step in plan:
        steps += _unrolled(step[1]) * step[2] if step[0] is _repeat else [step]
    return steps


def _h_qubits(step: tuple) -> list:
    """The qubits, in order, of an H layer step compiled on all qubits."""
    _, transposes, passes = step
    return list(transposes[0][:passes])


class TestCompiledPlan:
    @settings(max_examples=200, deadline=None)
    @given(circuit=_x_dense_circuits(), seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(0, 100), max_size=5))
    # Two disjoint MCPs in one run: one step with a factor per position
    # for both would move amplitude 15 by 6.9e-18.
    @example(
        circuit=Circuit(_bare_layout(4), (*[h(0)] * 16, mcp((), 0, 0.0), x(0), mcp((0, 1, 2), 3, 1.0))),
        seed=0,
        cuts=[],
    )
    def test_bit_identical_to_gate_by_gate_and_to_slices(self, circuit, seed, cuts):
        width = circuit.layout.width
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)

        one_shot = run(circuit, StateVector(width, amps.copy())).amplitudes

        gate_by_gate = StateVector(width, amps.copy())
        for gate in circuit.gates:
            apply_gate(gate_by_gate, gate)
        assert np.array_equal(one_shot, gate_by_gate.amplitudes)

        bounds = sorted({0, len(circuit), *(c % (len(circuit) + 1) for c in cuts)})
        sliced = StateVector(width, amps.copy())
        for start, stop in zip(bounds, bounds[1:]):
            run(Circuit(circuit.layout, circuit.gates[start:stop]), sliced)
        assert np.array_equal(one_shot, sliced.amplitudes)

    @settings(max_examples=200, deadline=None)
    @given(
        circuit=_x_dense_circuits(),
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(0, 2**6 - 1),
        part=st.sampled_from([1, 1j, 1 + 1j]),
    )
    @example(
        circuit=Circuit(_bare_layout(5), (x(2), *[h(0)] * 10, mcp((), 0, 2.0), *[h(0)] * 5, h(2))),
        seed=0,
        support=0,
        part=1j,
    )
    def test_sparse_states_match_the_per_gate_formula(self, circuit, seed, support, part):
        # Supports from one basis state to dense, and purely real or
        # imaginary values, so many parts are zeros of either sign.
        width = circuit.layout.width
        size = 1 + support % 2**width
        rng = np.random.default_rng(seed)
        amps = np.zeros(2**width, dtype=np.complex128)
        amps[rng.choice(2**width, size, replace=False)] = (
            part.real * rng.normal(size=size) + 1j * part.imag * rng.normal(size=size)
        )
        amps /= np.linalg.norm(amps)

        expected = amps
        for gate in circuit.gates:
            expected = _reference_gate(expected, gate, width)

        one_shot = run(circuit, StateVector(width, amps.copy())).amplitudes
        _assert_bit_identical(one_shot, expected)
        gate_by_gate = StateVector(width, amps.copy())
        for gate in circuit.gates:
            apply_gate(gate_by_gate, gate)
        _assert_bit_identical(gate_by_gate.amplitudes, expected)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), part=st.sampled_from([1, 1j]))
    def test_h_run_is_one_layer_step_per_distinct_stretch(self, data, seed, part):
        width = data.draw(st.integers(1, 9), label="width")
        order = data.draw(st.permutations(range(width)), label="order")
        targets = order[: data.draw(st.integers(1, width), label="length")]
        if data.draw(st.booleans(), label="repeat"):
            at = data.draw(st.integers(0, len(targets)), label="at")
            targets = [*targets[:at], data.draw(st.sampled_from(targets), label="again"), *targets[at:]]
        circuit = Circuit(_bare_layout(width), tuple(h(q) for q in targets))

        # A new step starts only where a qubit repeats, so a distinct run
        # is one step; each step is an H layer, a lone H one of one pass.
        plan = _unit_plan(circuit, width)
        layers = [_h_qubits(step) for step in plan]
        assert [q for layer in layers for q in layer] == targets
        assert len(plan) == 1 + (len(set(targets)) < len(targets))
        assert all(step[0] is _hadamards and len(set(layer)) == len(layer) for step, layer in zip(plan, layers))
        lone = _unit_plan(Circuit(circuit.layout, (h(targets[0]),)), width)
        assert [(step[0], step[2]) for step in lone] == [(_hadamards, 1)]

        # Sparse, purely real or imaginary states, so zeros of both signs appear.
        rng = np.random.default_rng(seed)
        size = 1 + data.draw(st.integers(0, 2**width - 1), label="support")
        amps = np.zeros(2**width, dtype=np.complex128)
        amps[rng.choice(2**width, size, replace=False)] = part * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        expected = amps
        for gate in circuit.gates:
            expected = _reference_gate(expected, gate, width)
        _assert_bit_identical(run(circuit, StateVector(width, amps.copy())).amplitudes, expected)

    @pytest.mark.parametrize("n", [3, 4])
    def test_two_step_plan_swaps_only_the_marker_not(self, n):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, builtin_phases(n), Schedule(2, 2))
        full = _unrolled(_unit_plan(circuit, layout.width))

        kinds = Counter(kernel.__name__ for kernel, _, _ in full)
        assert kinds == {"_permute": 11, "_hadamards": 25, "_phase": {3: 24, 4: 60}[n]}

        # The marker's NOT, which an H follows, is the first step: a move of
        # every position p to p ^ 1, the marker being the last axis.
        positions = np.arange(2**layout.width)
        assert full[0][0] is _permute
        assert np.array_equal(full[0][2], positions) and np.array_equal(full[0][1], positions ^ 1)

    @pytest.mark.parametrize("main", [False, True], ids=["full", "main"])
    def test_plan_is_compiled_once_per_circuit(self, main):
        # D2 is built anew on each call, from leaves kept per layout: G1, the
        # H layer, their inverses and the zero reflection.
        layout = HoboLayout.for_cities(3)
        width, other = (layout.main_qubits, layout.width) if main else (layout.width, layout.main_qubits)
        circuit = build_d2(layout, 2)
        assert _unit_plan(circuit, width) is _unit_plan(circuit, width)
        assert _unit_plan(circuit, width) is not _unit_plan(circuit, other)
        assert _unit_plan(Circuit(layout, circuit.gates), width) is not _unit_plan(circuit, width)
        # A second D2 is another circuit with a plan of its own, made of the
        # steps compiled for the first: G1's plans, the class of its
        # reflection and the centre's steps are compiled once per layout.
        again = build_d2(layout, 2)
        assert again is not circuit and _unit_plan(again, width) is not _unit_plan(circuit, width)
        assert all(a[1] is b[1] for a, b in zip(_unit_plan(again, width), _unit_plan(circuit, width), strict=True))
        # Nothing outside the circuit holds it, so its plan dies with it.
        freed = weakref.ref(circuit)
        del circuit
        gc.collect()
        assert freed() is None

    def test_compile_does_not_grow_with_the_repeat_counts(self):
        # Only the compile: running the plan stays linear in q1.
        layout = HoboLayout.for_cities(3)
        clear_builder_caches()  # a cold compile, G1's plan included
        plan, peak = _traced_compile(_after_state_prep(build_two_step(layout, builtin_phases(3), Schedule(10**5, 0))))
        assert [step[0] for step in plan].count(_repeat) == 1
        assert peak < 2**20

    def test_compile_allocates_only_the_view(self):
        # The permutations are built on the 2**8 view positions, not the
        # 2**15 basis states of the n=4 layout.
        layout = HoboLayout.for_cities(4)
        clear_builder_caches()  # a cold compile, G1's plan included
        _, peak = _traced_compile(_after_state_prep(build_two_step(layout, builtin_phases(4), Schedule(2, 2))))
        assert peak < 64 * 2**10


def _traced_compile(circuit: Circuit) -> tuple:
    """The circuit's main-register plan and the compile's `tracemalloc` peak."""
    tracemalloc.start()
    try:
        plan = _unit_plan(circuit, circuit.layout.main_qubits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return plan, peak


def _gate_by_gate(circuit: Circuit, state: StateVector) -> np.ndarray:
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state.amplitudes


def _by_view(amps: np.ndarray, layout: HoboLayout) -> tuple:
    """The amplitudes with every ancilla bit 0, by main-register state and marker, and the rest."""
    blocks = amps.reshape(2**layout.main_qubits, -1, 2**layout.marker_qubits)
    return blocks[:, 0].copy(), blocks[:, 1:]


class TestViews:
    @pytest.mark.parametrize("schedule", [Schedule(2, 2), Schedule(0, 3), Schedule(3, 0)], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_step_full_width_run_is_gate_by_gate(self, n, schedule):
        layout = HoboLayout.for_cities(n)
        phases = gen_gaussian_phases(2, math.pi, 0.5, 0) if n == 2 else builtin_phases(n)
        circuit = build_two_step(layout, phases, schedule)
        # The whole state, zero signs outside the main register and the marker included.
        full = run(circuit, new_state(layout.width))
        _assert_bit_identical(full.amplitudes, _gate_by_gate(circuit, new_state(layout.width)))
        _, rest = _by_view(full.amplitudes, layout)
        assert not rest.any()

    def test_ancilla_mass_runs_on_all_qubits(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_g1(layout)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=2**layout.width) + 1j * rng.normal(size=2**layout.width)
        amps /= np.linalg.norm(amps)
        got = run(circuit, StateVector(layout.width, amps.copy())).amplitudes
        _assert_bit_identical(got, _gate_by_gate(circuit, StateVector(layout.width, amps.copy())))

    @pytest.mark.parametrize("wake", ["h", "cx", "cx run"])
    def test_a_circuit_that_wakes_an_ancilla_runs_on_all_qubits(self, wake):
        layout = HoboLayout.for_cities(3)
        ancilla = layout.main_qubits
        gates = {
            "h": [h(ancilla)],
            "cx": [h(0), cx(0, ancilla), h(0)],
            "cx run": [h(0), cx(0, ancilla), cx(0, ancilla + 1), h(0)],  # one permutation
        }[wake]
        circuit = Circuit(layout, tuple(gates))
        got = run(circuit, new_state(layout.width)).amplitudes
        expected = _gate_by_gate(circuit, new_state(layout.width))
        assert np.abs(_by_view(expected, layout)[1]).max() > 0.1
        _assert_bit_identical(got, expected)
        # A state of the main register has no ancilla to wake: its plan and
        # the run are refused, and the state is left as it was.
        with pytest.raises(_Woken):
            _unit_plan(circuit, layout.main_qubits)
        main = new_state(layout.main_qubits)
        with pytest.raises(CapacityError, match=f"needs {layout.width}"):
            run(circuit, main)
        assert np.array_equal(main.amplitudes, new_state(layout.main_qubits).amplitudes)

    def test_a_phase_on_an_ancilla_that_the_relabelling_clears_stays_on_the_main_register(self):
        # The MCP reads the ancilla while a label has it set; the second CX
        # clears it before the next H, so no move leaves the main register.
        # No sandwich folds, so the run is exact: the full state's marker-0
        # column, which the circuit leaves alone.
        layout = HoboLayout.for_cities(3)
        ancilla = layout.main_qubits
        gates = (h(0), h(1), cx(0, ancilla), mcp((ancilla,), 1, 0.7), cx(0, ancilla), h(0))
        circuit = Circuit(layout, gates)
        main = run(circuit, new_state(layout.main_qubits)).amplitudes
        expected_main, expected_rest = _by_view(_gate_by_gate(circuit, new_state(layout.width)), layout)
        _assert_bit_identical(main, expected_main[:, 0].copy())
        assert not expected_rest.any() and not expected_main[:, 1].any()

    @pytest.mark.parametrize("ancilla_mcps, main_mcps", [(1, 0), (2, 0), (2, 2)], ids=["lone", "0", "2"])
    def test_phases_on_an_ancilla_before_any_move_are_no_main_register_step(self, ancilla_mcps, main_mcps):
        # A state of the main register holds only ancilla bit 0, so an MCP
        # controlled on an ancilla fires nowhere there and is no step, alone
        # or among others.
        layout = HoboLayout.for_cities(3)
        ancilla = layout.main_qubits
        on_ancilla = [mcp((ancilla,), 0, 0.3), mcp((ancilla,), 1, 0.4)][:ancilla_mcps]
        splits = [x(1), mcp((0,), 1, 0.5), x(1), mcp((0,), 1, 0.6)][: 2 * main_mcps]
        gates = (h(0), *[h(1)][: ancilla_mcps - 1], *on_ancilla, *splits, h(0))
        circuit = Circuit(layout, gates)
        phases = [step for step in _unit_plan(circuit, layout.main_qubits) if step[0] is _phase]
        # Each other MCP fires where qubit 0 is 1 and qubit 1 is 0, or 1.
        assert [step[1].size for step in phases] == [2 ** (layout.main_qubits - 2)] * main_mcps
        # No sandwich folds, so the run is exact.
        main = run(circuit, new_state(layout.main_qubits)).amplitudes
        expected, _ = _by_view(_gate_by_gate(circuit, new_state(layout.width)), layout)
        _assert_bit_identical(main, expected[:, 0].copy())

    @pytest.mark.parametrize("n", [5, 6])
    def test_oracle_r1_negates_exactly_the_feasible_rows(self, n):
        # Too wide for the full state (41 and 46 qubits), so run on a uniform
        # main register, its marker held in |->: R1 is exactly -1 on the n! tours.
        layout = HoboLayout.for_cities(n)
        main = np.full(2**layout.main_qubits, 1 / math.sqrt(2**layout.main_qubits), dtype=complex)
        expected = main.copy()
        expected[[int(bits, 2) for bits in enumerate_feasible(n)]] *= -1
        run(build_oracle_r1(layout), StateVector(layout.main_qubits, main))
        assert np.array_equal(main, expected)

    def test_paper_run_at_five_cities(self):
        # The paper's five-city run at gate level: raw angles, the default
        # schedule, and the main register, since the full state needs 41 qubits.
        layout = HoboLayout.for_cities(5)
        phases = gen_gaussian_phases(5, math.pi, 0.5, 42)
        circuit = _after_state_prep(build_two_step(layout, phases, Schedule(12, 6)))
        state = run(circuit, uniform_state(layout.main_qubits))
        probs = main_probabilities(state, layout)
        assert abs(probs.sum() - 1) < 1e-10
        assert probs[[int(bits, 2) for bits in enumerate_feasible(5)]].sum() == pytest.approx(0.5905797642, abs=1e-9)
        assert probs[int(phases.min_key, 2)] == pytest.approx(0.0211215361, abs=1e-9)
        assert probs[int(phases.max_key, 2)] == pytest.approx(0.0295140642, abs=1e-9)

    def test_paper_run_at_six_cities(self):
        # The six-city run of the paper's setup, on its 18-qubit main register.
        layout = HoboLayout.for_cities(6)
        phases = gen_gaussian_phases(6, math.pi, 0.5, 42)
        circuit = _after_state_prep(build_two_step(layout, phases, Schedule(14, 14)))
        state = run(circuit, uniform_state(layout.main_qubits))
        probs = main_probabilities(state, layout)
        assert abs(probs.sum() - 1) < 1e-10
        assert probs[[int(bits, 2) for bits in enumerate_feasible(6)]].sum() == pytest.approx(0.0985704912, abs=1e-9)
        assert probs[int(phases.min_key, 2)] == pytest.approx(0.0011405121, abs=1e-9)
        assert probs[int(phases.max_key, 2)] == pytest.approx(0.0017467341, abs=1e-9)


class TestMarkerFree:
    """A state of the main register alone, its marker held in |-> as a sign."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), q1=st.integers(0, 3), q2=st.integers(0, 3))
    @example(n=4, seed=42, q1=2, q2=2)
    @example(n=3, seed=1, q1=1, q2=2)  # G1 * 1 joins D2's leaves: D2 does not fold
    @example(n=3, seed=1, q1=0, q2=2)  # D2 is its centre reflection alone
    def test_matches_the_exact_run(self, n, seed, q1, q2):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, gen_gaussian_phases(n, math.pi, 0.5, seed), Schedule(q1, q2))
        full = run(circuit, new_state(layout.width))
        state = run(_after_state_prep(circuit), uniform_state(layout.main_qubits))
        assert np.abs(main_probabilities(state, layout) - main_probabilities(full, layout)).max() <= 1e-12
        # The state is the main register's marker-0 column, times sqrt(2).
        columns, _ = _by_view(full.amplitudes, layout)
        assert np.abs(state.amplitudes - math.sqrt(2) * columns[:, 0]).max() <= FOLD_TOLERANCE

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), q1=st.integers(0, 3), q2=st.integers(0, 3))
    @example(n=3, seed=1, q1=1, q2=2)  # G1 * 1 joins D2's leaves: D2 does not fold
    @example(n=3, seed=1, q1=0, q2=2)  # D2 is its centre reflection alone
    def test_matches_the_reference_model(self, n, seed, q1, q2):
        _assert_matches_the_reference(n, gen_gaussian_phases(n, math.pi, 0.5, seed), Schedule(q1, q2))

    @pytest.mark.parametrize(("n", "schedule"), [(5, Schedule(12, 6)), (6, Schedule(14, 14))], ids=["5", "6"])
    def test_matches_the_reference_model_at_the_papers_schedules(self, n, schedule):
        # The paper's schedules at n=5 and 6, whose full states are too wide.
        _assert_matches_the_reference(n, gen_gaussian_phases(n, math.pi, 0.5, 42), schedule)

    def test_four_city_plan(self):
        layout = HoboLayout.for_cities(4)
        circuit = _after_state_prep(build_two_step(layout, builtin_phases(4), Schedule(2, 2)))
        plan = _unit_plan(circuit, layout.main_qubits)
        assert _permute not in {step[0] for step in _unrolled(plan)}
        assert [step[0] for step in plan] == [_repeat, _repeat]
        g1_plan, g2_plan = plan[0][1], plan[1][1]
        # R1 flips the marker of each feasible tour and moves no amplitude:
        # one phase -1 on the 24 tours, then D1's reflection about |s>.
        tours = [int(bits, 2) for bits in enumerate_feasible(4)]
        assert [step[0] for step in g1_plan] == [_phase, _reflect]
        assert np.array_equal(g1_plan[0][1], tours)
        assert g1_plan[0][2] == -1
        positions, a, b = g1_plan[1][1]
        assert positions.size == 0 and a == b == 1 / 16
        # G2 is R2's table and D2's reflection about G1^2 |s>, which is one
        # value on the 24 tours and another off them.
        assert [step[0] for step in g2_plan] == [_phase, _reflect]
        positions, a, b = g2_plan[1][1]
        assert np.array_equal(positions, tours)
        psi = uniform_state(layout.main_qubits).amplitudes
        _execute(((_repeat, g1_plan, 2),), psi)
        expected = np.full(2**8, b)
        expected[tours] = a
        _assert_bit_identical(psi, expected)

    @pytest.mark.parametrize("reads", ["prep", "cx control", "mcp target", "mcp control"])
    def test_a_circuit_that_prepares_or_reads_the_marker_is_refused(self, reads):
        layout = HoboLayout.for_cities(3)
        marker = layout.marker
        circuit = {
            "prep": build_two_step(layout, builtin_phases(3), Schedule(2, 2)),
            "cx control": Circuit(layout, (h(0), cx(marker, 0), h(0))),
            "mcp target": Circuit(layout, (h(0), mcp((0,), marker, 0.5), h(0))),
            "mcp control": Circuit(layout, (h(0), mcp((marker,), 0, 0.5), h(0))),
        }[reads]
        state = new_state(layout.main_qubits)
        message = (
            "the circuit sets an ancilla, or prepares or reads the marker, which a state of 6 qubits "
            "may not hold; a full-width state needs 13"
        )
        with pytest.raises(CapacityError, match=re.escape(message)):
            run(circuit, state)
        assert np.array_equal(state.amplitudes, new_state(layout.main_qubits).amplitudes)
        # A full-width state holds the marker, and runs each of them.
        run(circuit, new_state(layout.width))

    def test_an_ancilla_is_refused_with_the_same_message(self):
        layout = HoboLayout.for_cities(3)
        circuit = Circuit(layout, (h(0), cx(0, layout.main_qubits), h(0)))
        message = (
            "the circuit sets an ancilla, or prepares or reads the marker, which a state of 6 "
            "qubits may not hold; a full-width state needs 13"
        )
        with pytest.raises(CapacityError, match=re.escape(message)):
            run(circuit, new_state(layout.main_qubits))

    def test_a_flip_of_the_marker_is_a_sign(self):
        # CX and MCX onto the marker, and X on it, which negates every amplitude.
        layout = HoboLayout.for_cities(3)
        marker = layout.marker
        gates = (h(0), h(1), cx(0, marker), mcx((0, 1), marker), x(marker), x(2), h(2))
        circuit = Circuit(layout, gates)
        got = run(circuit, new_state(layout.main_qubits)).amplitudes
        full = _gate_by_gate(Circuit(layout, (x(marker), h(marker), *gates)), new_state(layout.width))
        columns, _ = _by_view(full, layout)
        assert np.abs(got - math.sqrt(2) * columns[:, 0]).max() <= FOLD_TOLERANCE


def _assert_matches_the_reference(n: int, phases, schedule: Schedule) -> None:
    """The main-register run equals `two_step_reference` per amplitude, tours and the rest alike."""
    layout = HoboLayout.for_cities(n)
    circuit = _after_state_prep(build_two_step(layout, phases, schedule))
    state = run(circuit, uniform_state(layout.main_qubits))
    expected = two_step_reference(phases.phases, schedule.q1, schedule.q2)
    assert np.abs(state.amplitudes - expected).max() <= 1e-13


def _sandwich(qubits: tuple, zeros: tuple) -> list:
    """H on `qubits`, phase -1 where all of `zeros` are 0, H on `qubits` in reverse."""
    flips = [x(q) for q in zeros]
    return [*map(h, qubits), *flips, mcp(zeros[:-1], zeros[-1], math.pi), *flips, *map(h, reversed(qubits))]


class TestFold:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), q1=st.integers(0, 3), q2=st.integers(0, 3))
    @example(n=3, seed=42, q1=2, q2=10)  # the benchmark's sweep: 10 folded D2s
    @example(n=4, seed=42, q1=2, q2=2)
    @example(n=2, seed=0, q1=2, q2=2)  # psi is one value: a D2 class of no positions
    @example(n=3, seed=1, q1=1, q2=2)  # G1 * 1 joins D2's leaves: D2 does not fold
    @example(n=3, seed=1, q1=0, q2=2)  # D2 is its centre sandwich alone
    def test_main_register_run_folds_every_sandwich_and_matches_the_exact_run(self, n, seed, q1, q2):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, gen_gaussian_phases(n, math.pi, 0.5, seed), Schedule(q1, q2))
        main = _after_state_prep(circuit)
        # Each D1 is a sandwich, and each D2 holds 2 * q1 of them and its
        # centre; the opening H layer is the uniform start state, so no H is
        # left.  From q1 = 2 each D2 is one reflection about the first
        # stage's output, which takes two values at most.
        kinds = Counter(step[0] for step in _unrolled(_unit_plan(main, layout.main_qubits)))
        assert kinds[_hadamards] == 0
        assert kinds[_reflect] == (q1 + q2 if q1 >= 2 else q1 + q2 * (2 * q1 + 1))
        exact, _ = _by_view(run(circuit, new_state(layout.width)).amplitudes, layout)
        folded = run(main, uniform_state(layout.main_qubits)).amplitudes
        assert np.abs(folded - math.sqrt(2) * exact[:, 0]).max() <= FOLD_TOLERANCE

    @pytest.mark.parametrize(
        "qubits, zeros, folds",
        [
            ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), True),
            ((5, 3, 1, 0, 2, 4), (2, 0, 5, 1, 3, 4), True),
            ((0, 1), (0, 1), False),
            ((3, 2, 1, 0), (0, 1, 2, 3), False),
            ((0, 1, 2, 3, 4, 5), (0, 1), False),
            ((2, 1), (2, 1), False),
            ((0, 2), (0, 2), False),
            ((1, 2), (0, 1), False),
        ],
        ids=[
            "all axes",
            "all axes in any order",
            "two leading axes",
            "four leading axes",
            "phase on fewer axes",
            "inner axes",
            "gapped axes",
            "phase on other axes",
        ],
    )
    def test_only_a_sandwich_on_all_axes_folds(self, qubits, zeros, folds):
        # On the main register of a layout with a marker, a view that folds.
        layout = _marked_layout(6)
        circuit = Circuit(layout, tuple(_sandwich(qubits, zeros)))
        plan = _unit_plan(circuit, 6)
        rng = np.random.default_rng(7)
        amps = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
        amps /= np.linalg.norm(amps)
        got = amps.copy()
        _execute(plan, got)
        expected = _gate_by_gate(circuit, StateVector(6, amps.copy()))
        if folds:
            [(kernel, (positions, a, b), factor)] = plan
            assert kernel is _reflect and positions.size == 0 and a == b == 1 / 8
            assert factor == cmath.exp(1j * math.pi)
            assert np.abs(got - expected).max() <= FOLD_TOLERANCE
        else:
            assert [step[0] for step in plan] == [_hadamards, _phase, _hadamards]
            _assert_bit_identical(got, expected)

    def test_a_fused_phase_step_never_folds(self):
        # A one-entry table is one step on position 0 alone, where a
        # sandwich's phase fires, but with a factor array.  A table is a
        # step of its own, outside the runs of leaves that fold.
        layout = HoboLayout.for_cities(2)
        oracle = PhaseOracle(layout, {"00": 0.5})
        hadamards = Circuit(layout, (h(0), h(1)))
        circuit = hadamards + oracle + hadamards
        plan = _unit_plan(circuit, layout.main_qubits)
        assert "leaf" not in vars(oracle)
        assert [step[0] for step in plan] == [_hadamards, _phase, _hadamards]
        assert np.array_equal(plan[1][1], [0]) and plan[1][2].shape == (1,)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=2**layout.main_qubits) + 1j * rng.normal(size=2**layout.main_qubits)
        amps /= np.linalg.norm(amps)
        got = amps.copy()
        _execute(plan, got)
        full = np.zeros(2**layout.width, dtype=np.complex128)
        full.reshape(2**layout.main_qubits, -1)[:, 0] = amps
        expected, _ = _by_view(_gate_by_gate(circuit, StateVector(layout.width, full)), layout)
        assert np.abs(got - expected[:, 0]).max() <= FOLD_TOLERANCE

    @pytest.mark.parametrize("factor", [-1, cmath.exp(0.7j)], ids=["reflection", "phase 0.7"])
    @settings(max_examples=50, deadline=None)
    @given(width=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_reflection_is_the_dense_operator(self, factor, width, data, seed):
        # Position sets from empty to all positions, and unit psi of any a and b.
        size = 2**width
        some = st.lists(st.integers(0, size - 1), unique=True).map(sorted)
        drawn = data.draw(st.one_of(st.just([]), st.just(list(range(size))), some), label="positions")
        positions = np.array(drawn, dtype=np.int64)
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.sqrt(abs(a) ** 2 * positions.size + abs(b) ** 2 * (size - positions.size))
        a, b = complex(a / norm), complex(b / norm)
        psi = np.full(size, b)
        psi[positions] = a
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        amps /= np.linalg.norm(amps)
        expected = (np.eye(size) + (factor - 1) * np.outer(psi, psi.conj())) @ amps
        got = amps.copy()
        _reflect(got.reshape((2,) * width), (positions, a, b), factor)
        assert np.abs(got - expected).max() <= 1e-12

    def test_reflection_refuses_a_view_it_cannot_reshape_in_place(self):
        strided = np.zeros(16, dtype=np.complex128)[::2].reshape((2,) * 3)
        with pytest.raises(ValueError, match="C-contiguous"):
            _reflect(strided, (np.empty(0, dtype=np.int64), 1 / math.sqrt(8), 1 / math.sqrt(8)), -1)

    @pytest.mark.parametrize("case", ["three-valued psi", "centre already folded"])
    def test_a_conjugated_reflection_that_cannot_fold_runs_its_parts(self, case):
        # Three values: P's two MCPs fire on disjoint positions with different
        # phases, so psi = P^2 |s> takes three.  Folded centre: P's one MCP
        # makes a two-valued psi, so the inner P^-1 * 2, R and P * 2 fold, but
        # the outer pair conjugates a reflection about psi, not about |s>.
        # Either way P^-1 * 2, the centre and P * 2 stay three steps.
        layout = _marked_layout(4)
        centre = Circuit(layout, tuple(_sandwich((0, 1, 2, 3), (0, 1, 2, 3))))
        if case == "three-valued psi":
            part = Circuit(layout, (mcp((0, 1), 2, 0.3), x(0), mcp((0, 1), 3, 0.5), x(0)))
        else:
            part = Circuit(layout, (mcp((0, 1), 2, 0.3),))
            centre = invert_circuit(part) * 2 + centre + part * 2
        circuit = invert_circuit(part) * 2 + centre + part * 2
        plan = _unit_plan(circuit, 4)
        assert [step[0] for step in plan] == [_repeat, _reflect, _repeat]
        assert plan[0][1] is _unit_plan(invert_circuit(part), 4)
        assert plan[1][1][0].size == (0 if case == "three-valued psi" else 2)
        rng = np.random.default_rng(11)
        amps = rng.normal(size=2**4) + 1j * rng.normal(size=2**4)
        amps /= np.linalg.norm(amps)
        got = amps.copy()
        _execute(plan, got)
        expected = _gate_by_gate(circuit, StateVector(4, amps.copy()))
        assert np.abs(got - expected).max() <= FOLD_TOLERANCE

    def test_the_first_stage_folds_once_for_the_prefix_and_every_d2(self):
        layout = HoboLayout.for_cities(4)
        circuit = _after_state_prep(build_two_step(layout, builtin_phases(4), Schedule(2, 2)))
        plan = _unit_plan(circuit, layout.main_qubits)
        assert [step[0] for step in plan] == [_repeat, _repeat]
        g1_plan, g2_plan = plan[-2][1], plan[-1][1]
        assert [step[0] for step in g1_plan] == [_phase, _reflect]
        assert g1_plan is _unit_plan(build_g1(layout), layout.main_qubits)
        # D2 is one reflection about psi = G1^2 |s>, which the prefix's G1
        # plan computes: a on the tours and b off them.
        assert g2_plan[-1][0] is _reflect and g2_plan[-1][2] == cmath.exp(1j * math.pi)
        positions, a, b = g2_plan[-1][1]
        psi = np.full(2**layout.main_qubits, b)
        psi[positions] = a
        # The prefix leaves psi itself.
        prefix = _after_state_prep(build_two_step(layout, builtin_phases(4), Schedule(2, 0)))
        _assert_bit_identical(run(prefix, uniform_state(layout.main_qubits)).amplitudes, psi)

    def test_every_d2_of_a_layout_and_q1_shares_one_class(self):
        layout = HoboLayout.for_cities(3)

        def d2_class(q1: int, seed: int) -> tuple:
            circuit = build_two_step(layout, gen_gaussian_phases(3, math.pi, 0.5, seed), Schedule(q1, 2))
            # The last step of G2's plan, itself the plan's last step.
            kernel, members, _ = _unit_plan(_after_state_prep(circuit), layout.main_qubits)[-1][1][-1]
            assert kernel is _reflect
            return members

        assert d2_class(2, 0) is d2_class(2, 1)
        assert d2_class(3, 0) is not d2_class(2, 0)
        tours = [int(bits, 2) for bits in enumerate_feasible(3)]
        assert np.array_equal(d2_class(3, 0)[0], tours) and np.array_equal(d2_class(2, 0)[0], tours)

    def test_nothing_kept_on_g1_outgrows_the_tours(self):
        # After a paper-schedule run at n=5, every array that G1 keeps (its
        # plans' steps and D2's class) holds at most the n! = 120 tours, not
        # the 2**15 amplitudes of the main register.
        layout = HoboLayout.for_cities(5)
        circuit = build_two_step(layout, gen_gaussian_phases(5, math.pi, 0.5, 42), Schedule(12, 6))
        run(_after_state_prep(circuit), uniform_state(layout.main_qubits))
        kept = vars(build_g1(layout))
        assert kept["_projections"][12, layout.main_qubits] is not None

        def sizes(value) -> list:
            if isinstance(value, np.ndarray):
                return [value.size]
            if isinstance(value, (tuple, list)):
                return [size for item in value for size in sizes(item)]
            if isinstance(value, dict):
                return sizes(list(value.values()))
            return []

        found = sizes(list(kept.values()))
        assert found and max(found) <= math.factorial(5)

    def test_a_full_width_state_keeps_the_exact_plan_after_a_main_register_run(self):
        # Each width has its own plan, and the runs of leaves that a plan is
        # made of are kept by width: the folded steps are compiled first
        # here, and the full-width runs stay exact.
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(2, 2))
        main = _after_state_prep(circuit)
        run(main, uniform_state(layout.main_qubits))
        for exact in (circuit, main):
            got = run(exact, new_state(layout.width)).amplitudes
            _assert_bit_identical(got, _gate_by_gate(exact, new_state(layout.width)))


class TestDiagonalRuns:
    @settings(max_examples=150, deadline=None)
    @given(circuit=_diagonal_runs(), seed=st.integers(0, 2**32 - 1))
    # The same MCP twice, and two MCPs whose masks overlap.
    @example(circuit=Circuit(_bare_layout(3), (x(0), mcp((0,), 1, 0.5), mcp((0,), 1, 0.7), x(0))), seed=3)
    @example(circuit=Circuit(_bare_layout(3), (mcp((0,), 1, 0.5), x(2), mcp((1,), 2, 0.7))), seed=3)
    def test_a_diagonal_run_is_exact_on_the_main_register(self, circuit, seed):
        width = circuit.layout.width
        exact = _unit_plan(circuit, width)
        # The same gates on the main register of a layout with a marker, a
        # view that folds, compile as the exact plan does: a step for each
        # MCP, with a scalar factor, and at most one move.
        main = _unit_plan(Circuit(_marked_layout(width), circuit.gates), width)
        mcps = sum(gate.kind.value == "MCP" for gate in circuit.gates)
        assert [step[0] for step in main] == [_phase] * mcps + [_permute] * (len(main) - mcps)
        assert len(main) <= mcps + 1 and all(np.ndim(step[2]) == 0 for step in main[:mcps])
        _assert_same_steps(main, exact)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)
        got = amps.copy()
        _execute(main, got)
        _assert_bit_identical(got, _gate_by_gate(circuit, StateVector(width, amps.copy())))


@st.composite
def _tour_tables(draw) -> tuple:
    """A layout of 2 to 4 cities and a table of some of its tours, each with an angle."""
    n = draw(st.integers(2, 4), label="n")
    tours = enumerate_feasible(n)
    keys = draw(st.lists(st.sampled_from(tours), min_size=1, max_size=len(tours), unique=True), label="tours")
    angles = st.floats(0.0, 2 * math.pi, exclude_min=True, exclude_max=True)
    return HoboLayout.for_cities(n), {bits: draw(angles) for bits in keys}


def _per_layout_sizes(layout: HoboLayout) -> list:
    """The sizes of the builder caches, and of what each per-layout circuit keeps on itself."""
    h_layer, g1 = circuits._h_layer(layout), build_g1(layout)
    kept = (
        circuits._marker_prep(layout),
        h_layer,
        invert_circuit(h_layer),
        circuits._zero_reflection(layout),
        g1,
        invert_circuit(g1),
    )
    sizes = [cache.cache_info().currsize for cache in BUILDER_CACHES]
    return sizes + [len(vars(circuit).get(name, ())) for circuit in kept for name in ("_runs", "_plans", "_projections")]


class TestBoundOracle:
    """A main-register run binds only R2's table: every other block compiles once per layout."""

    @settings(max_examples=100, deadline=None)
    @given(layout_and_table=_tour_tables())
    @example(layout_and_table=(HoboLayout.for_cities(3), {}))
    def test_a_tables_step_is_the_compile_of_its_gates(self, layout_and_table):
        layout, table = layout_and_table
        oracle = PhaseOracle(layout, table)
        direct = _unit_plan(oracle, layout.main_qubits)
        assert "leaf" not in vars(oracle)  # the step came from the table, not from gates
        # The exact compile is one step per entry, in table order, none of which moves a label.
        compiled = _compile(oracle.gates, *_view(layout, layout.main_qubits))
        assert [step[0] for step in compiled] == [_phase] * len(table)
        # An empty table is no step; any other is one step with a factor per position.
        assert len(direct) == min(len(table), 1)
        if direct:
            (kernel, positions, factor), want_factors = direct[0], [step[2] for step in compiled]
            assert kernel is _phase
            want_positions = np.concatenate([step[1] for step in compiled])
            assert positions.dtype == want_positions.dtype and np.array_equal(positions, want_positions)
            want = np.repeat(want_factors, [step[1].size for step in compiled])
            assert factor.dtype == want.dtype and np.array_equal(factor, want)

    @pytest.mark.parametrize(
        "n, schedule",
        [(n, schedule) for n in (3, 4) for schedule in (Schedule(2, 2), Schedule(1, 1), Schedule(0, 3))]
        + [(5, Schedule(1, 2))],
        ids=str,
    )
    def test_a_second_dataset_compiles_and_builds_no_gate(self, n, schedule, monkeypatch):
        layout = HoboLayout.for_cities(n)

        def main_plan(phases) -> tuple:
            return _unit_plan(_after_state_prep(build_two_step(layout, phases, schedule)), layout.main_qubits)

        main_plan(gen_gaussian_phases(n, math.pi, 0.5, 1))
        calls = Counter()

        def counted(name, fn):
            return lambda *args: calls.update([name]) or fn(*args)

        for name in ("_compile", "_relabel"):
            monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
        monkeypatch.setattr(circuits, "mcp", counted("mcp", circuits.mcp))
        phases = gen_gaussian_phases(n, math.pi, 0.5, 2)
        warm = main_plan(phases)
        # R2's step comes from its table, and every run of leaves around it
        # is kept per layout, at every q1.
        assert calls == Counter()
        monkeypatch.undo()
        # Each R2 step holds one position per tour, in table order, each
        # with its tour's factor e^{iw}.  Every other phase step is R1's -1
        # on the tours, or folds.
        positions = [int(bits, 2) for bits in phases.phases]
        factors = [cmath.exp(1j * w) for w in phases.phases.values()]
        r2_steps = [step for step in _unrolled(warm) if step[0] is _phase and np.ndim(step[2])]
        assert len(r2_steps) == schedule.q2
        for _, fired, fused in r2_steps:
            assert np.array_equal(fired, positions) and np.array_equal(fused, factors)
        # The plan bound to the second dataset runs as one compiled cold.
        clear_builder_caches()
        cold = main_plan(phases)
        got, expected = uniform_state(layout.main_qubits).amplitudes, uniform_state(layout.main_qubits).amplitudes
        _execute(warm, got)
        _execute(cold, expected)
        _assert_bit_identical(got, expected)

    @pytest.mark.parametrize("schedule", [Schedule(2, 2), Schedule(2, 1), Schedule(1, 1), Schedule(0, 3)], ids=str)
    def test_no_dataset_outlives_its_run(self, schedule):
        layout = HoboLayout.for_cities(3)
        freed, sizes = [], None
        for seed in range(20):
            circuit = build_two_step(layout, gen_gaussian_phases(3, math.pi, 0.5, seed), schedule)
            run(_after_state_prep(circuit), uniform_state(layout.main_qubits))
            freed.append(weakref.ref(circuit))
            del circuit
            sizes = sizes or _per_layout_sizes(layout)
        gc.collect()
        assert all(ref() is None for ref in freed)
        # No run of leaves is kept on a dataset's R2 or keyed by it.
        assert _per_layout_sizes(layout) == sizes


class TestBlockStructure:
    @settings(max_examples=150, deadline=None)
    @given(made=_composed_circuits(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_composed_circuits_match_their_flat_gate_list(self, made, seed, data):
        # In a drawn order, so a part's results may be kept on it already.
        for i in data.draw(st.permutations(range(len(made))), label="order"):
            circuit = made[i]
            flat = Circuit(circuit.layout, circuit.gates)
            assert len(circuit) == len(circuit.gates)
            assert circuit == flat and hash(circuit) == hash(flat)
            assert metrics(circuit) == _walked_metrics(circuit.gates, circuit.layout.width)
            assert circuit_to_text(circuit) == circuit_to_text(flat)

        # Fusion stops at a repeat, so the steps may differ from the flat
        # plan's (a leaf [CX, CX] * 2 gives two permutations, not one); the state may not.
        circuit = made[-1]
        width = circuit.layout.width
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)
        flat = run(Circuit(circuit.layout, circuit.gates), StateVector(width, amps.copy()))
        _assert_bit_identical(run(circuit, StateVector(width, amps.copy())).amplitudes, flat.amplitudes)

    @pytest.mark.parametrize("n", [3, 4])
    def test_two_step_plan_is_the_flat_gate_list_plan(self, n):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, builtin_phases(n), Schedule(2, 2))
        plan = _unit_plan(circuit, layout.width)
        flat_plan = _unit_plan(Circuit(layout, circuit.gates), layout.width)
        # Marker prep and one H layer on every main qubit and the marker,
        # then G1 * q1 and G2 * q2, whose D2 ends in the same G1 * q1: G1
        # is compiled once.
        assert [step[0] for step in plan] == [_permute, _hadamards, _repeat, _repeat]
        assert plan[1][2] == layout.main_qubits + 1
        g1_plan, g2_plan = plan[-2][1], plan[-1][1]
        assert g2_plan[-1][0] is _repeat and g2_plan[-1][1] is g1_plan
        assert [step[0] for step in _unrolled(plan)] == [step[0] for step in flat_plan]
        flat = new_state(layout.width).amplitudes
        _execute(flat_plan, flat)
        _assert_bit_identical(run(circuit, new_state(layout.width)).amplitudes, flat)


class TestInverseRun:
    @settings(max_examples=100, deadline=None)
    @given(circuit=_x_dense_circuits(phases=_ANY_PHASE), seed=st.integers(0, 2**32 - 1))
    def test_inverse_restores_random_states(self, circuit, seed):
        width = circuit.layout.width
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        amps /= np.linalg.norm(amps)
        state = run(invert_circuit(circuit), run(circuit, StateVector(width, amps.copy())))
        assert np.max(np.abs(state.amplitudes - amps)) < 1e-12


class TestLinearity:
    def test_random_circuits_commute_with_superposition(self):
        rng = np.random.default_rng(17)
        width = 3
        dim = 2**width
        for _ in range(10):
            gates = []
            for _ in range(12):
                kind = rng.integers(0, 4)
                qubits = rng.permutation(width)
                if kind == 0:
                    gates.append(h(int(qubits[0])))
                elif kind == 1:
                    gates.append(x(int(qubits[0])))
                elif kind == 2:
                    gates.append(cx(int(qubits[0]), int(qubits[1])))
                else:
                    gates.append(mcp((int(qubits[0]), int(qubits[1])), int(qubits[2]), float(rng.uniform(-math.pi, math.pi))))
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec /= np.linalg.norm(vec)

            state = StateVector(width, vec.copy())
            for gate in gates:
                apply_gate(state, gate)

            accumulated = np.zeros(dim, complex)
            for basis in range(dim):
                unit = StateVector(width, np.zeros(dim, complex))
                unit.amplitudes[basis] = 1.0
                for gate in gates:
                    apply_gate(unit, gate)
                accumulated += vec[basis] * unit.amplitudes
            assert np.max(np.abs(state.amplitudes - accumulated)) < 1e-10

    def test_norm_preserved_after_every_gate(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(1, 1))
        state = new_state(layout.width)
        for gate in circuit.gates:
            apply_gate(state, gate)
            assert abs(state.norm_sq() - 1.0) < 1e-10


class TestMainDistribution:
    def test_product_state_marginal_equals_main_probabilities(self):
        layout = HoboLayout.for_cities(3)
        state = new_state(layout.width)
        apply_gate(state, h(0))
        apply_gate(state, h(3))
        dist = main_distribution(state, layout)
        expected = {b: 0.0 for b in dist}
        for bits in ("000000", "000100", "100000", "100100"):
            expected[bits] = 0.25
        for bits, p in dist.items():
            assert p == pytest.approx(expected[bits], abs=1e-12)

    def test_marginal_sums_ancilla_configurations(self):
        layout = HoboLayout.for_cities(3)
        state = new_state(layout.width)
        apply_gate(state, h(layout.marker))  # entangles nothing, splits ancilla space
        dist = main_distribution(state, layout)
        assert dist["000000"] == pytest.approx(1.0, abs=1e-12)

    def test_two_step_top_states_are_the_extreme_tours(self):
        layout = HoboLayout.for_cities(3)
        phases = builtin_phases(3)
        circuit = build_two_step(layout, phases, Schedule(2, 1))
        state = run(circuit, new_state(layout.width))
        dist = main_distribution(state, layout)
        ranked = sorted(dist, key=dist.get, reverse=True)
        assert set(ranked[:2]) == {"000110", "100100"}
        infeasible = 1.0 - success_probability(dist, enumerate_feasible(3))
        assert infeasible < 0.01

    # n=3: main register 6, full width 13; 7 is the main register and the marker.
    @pytest.mark.parametrize("width", [5, 12, 8, 14, 7])
    def test_width_mismatch(self, width):
        layout = HoboLayout.for_cities(3)
        state = new_state(width)
        message = f"state width {width} is neither the layout's width 13 nor its main register's width 6"
        for readout in (main_probabilities, main_distribution):
            with pytest.raises(ValueError, match=re.escape(message)):
                readout(state, layout)
        assert np.array_equal(state.amplitudes, new_state(width).amplitudes)


def _two_step_probabilities() -> np.ndarray:
    layout = HoboLayout.for_cities(3)
    state = run(build_two_step(layout, builtin_phases(3), Schedule(2, 1)), new_state(layout.width))
    return main_probabilities(state, layout)


class TestSample:
    def test_point_mass(self):
        counts = sample(np.array([0.0, 1.0, 0.0]), 1024, 7)
        assert counts.dtype == np.int64 and counts.tolist() == [0, 1024, 0]

    def test_deterministic_per_seed(self):
        probabilities = _two_step_probabilities()
        assert np.array_equal(sample(probabilities, 1024, 42), sample(probabilities, 1024, 42))
        assert not np.array_equal(sample(probabilities, 1024, 42), sample(probabilities, 1024, 43))

    def test_counts_sum_to_shots(self):
        probabilities = _two_step_probabilities()
        counts = sample(probabilities, 1024, 42)
        assert counts.shape == probabilities.shape and counts.sum() == 1024

    def test_normalises_and_reads_a_sequence(self):
        # Doubling every probability is exact, so the normalised draw is the same.
        probabilities = _two_step_probabilities()
        counts = sample(probabilities, 1024, 42)
        assert np.array_equal(sample(2 * probabilities, 1024, 42), counts)
        assert np.array_equal(sample(probabilities.tolist(), 1024, 42), counts)

    def test_frequencies_within_multinomial_bands(self):
        probabilities = _two_step_probabilities()
        shots = 1024
        counts = sample(probabilities, shots, 42)
        for count, p in zip(counts.tolist(), probabilities.tolist()):
            expected = shots * p
            sigma = math.sqrt(shots * p * (1.0 - p))
            # the +1 absorbs integer granularity on near-zero cells
            assert abs(count - expected) <= 4.0 * sigma + 1.0

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            sample(np.array([1.0]), 0, 1)


class TestSuccessProbability:
    def test_uniform_over_feasible(self):
        dist = {b: 1 / 6 for b in enumerate_feasible(3)}
        assert success_probability(dist, {"000110", "100100"}) == pytest.approx(1 / 3)

    def test_first_stage_only(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(2, 0))
        state = run(circuit, new_state(layout.width))
        dist = main_distribution(state, layout)
        theta = math.asin(math.sqrt(6 / 64))
        assert success_probability(dist, enumerate_feasible(3)) == pytest.approx(
            math.sin(5 * theta) ** 2, abs=1e-9
        )

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            success_probability({"0": 1.0}, set())

    def test_unknown_targets_contribute_nothing(self):
        dist = {"00": 0.5, "01": 0.5}
        assert success_probability(dist, {"00", "11"}) == pytest.approx(0.5)
