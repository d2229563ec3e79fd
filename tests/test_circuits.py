import gc
import json
import math
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsp_qsearch import (
    HoboLayout,
    PhaseAssignment,
    PhaseOracle,
    Schedule,
    StateVector,
    apply_gate,
    build_cost_oracle_r2,
    build_d2,
    build_diffusion_d1,
    build_g1,
    build_g2,
    build_oracle_r1,
    build_two_step,
    build_uniqueness_suboracle,
    build_validity_suboracle,
    builtin_phases,
    circuit_to_text,
    circuits,
    enumerate_feasible,
    gen_gaussian_phases,
    invert_circuit,
    main_distribution,
    metrics,
    new_state,
    optimal_q1,
    optimal_q2,
    run,
    success_probability,
)
from tsp_qsearch.circuits import Circuit, Gate, GateKind, cx, h, mcp, mcx, x

from helpers import (
    align_global_phase,
    gates_unitary,
    main_amplitudes,
    off_workspace_mass,
    prepare_main_basis,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "metrics_golden.json").read_text())


def set_main_codes(layout, codes):
    """Bitstring with the given per-slot codes (allows out-of-range codes)."""
    return "".join(format(c, f"0{layout.k}b") for c in codes)


class TestGateValidation:
    def test_duplicate_or_overlapping_indices(self):
        with pytest.raises(ValueError):
            mcx((1, 1), 2)
        with pytest.raises(ValueError):
            mcx((2,), 2)

    def test_arity_rules(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (1,), 0)
        with pytest.raises(ValueError):
            Gate(GateKind.CX, (1, 2), 0)
        with pytest.raises(ValueError):
            Gate(GateKind.MCX, (), 0)

    def test_phase_range(self):
        assert mcp((0,), 1, 2 * math.pi).phase == 2 * math.pi
        with pytest.raises(ValueError):
            mcp((0,), 1, -2 * math.pi)

    def test_circuit_rejects_out_of_range_qubits(self):
        layout = HoboLayout.for_cities(3)
        with pytest.raises(ValueError):
            Circuit(layout, (x(13),))
        repeated = x(0)
        with pytest.raises(ValueError, match="target=-1"):
            Circuit(layout, (repeated, repeated, x(-1), repeated))


class TestJoin:
    def test_join_rejects_different_layouts(self):
        with pytest.raises(ValueError, match="different layouts"):
            build_g1(HoboLayout.for_cities(3)) + build_g1(HoboLayout.for_cities(4))

    def test_join_concatenates_gates(self):
        layout = HoboLayout.for_cities(3)
        a, b = build_oracle_r1(layout), build_diffusion_d1(layout)
        joined = a + b
        assert joined.layout == layout
        assert joined.gates == a.gates + b.gates

    def test_repeat(self):
        layout = HoboLayout.for_cities(3)
        g1 = build_g1(layout)
        assert (g1 * 3).gates == g1.gates * 3
        assert (g1 * 3).parts[0][0] is g1
        empty = g1 * 0
        assert empty.gates == ()
        assert empty.layout == layout
        with pytest.raises(ValueError, match="non-negative"):
            g1 * -1

    @pytest.mark.parametrize(
        "combine, error",
        [
            (lambda c: c * 2.0, TypeError),
            (lambda c: c * 1.5, TypeError),
            (lambda c: c * -1, ValueError),
            (lambda c: c + 5, TypeError),
        ],
        ids=["times 2.0", "times 1.5", "times -1", "plus 5"],
    )
    def test_bad_operands_raise_at_once(self, combine, error):
        with pytest.raises(error):
            combine(build_g1(HoboLayout.for_cities(3)))

    def test_numpy_integer_repeat_count(self):
        g1 = build_g1(HoboLayout.for_cities(3))
        twice = g1 * np.int64(2)
        assert twice.parts == ((g1, 2),) and type(twice.parts[0][1]) is int
        assert twice.gates == g1.gates * 2 and len(twice) == 2 * len(g1)
        assert metrics(twice) == metrics(g1 * 2)
        assert circuit_to_text(twice) == circuit_to_text(g1 * 2)

    def test_two_step_repeats_one_g1_object(self):
        layout = HoboLayout.for_cities(3)
        phases = builtin_phases(3)
        g1, g2 = build_g1(layout), build_g2(layout, phases, 2)
        total = build_two_step(layout, phases, Schedule(2, 3))
        (first, times1), (second, times2) = total.parts[-2:]
        assert first is g1 and times1 == 2
        assert second == g2 and times2 == 3
        # D2 = invert(A) + zero reflection + A, with A = H layer + G1 * q1.
        d2_parts = [(id(part), times) for part, times in g2.parts]
        assert (id(g1), 2) in d2_parts and (id(invert_circuit(g1)), 2) in d2_parts
        assert invert_circuit(invert_circuit(g1)) is g1
        # G2 opens with its R2, which holds the dataset's table; every other
        # part, D2's, is the same object for another dataset.
        other = build_g2(layout, gen_gaussian_phases(3, math.pi, 0.5, 1), 2)
        (r2, once), *d2 = g2.parts
        assert type(r2) is PhaseOracle and once == 1 and r2.table == phases.phases
        assert [(id(part), times) for part, times in d2] == [(id(part), times) for part, times in other.parts[1:]]

    @pytest.mark.parametrize("n", [3, 4])
    def test_joined_circuits_meet_the_range_check(self, n):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, builtin_phases(n), Schedule(2, 2))
        assert Circuit(circuit.layout, circuit.gates) == circuit


class TestInterning:
    def test_x_and_h_are_one_gate_per_qubit(self):
        assert x(3) is x(3) and h(3) is h(3)
        assert x(3) is not x(4) and x(3) is not h(3)
        # Keyed by type as well: x(True) == x(1), but its text reads target=True.
        assert x(True) == x(1) and x(True) is not x(1)

    def test_circuits_built_before_and_after_a_cleared_cache_are_equal(self):
        layout = HoboLayout.for_cities(3)
        before = build_two_step(layout, builtin_phases(3), Schedule(2, 2))
        first = x(0)
        x.cache_clear()
        h.cache_clear()
        assert x(0) is not first and x(0) == first
        after = build_two_step(layout, builtin_phases(3), Schedule(2, 2))
        assert before == after and hash(before) == hash(after)
        assert circuit_to_text(before) == circuit_to_text(after)
        # Each NOT of a cost oracle is the one x gate of its qubit.
        r2 = build_cost_oracle_r2(layout, builtin_phases(3))
        nots = [gate for gate in r2.gates if gate.kind is GateKind.X]
        assert nots and all(gate is x(gate.target) for gate in nots)


class TestCircuitFields:
    @pytest.mark.parametrize("field", ["layout", "leaf", "parts"])
    def test_fields_are_frozen(self, field):
        layout = HoboLayout.for_cities(3)
        circuit = build_g1(layout)
        with pytest.raises(FrozenInstanceError):
            setattr(circuit, field, getattr(circuit, field))
        with pytest.raises(FrozenInstanceError):
            delattr(circuit, field)
        assert circuit == build_g1(layout)

    def test_leaf_and_parts_are_exclusive(self):
        layout = HoboLayout.for_cities(3)
        with pytest.raises(ValueError, match="not both"):
            Circuit(layout, (x(0),), parts=((Circuit(layout, (x(1),)), 1),))

    def test_constructor_checks_parts(self):
        layout = HoboLayout.for_cities(3)
        foreign = build_g1(HoboLayout.for_cities(4))
        with pytest.raises(ValueError, match="different layouts"):
            Circuit(layout, parts=((build_g1(layout), 1), (foreign, 1)))
        leaf = Circuit(layout, (x(0),))
        with pytest.raises(ValueError, match="non-negative"):
            Circuit(layout, parts=((leaf, -2),))
        with pytest.raises(TypeError):
            Circuit(layout, parts=((leaf, 2.0),))

    def test_derived_values_are_cached(self):
        circuit = build_two_step(HoboLayout.for_cities(3), builtin_phases(3), Schedule(2, 2))
        assert circuit.gates is circuit.gates
        assert metrics(circuit) == metrics(circuit) == metrics(Circuit(circuit.layout, circuit.gates))


class TestSharedG1:
    @pytest.mark.parametrize("q1", [0, 2])
    @pytest.mark.parametrize("q2", [0, 2])
    def test_two_step_repeats_the_layouts_g1(self, q1, q2):
        layout = HoboLayout.for_cities(3)
        phases = builtin_phases(3)
        total = build_two_step(layout, phases, Schedule(q1, q2))
        (g1, times1), (g2, times2) = total.parts[2:]
        assert g1 is build_g1(layout) and times1 == q1
        assert g2 == build_g2(layout, phases, q1) and times2 == q2
        # G2 ends in its D2, whose last part is G1 * q1 of A = H layer + G1 * q1.
        assert g2.parts[-1][0] is g1 and g2.parts[-1][1] == q1

    def test_one_g1_per_layout(self):
        three, four = HoboLayout.for_cities(3), HoboLayout.for_cities(4)
        assert build_g1(three) is build_g1(HoboLayout.for_cities(3))
        assert build_g1(three) is not build_g1(four)
        assert build_g1(four).layout == four


class TestValiditySuboracle:
    def test_three_cities_flags_only_the_spare_code(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_validity_suboracle(layout)
        # one flag per slot, no conjugation: the spare code is all-ones
        assert [g.kind for g in circuit.gates] == [GateKind.MCX] * 3
        for codes in ((0, 1, 2), (3, 0, 1), (3, 3, 3), (2, 3, 0)):
            state = run(circuit, prepare_main_basis(layout, set_main_codes(layout, codes)))
            nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
            assert len(nonzero) == 2  # marker superposition only
            full = format(nonzero[0] >> 1, f"0{layout.width - 1}b")
            flags = "".join("1" if c == 3 else "0" for c in codes)
            assert full[layout.main_qubits :] == flags + "0" * layout.unique_ancillas
            # main register untouched
            assert full[: layout.main_qubits] == set_main_codes(layout, codes)

    def test_four_cities_empty(self):
        assert len(build_validity_suboracle(HoboLayout.for_cities(4))) == 0

    def test_five_cities_covers_three_codes_per_slot(self):
        layout = HoboLayout.for_cities(5)
        circuit = build_validity_suboracle(layout)
        targets = [g.target for g in circuit.gates if g.kind is GateKind.MCX]
        assert targets == list(range(15, 30))  # 15 ancillas, one each


class TestUniquenessSuboracle:
    @pytest.mark.parametrize("code_a,code_b", [(0, 0), (2, 2), (0, 1), (3, 1)])
    def test_pair_flag_and_restoration(self, code_a, code_b):
        layout = HoboLayout.for_cities(4)
        circuit = build_uniqueness_suboracle(layout, 0, 1)
        bits = set_main_codes(layout, (code_a, code_b, 0, 0))
        state = run(circuit, prepare_main_basis(layout, bits))
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        assert len(nonzero) == 2
        full = format(nonzero[0] >> 1, f"0{layout.width - 1}b")
        assert full[: layout.main_qubits] == bits  # slots reverted
        ancilla = full[layout.pair_ancilla(0, 1)]
        assert ancilla == ("1" if code_a != code_b else "0")

    def test_exhaustive_truth_table(self):
        # All 16 code pairs for slots (1, 3): ancilla = inequality predicate.
        layout = HoboLayout.for_cities(4)
        circuit = build_uniqueness_suboracle(layout, 1, 3)
        for code_a in range(4):
            for code_b in range(4):
                bits = set_main_codes(layout, (0, code_a, 0, code_b))
                state = run(circuit, prepare_main_basis(layout, bits))
                nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
                full = format(nonzero[0] >> 1, f"0{layout.width - 1}b")
                assert full[: layout.main_qubits] == bits
                assert full[layout.pair_ancilla(1, 3)] == ("1" if code_a != code_b else "0")


class TestOracleR1:
    @pytest.mark.parametrize("n", [3, 4])
    def test_flips_exactly_the_feasible_states(self, n):
        layout = HoboLayout.for_cities(n)
        circuit = build_oracle_r1(layout)
        feasible = set(enumerate_feasible(n))
        flipped = set()
        for index in range(2**layout.main_qubits):
            bits = format(index, f"0{layout.main_qubits}b")
            state = run(circuit, prepare_main_basis(layout, bits))
            assert off_workspace_mass(state, layout) < 1e-10
            amplitude = main_amplitudes(state, layout)[index]
            assert abs(abs(amplitude) - 1.0) < 1e-10
            if amplitude.real < 0:
                flipped.add(bits)
        assert flipped == feasible

    def test_named_examples(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_oracle_r1(layout)
        for bits, sign in (("000110", -1.0), ("001111", 1.0)):
            state = run(circuit, prepare_main_basis(layout, bits))
            amplitude = main_amplitudes(state, layout)[int(bits, 2)]
            assert amplitude == pytest.approx(sign, abs=1e-10)


class TestDiffusionD1:
    def test_fixes_uniform_superposition(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_diffusion_d1(layout)
        state = new_state(layout.width)
        for q in range(layout.main_qubits):
            apply_gate(state, h(q))
        before = state.amplitudes.copy()
        run(circuit, state)
        after = align_global_phase(state.amplitudes, before)
        assert np.max(np.abs(after - before)) < 1e-10

    def test_negates_orthogonal_states(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_diffusion_d1(layout)
        dim = 2**layout.main_qubits
        vec = np.zeros(dim, complex)
        vec[0], vec[1] = 1 / math.sqrt(2), -1 / math.sqrt(2)  # orthogonal to uniform
        state = new_state(layout.width)
        state.amplitudes.reshape(dim, -1)[:, 0] = vec
        run(circuit, state)
        out = state.amplitudes.reshape(dim, -1)[:, 0]
        assert np.max(np.abs(align_global_phase(out, -vec) - -vec)) < 1e-10

    def test_dense_matrix_is_reflection_about_uniform(self):
        layout = HoboLayout.for_cities(3)
        gates = build_diffusion_d1(layout).gates
        dim = 2**layout.main_qubits
        built = gates_unitary(gates, layout.main_qubits)
        uniform = np.full(dim, 1 / math.sqrt(dim))
        ideal = 2 * np.outer(uniform, uniform) - np.eye(dim)
        assert np.max(np.abs(align_global_phase(built, ideal) - ideal)) < 1e-10


class TestG1:
    @pytest.mark.parametrize("n", [3, 4])
    def test_feasible_mass_follows_rotation_formula(self, n):
        layout = HoboLayout.for_cities(n)
        g1 = build_g1(layout)
        feasible = enumerate_feasible(n)
        ratio = len(feasible) / 2**layout.main_qubits
        state = prepare_main_basis(layout, "0" * layout.main_qubits)
        for q in range(layout.main_qubits):
            apply_gate(state, h(q))
        theta = math.asin(math.sqrt(ratio))
        for iterations in range(3):
            dist = main_distribution(state, layout)
            expected = math.sin((2 * iterations + 1) * theta) ** 2
            assert success_probability(dist, feasible) == pytest.approx(expected, abs=1e-9)
            run(g1, state)

    def test_is_oracle_then_diffusion(self):
        layout = HoboLayout.for_cities(3)
        assert (
            build_g1(layout).gates
            == build_oracle_r1(layout).gates + build_diffusion_d1(layout).gates
        )


class TestCostOracleR2:
    def test_single_tour_phase(self):
        layout = HoboLayout.for_cities(4)
        circuit = build_cost_oracle_r2(layout, builtin_phases(4))
        bits = "00011011"
        state = run(circuit, prepare_main_basis(layout, bits, marker_minus=False))
        amplitude = state.amplitudes.reshape(2**layout.main_qubits, -1)[int(bits, 2), 0]
        assert amplitude == pytest.approx(np.exp(1j * math.pi / 2), abs=1e-12)

    def test_dense_matrix_is_reference_diagonal(self):
        layout = HoboLayout.for_cities(3)
        phases = builtin_phases(3)
        built = gates_unitary(build_cost_oracle_r2(layout, phases).gates, layout.main_qubits)
        dim = 2**layout.main_qubits
        ideal = np.ones(dim, complex)
        for bits, w in phases.phases.items():
            ideal[int(bits, 2)] = np.exp(1j * w)
        assert np.max(np.abs(built - np.diag(ideal))) < 1e-10

    def test_near_zero_phases_act_as_identity(self):
        keys = enumerate_feasible(3)
        tiny = {b: 1e-12 * (i + 1) for i, b in enumerate(keys)}
        layout = HoboLayout.for_cities(3)
        built = gates_unitary(
            build_cost_oracle_r2(layout, PhaseAssignment(3, tiny)).gates, layout.main_qubits
        )
        assert np.max(np.abs(built - np.eye(2**layout.main_qubits))) < 1e-9

    def test_rejects_mismatched_city_count(self):
        with pytest.raises(ValueError):
            build_cost_oracle_r2(HoboLayout.for_cities(4), builtin_phases(3))


def _eager_phase_leaf(layout: HoboLayout, table: dict) -> Circuit:
    """The leaf of gates a PhaseOracle stands for, built gate by gate."""
    main = list(range(layout.main_qubits))
    gates = []
    for bits, w in table.items():
        flips = [x(q) for q, bit in zip(main, bits) if bit == "0"]
        gates += flips + [mcp(main[:-1], main[-1], w)] + flips
    return Circuit(layout, gates)


def _full_width_run(circuit: Circuit) -> bytes:
    width = circuit.layout.width
    rng = np.random.default_rng(5)
    amps = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return run(circuit, StateVector(width, amps / np.linalg.norm(amps))).amplitudes.tobytes()


# Phases from Gate's range (-2*pi, 2*pi]: its top end, negative values and ints.
_PHASES = st.one_of(
    st.just(2 * math.pi),
    st.floats(-2 * math.pi, 2 * math.pi, exclude_min=True),
    st.integers(-6, 6),
)


@st.composite
def _oracle_tables(draw):
    """A layout at n=2-4 and a table on a subset of its bitstrings, keys in drawn order."""
    layout = HoboLayout.for_cities(draw(st.integers(2, 4)))
    bits = st.text("01", min_size=layout.main_qubits, max_size=layout.main_qubits)
    keys = draw(st.lists(bits, unique=True, max_size=12))
    return layout, {key: draw(_PHASES) for key in keys}


def _zero_reflection_table(n: int):
    layout = HoboLayout.for_cities(n)
    return layout, {"0" * layout.main_qubits: math.pi}


def _live_gates_and_circuits() -> int:
    gc.collect()
    return sum(isinstance(obj, (Circuit, Gate)) for obj in gc.get_objects())


class TestPhaseOracle:
    @pytest.mark.parametrize(
        "read",
        [
            lambda c: c.gates,
            lambda c: c.leaf,
            len,
            hash,
            metrics,
            circuit_to_text,
            lambda c: invert_circuit(c).gates,
            lambda c: circuit_to_text(invert_circuit(c) + c * 2),
            _full_width_run,
        ],
        ids=["gates", "leaf", "len", "hash", "metrics", "text", "inverse", "composed text", "full-width run"],
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_an_unread_table_reads_as_its_gates(self, n, read):
        layout = HoboLayout.for_cities(n)
        table = gen_gaussian_phases(n, math.pi, 0.5, 7).phases
        oracle = PhaseOracle(layout, table)
        assert "leaf" not in vars(oracle)
        assert read(oracle) == read(_eager_phase_leaf(layout, table))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_len_and_metrics_build_no_gate(self, n):
        layout = HoboLayout.for_cities(n)
        oracle = PhaseOracle(layout, gen_gaussian_phases(n, math.pi, 0.5, 11).phases)
        eager = _eager_phase_leaf(layout, oracle.table)
        assert (len(oracle), metrics(oracle)) == (len(eager), metrics(eager))
        assert circuit_to_text(oracle) == circuit_to_text(eager)
        assert "leaf" not in vars(oracle)

    @settings(max_examples=150, deadline=None)
    @given(layout_and_table=_oracle_tables())
    @example(layout_and_table=_zero_reflection_table(2))
    @example(layout_and_table=_zero_reflection_table(3))
    @example(layout_and_table=_zero_reflection_table(4))
    @example(layout_and_table=(HoboLayout.for_cities(3), {}))
    def test_counts_and_depth_from_the_key_set_are_those_of_its_gates(self, layout_and_table):
        layout, table = layout_and_table
        oracle, eager = PhaseOracle(layout, table), _eager_phase_leaf(layout, table)
        for read in (len, metrics, circuit_to_text):
            assert read(oracle) == read(eager)
        composed, eager_composed = invert_circuit(oracle) + oracle * 2, invert_circuit(eager) + eager * 2
        for read in (len, metrics, circuit_to_text):
            assert read(composed) == read(eager_composed)

    def test_tables_with_the_same_keys_share_one_entry(self):
        layout = HoboLayout.for_cities(3)
        first, second = (PhaseOracle(layout, gen_gaussian_phases(3, math.pi, 0.5, seed).phases) for seed in (1, 2))
        assert list(first.table) == list(second.table) and first.table != second.table
        circuits._key_shape.cache_clear()
        assert (len(first), metrics(first)) == (len(second), metrics(second))
        assert circuits._key_shape.cache_info().currsize == 1
        assert first._counts is second._counts and first._paths is second._paths
        with pytest.raises(ValueError, match="read-only"):
            first._paths[0, 0] = 1.0
        # Another key order is another gate sequence, and another entry.
        reordered = PhaseOracle(layout, dict(reversed(first.table.items())))
        assert metrics(reordered) == metrics(_eager_phase_leaf(layout, reordered.table))
        assert circuits._key_shape.cache_info().currsize == 2

    def test_the_key_cache_holds_no_gate_or_circuit(self):
        layout = HoboLayout.for_cities(4)
        keys = tuple(reversed(enumerate_feasible(4)))
        eager = _eager_phase_leaf(layout, dict.fromkeys(keys, 1.0))  # also interns the X gates
        circuits._key_shape.cache_clear()
        before = _live_gates_and_circuits()
        counts, paths, nots, head = circuits._key_shape(layout, keys)
        assert _live_gates_and_circuits() == before
        assert all(type(kind) is GateKind and type(count) is int for kind, count in counts.items())
        assert counts == Counter(g.kind for g in eager.gates)
        assert type(paths) is np.ndarray and paths.dtype == np.float64 and paths.base is None
        assert type(nots) is tuple and len(nots) == len(keys) and all(type(lines) is str for lines in nots)
        assert type(head) is str

    def test_an_unread_table_equals_its_gates(self):
        layout = HoboLayout.for_cities(3)
        table = builtin_phases(3).phases
        assert PhaseOracle(layout, table) == _eager_phase_leaf(layout, table)
        assert _eager_phase_leaf(layout, table) == PhaseOracle(layout, table)
        assert PhaseOracle(layout, table) != _eager_phase_leaf(layout, {**table, "000110": 1.0})

    def test_the_table_is_copied_and_frozen(self):
        layout = HoboLayout.for_cities(3)
        table = dict(builtin_phases(3).phases)
        oracle = PhaseOracle(layout, table)
        table["000110"] = 1.0
        assert "000110" in oracle.table and oracle.table["000110"] != 1.0
        with pytest.raises(AttributeError):
            oracle.table = table

    @pytest.mark.parametrize(
        "table, match",
        [({"00011": 1.0}, "not a bitstring"), ({"0001102": 1.0}, "not a bitstring"), ({"00012x": 1.0}, "not a bitstring"),
         ({"000110": 7.0}, "outside"), ({"000110": -2 * math.pi}, "outside")],
        ids=["short", "long", "not binary", "above 2 pi", "at -2 pi"],
    )
    def test_each_entry_is_checked_as_its_gates_would_be(self, table, match):
        with pytest.raises(ValueError, match=match):
            PhaseOracle(HoboLayout.for_cities(3), table)


class TestInvertCircuit:
    def test_involution(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(1, 1))
        assert invert_circuit(invert_circuit(circuit)) == circuit

    def test_inverse_lives_as_long_as_its_circuit(self):
        layout = HoboLayout.for_cities(3)
        ref = weakref.ref(invert_circuit(build_g1(layout)))
        gc.collect()
        assert ref() is invert_circuit(build_g1(layout))
        leaf = Circuit(layout, [mcp([0, 1], 2, math.pi / 3), h(0)])
        ref = weakref.ref(invert_circuit(leaf))
        gc.collect()
        assert ref() is invert_circuit(leaf)

    def test_inverse_undoes_run(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_g1(layout)
        state = prepare_main_basis(layout, "010110")
        reference = state.amplitudes.copy()
        run(circuit, state)
        run(invert_circuit(circuit), state)
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-10

    def test_phase_negation(self):
        gate = mcp((0, 1), 2, math.pi / 2)
        layout = HoboLayout.for_cities(3)
        inverted = invert_circuit(Circuit(layout, (gate,)))
        assert inverted.gates[0].phase == -math.pi / 2

    def test_full_turn_phase_is_its_own_inverse(self):
        circuit = Circuit(HoboLayout.for_cities(3), [mcp([0, 1], 2, 2 * math.pi)])
        inverted = invert_circuit(circuit)
        assert inverted.gates[0].phase == 2 * math.pi
        assert invert_circuit(inverted) == circuit


class TestD2:
    def _prepared_state(self, layout, q1):
        state = prepare_main_basis(layout, "0" * layout.main_qubits)
        for q in range(layout.main_qubits):
            apply_gate(state, h(q))
        g1 = build_g1(layout)
        for _ in range(q1):
            run(g1, state)
        return state

    def test_fixed_point(self):
        layout = HoboLayout.for_cities(3)
        state = self._prepared_state(layout, 2)
        before = state.amplitudes.copy()
        run(build_d2(layout, 2), state)
        after = align_global_phase(state.amplitudes, before)
        assert np.max(np.abs(after - before)) < 1e-10

    def test_negates_orthogonal_main_states(self):
        layout = HoboLayout.for_cities(3)
        dim = 2**layout.main_qubits
        psi = main_amplitudes(self._prepared_state(layout, 2), layout)
        rng = np.random.default_rng(3)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec -= psi * np.vdot(psi, vec)  # project out the prepared state
        vec /= np.linalg.norm(vec)
        state = prepare_main_basis(layout, "0" * layout.main_qubits)
        block = state.amplitudes.reshape(dim, -1)
        marker_minus = block[0].copy()  # anc zero, marker |->
        block[:] = 0
        block[:] = np.outer(vec, marker_minus)
        run(build_d2(layout, 2), state)
        out = main_amplitudes(state, layout)
        target = -vec
        assert np.max(np.abs(align_global_phase(out, target) - target)) < 1e-10

    def test_dense_matrix_is_reflection_about_prepared_state(self):
        layout = HoboLayout.for_cities(3)
        dim = 2**layout.main_qubits
        psi = main_amplitudes(self._prepared_state(layout, 2), layout)
        ideal = 2 * np.outer(psi, psi.conj()) - np.eye(dim)
        circuit = build_d2(layout, 2)
        built = np.zeros((dim, dim), complex)
        for col in range(dim):
            bits = format(col, f"0{layout.main_qubits}b")
            state = run(circuit, prepare_main_basis(layout, bits))
            assert off_workspace_mass(state, layout) < 1e-10
            built[:, col] = main_amplitudes(state, layout)
        aligned = align_global_phase(built, ideal)
        assert np.max(np.abs(aligned - ideal)) < 1e-10
        # reflection squares to the identity
        assert np.max(np.abs(built @ built - np.eye(dim))) < 1e-9


class TestTwoStep:
    def test_reference_widths(self):
        for n, width in ((3, 13), (4, 15)):
            layout = HoboLayout.for_cities(n)
            circuit = build_two_step(layout, builtin_phases(n), Schedule(2, 1))
            assert metrics(circuit).width == width

    def test_zero_schedule_gives_uniform_distribution(self):
        layout = HoboLayout.for_cities(3)
        circuit = build_two_step(layout, builtin_phases(3), Schedule(0, 0))
        state = run(circuit, new_state(layout.width))
        dist = main_distribution(state, layout)
        dim = 2**layout.main_qubits
        assert all(p == pytest.approx(1 / dim, abs=1e-12) for p in dist.values())

    def test_composes_published_sub_builders_gate_for_gate(self):
        layout = HoboLayout.for_cities(3)
        phases = builtin_phases(3)
        schedule = Schedule(2, 1)
        expected = [x(layout.marker), h(layout.marker)]
        expected += [h(q) for q in range(layout.main_qubits)]
        expected += list(build_g1(layout).gates) * schedule.q1
        g2 = list(build_cost_oracle_r2(layout, phases).gates) + list(build_d2(layout, schedule.q1).gates)
        assert list(build_g2(layout, phases, schedule.q1).gates) == g2
        expected += g2 * schedule.q2
        assert list(build_two_step(layout, phases, schedule).gates) == expected


class TestMetricsAndText:
    def test_unit_depth_counts_longest_chain(self):
        layout = HoboLayout.for_cities(3)
        circuit = Circuit(layout, (h(0), h(1), cx(0, 1), x(2)))
        m = metrics(circuit)
        assert m.unit_depth == 2
        assert m.gate_counts == {"CX": 1, "H": 2, "X": 1}

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_builder_output_locked_to_golden(self, n):
        layout = HoboLayout.for_cities(int(n))
        g1 = build_g1(layout)
        m = metrics(g1)
        expect = GOLDEN[n]["G1"]
        assert len(g1) == expect["gates"]
        assert m.unit_depth == expect["unit_depth"]
        assert m.gate_counts == expect["gate_counts"]

    @pytest.mark.parametrize("n", ["3", "4", "5", "6"])
    def test_two_step_metrics_locked_to_golden(self, n):
        # Gate structure depends on n only; n=5 and 6 have no builtin dataset.
        layout = HoboLayout.for_cities(int(n))
        phases = gen_gaussian_phases(int(n), math.pi, 0.5, 0)
        q1 = optimal_q1(int(n))
        total = build_two_step(layout, phases, Schedule(q1, optimal_q2(int(n), 2)))
        for name, circuit in zip(("G1", "G2", "total"), (build_g1(layout), build_g2(layout, phases, q1), total)):
            m = metrics(circuit)
            expect = GOLDEN[n][name]
            assert (len(circuit), m.width, m.unit_depth) == (expect["gates"], expect["width"], expect["unit_depth"])
            assert m.gate_counts == expect["gate_counts"]

    def test_text_dump_format(self):
        layout = HoboLayout.for_cities(3)
        circuit = Circuit(layout, (h(0), mcx((0, 1), 5), mcp((2,), 3, math.pi / 2)))
        text = circuit_to_text(circuit)
        lines = text.splitlines()
        assert lines[0] == "width=13 n=3 k=2"
        assert lines[1] == "H controls=[] target=0"
        assert lines[2] == "MCX controls=[0,1] target=5"
        assert lines[3] == f"MCP controls=[2] target=3 phase={math.pi / 2!r}"
        assert text.endswith("\n")


class TestUnitarity:
    @pytest.mark.parametrize("n", [3, 4])
    def test_norm_preserved_through_full_circuit(self, n):
        layout = HoboLayout.for_cities(n)
        circuit = build_two_step(layout, builtin_phases(n), Schedule(2, 1))
        state = new_state(layout.width)
        for gate in circuit.gates:
            apply_gate(state, gate)
        assert abs(state.norm_sq() - 1.0) < 1e-10
