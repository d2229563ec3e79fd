import json
import math
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsp_qsearch import (
    CapacityError,
    DatasetError,
    HoboLayout,
    PhaseAssignment,
    Schedule,
    Tour,
    TspInstance,
    bits_per_city,
    builtin_phases,
    constraint_penalties,
    decode_bitstring,
    encode_tour,
    enumerate_feasible,
    eval_tour_cost,
    gen_gaussian_phases,
    optimal_q1,
    optimal_q2,
    phases_from_json,
    phases_to_json,
)
from tsp_qsearch.core import MAX_ENUM_CITIES, PHASE_MAX, PHASE_MIN, _BUILTIN_VALUES
from tsp_qsearch.matrix_model import oracle_angles

from helpers import onehot_expansion, reference_phase_dict

PI = math.pi

# Values for one tour that a phase dataset must reject, or that sit at the edge of what it takes.
_EDGE_VALUES = [
    0.0, -0.0, 2 * PI, math.nextafter(2 * PI, 0.0), 5e-324, math.nan, math.inf, -math.inf,
    0, 1, 6, 7, True, 2**1024, -(2**1024), None, "2.0",
]


def _scalar_gaussian_phases(n, mu, sigma, seed):
    """Draw-by-draw rejection sampler: the reference for the batched one."""
    keys = enumerate_feasible(n)
    rng = np.random.default_rng(seed)
    phases = {keys[0]: PI / 2, keys[-1]: 3 * PI / 2}
    for key in keys[1:-1]:
        while True:
            v = float(rng.normal(mu, sigma))
            if PI / 2 < v < 3 * PI / 2:
                phases[key] = v
                break
    return phases


class TestLayout:
    def test_widths_match_reference_sizes(self):
        assert HoboLayout.for_cities(3).width == 13
        assert HoboLayout.for_cities(4).width == 15

    @pytest.mark.parametrize("n", range(2, 7))
    def test_width_formula(self, n):
        layout = HoboLayout.for_cities(n)
        k = layout.k
        assert layout.width == n * k + (2**k - n) * n + n * (n - 1) // 2 + 1
        assert layout.marker == layout.width - 1

    def test_ancilla_indices_cover_their_ranges(self):
        layout = HoboLayout.for_cities(5)
        validity = [
            layout.validity_ancilla(slot, code)
            for slot in range(5)
            for code in range(5, 8)
        ]
        assert validity == list(range(15, 30))
        pairs = [layout.pair_ancilla(a, b) for a in range(5) for b in range(a + 1, 5)]
        assert pairs == list(range(30, 40))

    def test_validity_ancilla_rejects_in_range_code(self):
        layout = HoboLayout.for_cities(3)
        with pytest.raises(ValueError):
            layout.validity_ancilla(0, 2)


class TestEncoding:
    @pytest.mark.parametrize(
        "order,n,expected",
        [
            ((1, 2, 3), 3, "000110"),
            ((2, 1, 3), 3, "010010"),
            ((4, 3, 2, 1), 4, "11100100"),
            ((1, 2), 2, "01"),
        ],
    )
    def test_encode(self, order, n, expected):
        assert encode_tour(order, n) == expected

    def test_encode_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            encode_tour((1, 1, 3), 3)
        with pytest.raises(ValueError):
            encode_tour((1, 2, 4), 3)
        with pytest.raises(ValueError):
            encode_tour((1, 2), 3)

    def test_decode(self):
        assert decode_bitstring("000110", 3) == Tour((1, 2, 3))
        assert decode_bitstring("001111", 3) is None  # code 11 has no city
        assert decode_bitstring("000011", 3) is None  # slot codes repeat

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode_bitstring("00011", 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_round_trip_all_permutations(self, n):
        for perm in permutations(range(1, n + 1)):
            tour = Tour(perm)
            assert decode_bitstring(encode_tour(tour, n), n) == tour

    @given(st.data())
    def test_decode_is_none_exactly_off_the_feasible_set(self, data):
        n = data.draw(st.integers(2, 6))
        width = n * bits_per_city(n)
        feasible = enumerate_feasible(n)
        # Feasible strings are rare among all of them (720 of 2**18 at n=6),
        # so some draws take one from the feasible set.
        bits = data.draw(
            st.sampled_from(feasible)
            | st.integers(0, 2**width - 1).map(lambda i: format(i, f"0{width}b"))
        )
        tour = decode_bitstring(bits, n)
        assert (tour is None) == (bits not in feasible)
        if tour is not None:
            assert encode_tour(tour, n) == bits


class TestEnumeration:
    def test_three_cities_matches_reference_set(self):
        assert enumerate_feasible(3) == (
            "000110", "001001", "010010", "011000", "100001", "100100",
        )

    def test_two_cities(self):
        assert enumerate_feasible(2) == ("01", "10")

    def test_four_cities(self):
        feasible = enumerate_feasible(4)
        assert len(feasible) == 24
        assert feasible[0] == "00011011"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_count_sorted_distinct(self, n):
        feasible = enumerate_feasible(n)
        assert len(feasible) == math.factorial(n)
        assert list(feasible) == sorted(feasible)
        decoded = {decode_bitstring(b, n).order for b in feasible}
        assert len(decoded) == math.factorial(n)

    @pytest.mark.parametrize("n", range(2, MAX_ENUM_CITIES + 1))
    def test_each_bitstring_encodes_its_permutation(self, n):
        assert enumerate_feasible(n) == tuple(encode_tour(p, n) for p in permutations(range(1, n + 1)))

    @pytest.mark.parametrize("n", [1, 7])
    def test_capacity_limits(self, n):
        with pytest.raises(CapacityError):
            enumerate_feasible(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_feasible_iff_zero_penalties(self, n):
        # Cross-check: a bitstring decodes to a tour exactly when its
        # one-hot expansion satisfies both constraints.
        k = HoboLayout.for_cities(n).k
        feasible = set(enumerate_feasible(n))
        for index in range(2 ** (n * k)):
            bits = format(index, f"0{n * k}b")
            h1, h2 = constraint_penalties(onehot_expansion(bits, n))
            assert (decode_bitstring(bits, n) is not None) == (h1 == 0 and h2 == 0)
            assert (bits in feasible) == (h1 == 0 and h2 == 0)


class TestTourCost:
    def test_two_city_cycle(self):
        inst = TspInstance(2, [[0, 1], [2, 0]])
        assert eval_tour_cost(inst, (1, 2)) == pytest.approx(3.0)
        assert eval_tour_cost(inst, (2, 1)) == pytest.approx(3.0)

    def test_missing_matrix(self):
        with pytest.raises(ValueError):
            eval_tour_cost(TspInstance(3), (1, 2, 3))

    def test_matches_onehot_objective(self):
        # Independent oracle: quadratic objective over the one-hot visit
        # matrix, summed over consecutive (wrapping) slots.
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.uniform(0.0, 9.0, size=(4, 4))
            np.fill_diagonal(m, 0.0)
            inst = TspInstance(4, m)
            for perm in permutations(range(1, 5)):
                x = onehot_expansion(encode_tour(perm, 4), 4)
                brute = sum(
                    m[i, j] * x[ts, i] * x[(ts + 1) % 4, j]
                    for i in range(4)
                    for j in range(4)
                    if i != j
                    for ts in range(4)
                )
                assert eval_tour_cost(inst, perm) == pytest.approx(brute, abs=1e-12)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            TspInstance(2, [[0.0, 1.0], [2.0, 0.5]])  # nonzero diagonal
        with pytest.raises(ValueError):
            TspInstance(2, [[0.0, -1.0], [2.0, 0.0]])  # negative entry
        asym = TspInstance(2, [[0.0, 1.0], [2.0, 0.0]])  # asymmetry is fine
        assert asym.cost_matrix[0, 1] != asym.cost_matrix[1, 0]


class TestConstraintPenalties:
    def test_permutation_matrix(self):
        assert constraint_penalties(np.eye(3)) == (0.0, 0.0)

    def test_all_zero(self):
        assert constraint_penalties(np.zeros((3, 3))) == (3.0, 3.0)

    def test_double_visit_row(self):
        x = np.zeros((3, 3))
        x[0, 0] = x[0, 1] = 1.0
        assert constraint_penalties(x) == (3.0, 1.0)


def _regenerated_builtin_values(n):
    """Recompute the bundled dataset from its seeded per-entry streams.

    Entry i (in enumeration order) takes the first draw from
    N(pi, 0.5**2) restricted to (pi/2, 3*pi/2) whose 3-decimal
    truncation equals that of the stored value; extremes stay exact.
    """
    keys = enumerate_feasible(n)
    values = {}
    for i, key in enumerate(keys):
        if i == 0:
            values[key] = PHASE_MIN
        elif i == len(keys) - 1:
            values[key] = PHASE_MAX
        else:
            target = math.floor(_BUILTIN_VALUES[n][key] * 1000)
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(n, i)))
            while True:
                v = float(rng.normal(math.pi, 0.5))
                if PHASE_MIN < v < PHASE_MAX and math.floor(v * 1000) == target:
                    values[key] = v
                    break
    return values


class TestBuiltinPhases:
    def test_extremes_are_exact(self):
        p3 = builtin_phases(3)
        assert p3.phases["000110"] == PI / 2
        assert p3.phases["100100"] == 3 * PI / 2
        p4 = builtin_phases(4)
        assert p4.phases["00011011"] == PI / 2
        assert p4.phases["11100100"] == 3 * PI / 2

    def test_sample_value(self):
        assert builtin_phases(4).phases["01111000"] == pytest.approx(2.719, abs=1e-3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_stored_values_regenerate_from_seeded_streams(self, n):
        # Guards the provenance of the embedded digits: each stored value
        # is the first deterministic draw matching its 3-decimal prefix.
        assert _regenerated_builtin_values(n) == _BUILTIN_VALUES[n]

    @pytest.mark.parametrize("n", [2, 5])
    def test_unavailable_sizes(self, n):
        with pytest.raises(DatasetError):
            builtin_phases(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_assignment_invariants(self, n):
        phases = builtin_phases(n)
        assert len(phases.phases) == math.factorial(n)
        assert set(phases.phases) == set(enumerate_feasible(n))
        values = sorted(phases.phases.values())
        assert values[0] == PI / 2 and values[1] > PI / 2
        assert values[-1] == 3 * PI / 2 and values[-2] < 3 * PI / 2
        assert all(0.0 < v < 2 * PI for v in values)


class TestGaussianPhases:
    def test_five_cities(self):
        phases = gen_gaussian_phases(5, PI, 0.5, 42)
        assert len(phases.phases) == 120
        values = list(phases.phases.values())
        assert values.count(PI / 2) == 1
        assert values.count(3 * PI / 2) == 1
        assert all(PI / 2 <= v <= 3 * PI / 2 for v in values)

    def test_pinned_tours(self):
        phases = gen_gaussian_phases(3, PI, 0.5, 9)
        assert phases.phases["000110"] == PI / 2  # identity order
        assert phases.phases["100100"] == 3 * PI / 2  # reversed order
        assert phases.min_key == "000110"
        assert phases.max_key == "100100"

    def test_deterministic_per_seed(self):
        a = gen_gaussian_phases(4, PI, 0.5, 123)
        b = gen_gaussian_phases(4, PI, 0.5, 123)
        c = gen_gaussian_phases(4, PI, 0.5, 124)
        assert a.phases == b.phases
        assert a.phases != c.phases

    def test_interior_draws_stay_inside_open_interval(self):
        # A mean far outside the window forces heavy resampling.
        phases = gen_gaussian_phases(3, 5.0, 1.0, 5)
        for bits, value in phases.phases.items():
            if bits not in ("000110", "100100"):
                assert PI / 2 < value < 3 * PI / 2

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_gaussian_phases(3, PI, 0.0, 1)
        # Non-finite parameters would make the rejection sampler loop forever.
        for mu, sigma in ((PI, math.nan), (PI, math.inf), (math.nan, 0.5), (math.inf, 0.5)):
            with pytest.raises(ValueError):
                gen_gaussian_phases(3, mu, sigma, 1)
        with pytest.raises(CapacityError):
            gen_gaussian_phases(1, PI, 0.5, 1)

    def test_distant_mean_is_rejected_before_drawing(self):
        # With sigma 0.5, 7.5e-4 of the mass lies inside (pi/2, 3pi/2) at mu 6.3, 1.5e-3 at mu 6.2.
        start = time.perf_counter()
        for mu, sigma in ((6.3, 0.5), (PI, 1e4), (100.0, 0.5), (-100.0, 0.5)):
            with pytest.raises(DatasetError, match="of its mass inside"):
                gen_gaussian_phases(6, mu, sigma, 1)
        assert time.perf_counter() - start < 1.0
        phases = gen_gaussian_phases(3, 6.2, 0.5, 1)
        assert all(PI / 2 <= v <= 3 * PI / 2 for v in phases.phases.values())

    @pytest.mark.parametrize(
        "n, mu, sigma, seed",
        [(n, PI, 0.5, seed) for n in range(2, 7) for seed in range(5)]
        # mu 6.2575 leaves 1e-3 of the mass inside the window: rejections
        # span many batches.
        + [(n, mu, sigma, 3) for n in range(2, 7) for mu, sigma in ((5.0, 1.0), (6.2575, 0.5))],
    )
    def test_batched_draws_equal_the_scalar_loop(self, n, mu, sigma, seed):
        phases = gen_gaussian_phases(n, mu, sigma, seed).phases
        expected = _scalar_gaussian_phases(n, mu, sigma, seed)
        assert phases == expected
        assert list(phases) == list(enumerate_feasible(n))


class TestSchedules:
    def test_reference_values(self):
        assert optimal_q1(3) == 2
        assert optimal_q1(4) == 2
        assert optimal_q2(3, 2) == 1
        assert optimal_q2(4, 2) == 2

    def test_five_cities(self):
        # floor((pi/4) * sqrt(32768 / 120)) and floor((pi/4) * sqrt(60))
        assert optimal_q1(5) == 12
        assert optimal_q2(5, 2) == 6

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(-1, 0)
        with pytest.raises(ValueError):
            optimal_q2(3, 0)


class TestPhaseJson:
    def test_round_trip(self):
        phases = gen_gaussian_phases(4, PI, 0.5, 11)
        again = phases_from_json(phases_to_json(phases))
        assert again == phases

    def test_text_is_canonical(self):
        phases = builtin_phases(3)
        text = phases_to_json(phases)
        payload = json.loads(text)
        assert payload["n"] == 3
        assert list(payload["phases"]) == sorted(payload["phases"])
        assert phases_to_json(phases) == text

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_round_trip_is_exact_for_any_float(self, data, n):
        # Subnormals and values one ulp from the window's ends or from pi.
        edges = [5e-324, 2.2250738585072014e-308 / 3, math.nextafter(2 * PI, 0.0),
                 math.nextafter(PI, 0.0), math.nextafter(PI, 4.0)]
        value = st.one_of(
            st.sampled_from(edges),
            st.floats(0.0, 2 * PI, exclude_min=True, exclude_max=True, allow_subnormal=True),
        )
        keys = enumerate_feasible(n)
        values = data.draw(st.lists(value, min_size=len(keys), max_size=len(keys), unique=True))
        phases = PhaseAssignment(n, dict(zip(keys, values)))
        again = phases_from_json(phases_to_json(phases))
        assert again == phases
        assert all(
            a.hex() == b.hex() for a, b in zip(again.phases.values(), phases.phases.values())
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**64 - 1),
        mu=st.floats(PHASE_MIN, PHASE_MAX),
        sigma=st.floats(1e-3, 4.0),
    )
    def test_generated_datasets_read_back_as_themselves(self, n, seed, mu, sigma):
        # `gen` keeps the phases it wrote in place of the ones parsing its text would give.
        phases = gen_gaussian_phases(n, mu, sigma, seed)
        again = phases_from_json(phases_to_json(phases))
        assert again == phases
        assert list(again.phases) == list(phases.phases)
        assert np.array_equal(again.angles, phases.angles)
        assert (again.min_index, again.max_index) == (phases.min_index, phases.max_index)

    def test_text_is_one_line_with_sorted_keys(self):
        text = phases_to_json(gen_gaussian_phases(4, PI, 0.5, 11))
        assert text.endswith("}\n") and text.count("\n") == 1
        assert text.startswith('{"n":4,"phases":{"00011011":1.5707963267948966,')
        assert list(json.loads(text)) == ["n", "phases"]

    def test_indented_layout_still_loads(self):
        phases = gen_gaussian_phases(4, PI, 0.5, 11)
        payload = {"n": phases.n, "phases": phases.phases}
        indented = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert phases_from_json(indented) == phases

    def test_malformed_payloads(self):
        with pytest.raises(DatasetError):
            phases_from_json("not json")
        with pytest.raises(DatasetError):
            phases_from_json('{"n": 3}')
        with pytest.raises(DatasetError):
            phases_from_json('{"n": 3, "phases": {"000110": 1.0}}')
        with pytest.raises(DatasetError):
            phases_from_json('{"n": 3, "phases": {"000110": ' + "1" * 5000 + "}}")

    def test_assignment_rejects_bad_data(self):
        keys = enumerate_feasible(3)
        flat = {b: 1.0 for b in keys}
        with pytest.raises(DatasetError):
            PhaseAssignment(3, flat)  # min and max not unique
        shifted = {b: float(i) + 0.5 for i, b in enumerate(keys)}
        shifted[keys[0]] = 7.0  # outside (0, 2*pi)
        with pytest.raises(DatasetError):
            PhaseAssignment(3, shifted)

    def test_keys_canonicalized_to_enumeration_order(self):
        keys = enumerate_feasible(3)
        scrambled = {b: builtin_phases(3).phases[b] for b in reversed(keys)}
        assert list(PhaseAssignment(3, scrambled).phases) == list(keys)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 4))
    def test_accepts_and_rejects_what_the_value_by_value_check_did(self, data, n):
        keys = list(enumerate_feasible(n))
        inside = st.floats(0.0, 2 * PI, exclude_min=True, exclude_max=True)
        drawn = data.draw(st.lists(inside, min_size=len(keys), max_size=len(keys), unique=True))
        values = list(drawn)
        # A few entries become edge values, or copies of another entry: a tie, maybe at an extreme.
        for _ in range(data.draw(st.integers(0, 3))):
            index = data.draw(st.integers(0, len(keys) - 1))
            values[index] = data.draw(
                st.sampled_from(_EDGE_VALUES + [min(drawn), max(drawn)]) | st.sampled_from(drawn)
            )
        phases = dict(zip(keys, values))
        change = data.draw(st.sampled_from(["none", "none", "none", "drop", "extra"]))
        if change == "drop":
            del phases[data.draw(st.sampled_from(keys))]
        elif change == "extra":
            phases["x" * len(keys[0])] = 1.0
        order = data.draw(st.sampled_from(["enumeration", "reversed", "drawn"]))
        if order == "reversed":
            phases = dict(reversed(phases.items()))
        elif order == "drawn":
            phases = dict(data.draw(st.permutations(list(phases.items()))))

        try:
            expected = reference_phase_dict(n, phases)
        except (TypeError, DatasetError) as exc:
            with pytest.raises((TypeError, DatasetError)) as raised:
                PhaseAssignment(n, phases)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        got = PhaseAssignment(n, phases)
        assert list(got.phases) == list(expected) == keys
        assert [v.hex() for v in got.phases.values()] == [v.hex() for v in expected.values()]
        assert all(type(v) is float for v in got.phases.values())
        assert got.min_key == min(expected, key=expected.get)
        assert got.max_key == max(expected, key=expected.get)
        angles = oracle_angles(got)
        assert np.array_equal(angles, np.array(list(got.phases.values())))
        assert angles.flags.writeable
        assert repr(got) == f"PhaseAssignment(n={n}, phases={expected!r})"

    def test_array_is_read_only_and_outside_equality(self):
        phases = builtin_phases(4)
        assert not phases.angles.flags.writeable
        assert phases.angles.tolist() == list(phases.phases.values())
        assert phases == PhaseAssignment(4, dict(reversed(phases.phases.items())))
        oracle_angles(phases)[0] = 0.0
        assert phases.angles[0] == PHASE_MIN

    @pytest.mark.parametrize("big", [2**1024, -(2**1024), 10**400], ids=["2**1024", "-2**1024", "10**400"])
    def test_integer_beyond_float_range_is_a_data_error(self, big):
        keys = enumerate_feasible(3)
        raw = {b: i + 1 for i, b in enumerate(keys)}
        raw[keys[2]] = big
        with pytest.raises(DatasetError):
            PhaseAssignment(3, raw)
        with pytest.raises(DatasetError):
            phases_from_json(json.dumps({"n": 3, "phases": raw}))

    @pytest.mark.parametrize("bad", [None, "2.0", "nan", 1j])
    def test_values_that_are_not_real_numbers_raise_type_error(self, bad):
        phases = dict(builtin_phases(3).phases)
        phases[enumerate_feasible(3)[2]] = bad
        with pytest.raises(TypeError):
            PhaseAssignment(3, phases)
