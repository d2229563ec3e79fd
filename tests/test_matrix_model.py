import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsp_qsearch import (
    HoboLayout,
    PhaseAssignment,
    Schedule,
    appendix_experiment,
    build_two_step,
    builtin_phases,
    enumerate_feasible,
    evolve,
    first_peak,
    gen_gaussian_phases,
    main_distribution,
    new_state,
    optimal_q1,
    optimal_q2,
    oracle_angles,
    run,
    series_to_csv,
    state_at,
)
from tsp_qsearch.matrix_model import ProbabilitySeries

PI = math.pi

# Values frozen from one explicit dense 6x6 matrix-vector product:
# psi1 = (2/6 J - I) diag(e^{iW}) psi0 with the bundled 3-city dataset.
N3_T1_P_MIN = 0.4853082390147468
N3_T1_P_MAX = 0.3784522873664112


class TestOracleAngles:
    def test_angles_follow_the_enumeration_order(self):
        base = builtin_phases(3)
        reversed_keys = PhaseAssignment(3, dict(reversed(base.phases.items())))
        angles = oracle_angles(reversed_keys)
        assert angles.tolist() == [base.phases[b] for b in enumerate_feasible(3)]

    def test_oracle_angles_default_to_stored_values(self):
        phases = builtin_phases(3)
        assert oracle_angles(phases).tolist() == list(phases.phases.values())

    def test_oracle_angles_rescaled_span_full_circle(self):
        phases = builtin_phases(3)
        angles = dict(zip(phases.phases, oracle_angles(phases, rescale_costs=True)))
        assert angles[phases.min_key] == 0.0
        assert angles[phases.max_key] == pytest.approx(2 * PI)
        mid = [v for k, v in angles.items() if k not in (phases.min_key, phases.max_key)]
        assert all(0.0 < v < 2 * PI for v in mid)


class TestCostDiagonal:
    def test_near_zero_phases_give_identity(self):
        keys = enumerate_feasible(3)
        tiny = PhaseAssignment(3, {b: 1e-12 * (i + 1) for i, b in enumerate(keys)})
        diag = np.exp(1j * oracle_angles(tiny))
        assert np.max(np.abs(diag - 1.0)) < 1e-9

    def test_reference_dataset_extremes(self):
        diag = np.exp(1j * oracle_angles(builtin_phases(3)))
        tours = list(enumerate_feasible(3))
        assert diag[tours.index("000110")] == pytest.approx(np.exp(1j * PI / 2))
        assert diag[tours.index("100100")] == pytest.approx(np.exp(1j * 3 * PI / 2))


class TestEvolve:
    def test_uniform_start(self):
        series = evolve(builtin_phases(4), 0)
        assert series.p_min[0] == pytest.approx(1 / 24, abs=1e-12)
        assert series.p_max[0] == pytest.approx(1 / 24, abs=1e-12)

    def test_three_city_single_step_matches_dense_product(self):
        phases = builtin_phases(3)
        # independent dense arithmetic
        w = np.array([phases.phases[b] for b in enumerate_feasible(3)])
        psi0 = np.full(6, 1 / math.sqrt(6), dtype=complex)
        psi1 = (2 / 6 * np.ones((6, 6)) - np.eye(6)) @ (np.exp(1j * w) * psi0)
        assert abs(psi1[0]) ** 2 == pytest.approx(N3_T1_P_MIN, abs=1e-12)
        assert abs(psi1[5]) ** 2 == pytest.approx(N3_T1_P_MAX, abs=1e-12)

        series = evolve(phases, 1)
        assert series.p_min[1] == pytest.approx(N3_T1_P_MIN, abs=1e-12)
        assert series.p_max[1] == pytest.approx(N3_T1_P_MAX, abs=1e-12)
        assert series.p_combined[1] == pytest.approx(N3_T1_P_MIN + N3_T1_P_MAX, abs=1e-12)

    def test_five_city_rescaled_first_peak_in_window(self):
        phases = gen_gaussian_phases(5, PI, 0.5, 42)
        series = evolve(phases, 10, rescale_costs=True)
        assert 5 <= first_peak(series) <= 8

    def test_norm_preserved_at_every_step(self):
        phases = builtin_phases(4)
        for t in range(11):
            assert abs(np.linalg.norm(state_at(phases, t)) - 1.0) < 1e-10

    def test_phase_shift_leaves_series_unchanged(self):
        base = builtin_phases(3)
        shifted = PhaseAssignment(3, {b: w + 0.3 for b, w in base.phases.items()})
        a = evolve(base, 10)
        b = evolve(shifted, 10)
        for t in range(11):
            assert abs(a.p_min[t] - b.p_min[t]) < 1e-10
            assert abs(a.p_max[t] - b.p_max[t]) < 1e-10
        assert first_peak(a) == first_peak(b)

    def test_rejects_negative_horizon(self):
        phases = builtin_phases(3)
        with pytest.raises(ValueError, match="non-negative"):
            evolve(phases, -1)
        with pytest.raises(ValueError, match="non-negative"):
            state_at(phases, -1)


class TestCircuitEquivalence:
    @pytest.mark.parametrize("n", [3, 4])
    def test_interior_iterations_agree_within_budget(self, n):
        # Endpoint t = 2*q2 is covered by the acceptance suite, where the
        # first stage's leakage amplification is documented.
        layout = HoboLayout.for_cities(n)
        phases = builtin_phases(n)
        q1, q2 = optimal_q1(n), optimal_q2(n, 2)
        reference = evolve(phases, 2 * q2)
        for t in range(2 * q2):
            circuit = build_two_step(layout, phases, Schedule(q1, t))
            state = run(circuit, new_state(layout.width))
            dist = main_distribution(state, layout)
            combined = dist[phases.min_key] + dist[phases.max_key]
            assert combined == pytest.approx(reference.p_combined[t], abs=1e-3)


class TestProbabilitySeries:
    @given(st.integers(0, 8).flatmap(lambda size: st.tuples(
        *[st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size).map(tuple)] * 2
    )))
    def test_times_and_combined_follow_the_columns(self, columns):
        p_min, p_max = columns
        series = ProbabilitySeries(p_min, p_max)
        assert series.times == range(len(p_min))
        assert series.p_combined == tuple(a + b for a, b in zip(p_min, p_max))

    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="p_min has 2 entries, p_max 1"):
            ProbabilitySeries((0.1, 0.2), (0.3,))


class TestFirstPeak:
    def test_simple_interior_peak(self):
        series = ProbabilitySeries((0.1, 0.5, 0.4, 0.6), (0, 0, 0, 0))
        assert first_peak(series) == 1

    def test_monotone_rise_peaks_at_the_end(self):
        series = ProbabilitySeries((0.1, 0.2, 0.3), (0, 0, 0))
        assert first_peak(series) == 2

    def test_single_point(self):
        series = ProbabilitySeries((1.0,), (0.0,))
        assert first_peak(series) == 0


class TestAppendixExperiment:
    def test_peak_histogram_is_dominated_by_the_extreme_tours(self):
        phases = gen_gaussian_phases(5, PI, 0.5, 42)
        series, dist = appendix_experiment(PI, 0.5, 42)
        ranked = sorted(dist, key=dist.get, reverse=True)
        assert set(ranked[:2]) == {phases.min_key, phases.max_key}

    def test_peak_exceeds_uniform_baseline(self):
        series, _ = appendix_experiment(PI, 0.5, 42)
        assert series.p_combined[first_peak(series)] > 20 * (2 / 120)

    def test_deterministic_per_seed(self):
        series_a, dist_a = appendix_experiment(PI, 0.5, 42)
        series_b, dist_b = appendix_experiment(PI, 0.5, 42)
        assert series_a == series_b
        assert dist_a == dist_b

    def test_histogram_keys_ordered_by_ascending_cost(self):
        phases = gen_gaussian_phases(5, PI, 0.5, 42)
        _, dist = appendix_experiment(PI, 0.5, 42)
        keys = list(dist)
        costs = [phases.phases[b] for b in keys]
        assert costs == sorted(costs)
        assert len(keys) == 120


class TestSeriesCsv:
    def test_header_and_row_count(self):
        series = evolve(builtin_phases(3), 10)
        text = series_to_csv(series)
        lines = text.splitlines()
        assert lines[0] == "t,p_min,p_max,p_combined"
        assert len(lines) == 12
        assert lines[1].startswith("0,")

    def test_values_round_trip_through_repr(self):
        series = evolve(builtin_phases(3), 2)
        row = series_to_csv(series).splitlines()[2].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == series.p_min[1]
        assert float(row[3]) == series.p_combined[1]
