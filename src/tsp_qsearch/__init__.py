"""Two-stage Grover search for the traveling salesman problem.

The first stage amplifies the uniform superposition of all feasible
(permutation) tours under a binary per-city encoding; the second stage
amplifies the extreme-cost tours with a diagonal cost-phase oracle and
a diffusion built from the first stage's preparation circuit.  A dense
state-vector simulator executes the circuits, and an operator-level
reference model cross-checks them.
"""

from .core import (
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
    load_phases,
    optimal_q1,
    optimal_q2,
    phases_from_json,
    phases_to_json,
    save_phases,
)
from .circuits import (
    Circuit,
    CircuitMetrics,
    Gate,
    GateKind,
    PhaseOracle,
    build_cost_oracle_r2,
    build_d2,
    build_diffusion_d1,
    build_g1,
    build_g2,
    build_oracle_r1,
    build_two_step,
    build_uniqueness_suboracle,
    build_validity_suboracle,
    circuit_to_text,
    invert_circuit,
    metrics,
)
from .simulator import (
    NormError,
    StateVector,
    TourState,
    apply_gate,
    main_distribution,
    main_probabilities,
    new_state,
    run,
    sample,
    success_probability,
    tour_probabilities,
    tour_state,
    uniform_state,
)
from .matrix_model import (
    ProbabilitySeries,
    appendix_experiment,
    evolve,
    first_peak,
    oracle_angles,
    series_to_csv,
    state_at,
)

__all__ = [
    # core
    "CapacityError", "DatasetError", "HoboLayout", "PhaseAssignment",
    "Schedule", "Tour", "TspInstance", "bits_per_city", "builtin_phases",
    "constraint_penalties", "decode_bitstring", "encode_tour",
    "enumerate_feasible", "eval_tour_cost", "gen_gaussian_phases",
    "load_phases", "optimal_q1", "optimal_q2", "phases_from_json",
    "phases_to_json", "save_phases",
    # circuits
    "Circuit", "CircuitMetrics", "Gate", "GateKind", "PhaseOracle", "build_cost_oracle_r2",
    "build_d2", "build_diffusion_d1", "build_g1", "build_g2", "build_oracle_r1",
    "build_two_step", "build_uniqueness_suboracle", "build_validity_suboracle",
    "circuit_to_text", "invert_circuit", "metrics",
    # simulator
    "NormError", "StateVector", "TourState", "apply_gate", "main_distribution",
    "main_probabilities", "new_state", "run", "sample", "success_probability",
    "tour_probabilities", "tour_state", "uniform_state",
    # matrix model
    "ProbabilitySeries", "appendix_experiment", "evolve", "first_peak",
    "oracle_angles", "series_to_csv", "state_at",
]

__version__ = "0.1.0"
