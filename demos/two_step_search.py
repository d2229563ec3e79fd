"""
Two-stage tour search on the gate-level simulator
=================================================

Builds the full 13-qubit circuit for the 3-city problem, runs it on the
dense state-vector simulator, and checks the two stages: the first
amplifies all feasible tours out of the uniform superposition, the
second amplifies the cheapest and most expensive tour.
"""

import math

from tsp_qsearch import (
    HoboLayout,
    Schedule,
    build_two_step,
    builtin_phases,
    enumerate_feasible,
    evolve,
    main_distribution,
    metrics,
    new_state,
    optimal_q1,
    optimal_q2,
    run,
    sample,
    success_probability,
)

n = 3
layout = HoboLayout.for_cities(n)
phases = builtin_phases(n)
q1, q2 = optimal_q1(n), optimal_q2(n, 2)
print(f"n={n}: width {layout.width}, schedule q1={q1}, q2={q2}")

# Stage one alone: q1 search rounds lift the feasible subspace from
# 6/64 to nearly all of the probability mass.
state = run(build_two_step(layout, phases, Schedule(q1, 0)), new_state(layout.width))
feasible_mass = success_probability(main_distribution(state, layout), enumerate_feasible(n))
theta = math.asin(math.sqrt(math.factorial(n) / 2**layout.main_qubits))
print(f"feasible mass after stage one: {feasible_mass:.6f}")
print(f"analytic rotation value:       {math.sin((2 * q1 + 1) * theta) ** 2:.6f}")

# Full two-stage run: the cost oracle tags each tour with its phase and
# the feasible-subspace diffusion turns the extremes into the modes.
circuit = build_two_step(layout, phases, Schedule(q1, q2))
m = metrics(circuit)
print(f"\nfull circuit: {len(circuit)} gates, unit depth {m.unit_depth}, width {m.width}")

state = run(circuit, new_state(layout.width))
dist = main_distribution(state, layout)
print("\ntop measurement outcomes:")
for bits in sorted(dist, key=dist.get, reverse=True)[:4]:
    phase = phases.phases.get(bits)
    label = f"cost phase {phase:.3f}" if phase is not None else "infeasible"
    print(f"  {bits}  p={dist[bits]:.4f}  ({label})")

# The operator-level reference model evolves only the 6-tour subspace;
# the circuit tracks it closely despite carrying 13 qubits of workspace.
reference = evolve(phases, q2)
combined = dist[phases.min_key] + dist[phases.max_key]
print(f"\nextreme-tour mass: circuit {combined:.6f}, reference {reference.p_combined[q2]:.6f}")

# Shot noise as an experiment would see it.
counts = dict(zip(dist, sample(list(dist.values()), shots=1024, seed=42).tolist()))
print("\n1024-shot counts (top 4):")
for bits, count in sorted(counts.items(), key=lambda kv: -kv[1])[:4]:
    print(f"  {bits}  {count}")
