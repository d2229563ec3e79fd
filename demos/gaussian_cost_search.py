"""
Gaussian-cost search over 120 tours (reference model)
=====================================================

The 5-city search space has 120 tours but its circuit would need 41
qubits, so this size runs on the operator-level model.  Costs are drawn
from a Gaussian with pinned extremes; under the rescaled-cost oracle
convention the extremes pick up phase +1 while the bulk sits near -1,
and the search sweeps through a Grover-like arc peaking near
(pi/4) * sqrt(120 / 2) ~ 6 iterations.
"""

import math

from tsp_qsearch import (
    appendix_experiment,
    first_peak,
    gen_gaussian_phases,
    optimal_q2,
)

mu, sigma, seed = math.pi, 0.5, 42
phases = gen_gaussian_phases(5, mu, sigma, seed)
print(f"dataset: {len(phases.phases)} tours, extremes pinned at pi/2 and 3*pi/2")
print(f"cheapest tour:       {phases.min_key}")
print(f"most expensive tour: {phases.max_key}")
print(f"predicted optimum:   (pi/4) * sqrt(120/2) = {math.pi / 4 * math.sqrt(60):.2f}"
      f" -> q2 = {optimal_q2(5, 2)}")

series, peak_histogram = appendix_experiment(mu, sigma, seed, t_max=10)

print("\ncombined extreme-tour probability per iteration:")
for t, p in zip(series.times, series.p_combined):
    print(f"  t={t:2d}  {p:.4f}  " + "#" * int(p * 60))

peak = first_peak(series)
print(f"\nfirst peak at t={peak} with p_combined={series.p_combined[peak]:.4f}")
print(f"uniform baseline would be 2/120 = {2 / 120:.4f}")

# At the peak the two extreme tours dominate the histogram; every other
# tour keeps only a sliver of probability.
ranked = sorted(peak_histogram, key=peak_histogram.get, reverse=True)
print("\nhistogram at the peak (top 4 of 120, keys ordered by cost):")
for bits in ranked[:4]:
    print(f"  {bits}  p={peak_histogram[bits]:.4f}")
