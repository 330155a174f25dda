"""Running the distributed method on the five-generator case.

Each generator keeps a private multiplier copy, averages it with its two ring
neighbors, re-optimizes its own output, and nudges the copy by the local
imbalance. No node ever sees the full problem, yet the network steers itself
to the centralized optimum. Mirrors `netalloc run --case builtin:ieee14
--graph cycle --schedule powerlaw:0.08:0.85`.
"""

from pathlib import Path

import numpy as np

from netalloc import (
    PowerLaw,
    builtin_ieee14,
    cycle_graph,
    metropolis_weights,
    run_dlm,
    solve_centralized,
    to_problems,
)
from netalloc.svgplot import write_line_chart

problems = to_problems(builtin_ieee14())
weights = metropolis_weights(cycle_graph(5))
sol = solve_centralized(problems, 300.0)

trace = run_dlm(problems, weights, PowerLaw(0.08, 0.85), iters=2000)

print(f"{'k':>6s} {'sum x':>10s} {'spread':>10s} {'cost':>12s}")
for k in (1, 5, 10, 20, 60, 200, 2000):
    total = trace.x[k].sum()
    print(f"{k:6d} {total:10.3f} {trace.spreads()[k]:10.5f} {trace.total_cost(k):12.4f}")

print(f"\ncentralized optimum: cost {sol.f_star:.4f}, multiplier {sol.lam_star:.6f}")
print(f"after 2000 rounds:   cost {trace.total_cost():.4f}, "
      f"multipliers in [{trace.lam[-1].min():.6f}, {trace.lam[-1].max():.6f}]")
print(f"final allocations: {np.round(trace.x[-1], 3)}")
print(f"optimal allocations: {np.round(sol.x_star, 3)}")

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)
ks = np.arange(trace.x.shape[0])
write_line_chart(
    out / "dispatch_alloc.svg",
    "Generator outputs settling onto the optimum",
    "iteration k",
    "x_i(k) [MW]",
    ks,
    trace.x,
    [f"gen {i + 1}" for i in range(trace.n)],
)
write_line_chart(
    out / "dispatch_residual.svg",
    "Supply-demand balance",
    "iteration k",
    "sum x - 300 [MW]",
    ks,
    trace.residuals()[:, None],
    ["residual"],
)
print(f"\nwrote {out}/dispatch_alloc.svg and {out}/dispatch_residual.svg")
