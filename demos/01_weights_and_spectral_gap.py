"""Consensus weight matrices and the spectral gap.

Builds doubly stochastic Metropolis weights for a few topologies and shows how
the second-largest singular value sigma2 controls how fast disagreement dies
out: after k averaging rounds the spread shrinks roughly like sigma2**k.
"""

import numpy as np

from netalloc import (
    complete_graph,
    consensus_step,
    cycle_graph,
    metropolis_weights,
    path_graph,
)

# sigma2 for the classic small topologies: denser graphs mix faster
for name, graph in [
    ("path-8", path_graph(8)),
    ("cycle-8", cycle_graph(8)),
    ("complete-8", complete_graph(8)),
]:
    w = metropolis_weights(graph)
    print(f"{name:12s} sigma2 = {w.sigma2:.6f}")

w = metropolis_weights(cycle_graph(8))

# watch disagreement decay under repeated averaging
values = np.array([8.0, -3.0, 5.0, 4.0, -7.0, 2.0, 1.0, -6.0])
print(f"\ninitial values: {values}")
print(f"{'round':>5s} {'spread':>12s} {'sigma2**k':>12s}")
x = values.copy()
for k in range(1, 21):
    x = consensus_step(w, x)
    spread = np.abs(x - x.mean()).max()
    if k % 4 == 0:
        print(f"{k:5d} {spread:12.6f} {w.sigma2**k:12.6f}")
print(f"\nthe average {values.mean():.4f} is preserved exactly: {x.mean():.4f}")
