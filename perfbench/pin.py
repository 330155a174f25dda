"""Regenerate ``reference.json``, the pinned reference values.

Usage: ``python3 perfbench/pin.py``

For every workload and every seed in ``PIN_SEEDS`` it runs the program's
set-up, ``run_dlm`` and oracle in process and pins the total cost, the
balance residual and the multiplier spread at round ``PIN_ROUND``, and
``lam_star``. Re-pin only on purpose, when a change to numerical behaviour is
deliberate, and say so in CHANGES.md.
"""

from __future__ import annotations

import json

import child
import run
from netalloc.oracle import solve_centralized
from netalloc.schedules import parse_schedule
from netalloc.simulator import run_dlm

PIN_SEEDS = range(32)

# The final state is not a stable reference: with recip-sqrt steps,
# alpha(k) > 4 * gamma_i for the flattest costs until k is in the thousands,
# so the local dual map expands and a one-ulp change in one consensus sum
# grows to 10-100 % by round 100. It contracts again only once the run
# converges: dispatch54 has by round 5000 on most seeds, but not on all
# (seed 17 still moves by 2e-2), and cycle300 has not by round 500.
# Round 10 is early enough that summation order moves nothing measurable.
PIN_ROUND = 10

# Reordering the terms of a consensus sum changes it by at most 2.2e-16
# relative. Measured against a CSR kernel (np.add.reduceat) on seeds 0-31,
# the round-10 values moved by 1.1e-12 relative at most, while an off-by-one step
# size or a squared weight matrix moved them by 9.9e-2 at least.
RTOL = 1e-9

NOTE = (
    f"cost, residual and spread at round {PIN_ROUND} (not the final round, whose "
    "value depends on summation order in the last bit), and lam_star; "
    "regenerate with python3 perfbench/pin.py"
)


def main():
    workloads = {}
    sched = parse_schedule(run.SCHEDULE)
    for name, wl in run.WORKLOADS.items():
        seeds = {}
        for seed in PIN_SEEDS:
            case, problems, weights = child.set_up(run.resolve(name, seed))
            trace = run_dlm(problems, weights, sched, wl.iters)
            lam_star = solve_centralized(problems, case.demand).lam_star
            values = child.pin_values(case, trace.x, trace.lam, PIN_ROUND, lam_star)
            seeds[str(seed)] = {"round": PIN_ROUND, **values}
        workloads[name] = seeds
        print(f"pinned {name}: seeds {PIN_SEEDS.start}-{PIN_SEEDS.stop - 1}")
    out = {"rtol": RTOL, "note": NOTE, "workloads": workloads}
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
