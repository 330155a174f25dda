"""One benchmark operation step, run in its own process by ``run.py``.

Usage: ``python3 perfbench/child.py MODE JSON`` where MODE is one of

``cli``     time ``netalloc.cli.main(ARGS)`` after import; JSON is the
            argument list. Reports seconds, exit code, captured stdout and
            the process's peak RSS.
``setup``   time the set-up stage (case -> problems -> graph ->
            ``metropolis_weights``) and ``run_dlm`` on prebuilt inputs, each
            as the mean over a batch of calls; JSON is a workload spec.
``traced``  run the ``run`` and ``bounds`` commands' layer calls in the
            CLI's order with a span around each call, then the probes that
            would disturb the spans (``sigma2`` alone, ``run_dlm`` under
            ``tracemalloc``). JSON is ``{"spec", "run_dir", "replay_dir",
            "spans"}``.
``verify``  check a finished operation's outputs against the workload's
            invariants, the oracle and the pinned values; JSON is
            ``{"spec", "run_dir", "pins": {"rtol", "seeds"}}``.

The last line of standard output is one JSON object with the result. The
program is imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from netalloc import cases, cli, graphs  # noqa: E402
from netalloc.bounds import check_bounds, default_checkpoints  # noqa: E402
from netalloc.oracle import solve_centralized, verify_kkt  # noqa: E402
from netalloc.schedules import parse_schedule  # noqa: E402
from netalloc.simulator import RunTrace, run_dlm  # noqa: E402

# A set-up or simulate sample is the mean time per call over a batch of
# calls at least this long. The machine's speed changes in phases of seconds;
# a batch averages over them as one `netalloc run` does, where the median of
# many short samples would flip between the fast and the slow phase.
MIN_BATCH_SECONDS = 0.6

# Relative error allowed between a recorded round and the same round
# recomputed from the recorded previous state. A consensus sum over n terms
# in any order is exact to n * 2.2e-16 relative to sum |a_ij * lam_j|, so
# this admits any summation order up to several thousand nodes.
STEP_RTOL = 1e-12


def load_case(spec):
    """The case and problems, resolved from the spec as the CLI resolves them."""
    case, synth_seed = cli._load_case_spec(spec["case"])
    return case, synth_seed, cases.to_problems(case)


def build_graph(spec, case, synth_seed):
    return cli._build_graph(spec["graph"], case, synth_seed, None)


def set_up(spec):
    """Everything up to round 0: case, problems, graph and weights with sigma2."""
    case, synth_seed, problems = load_case(spec)
    weights = graphs.metropolis_weights(build_graph(spec, case, synth_seed))
    return case, problems, weights


def _per_call(fn):
    calls, t0 = 0, time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_BATCH_SECONDS:
            return elapsed / calls


def mode_cli(args):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(args)
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "rc": rc,
        "stdout": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def mode_setup(spec):
    setup = _per_call(lambda: set_up(spec))
    _, problems, weights = set_up(spec)
    sched = parse_schedule(spec["schedule"])
    simulate = _per_call(lambda: run_dlm(problems, weights, sched, spec["iters"]))
    return {"setup_s": setup, "simulate_s": simulate}


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def mode_traced(job):
    """The layer calls of ``_cmd_run`` then ``_cmd_bounds``, in their order."""
    spec = job["spec"]
    run_dir, replay_dir = Path(job["run_dir"]), Path(job["replay_dir"])
    tr = Tracer()
    span = tr.span

    with span("cli.run"):
        with span("cases.load"):
            case, synth_seed, problems = load_case(spec)
        with span("graphs.build"):
            graph = build_graph(spec, case, synth_seed)
        with span("graphs.weights"):
            weights = graphs.metropolis_weights(graph)
        with span("schedules.parse"):
            sched = parse_schedule(spec["schedule"])
        with span("simulator.run_dlm"):
            trace = run_dlm(problems, weights, sched, spec["iters"])
        run_dir.mkdir(parents=True, exist_ok=True)
        with span("simulator.to_csv"):
            trace.to_csv(run_dir / "trace.csv")
        with span("simulator.summary_csv"):
            trace.summary_to_csv(run_dir / "summary.csv")
        with span("oracle.solve"):
            sol = solve_centralized(problems, case.demand)
        cli._write_oracle_csv(run_dir / "oracle.csv", sol)
        with span("bounds.check"):
            report = check_bounds(
                trace,
                problems,
                weights,
                sol.lam_star,
                checkpoints=default_checkpoints(spec["iters"]),
                consensus_upto=1000,
            )
        with span("bounds.to_csv"):
            report.to_csv(run_dir / "bounds.csv")
        with span("svgplot.write"):
            cli._write_plots(run_dir, trace)

    with span("cli.bounds"):
        with span("cases.load"):
            case, synth_seed, problems = load_case(spec)
        with span("graphs.build"):
            graph = build_graph(spec, case, synth_seed)
        with span("graphs.weights"):
            weights = graphs.metropolis_weights(graph)
        with span("schedules.parse"):
            sched = parse_schedule(spec["schedule"])
        with span("simulator.from_csv"):
            replayed = RunTrace.from_csv(run_dir / "trace.csv", problems, sched)
        with span("oracle.solve"):
            lam_star = solve_centralized(problems, case.demand).lam_star
        with span("bounds.check"):
            replay_report = check_bounds(
                replayed,
                problems,
                weights,
                lam_star,
                checkpoints=default_checkpoints(replayed.iterations),
                consensus_upto=1000,
            )
        replay_dir.mkdir(parents=True, exist_ok=True)
        with span("bounds.to_csv"):
            replay_report.to_csv(replay_dir / "bounds.csv")

    # Probes sit outside the command spans: they repeat work the commands
    # already did, and tracemalloc slows every allocation it watches.
    with span("probe.sigma2"):
        sigma2 = graphs.second_largest_singular_value(weights.entries)
    with span("probe.run_dlm_tracemalloc"):
        tracemalloc.start()
        try:
            run_dlm(problems, weights, sched, spec["iters"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    Path(job["spans"]).write_text(json.dumps(tr.spans), encoding="utf-8")
    return {
        "all_satisfied": report.all_satisfied and replay_report.all_satisfied,
        "sigma2_repeatable": sigma2 == weights.sigma2,
        "run_dlm_peak_bytes": peak,
    }


def read_trace_csv(path, n, iters):
    """Parse ``trace.csv`` with numpy alone, independently of ``RunTrace``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = (iters + 1) * n
    if data.shape != (rows, 5):
        raise ValueError(f"trace.csv has shape {data.shape}, expected ({rows}, 5)")
    k = np.repeat(np.arange(iters + 1), n)
    node = np.tile(np.arange(n), iters + 1)
    if not (np.array_equal(data[:, 0], k) and np.array_equal(data[:, 1], node)):
        raise ValueError("trace.csv rows are not in (k, node) order")
    x, lam, v = (data[:, c].reshape(iters + 1, n) for c in (2, 3, 4))
    return x, lam, v


def coefficients(case):
    g = case.generators
    return tuple(
        np.array([getattr(gen, field) for gen in g], dtype=float)
        for field in ("gamma", "beta", "mu", "pmin", "pmax")
    )


def pin_values(case, x, lam, k, lam_star):
    """The quantities ``reference.json`` pins, at round ``k`` of a trace."""
    gamma, beta, mu, _, _ = coefficients(case)
    row, mults = x[k], lam[k]
    return {
        "cost": math.fsum((gamma * row * row + beta * row + mu).tolist()),
        "residual": math.fsum(row.tolist()) - case.demand,
        "spread": float(np.abs(mults - mults.mean()).max()),
        "lam_star": lam_star,
    }


def _rounds_failures(case, problems, a, x, lam, v):
    """Recompute every recorded round from the recorded state before it."""
    gamma, beta, _, lo, hi = coefficients(case)
    b = np.array([p.share for p in problems])
    out = []
    if not (np.array_equal(x[0], (lo + hi) / 2) and not lam[0].any() and not v[0].any()):
        out.append("round 0 is not (midpoints, zero multipliers)")
    if ((x < lo) | (x > hi)).any():
        k, i = np.argwhere((x < lo) | (x > hi))[0]
        out.append(f"x[{k}, {i}] = {float(x[k, i])!r} outside [pmin, pmax]")
    iters = x.shape[0] - 1
    alpha = 1.0 / np.sqrt(np.maximum(np.arange(iters), 1.0))  # recip-sqrt
    v_want = lam[:-1] @ a.T
    v_scale = np.abs(lam[:-1]) @ np.abs(a).T
    x_want = np.minimum(np.maximum((-v[1:] - beta) / (2.0 * gamma), lo), hi)
    lam_want = v[1:] - alpha[:, None] * (b - x[1:])
    lam_scale = np.abs(v[1:]) + alpha[:, None] * np.abs(b - x[1:])
    for name, got, want, scale in (
        ("v", v[1:], v_want, v_scale),
        ("x", x[1:], x_want, np.abs(x_want)),
        ("lambda", lam[1:], lam_want, lam_scale),
    ):
        bad = np.abs(got - want) > STEP_RTOL * np.maximum(scale, 1.0)
        if bad.any():
            k, i = np.argwhere(bad)[0]
            out.append(
                f"round {k + 1} node {i}: recorded {name} {float(got[k, i])!r}, "
                f"recomputed {float(want[k, i])!r}"
            )
    return out


def mode_verify(job):
    spec, run_dir = job["spec"], Path(job["run_dir"])
    case, problems, weights = set_up(spec)
    failures = []
    x, lam, v = read_trace_csv(run_dir / "trace.csv", case.n, spec["iters"])
    failures += _rounds_failures(case, problems, weights.entries, x, lam, v)

    sol = solve_centralized(problems, case.demand)
    if not verify_kkt(problems, sol, case.demand):
        failures.append("oracle solution fails verify_kkt")
    header = (run_dir / "oracle.csv").read_text(encoding="utf-8").splitlines()[0]
    lam_star = float(header.split("lam_star=")[1].split()[0])
    if lam_star != sol.lam_star:
        failures.append(f"oracle.csv lam_star {lam_star!r} != oracle {sol.lam_star!r}")

    rtol, pin = job["pins"]["rtol"], job["pins"]["seeds"].get(str(spec["seed"]))
    if pin is not None:
        got = pin_values(case, x, lam, pin["round"], lam_star)
        for key, value in got.items():
            if abs(value - pin[key]) > rtol * max(abs(pin[key]), 1.0):
                failures.append(f"{key} at round {pin['round']} is {value!r}, pinned {pin[key]!r}")

    a = weights.entries
    eig = np.sort(np.abs(np.linalg.eigvalsh(a)))
    exact, estimate = float(eig[-2]), weights.sigma2
    return {
        "failures": failures,
        "pinned": pin is not None,
        "nnz": int(np.count_nonzero(a)),
        "sigma2": estimate,
        "sigma2_exact": exact,
        # > 0 when the estimate is too small, i.e. on the unsafe side
        "sigma2_gap_err": (exact - estimate) / (1.0 - exact),
    }


MODES = {"cli": mode_cli, "setup": mode_setup, "traced": mode_traced, "verify": mode_verify}

if __name__ == "__main__":
    result = MODES[sys.argv[1]](json.loads(sys.argv[2]))
    print(json.dumps(result))
