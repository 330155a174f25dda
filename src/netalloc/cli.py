"""Command-line experiment runner.

Subcommands::

    netalloc run       load/synthesize a case, build weights, simulate,
                       solve the reference oracle, check bounds, write
                       CSV traces and SVG plots
    netalloc oracle    print and store the centralized reference solution
    netalloc bounds    evaluate convergence bounds against a stored trace
    netalloc case validate   strict-parse a case file
    netalloc case synth      write a deterministic synthetic case (+ bus lines)

Case specs: ``builtin:ieee14``, ``synth:SEED[:NGEN]``, ``file:PATH`` or a bare
path. Graph specs: ``cycle``, ``path``, ``complete``, ``file:PATH``,
``bus-derived[:LINESFILE]``. Schedule specs: ``recip-sqrt``, ``recip``,
``powerlaw:C:P``.

All outputs are byte-reproducible: rerunning a configuration writes identical
files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import cases as case_io
from .bounds import check_bounds, default_checkpoints
from .errors import NetallocError
from .graphs import (
    complete_graph,
    cycle_graph,
    metropolis_weights,
    parse_edge_list,
    path_graph,
)
from .oracle import solve_centralized
from .schedules import parse_schedule
from .simulator import RunTrace, run_dlm
from .svgplot import write_line_chart


def _fmt(x):
    return format(float(x), ".17g")


def _one_line(text):
    return " ".join(str(text).split())


def _load_case_spec(spec):
    """Resolve a case spec; returns (case, synth_seed_or_None)."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        if name != "ieee14":
            raise ValueError(f"unknown builtin case {name!r}")
        return case_io.builtin_ieee14(), None
    if spec.startswith("synth:"):
        parts = spec.split(":")
        seed = int(parts[1])
        n_gen = int(parts[2]) if len(parts) > 2 else case_io.SYNTH_BASE_GENERATORS
        return case_io.synth_ieee118_style(seed, n_gen), seed
    path = spec.split(":", 1)[1] if spec.startswith("file:") else spec
    return case_io.load_case(path), None


def _build_graph(spec, case, synth_seed, bus_lines_path):
    n = case.n
    if spec == "cycle":
        return cycle_graph(n)
    if spec == "path":
        return path_graph(n)
    if spec == "complete":
        return complete_graph(n)
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read graph file {path}: {exc.strerror or exc}") from None
        return parse_edge_list(text, n=n)
    if spec == "bus-derived" or spec.startswith("bus-derived:"):
        if spec.startswith("bus-derived:"):
            bus_lines_path = spec.split(":", 1)[1]
        if bus_lines_path is not None:
            try:
                text = Path(bus_lines_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ValueError(
                    f"cannot read bus-lines file {bus_lines_path}: {exc.strerror or exc}"
                ) from None
            lines = case_io.parse_bus_lines(text)
        elif synth_seed is not None:
            lines = case_io.synth_bus_lines(synth_seed, n)
        else:
            raise ValueError(
                "graph 'bus-derived' needs --bus-lines FILE (synthetic cases derive their own)"
            )
        return case_io.bus_derived_graph(case, lines)
    raise ValueError(f"unknown graph spec {spec!r}")


def _parse_shares(split, case):
    if split == "equal":
        return None
    if split.startswith("explicit:"):
        return [float(tok) for tok in split.split(":", 1)[1].split(",")]
    raise ValueError(f"unknown split spec {split!r} (use 'equal' or 'explicit:v1,v2,...')")


def _parse_checkpoints(text, iters):
    if text is None:
        return [k for k in default_checkpoints(iters)]
    ks = sorted(set(int(tok) for tok in text.split(",")))
    if any(k < 1 or k > iters for k in ks):
        raise ValueError(f"checkpoints {ks} must lie in [1, {iters}]")
    return ks


def _write_oracle_csv(path, sol):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# f_star={_fmt(sol.f_star)} lam_star={_fmt(sol.lam_star)} "
            f"residual={_fmt(sol.residual)}\n"
        )
        fh.write("node,x_star\n")
        for i, x in enumerate(sol.x_star):
            fh.write(f"{i},{_fmt(x)}\n")


def _write_plots(outdir, trace):
    ks = np.arange(trace.x.shape[0])
    node_labels = [f"node {i}" for i in range(trace.n)]
    write_line_chart(
        outdir / "alloc.svg",
        "Allocation per node",
        "iteration k",
        "x_i(k)",
        ks,
        [(node_labels[i], trace.x[:, i]) for i in range(trace.n)],
    )
    write_line_chart(
        outdir / "multipliers.svg",
        "Multiplier per node",
        "iteration k",
        "lambda_i(k)",
        ks,
        [(node_labels[i], trace.lam[:, i]) for i in range(trace.n)],
    )
    write_line_chart(
        outdir / "residual.svg",
        "Balance residual",
        "iteration k",
        "sum x - demand",
        ks,
        [("residual", trace.residuals())],
    )


def _set_up(args):
    """The case, problems, Metropolis weights and schedule that ``run`` and ``bounds`` share."""
    case, synth_seed = _load_case_spec(args.case)
    problems = case_io.to_problems(case, _parse_shares(args.split, case))
    graph = _build_graph(args.graph, case, synth_seed, args.bus_lines)
    return case, problems, metropolis_weights(graph), parse_schedule(args.schedule)


def _check_bounds(args, trace, problems, weights, lamstar):
    """Check the bounds against ``trace`` and write ``bounds.csv`` in ``args.out``."""
    report = check_bounds(
        trace,
        problems,
        weights,
        lamstar,
        checkpoints=_parse_checkpoints(args.checkpoints, trace.iterations),
        consensus_upto=args.bounds_upto,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report.to_csv(outdir / "bounds.csv")
    return report


def _cmd_run(args):
    case, problems, weights, sched = _set_up(args)
    trace = run_dlm(problems, weights, sched, args.iters)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(outdir / "trace.csv")
    trace.summary_to_csv(outdir / "summary.csv")

    sol = solve_centralized(problems, case.demand)
    _write_oracle_csv(outdir / "oracle.csv", sol)

    final_cost = trace.total_cost()
    final_residual = float(trace.residuals()[-1])
    print(f"case={case.name} n={case.n} demand={case.demand:g} sigma2={weights.sigma2:.6g}")
    print(
        f"final: residual={final_residual:.6g} cost={final_cost:.10g} "
        f"f_star={sol.f_star:.10g} lam_star={sol.lam_star:.10g}"
    )

    if sched.normalized:
        report = _check_bounds(args, trace, problems, weights, sol.lam_star)
        print(f"bounds: {report.summary_json()}")
    else:
        print(f"bounds: skipped (schedule {sched.name!r} has alpha(0) != 1)")

    _write_plots(outdir, trace)
    print(f"wrote trace.csv summary.csv oracle.csv alloc.svg multipliers.svg residual.svg in {outdir}")
    return 0


def _cmd_oracle(args):
    case, _ = _load_case_spec(args.case)
    problems = case_io.to_problems(case, _parse_shares(args.split, case))
    sol = solve_centralized(problems, case.demand)
    print(f"x_star={','.join(_fmt(x) for x in sol.x_star)}")
    print(f"f_star={_fmt(sol.f_star)}")
    print(f"lam_star={_fmt(sol.lam_star)}")
    print(f"residual={_fmt(sol.residual)}")
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_oracle_csv(outdir / "oracle.csv", sol)
        print(f"wrote oracle.csv in {outdir}")
    return 0


def _cmd_bounds(args):
    case, problems, weights, sched = _set_up(args)
    trace = RunTrace.from_csv(args.trace, problems, sched)
    if args.lamstar is not None:
        lamstar = args.lamstar
    else:
        lamstar = solve_centralized(problems, case.demand).lam_star
    report = _check_bounds(args, trace, problems, weights, lamstar)
    print(report.summary_json())
    return 0 if report.all_satisfied else 1


def _cmd_case_validate(args):
    case = case_io.load_case(args.path)
    total_min = math.fsum(g.pmin for g in case.generators)
    total_max = math.fsum(g.pmax for g in case.generators)
    print(
        f"ok: case={case.name} generators={case.n} demand={case.demand:g} "
        f"range=[{total_min:g},{total_max:g}]"
    )
    return 0


def _cmd_case_synth(args):
    case = case_io.synth_ieee118_style(args.seed, args.n_gen)
    out = Path(args.out) if args.out is not None else Path(f"synth-{args.seed}.csv")
    lines_path = out.with_suffix(".lines")
    if lines_path == out:
        raise ValueError(f"--out {out} is also the path of its bus-lines file; use another suffix")
    case_io.save_case(case, out)
    lines = case_io.synth_bus_lines(args.seed, args.n_gen)
    with open(lines_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# bus lines for {case.name}\n")
        fh.write(case_io.serialize_bus_lines(lines))
    print(f"wrote {out} and {lines_path} ({case.n} generators, demand {case.demand:g})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netalloc",
        description="Distributed Lagrangian resource allocation: simulate, solve, and check bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of the two commands that simulate or replay a trace
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--case", required=True, help="builtin:ieee14 | synth:SEED[:NGEN] | file:PATH")
    traced.add_argument("--graph", required=True, help="cycle | path | complete | file:PATH | bus-derived[:FILE]")
    traced.add_argument("--schedule", required=True, help="recip-sqrt | recip | powerlaw:C:P")
    traced.add_argument("--out", default="out", help="output directory (default: out)")
    traced.add_argument("--split", default="equal", help="equal | explicit:v1,v2,...")
    traced.add_argument("--checkpoints", default=None, help="comma-separated checkpoint iterations")
    traced.add_argument("--bounds-upto", default=1000, type=int, help="per-iteration bound check horizon")
    traced.add_argument("--bus-lines", default=None, help="bus-line edge-list file for bus-derived graphs")

    run = sub.add_parser("run", parents=[traced], help="simulate a case and write traces, plots, and reports")
    run.add_argument("--iters", required=True, type=int)
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="solve the centralized reference problem")
    oracle.add_argument("--case", required=True)
    oracle.add_argument("--split", default="equal")
    oracle.add_argument("--out", default=None, help="directory for oracle.csv (optional)")
    oracle.set_defaults(func=_cmd_oracle)

    bounds = sub.add_parser(
        "bounds", parents=[traced], help="evaluate convergence bounds against a stored trace"
    )
    bounds.add_argument("--trace", required=True)
    bounds.add_argument("--lamstar", default=None, type=float, help="dual optimum (default: solve the oracle)")
    bounds.set_defaults(func=_cmd_bounds)

    case = sub.add_parser("case", help="case-file utilities")
    case_sub = case.add_subparsers(dest="case_command", required=True)
    validate = case_sub.add_parser("validate", help="strict-parse and feasibility-check a case file")
    validate.add_argument("path")
    validate.set_defaults(func=_cmd_case_validate)
    synth = case_sub.add_parser("synth", help="write a deterministic synthetic case")
    synth.add_argument("--seed", required=True, type=int)
    synth.add_argument("--n-gen", default=case_io.SYNTH_BASE_GENERATORS, type=int)
    synth.add_argument("--out", default=None)
    synth.set_defaults(func=_cmd_case_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NetallocError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
