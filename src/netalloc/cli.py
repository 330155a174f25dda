"""Command-line experiment runner.

Subcommands::

    netalloc run       load/synthesize a case, build weights, simulate,
                       solve the reference oracle, check bounds, write
                       CSV traces and SVG plots
    netalloc oracle    print and store the centralized reference solution
    netalloc bounds    check that a stored trace is a run of the method for
                       the case, graph and schedule given, then evaluate the
                       convergence bounds against it
    netalloc case validate   strict-parse a case file
    netalloc case synth      write a deterministic synthetic case (+ bus lines)

Case specs: ``builtin:ieee14``, ``synth:SEED[:NGEN]``, ``file:PATH`` or a bare
path. Graph specs: ``cycle``, ``path``, ``complete``, ``file:PATH``,
``bus-derived[:LINESFILE]``. Schedule specs: ``recip-sqrt``, ``recip``,
``powerlaw:C:P``. A number, in a spec or a flag, is what numpy's text reader
reads as an int64 or a float64 (:func:`~netalloc.errors._field`).

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
from .bounds import check_bounds, resolve_checks
from .errors import NetallocError, _field
from .graphs import (
    complete_graph,
    cycle_graph,
    metropolis_weights,
    parse_edge_list,
    path_graph,
)
from .oracle import solve_centralized
from .schedules import parse_schedule
from .simulator import replay_csv, run_dlm
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
        try:
            fields = [_field(tok, int) for tok in spec.split(":")[1:]]
        except ValueError:
            fields = []
        if not (1 <= len(fields) <= 2 and min(fields) >= 0):
            raise ValueError(f"case spec {spec!r} is not synth:SEED[:NGEN] with nonnegative integers SEED and NGEN")
        return case_io.synth_ieee118_style(*fields), fields[0]
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
        return parse_edge_list(case_io._read_text(spec.split(":", 1)[1], "graph file"), n=n)
    if spec == "bus-derived" or spec.startswith("bus-derived:"):
        if spec.startswith("bus-derived:"):
            bus_lines_path = spec.split(":", 1)[1]
        if bus_lines_path is not None:
            lines = case_io.parse_bus_lines(case_io._read_text(bus_lines_path, "bus-lines file"))
        elif synth_seed is not None:
            lines = case_io.synth_bus_lines(synth_seed, n)
        else:
            raise ValueError(
                "graph 'bus-derived' needs --bus-lines FILE (synthetic cases derive their own)"
            )
        return case_io.bus_derived_graph(case, lines)
    raise ValueError(f"unknown graph spec {spec!r}")


def _parse_list(text, kind, what):
    """The comma-separated tokens of ``text`` read by :func:`_field` as ``kind``; a bad one names ``what``."""
    values = []
    for tok in text.split(","):
        try:
            values.append(_field(tok, kind))
        except ValueError:
            raise ValueError(f"{what}: {tok!r} is not {'an integer' if kind is int else 'a number'}") from None
    return values


def _int_flag(text):
    """An integer flag's value, read by :func:`_field`; argparse reports a refusal."""
    try:
        return _field(text, int)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _parse_shares(split):
    if split == "equal":
        return None
    if split.startswith("explicit:"):
        return _parse_list(split.split(":", 1)[1], float, f"split spec {split!r}")
    raise ValueError(f"unknown split spec {split!r} (use 'equal' or 'explicit:v1,v2,...')")


def _parse_checkpoints(text):
    """The ``--checkpoints`` flag as ints, or None when it is absent."""
    if text is None:
        return None
    return _parse_list(text, int, f"--checkpoints {text!r}")


def _write_oracle_csv(path, sol):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"# f_star={_fmt(sol.f_star)} lam_star={_fmt(sol.lam_star)} "
            f"residual={_fmt(sol.residual)}\n"
        )
        fh.write("node,x_star\n")
        for i, x in enumerate(sol.x_star):
            fh.write(f"{i},{_fmt(x)}\n")


def _node_band(values):
    """The min, mean and max across nodes of a ``(rounds, n)`` array, one column each."""
    band = np.empty((values.shape[0], 3))
    values.min(axis=1, out=band[:, 0])
    values.mean(axis=1, out=band[:, 1])
    values.max(axis=1, out=band[:, 2])
    return band


def _write_plots(outdir, trace):
    ks = np.arange(trace.x.shape[0], dtype=float)
    band = ["min over nodes", "mean over nodes", "max over nodes"]
    # each chart's columns are computed when it is drawn, so one chart's exist at a time
    for name, title, ylabel, ys, labels in (
        ("alloc.svg", "Allocation across nodes", "x_i(k)", lambda: _node_band(trace.x), band),
        ("multipliers.svg", "Multiplier across nodes", "lambda_i(k)", lambda: _node_band(trace.lam), band),
        ("residual.svg", "Balance residual", "sum x - demand", lambda: trace.residuals()[:, None], ["residual"]),
    ):
        write_line_chart(outdir / name, title, "iteration k", ylabel, ks, ys(), labels)


def _set_up(args):
    """The case, problems, Metropolis weights and schedule that ``run`` and ``bounds`` share."""
    case, synth_seed = _load_case_spec(args.case)
    problems = case_io.to_problems(case, _parse_shares(args.split))
    graph = _build_graph(args.graph, case, synth_seed, args.bus_lines)
    return case, problems, metropolis_weights(graph), parse_schedule(args.schedule)


def _check_bounds(args, trace, problems, weights, lamstar):
    """Check the bounds against ``trace`` and write ``bounds.csv`` in ``args.out``."""
    report = check_bounds(
        trace,
        problems,
        weights,
        lamstar,
        checkpoints=_parse_checkpoints(args.checkpoints),
        consensus_upto=args.bounds_upto,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report.to_csv(outdir / "bounds.csv")
    return report


def _cmd_run(args):
    case, problems, weights, sched = _set_up(args)
    # refuse bad bound-check flags before anything is written, whatever the schedule
    resolve_checks(args.iters, _parse_checkpoints(args.checkpoints), args.bounds_upto)
    trace = run_dlm(problems, weights, sched, args.iters)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(outdir / "trace.csv")
    trace.summary_to_csv(outdir / "summary.csv")

    sol = solve_centralized(problems, case.demand)
    _write_oracle_csv(outdir / "oracle.csv", sol)

    final_cost = trace.total_cost()
    final_residual = float((trace.x[-1] - trace.b).sum())  # the last of trace.residuals()
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
    problems = case_io.to_problems(case, _parse_shares(args.split))
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
    trace = replay_csv(args.trace, problems, weights, sched)
    report = _check_bounds(args, trace, problems, weights, solve_centralized(problems, case.demand).lam_star)
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
    traced.add_argument("--bounds-upto", default=1000, type=_int_flag, help="per-iteration bound check horizon")
    traced.add_argument("--bus-lines", default=None, help="bus-line edge-list file for bus-derived graphs")

    run = sub.add_parser("run", parents=[traced], help="simulate a case and write traces, plots, and reports")
    run.add_argument("--iters", required=True, type=_int_flag)
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
    bounds.set_defaults(func=_cmd_bounds)

    case = sub.add_parser("case", help="case-file utilities")
    case_sub = case.add_subparsers(dest="case_command", required=True)
    validate = case_sub.add_parser("validate", help="strict-parse and feasibility-check a case file")
    validate.add_argument("path")
    validate.set_defaults(func=_cmd_case_validate)
    synth = case_sub.add_parser("synth", help="write a deterministic synthetic case")
    synth.add_argument("--seed", required=True, type=_int_flag)
    synth.add_argument("--n-gen", default=case_io.SYNTH_BASE_GENERATORS, type=_int_flag)
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
