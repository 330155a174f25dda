"""Stage-timed benchmark of ``netalloc run`` and its ``netalloc bounds`` replay.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out RESULTS.jsonl]

``--workload all`` runs every workload in turn. One *operation* is three
child processes, one after the other:

1. set-up and simulate: the set-up stage (case -> problems -> graph ->
   ``metropolis_weights``, including ``sigma2``) and ``run_dlm`` on the
   prebuilt inputs, each timed through the functions the CLI calls, as the
   mean over a batch of calls;
2. ``netalloc run`` through ``netalloc.cli.main``, timed after import;
3. ``netalloc bounds`` on the trace that run wrote.

Operations repeat for ``--seconds`` (at least three), and the end-to-end
metrics are medians over them. Every operation is checked (exit codes, the
seven output files, replay ``bounds.csv`` byte-identical to the run's,
SHA-256 of every file identical across repeats, ``all_satisfied``); once per
invocation, outside timing, the first operation's trace is verified round by
round, the oracle against ``verify_kkt`` and the pinned values in
``reference.json``. With ``--trace 1`` one more operation runs the layer calls
of both commands with a span around each call; its outputs must be
byte-identical to the untraced run's, and it supplies the per-layer metrics.

Human-readable lines come first. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``--out`` appends a full record (every metric, failures, environment) to a
JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"
CHILD_TIMEOUT = 170.0
MIN_OPS = 3
OUTPUT_FILES = (
    "trace.csv",
    "summary.csv",
    "oracle.csv",
    "bounds.csv",
    "alloc.svg",
    "multipliers.svg",
    "residual.svg",
)
SCHEDULE = "recip-sqrt"
MB = 1e6


@dataclass(frozen=True)
class Workload:
    n: int
    iters: int
    graph: str  # "bus-derived" or "cycle"


# Why each workload exists is in BENCHMARK.json. The 1000-node sizes of
# ROADMAP aim 1 cost 50-90 s per operation at the parent revision, more than
# one whole benchmark run may take, so the cycle workload uses n = 300.
WORKLOADS = {
    "dispatch54": Workload(54, 5000, "bus-derived"),
    "cycle300": Workload(300, 500, "cycle"),
}


def resolve(name, seed):
    """The workload's inputs for ``seed``, as a spec for the child processes."""
    wl = WORKLOADS[name]
    return {
        "name": name,
        "seed": seed,
        "n": wl.n,
        "iters": wl.iters,
        "graph": wl.graph,
        "schedule": SCHEDULE,
        "case": f"synth:{seed}:{wl.n}",
    }


def cli_args(spec, command, out, trace_csv=None):
    args = [command, "--case", spec["case"], "--graph", spec["graph"], "--schedule", spec["schedule"]]
    if command == "run":
        args += ["--iters", str(spec["iters"])]
    else:
        args += ["--trace", str(trace_csv)]
    return args + ["--out", str(out)]


class ChildError(Exception):
    pass


def run_child(mode, payload, deadline):
    """Run one child process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    timeout = max(1.0, min(CHILD_TIMEOUT, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, json.dumps(payload)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode}: timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise ChildError(f"{mode}: exit {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def run_cli(args, deadline):
    return run_child("cli", args, deadline)


def digests(directory, names=OUTPUT_FILES):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in names
        if (directory / name).is_file()
    }


def _summary_satisfied(text):
    return json.loads(text)["all_satisfied"] is True


def operation(spec, op_dir, deadline):
    """One set-up/simulate, run and replay; returns (samples, failures, digests)."""
    samples, failures = {}, []
    setup = run_child("setup", spec, deadline)
    samples["setup_s"], samples["simulate_s"] = setup["setup_s"], setup["simulate_s"]

    run_dir, replay_dir = op_dir / "run", op_dir / "replay"
    run = run_cli(cli_args(spec, "run", run_dir), deadline)
    samples["run_s"], samples["peak_rss_mb"] = run["seconds"], run["maxrss_kb"] * 1024 / MB
    replay = run_cli(cli_args(spec, "bounds", replay_dir, run_dir / "trace.csv"), deadline)
    samples["replay_s"] = replay["seconds"]

    if run["rc"] != 0:
        failures.append(f"netalloc run exited {run['rc']}")
    if replay["rc"] != 0:
        failures.append(f"netalloc bounds exited {replay['rc']}")
    found = digests(run_dir)
    missing = [name for name in OUTPUT_FILES if name not in found]
    if missing:
        failures.append(f"missing outputs {missing}")
    bounds_line = [ln for ln in run["stdout"].splitlines() if ln.startswith("bounds: ")]
    if not (bounds_line and _summary_satisfied(bounds_line[0][len("bounds: "):])):
        failures.append("run bounds summary is not all_satisfied")
    replay_lines = replay["stdout"].strip().splitlines()
    if not (replay_lines and _summary_satisfied(replay_lines[-1])):
        failures.append("replay bounds summary is not all_satisfied")
    replayed = digests(replay_dir, ["bounds.csv"]).get("bounds.csv")
    if replayed != found.get("bounds.csv"):
        failures.append("replay bounds.csv differs from the run's")
    found["replay/bounds.csv"] = replayed
    return samples, failures, found


def _span_seconds(spans, name, parent_name):
    """Duration of the span ``name`` directly under the span ``parent_name``."""
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        if s["name"] == name and names.get(s["parent"]) == parent_name:
            return s["end"] - s["start"]
    raise KeyError(f"no span {name} under {parent_name}")


def per_layer(spans, traced, verified, spec, run_s, run_dir):
    """Per-layer metrics from the traced run's spans and the verify step."""

    def top(name):
        return _span_seconds(spans, name, "cli.run")

    top_level = [s for s in spans if s["parent"] is not None and spans[s["parent"]]["name"] == "cli.run"]
    svg_bytes = sum((run_dir / name).stat().st_size for name in OUTPUT_FILES if name.endswith(".svg"))
    run_dlm_s = top("simulator.run_dlm")
    return {
        "graphs.sigma2_s": (_span_seconds(spans, "probe.sigma2", None), "s"),
        "graphs.build_s": (top("graphs.build"), "s"),
        "graphs.weights_s": (top("graphs.weights"), "s"),
        "graphs.nnz": (verified["nnz"], "count"),
        "graphs.sigma2_gap_err": (verified["sigma2_gap_err"], "ratio"),
        "simulator.run_dlm_s": (run_dlm_s, "s"),
        "simulator.us_per_round": (run_dlm_s / spec["iters"] * 1e6, "us"),
        "simulator.run_dlm_peak_mb": (traced["run_dlm_peak_bytes"] / MB, "MB"),
        "simulator.to_csv_s": (top("simulator.to_csv"), "s"),
        "simulator.summary_csv_s": (top("simulator.summary_csv"), "s"),
        "svgplot.write_s": (top("svgplot.write"), "s"),
        "simulator.trace_csv_mb": ((run_dir / "trace.csv").stat().st_size / MB, "MB"),
        "svgplot.mb": (svg_bytes / MB, "MB"),
        "simulator.from_csv_s": (_span_seconds(spans, "simulator.from_csv", "cli.bounds"), "s"),
        "bounds.check_s": (top("bounds.check"), "s"),
        "oracle.solve_s": (top("oracle.solve"), "s"),
        "cases.load_s": (top("cases.load"), "s"),
        "cli.unaccounted_s": (run_s - sum(s["end"] - s["start"] for s in top_level), "s"),
    }


def environment():
    """Revision, versions, BLAS threads, CPUs and load when the run started."""
    import numpy as np

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git": rev,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _blas_threads(np):
    """OpenBLAS's own thread count, read through its C API when it is there."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def bench_workload(name, seed, seconds, trace, workdir):
    """Run one workload; returns the full record."""
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT
    spec = resolve(name, seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    pins = {"rtol": reference["rtol"], "seeds": reference["workloads"][name]}

    samples, op_failures, first = {}, [], None
    op_seconds = []
    # Start another operation while the run is expected to end within half
    # an operation of --seconds; a traced run costs about one more operation.
    reserve = 1.5 if trace else 0.5
    while len(op_failures) < MIN_OPS or (
        time.monotonic() - start + reserve * statistics.median(op_seconds) <= seconds
    ):
        t0 = time.monotonic()
        op_dir = workdir / f"op{len(op_failures)}"
        try:
            got, failures, found = operation(spec, op_dir, deadline)
        except ChildError as exc:
            got, failures, found = {}, [str(exc)], {}
        for key, value in got.items():
            samples.setdefault(key, []).append(value)
        if first is None:
            first = (op_dir, found)
        else:
            changed = sorted(k for k in set(found) | set(first[1]) if found.get(k) != first[1].get(k))
            if changed:
                failures.append(f"SHA-256 differs from the first repeat for {changed}")
            shutil.rmtree(op_dir, ignore_errors=True)
        op_failures.append(failures)
        op_seconds.append(time.monotonic() - t0)
        if time.monotonic() > deadline - 30:
            break

    first_dir, first_digests = first
    run_dir = first_dir / "run"
    try:
        verified = run_child("verify", {"spec": spec, "run_dir": str(run_dir), "pins": pins}, deadline)
    except (ChildError, ValueError) as exc:
        verified = {"failures": [f"verify: {exc}"]}
    if verified["failures"]:
        # every repeat wrote the same bytes, or already failed the digest check
        for failures in op_failures:
            failures.extend(verified["failures"])

    metrics = {}
    if "run_s" in samples:
        for key, unit in (
            ("run_s", "s"),
            ("replay_s", "s"),
            ("setup_s", "s"),
            ("simulate_s", "s"),
            ("peak_rss_mb", "MB"),
        ):
            metrics[key] = (statistics.median(samples[key]), unit)

    extra = {}
    if trace:
        traced_dir = workdir / "traced"
        spans_path = workdir / "spans.json"
        failures = []
        try:
            traced = run_child(
                "traced",
                {
                    "spec": spec,
                    "run_dir": str(traced_dir / "run"),
                    "replay_dir": str(traced_dir / "replay"),
                    "spans": str(spans_path),
                },
                deadline,
            )
            found = digests(traced_dir / "run")
            found["replay/bounds.csv"] = digests(traced_dir / "replay", ["bounds.csv"]).get("bounds.csv")
            changed = sorted(k for k in set(found) | set(first_digests) if found.get(k) != first_digests.get(k))
            if changed:
                failures.append(f"traced run's outputs differ from the untraced run's: {changed}")
            if not traced["all_satisfied"]:
                failures.append("traced run's bounds are not all_satisfied")
            if not traced["sigma2_repeatable"]:
                failures.append("sigma2 probe differs from the run's sigma2")
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            extra["spans"] = spans
            if "nnz" in verified and "run_s" in metrics:
                metrics.update(per_layer(spans, traced, verified, spec, metrics["run_s"][0], traced_dir / "run"))
        except ChildError as exc:
            failures.append(str(exc))
        op_failures.append(failures)

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spec": spec,
        "attempted": len(op_failures),
        "failed": sum(1 for f in op_failures if f),
        "failures": sorted({reason for f in op_failures for reason in f}),
        "pinned": verified.get("pinned", False),
        "sigma2": {k: verified[k] for k in ("sigma2", "sigma2_exact", "sigma2_gap_err") if k in verified},
        "sigma2_side": _side(verified),
        "wall_s": time.monotonic() - start,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        **extra,
    }


def _side(verified):
    """Which side of the exact sigma2 the program's estimate falls on."""
    if "sigma2_exact" not in verified:
        return "unknown"
    estimate, exact = verified["sigma2"], verified["sigma2_exact"]
    if abs(estimate - exact) <= 4 * sys.float_info.epsilon:
        return "exact to rounding"
    return "safe side (too large)" if estimate > exact else "UNSAFE side (too small)"


def print_record(record):
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"operations={record['attempted']} failed={record['failed']} wall={record['wall_s']:.1f}s")
    print("# env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    s = record["sigma2"]
    if "sigma2_exact" in s:
        print(f"# sigma2 estimate {s['sigma2']!r} vs eigvalsh {s['sigma2_exact']!r}: {record['sigma2_side']}")
    print(f"# pinned reference values {'checked' if record['pinned'] else 'absent for this seed'}")
    for reason in record["failures"]:
        print(f"# FAILED: {reason}")
    for key, m in record["metrics"].items():
        print(f"{record['workload']:<11} {key:<28} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append full records to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netalloc" / "__init__.py").is_file():
        print(f"error: no netalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    WORK.mkdir(exist_ok=True)
    records = []
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            record = bench_workload(name, args.seed, seconds, args.trace, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        record["env"] = env
        print_record(record)
        records.append(record)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for m in wanted:
            if m["name"] in record["metrics"]:
                metrics[prefix + m["name"]] = record["metrics"][m["name"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(m["name"] in r["metrics"] for r in records for m in wanted)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
