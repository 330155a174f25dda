"""Smoke test of the benchmark itself, on tiny sizes.

Usage: ``python3 perfbench/smoke.py`` (about half a minute; exits 0 on pass)

Every workload is shrunk to 12 nodes and 30 rounds, keeping its graph kind.
The test checks that ``run.py`` emits every metric ``BENCHMARK.json`` names,
with its unit, on every workload in both trace modes with no failed
operation, and that a corrupted replay output is counted as a failed
operation. It uses a seed that ``reference.json`` does not pin, because the
pins hold for the full sizes only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

SEED = 1000


def bench(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    assert rc == 0, f"run.py {argv} exited {rc}"
    lines = out.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    run.WORKLOADS = {
        name: dataclasses.replace(wl, n=12, iters=30) for name, wl in run.WORKLOADS.items()
    }
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    common = ["--seed", str(SEED), "--seconds", "1"]

    for name in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench(["--workload", name, "--trace", str(trace)] + common)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace={trace}: got {got}, want {want}"
            print(f"ok   {name} trace={trace}: {len(got)} metrics, {result['attempted']} operations")

    real_run_cli = run.run_cli

    def corrupting_run_cli(args, deadline):
        result = real_run_cli(args, deadline)
        if args[0] == "bounds":
            out = run.Path(args[args.index("--out") + 1]) / "bounds.csv"
            out.write_text(out.read_text(encoding="utf-8") + "# corrupted\n", encoding="utf-8")
        return result

    run.run_cli = corrupting_run_cli
    try:
        lines, result = bench(["--workload", "dispatch54", "--trace", "0"] + common)
    finally:
        run.run_cli = real_run_cli
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    assert any("replay bounds.csv differs" in line for line in lines), lines
    print(f"ok   corrupted replay counted: {result['failed']}/{result['attempted']} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
