"""End-to-end command-line tests driven through the argument parser."""

import json

import pytest

from netalloc import FeasibleInterval, GenericConvex, LocalProblem, Quadratic, cli
from netalloc.cli import main

RUN_FILES = ("trace.csv", "summary.csv", "oracle.csv", "alloc.svg", "multipliers.svg", "residual.svg")


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_builtin_powerlaw_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "powerlaw:0.08:0.85",
            "--iters", "200",
            "--out", str(out),
        )
        assert code == 0
        for name in RUN_FILES:
            assert (out / name).exists(), name
        # non-normalized schedule: bound report skipped
        assert not (out / "bounds.csv").exists()
        assert "skipped" in capsys.readouterr().out

    def test_recip_sqrt_writes_bounds(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--iters", "150",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "bounds.csv").exists()

    def test_synth_bus_derived_recip(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run",
            "--case", "synth:7",
            "--graph", "bus-derived",
            "--schedule", "recip",
            "--iters", "300",
            "--out", str(out),
        )
        assert code == 0

    def test_missing_case_file_fails_with_parse_error(self, tmp_path, capsys):
        code = run_cli(
            "run",
            "--case", str(tmp_path / "nope.csv"),
            "--graph", "cycle",
            "--schedule", "recip",
            "--iters", "10",
            "--out", str(tmp_path / "out"),
        )
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError:") and "\n" not in err.strip("\n")

    def test_byte_reproducible(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(
                "run",
                "--case", "builtin:ieee14",
                "--graph", "cycle",
                "--schedule", "powerlaw:0.08:0.85",
                "--iters", "120",
                "--out", str(out),
            ) == 0
            outs.append(out)
        for name in RUN_FILES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_explicit_split(self, tmp_path):
        code = run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", "complete",
            "--schedule", "recip",
            "--iters", "50",
            "--split", "explicit:100,50,50,50,50",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0


class TestOracle:
    def test_builtin_prints_solution(self, tmp_path, capsys):
        code = run_cli("oracle", "--case", "builtin:ieee14", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "f_star=" in out and "lam_star=" in out
        x_line = next(l for l in out.splitlines() if l.startswith("x_star="))
        xs = [float(t) for t in x_line.split("=", 1)[1].split(",")]
        assert sum(xs) == pytest.approx(300.0, abs=1e-6)
        assert (tmp_path / "oracle.csv").exists()

    def test_infeasible_demand(self, tmp_path, capsys):
        case_text = (
            "# demand=1000 name=bad\n"
            "id,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.1,1.0,0.0,0.0,50\n"
        )
        path = tmp_path / "bad.csv"
        path.write_text(case_text)
        code = run_cli("oracle", "--case", str(path))
        assert code != 0
        assert "FeasibilityError" in capsys.readouterr().err

    def test_two_node_toy_fixture(self, tmp_path, capsys):
        case_text = (
            "# demand=4 name=toy\n"
            "id,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.5,0.0,0.0,-10,10\n"
            "2,2,0.5,0.0,0.0,-10,10\n"
        )
        path = tmp_path / "toy.csv"
        path.write_text(case_text)
        code = run_cli("oracle", "--case", str(path))
        assert code == 0
        out = capsys.readouterr().out
        assert "lam_star=-2" in out

    def test_non_finite_argmin_is_one_error_line(self, monkeypatch, capsys):
        # the CLI builds quadratic costs only; swap in a NaN argmin oracle
        def to_problems(case, shares):
            box = FeasibleInterval(0.0, case.demand)
            nan = GenericConvex(lambda x: x * x, lambda c, lo, hi: float("nan"))
            return [LocalProblem(Quadratic(1.0, 0.0), box, 0.0), LocalProblem(nan, box, 0.0)]

        monkeypatch.setattr(cli.case_io, "to_problems", to_problems)
        code = run_cli("oracle", "--case", "builtin:ieee14")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: non-finite argmin x=nan at node 1 for multiplier lam=-601.0\n"


class TestBounds:
    def _run(self, tmp_path, schedule):
        out = tmp_path / "out"
        assert run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", schedule,
            "--iters", "100",
            "--out", str(out),
        ) == 0
        return out

    def test_recip_sqrt_trace_satisfied(self, tmp_path, capsys):
        out = self._run(tmp_path, "recip-sqrt")
        code = run_cli(
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--trace", str(out / "trace.csv"),
            "--out", str(out),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["all_satisfied"] is True
        assert (out / "bounds.csv").exists()

    def test_powerlaw_trace_hypothesis_violation(self, tmp_path, capsys):
        out = self._run(tmp_path, "powerlaw:0.08:0.85")
        code = run_cli(
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "powerlaw:0.08:0.85",
            "--trace", str(out / "trace.csv"),
            "--out", str(out),
        )
        assert code != 0
        assert "HypothesisViolation" in capsys.readouterr().err

    def test_malformed_trace_row_names_its_line(self, tmp_path, capsys):
        out = self._run(tmp_path, "recip-sqrt")
        trace = out / "trace.csv"
        rows = trace.read_text().splitlines()
        rows[3] = "1,x,1,2,3"
        trace.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run_cli(
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--trace", str(trace),
            "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: line 4: malformed trace row '1,x,1,2,3': ")
        assert "\n" not in err.strip("\n")

    def test_negative_bound_horizon_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ("--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "recip-sqrt")
        code = run_cli("run", *argv, "--iters", "50", "--bounds-upto", "-5", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: consensus_upto must be nonnegative, got -5\n"
        trace = str(out / "trace.csv")
        code = run_cli("bounds", *argv, "--trace", trace, "--bounds-upto", "-3", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: consensus_upto must be nonnegative, got -3\n"
        assert not (out / "bounds.csv").exists()

    @pytest.mark.parametrize("lamstar", ["nan", "inf"])
    def test_non_finite_lamstar_is_one_error_line(self, tmp_path, capsys, lamstar):
        trace = self._run(tmp_path, "recip-sqrt") / "trace.csv"
        out = tmp_path / "replay"
        capsys.readouterr()
        code = run_cli(
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--trace", str(trace),
            "--lamstar", lamstar,
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: lamstar must be finite, got {lamstar}\n"
        assert not (out / "bounds.csv").exists()

    def test_explicit_lamstar_and_checkpoint_one(self, tmp_path, capsys):
        out = self._run(tmp_path, "recip-sqrt")
        code = run_cli(
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--trace", str(out / "trace.csv"),
            "--lamstar", "-7.299180327868853",
            "--checkpoints", "1",
            "--out", str(out),
        )
        assert code == 0


class TestCaseCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "case.csv"
        path.write_text(
            "# demand=4 name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n1,1,0.5,0,0,0,10\n"
        )
        assert run_cli("case", "validate", str(path)) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_validate_bad(self, tmp_path, capsys):
        path = tmp_path / "case.csv"
        path.write_text("# demand=4 name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n1,1,-0.5,0,0,0,10\n")
        assert run_cli("case", "validate", str(path)) != 0
        assert "ParseError" in capsys.readouterr().err

    def test_synth_writes_case_and_lines(self, tmp_path):
        out = tmp_path / "synth7.csv"
        assert run_cli("case", "synth", "--seed", "7", "--out", str(out)) == 0
        assert out.exists() and out.with_suffix(".lines").exists()
        # the written case round-trips through validate
        assert run_cli("case", "validate", str(out)) == 0

    @pytest.mark.parametrize("command", [("case", "validate"), ("oracle", "--case")])
    def test_limits_beyond_float_range_are_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "big.csv"
        path.write_text("# demand=1 name=big\nid,bus,gamma,beta,mu,pmin,pmax\n1,1,0.1,1,0,0,1e308\n2,2,0.1,1,0,0,1e308\n")
        assert run_cli(*command, str(path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: FeasibilityError: case 'big': generator limits do not sum to a finite total\n"
        )

    def test_synth_rejects_out_that_is_its_own_lines_file(self, tmp_path, capsys):
        out = tmp_path / "case.lines"
        assert run_cli("case", "synth", "--seed", "1", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValueError: --out {out} is also the path of its bus-lines file; use another suffix\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_synth_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("case", "synth", "--seed", "3", "--out", str(a))
        run_cli("case", "synth", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".lines").read_bytes() == b.with_suffix(".lines").read_bytes()


class TestGraphSpecs:
    def test_edge_list_file(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        code = run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", f"file:{graph_file}",
            "--schedule", "recip",
            "--iters", "50",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0

    def test_bus_derived_needs_lines_for_file_cases(self, tmp_path, capsys):
        path = tmp_path / "case.csv"
        path.write_text(
            "# demand=4 name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.5,0,0,0,10\n2,2,0.5,0,0,0,10\n"
        )
        code = run_cli(
            "run",
            "--case", str(path),
            "--graph", "bus-derived",
            "--schedule", "recip",
            "--iters", "10",
            "--out", str(tmp_path / "out"),
        )
        assert code != 0
        assert "bus-lines" in capsys.readouterr().err

    def test_bus_derived_with_lines_file(self, tmp_path):
        path = tmp_path / "case.csv"
        path.write_text(
            "# demand=4 name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.5,0,0,0,10\n2,2,0.5,0,0,0,10\n"
        )
        lines = tmp_path / "net.lines"
        lines.write_text("1 2\n")
        code = run_cli(
            "run",
            "--case", str(path),
            "--graph", "bus-derived",
            "--bus-lines", str(lines),
            "--schedule", "recip",
            "--iters", "10",
            "--out", str(tmp_path / "out"),
        )
        assert code == 0

    def test_disconnected_edge_list_rejected(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("0 1\n1 2\n3 4\n")
        code = run_cli(
            "run",
            "--case", "builtin:ieee14",
            "--graph", f"file:{graph_file}",
            "--schedule", "recip",
            "--iters", "10",
            "--out", str(tmp_path / "out"),
        )
        assert code != 0
        assert "DisconnectedGraph" in capsys.readouterr().err
