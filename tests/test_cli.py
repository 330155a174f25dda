"""End-to-end command-line tests driven through the argument parser."""

import json

import pytest

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

    @pytest.mark.parametrize(
        "spec", ["synth:7:54:junk", "synth:7:", "synth:-3", "synth:", "synth:x", "synth:7:5.0", "synth:7:-5", "synth:²"]
    )
    def test_malformed_synth_spec_is_one_error_line(self, tmp_path, capsys, spec):
        out = tmp_path / "out"
        code = run_cli("run", "--case", spec, "--graph", "cycle", "--schedule", "recip", "--iters", "10", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValueError: case spec {spec!r} is not synth:SEED[:NGEN] with nonnegative integers SEED and NGEN\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (("--checkpoints", "1,99"), "checkpoints [1, 99] must lie in [1, 10]"),
            (("--bounds-upto", "-5"), "consensus_upto must be nonnegative, got -5"),
            (("--checkpoints", "1,a"), "--checkpoints '1,a': 'a' is not an integer"),
        ],
    )
    def test_bad_bound_flags_fail_before_any_output(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "recip-sqrt",
            "--iters", "10", *flags, "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {reason}\n"
        assert not out.exists()

    # the bounds are skipped when alpha(0) != 1, but their flags are still checked
    @pytest.mark.parametrize(
        "flags, reason",
        [
            (("--checkpoints", "1,a", "--bounds-upto", "-5"), "--checkpoints '1,a': 'a' is not an integer"),
            (("--bounds-upto", "-5"), "consensus_upto must be nonnegative, got -5"),
        ],
    )
    def test_bad_bound_flags_fail_under_a_schedule_without_bounds(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "powerlaw:0.08:0.85",
            "--iters", "10", *flags, "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_power_law_coefficient_is_one_error_line(self, tmp_path, capsys, c):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--case", "builtin:ieee14", "--graph", "cycle", "--schedule", f"powerlaw:{c}:1",
            "--iters", "10", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ValueError: bad power-law spec 'powerlaw:{c}:1': "
            f"power-law coefficient must be finite and positive, got {c}\n"
        )
        assert not out.exists()

    def test_bad_split_token_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "recip",
            "--iters", "10", "--split", "explicit:1,2,x", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: split spec 'explicit:1,2,x': 'x' is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, graph, split, reason",
        [
            ("builtin:ieee30", "cycle", "equal", "unknown builtin case 'ieee30'"),
            ("builtin:ieee14", "star", "equal", "unknown graph spec 'star'"),
            ("builtin:ieee14", "cycle", "halves", "unknown split spec 'halves' (use 'equal' or 'explicit:v1,v2,...')"),
        ],
        ids=["builtin-case", "graph-spec", "split-spec"],
    )
    def test_unknown_spec_is_one_error_line(self, tmp_path, capsys, case, graph, split, reason):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--case", case, "--graph", graph, "--split", split, "--schedule", "recip",
            "--iters", "10", "--out", str(out),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {reason}\n"
        assert not out.exists()

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

    def test_trace_of_another_case_names_its_first_out_of_place_line(self, tmp_path, capsys):
        # a 54-node trace read for a 5-node case: line 7 holds k=0, node=5
        out = tmp_path / "synth7"
        argv = ("--graph", "cycle", "--schedule", "recip-sqrt")
        assert run_cli("run", "--case", "synth:7", *argv, "--iters", "3", "--out", str(out)) == 0
        capsys.readouterr()
        trace = str(out / "trace.csv")
        code = run_cli("bounds", "--case", "builtin:ieee14", *argv, "--trace", trace, "--out", str(tmp_path / "replay"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: line 7: expected the row for k=1, node=0, got k=0, node=5\n"
        )

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_trace_is_one_error_line(self, tmp_path, capsys, kind):
        # the form every unreadable input file takes, as for a case file
        trace = tmp_path / "missing.csv"
        reason = "No such file or directory"
        if kind == "directory":
            trace, reason = tmp_path, "Is a directory"
        out = tmp_path / "replay"
        argv = ("--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "recip-sqrt")
        code = run_cli("bounds", *argv, "--trace", str(trace), "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: cannot read trace file {trace}: {reason}\n"
        assert not out.exists()

    def test_negative_bound_horizon_is_one_error_line(self, tmp_path, capsys):
        argv = ("--case", "builtin:ieee14", "--graph", "cycle", "--schedule", "recip-sqrt")
        code = run_cli("run", *argv, "--iters", "50", "--bounds-upto", "-5", "--out", str(tmp_path / "bad"))
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: consensus_upto must be nonnegative, got -5\n"
        out = self._run(tmp_path, "recip-sqrt")
        (out / "bounds.csv").unlink()
        capsys.readouterr()
        trace = str(out / "trace.csv")
        code = run_cli("bounds", *argv, "--trace", trace, "--bounds-upto", "-3", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: consensus_upto must be nonnegative, got -3\n"
        assert not (out / "bounds.csv").exists()

    def test_explicit_lamstar_and_checkpoint_one(self, tmp_path, capsys):
        # lam_star is always the oracle's: --lamstar is an unrecognised argument
        out = self._run(tmp_path, "recip-sqrt")
        argv = (
            "bounds",
            "--case", "builtin:ieee14",
            "--graph", "cycle",
            "--schedule", "recip-sqrt",
            "--trace", str(out / "trace.csv"),
            "--checkpoints", "1",
            "--out", str(out),
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--lamstar", "-7.299180327868853")
        assert exc.value.code == 2
        assert "unrecognized arguments: --lamstar -7.299180327868853" in capsys.readouterr().err
        assert run_cli(*argv) == 0


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

    def test_synth_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "case.csv"
        assert run_cli("case", "synth", "--seed", "-3", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: synthetic case seed must be nonnegative, got -3\n"
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

    def test_path_graph(self, tmp_path, capsys):
        code = run_cli(
            "run", "--case", "builtin:ieee14", "--graph", "path", "--schedule", "recip",
            "--iters", "10", "--out", str(tmp_path / "out"),
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "case=ieee14 n=5 demand=300 sigma2=0.872678"

    def test_bus_derived_file_form_matches_bus_lines_flag(self, tmp_path):
        path = tmp_path / "case.csv"
        path.write_text(
            "# demand=4 name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.5,0,0,0,10\n2,2,0.5,0,0,0,10\n"
        )
        lines = tmp_path / "net.lines"
        lines.write_text("1 2\n")
        common = ("--case", str(path), "--schedule", "recip", "--iters", "10")
        assert run_cli("run", *common, "--graph", f"bus-derived:{lines}", "--out", str(tmp_path / "a")) == 0
        assert run_cli("run", *common, "--graph", "bus-derived", "--bus-lines", str(lines), "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags, what",
        [
            (["--case", "synth:7", "--graph", "file:{missing}"], "graph file"),
            (["--case", "synth:7", "--graph", "bus-derived:{missing}"], "bus-lines file"),
            (["--case", "synth:7", "--graph", "bus-derived", "--bus-lines", "{missing}"], "bus-lines file"),
            (["--case", "file:{missing}", "--graph", "cycle"], "case file"),
            (["--case", "{missing}", "--graph", "cycle"], "case file"),
        ],
        ids=["graph-file", "bus-derived-file", "bus-lines-flag", "case-file", "case-path"],
    )
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, flags, what):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "out"
        flags = [flag.format(missing=missing) for flag in flags]
        code = run_cli("run", *flags, "--schedule", "recip", "--iters", "10", "--out", str(out))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: cannot read {what} {missing}: No such file or directory\n"
        assert not out.exists()


class TestNumberRule:
    """Every number the command line reads, from a file, a spec or a flag, is
    what numpy's text reader reads as an int64 or a float64.

    Each input below holds the value 5 and takes the token under test in its
    place; each is read through ``netalloc.errors._field``.
    """

    CASE = (
        "# demand={demand} name=toy\nid,bus,gamma,beta,mu,pmin,pmax\n"
        "1,1,0.1,1,0,0,10\n2,2,0.1,1,0,0,10\n3,3,0.1,1,0,0,10\n4,4,0.1,1,0,0,10\n"
        "{id},{bus},{gamma},1,0,0,10\n6,6,0.1,1,0,0,10\n"
    )
    EDGES = "0 1\n1 2\n2 3\n3 4\n4 {edge}\n"
    LINES = "1 2\n2 3\n3 4\n4 {line}\n5 6\n"
    RUN = ("run", "--case", "file:{case}", "--graph", "cycle", "--schedule", "recip-sqrt", "--iters", "10", "--out", "{out}")
    SYNTH = ("case", "synth", "--seed", "7", "--out", "{out}.csv")
    # name: (kind, the file slot that takes the token or None, argv); a later flag overrides an earlier one
    INPUTS = {
        "case-demand": (float, "demand", RUN),
        "case-id": (int, "id", RUN),
        "case-bus": (int, "bus", RUN),
        "case-gamma": (float, "gamma", RUN),
        "bus-lines": (int, "line", RUN + ("--graph", "bus-derived:{lines}")),
        "edge-list": (int, "edge", RUN + ("--graph", "file:{edges}")),
        "synth-seed": (int, None, RUN + ("--case", "synth:{token}")),
        "synth-ngen": (int, None, RUN + ("--case", "synth:7:{token}")),
        "split": (float, None, RUN + ("--split", "explicit:{token},0,0,0,0,0")),
        "checkpoints": (int, None, RUN + ("--checkpoints", "{token}")),
        "powerlaw": (float, None, RUN + ("--schedule", "powerlaw:{token}:1")),
        "iters": (int, None, RUN + ("--iters", "{token}")),
        "bounds-upto": (int, None, RUN + ("--bounds-upto", "{token}")),
        "seed": (int, None, SYNTH + ("--seed", "{token}")),
        "n-gen": (int, None, SYNTH + ("--n-gen", "{token}")),
    }

    def _main(self, tmp_path, capsys, name, token):
        kind, slot, argv = self.INPUTS[name]
        slots = dict.fromkeys(("demand", "id", "bus", "gamma", "edge", "line"), "5")
        if slot is not None:
            slots[slot] = token
        paths = {"case": tmp_path / "case.csv", "edges": tmp_path / "g.txt", "lines": tmp_path / "net.lines"}
        for (key, path), text in zip(paths.items(), (self.CASE, self.EDGES, self.LINES)):
            path.write_text(text.format(**slots), encoding="utf-8")
        fill = {**paths, "out": tmp_path / "out", "token": token}
        try:
            code = main([arg.format(**fill) for arg in argv])
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
        return code, capsys.readouterr()

    @pytest.mark.parametrize(
        "name, token",
        [
            pytest.param(name, token, id=f"{name}-{label}")
            for name, (kind, _, _) in INPUTS.items()
            for label, token in (("underscore", "1_0"), ("arabic-indic", "\u0661\u0662"), ("beyond-int64", str(2**63)))
            if kind is int or label != "beyond-int64"
        ],
    )
    def test_refused_in_one_line(self, tmp_path, capsys, name, token):
        code, captured = self._main(tmp_path, capsys, name, token)
        assert captured.out == ""
        if code == 2:
            usage, line = captured.err.rstrip("\n").rsplit("\n", 1)
            assert usage.startswith("usage: ")
            assert line.endswith(f": could not convert {token!r} to int64")
        else:
            assert code == 1
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert token in captured.err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize(
        "name, token",
        [
            pytest.param(name, token, id=f"{name}-{label}")
            for name, (kind, _, _) in INPUTS.items()
            for label, token in (("plus", "+5"), ("spaces", " 5 "), ("exponent", "5e0"))
            # the metadata line puts no space after 'demand='
            if (kind is float or label != "exponent") and (name, label) != ("case-demand", "spaces")
        ],
    )
    def test_accepted(self, tmp_path, capsys, name, token):
        code, captured = self._main(tmp_path, capsys, name, token)
        assert (code, captured.err) == (0, "")
