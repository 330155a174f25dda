"""Differential tests of the trace reader against a per-line statement of its rule.

``RunTrace.from_csv`` accepts exactly the layout ``to_csv`` writes: after the
header, rounds ``k = 0 .. T`` in order, each with nodes ``0 .. n-1`` in order,
every value finite, only empty lines skipped. It reads the body with numpy's C
reader and runs a per-line scan only after a refusal, to name the line.
``reference_read`` below states the rule line by line, with its own grammar
for numpy's int64 and float64 fields; every file must give the same arrays, or
the same exception with the same message, through both.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netalloc import FeasibleInterval, LocalProblem, Quadratic, RecipSqrt, RunTrace, simulator

HEADER = "k,node,x,lambda,v"

# deterministic examples and no example database, so the suite stays reproducible
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]

# the fields numpy's reader parses, once stripped of whitespace: ASCII digits, no '_'
INT64 = re.compile(r"[+-]?[0-9]+")
FLOAT64 = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE)


def reference_read(path, n):
    """The layout rule, one line at a time: ``(x, lam, v)`` or the reader's ValueError."""
    if n < 1:
        raise ValueError("need at least 1 node, got 0")
    with open(path, "r", encoding="utf-8") as fh:
        header, *body = fh.read().split("\n")
    if header.strip() != "k,node,x,lambda,v":
        raise ValueError(f"unexpected trace header {header.strip()!r}")
    rows = []
    for lineno, raw in enumerate(body, start=2):
        if raw == "":
            continue
        fields = raw.split(",")
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: malformed trace row {raw!r}: expected 5 fields, got {len(fields)}")
        for field, name in zip(fields, ["int64"] * 2 + ["float64"] * 3):
            text = field.strip()
            if name == "int64":
                parses = INT64.fullmatch(text) and -(2**63) <= int(text) < 2**63
            else:
                parses = FLOAT64.fullmatch(text)
            if not parses:
                raise ValueError(f"line {lineno}: malformed trace row {raw!r}: could not convert {field!r} to {name}")
        values = [float(field) for field in fields[2:]]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {lineno}: non-finite value in trace row")
        want = divmod(len(rows), n)
        if (int(fields[0]), int(fields[1])) != want:
            raise ValueError(
                f"line {lineno}: expected the row for k={want[0]}, node={want[1]}, "
                f"got k={int(fields[0])}, node={int(fields[1])}"
            )
        rows.append(values)
    if not rows:
        raise ValueError("empty trace file")
    if len(rows) % n:
        raise ValueError("trace has no row for k=%d, node=%d" % divmod(len(rows), n))
    return tuple(np.array(rows).T.reshape(3, -1, n))


def problems_of(n):
    return [LocalProblem(Quadratic(1.0, 0.0), FeasibleInterval(-1.0, 1.0), 0.0)] * n


def outcome(read):
    """The arrays' shapes and bits, or the exception's type and message."""
    try:
        arrays_ = read()
    except Exception as exc:  # the two readers must fail alike, whatever the type
        return type(exc).__name__, str(exc)
    return tuple((a.shape, a.tobytes()) for a in arrays_)


def both(path, n):
    """``(new, reference)`` outcomes of reading ``path`` as an ``n``-node trace."""

    def new():
        trace = RunTrace.from_csv(path, problems_of(n), RecipSqrt())
        return trace.x, trace.lam, trace.v

    return outcome(new), outcome(lambda: reference_read(path, n))


def body_lines(values):
    """Trace rows, as ``to_csv`` writes them, of a ``(3, rows, n)`` value array."""
    _, rows, n = values.shape
    return [
        "%d,%d,%.17g,%.17g,%.17g" % (k, i, *values[:, k, i].tolist())
        for k in range(rows)
        for i in range(n)
    ]


def write(path, lines, newline="\n"):
    path.write_bytes(newline.join([HEADER, *lines, ""]).encode("utf-8"))


finite_floats = st.one_of(
    st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def traces(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 4))
    return draw(arrays(np.float64, (3, rows, n), elements=finite_floats))


@given(values=traces())
@SETTINGS
def test_round_trip_is_bitwise(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("round_trip") / "trace.csv"
    _, rows, n = values.shape
    x, lam, v = values
    problems = problems_of(n)
    RunTrace(problems, np.zeros(n), RecipSqrt(), x, lam, v).to_csv(path)
    back = RunTrace.from_csv(path, problems, RecipSqrt())
    for got, want in ((back.x, x), (back.lam, lam), (back.v, v)):
        assert got.shape == (rows, n) and got.tobytes() == want.tobytes()


def _set_field(j, text):
    def edit(line):
        parts = line.split(",")
        if j < len(parts):
            parts[j] = text(parts[j])
        return ",".join(parts)

    return edit


# each mutation edits the line at a drawn position: (name, insert?, edit)
MUTATIONS = {
    "blank": (True, lambda line: ""),
    "whitespace": (True, lambda line: " \t "),
    "spaces": (False, lambda line: " " + " , ".join(line.split(",")) + " "),
    "underscore-k": (False, _set_field(0, lambda k: "0_" + k)),
    "underscore-x": (False, _set_field(2, lambda x: "1_0")),
    "hash-row": (True, lambda line: "#" + line),
    "hash-comment": (True, lambda line: "# comment"),
    "trailing-comment": (False, lambda line: line + " # x"),
    "float-k": (False, _set_field(0, lambda k: k + ".0")),
    "short": (False, lambda line: line.rsplit(",", 1)[0]),
    "long": (False, lambda line: line + ",0"),
    "repeat": (True, lambda line: line),
    "nan": (False, _set_field(3, lambda lam: "nan")),
    "unicode-digit": (False, _set_field(1, lambda node: "١" if node == "1" else node)),
    "big-k": (False, _set_field(0, lambda k: str(2**64) + k)),
}


@st.composite
def mutated(draw):
    values = draw(traces())
    lines = body_lines(values)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(MUTATIONS) + ["missing", "swap"]))
        pos = draw(st.integers(0, len(lines)))
        if name == "missing":
            if lines:
                del lines[min(pos, len(lines) - 1)]
            continue
        if name == "swap":  # two adjacent rows trade places
            if len(lines) > 1:
                i = min(pos, len(lines) - 2)
                lines[i], lines[i + 1] = lines[i + 1], lines[i]
            continue
        insert, edit = MUTATIONS[name]
        source = lines[min(pos, len(lines) - 1)] if lines else "0,0,1,2,3"
        if insert:
            lines.insert(pos, edit(source))
        elif lines:
            lines[min(pos, len(lines) - 1)] = edit(source)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return values.shape[2], lines, newline


@given(case=mutated())
@SETTINGS
def test_mutated_files_match_reference(tmp_path_factory, case):
    n, lines, newline = case
    path = tmp_path_factory.mktemp("mutated") / "trace.csv"
    write(path, lines, newline)
    new, reference = both(path, n)
    assert new == reference


VALID = ["0,0,1,2,3", "0,1,4,5,6", "1,0,7,8,9", "1,1,10,11,12"]


@pytest.mark.parametrize(
    "lines, message",
    [
        # the reader's row index skips blank lines; the message counts them
        (VALID[:2] + [""] + VALID[2:3] + ["1,1,nan,11,12"], "line 6: non-finite value in trace row"),
        (VALID[:2] + ["", ""] + VALID[2:] + ["1,1,1,1,1"], "line 8: expected the row for k=2, node=0, got k=1, node=1"),
        (["", *VALID[:3], "1,x,1,2,3"], "line 6: malformed trace row '1,x,1,2,3': could not convert 'x' to int64"),
        # only empty lines are skipped: a whitespace line is a malformed row
        (
            VALID[:1] + ["  \t"] + VALID[1:2] + ["", "-1,0,1,2,3"],
            "line 3: malformed trace row '  \\t': expected 5 fields, got 1",
        ),
        (VALID[:1] + ["   "] + VALID[1:], "line 3: malformed trace row '   ': expected 5 fields, got 1"),
        # '#' is an ordinary character: a comment row or a trailing comment is malformed
        (VALID[:2] + ["# comment"] + VALID[2:], "line 4: malformed trace row '# comment': expected 5 fields, got 1"),
        (["#" + VALID[0]] + VALID[1:], "line 2: malformed trace row '#0,0,1,2,3': could not convert '#0' to int64"),
        (
            VALID[:3] + [VALID[3] + " # x"],
            "line 5: malformed trace row '1,1,10,11,12 # x': could not convert '12 # x' to float64",
        ),
        (
            VALID[:2] + ["1.0,0,7,8,9"] + VALID[3:],
            "line 4: malformed trace row '1.0,0,7,8,9': could not convert '1.0' to int64",
        ),
        # what Python's int() and float() take beyond numpy's reader
        (
            VALID[:2] + ["0_1,0,7,8,9"] + VALID[3:],
            "line 4: malformed trace row '0_1,0,7,8,9': could not convert '0_1' to int64",
        ),
        (
            VALID[:3] + ["1,1,1_0,11,12"],
            "line 5: malformed trace row '1,1,1_0,11,12': could not convert '1_0' to float64",
        ),
        (VALID[:3] + ["1,١,10,11,12"], "line 5: malformed trace row '1,١,10,11,12': could not convert '١' to int64"),
        ([], "empty trace file"),
        (["", ""], "empty trace file"),
    ],
    ids=[
        "blank-then-non-finite",
        "blanks-then-repeat",
        "blank-then-malformed",
        "whitespace-then-negative",
        "whitespace-line",
        "hash-row",
        "hash-prefix",
        "trailing-comment",
        "float-k",
        "underscore",
        "underscore-float",
        "unicode-digit",
        "empty",
        "only-blank",
    ],
)
def test_rejections_name_the_files_line(tmp_path, lines, message):
    path = tmp_path / "trace.csv"
    write(path, lines)
    new, reference = both(path, 2)
    assert new == reference == ("ValueError", message)


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: [" , ".join(r.split(",")) for r in rows],
        lambda rows: ["\u00a0" + r.replace(",", "\t,\u3000") for r in rows],
        lambda rows: ["+" + r.replace(",", ",0") for r in rows],
        lambda rows: rows[:1] + ["", ""] + rows[1:] + [""],
    ],
    ids=["spaced-fields", "unicode-spaces", "signs-and-zeros", "blank-lines"],
)
def test_accepted_variants_give_the_same_arrays(tmp_path, edit):
    # numpy's reader strips whitespace around a field, Unicode's included
    path = tmp_path / "trace.csv"
    write(path, edit(VALID))
    new, reference = both(path, 2)
    x, lam, v = np.array([[[1, 4], [7, 10]], [[2, 5], [8, 11]], [[3, 6], [9, 12]]], dtype=float)
    assert new == reference == tuple((a.shape, a.tobytes()) for a in (x, lam, v))


def test_k_beyond_int64_matches_reference(tmp_path):
    path = tmp_path / "trace.csv"
    write(path, VALID + [f"{2**63},0,1,2,3"])
    new, reference = both(path, 2)
    message = f"line 6: malformed trace row '{2**63},0,1,2,3': could not convert '{2**63}' to int64"
    assert new == reference == ("ValueError", message)


def test_shuffled_file_is_refused_at_its_first_out_of_place_line(tmp_path):
    # only to_csv's order is read; another order is refused, not sorted
    rng = np.random.default_rng(20161118)
    values = rng.standard_normal((3, 7, 5)) * 10.0 ** rng.integers(-300, 300, (3, 7, 5))
    values.flat[rng.integers(0, values.size, len(EXTREMES))] = EXTREMES
    lines = body_lines(values)
    canonical, shuffled = tmp_path / "canonical.csv", tmp_path / "shuffled.csv"
    order = rng.permutation(len(lines))
    write(canonical, lines)
    write(shuffled, [lines[i] for i in order])
    new, reference = both(canonical, 5)
    assert new == reference == tuple((a.shape, a.tobytes()) for a in values)
    r = int(np.flatnonzero(order != np.arange(len(lines)))[0])
    (k, i), (got_k, got_i) = divmod(r, 5), divmod(int(order[r]), 5)
    message = f"line {r + 2}: expected the row for k={k}, node={i}, got k={got_k}, node={got_i}"
    assert both(shuffled, 5) == (("ValueError", message),) * 2


@pytest.mark.parametrize(
    "lines, message",
    [
        # in to_csv's order but cut short: the first missing cell is the last round's
        (VALID[:3], "trace has no row for k=1, node=1"),
        (VALID[:1], "trace has no row for k=0, node=1"),
        (VALID[:1] + VALID[2:], "line 3: expected the row for k=0, node=1, got k=1, node=0"),
        (VALID[1:], "line 2: expected the row for k=0, node=0, got k=0, node=1"),
        (VALID + VALID[3:], "line 6: expected the row for k=2, node=0, got k=1, node=1"),
        (VALID[2:] + VALID[:2] + VALID[:1], "line 2: expected the row for k=0, node=0, got k=1, node=0"),
        (VALID + ["2,1,1,2,3"], "line 6: expected the row for k=2, node=0, got k=2, node=1"),
    ],
    ids=["cut-short", "one-row", "missing-middle", "missing-first", "repeat", "swapped-repeat", "gap-before-last"],
)
def test_out_of_order_rejections_are_unchanged(tmp_path, lines, message):
    path = tmp_path / "trace.csv"
    write(path, lines)
    new, reference = both(path, 2)
    assert new == reference == ("ValueError", message)


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(["k,node,x,lam,v", *VALID, ""]))
    new, reference = both(path, 2)
    assert new == reference == ("ValueError", "unexpected trace header 'k,node,x,lam,v'")


@pytest.mark.parametrize("k", [2**62, 10**12])
def test_large_k_names_the_first_missing_row(tmp_path, k):
    # k * n overflows int64 for k = 2**62 and n = 2; the reader compares k itself
    path = tmp_path / "trace.csv"
    write(path, VALID + [f"{k},0,1,2,3"])
    new, reference = both(path, 2)
    assert new == reference == ("ValueError", f"line 6: expected the row for k=2, node=0, got k={k}, node=0")


@pytest.mark.parametrize("lines", [[], VALID])
def test_no_problems_is_a_value_error(tmp_path, lines):
    path = tmp_path / "trace.csv"
    write(path, lines)
    new, reference = both(path, 0)
    assert new == reference == ("ValueError", "need at least 1 node, got 0")


def test_numpys_refusal_stands_when_the_scan_finds_no_fault(tmp_path, monkeypatch):
    # the scan only names the line: with it silenced, the file is still refused
    monkeypatch.setattr(simulator, "_scan_rows", lambda path, n: None)
    path = tmp_path / "trace.csv"
    write(path, VALID[:3] + ["1,1,1_0,11,12"])
    with pytest.raises(ValueError, match=r"^could not convert string '1_0' to float64"):
        RunTrace.from_csv(path, problems_of(2), RecipSqrt())
    write(path, VALID[1:])
    with pytest.raises(ValueError, match="^trace rows are not in the layout to_csv writes$"):
        RunTrace.from_csv(path, problems_of(2), RecipSqrt())
