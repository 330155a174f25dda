"""Differential tests of the trace reader against a per-line reference reader.

``RunTrace.from_csv`` reads the body with numpy's C reader and falls back to a
per-line scan only to name a line or to accept what that reader rejects.
``reference_read`` below is the per-line reader it replaced, kept verbatim
apart from returning the arrays; every file must give the same arrays, or the
same exception with the same message, through both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netalloc import FeasibleInterval, LocalProblem, Quadratic, RecipSqrt, RunTrace

HEADER = "k,node,x,lambda,v"

# deterministic examples and no example database, so the suite stays reproducible
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def reference_read(path, n):
    """The per-line reader ``from_csv`` used before the bulk read: ``(x, lam, v)``."""
    linenos, ks, nodes, values = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "k,node,x,lambda,v":
            raise ValueError(f"unexpected trace header {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != 5:
                raise ValueError(
                    f"line {lineno}: malformed trace row {raw!r}: "
                    f"expected 5 fields, got {len(parts)}"
                )
            try:
                ks.append(int(parts[0]))
                nodes.append(int(parts[1]))
                values.append((float(parts[2]), float(parts[3]), float(parts[4])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed trace row {raw!r}: {exc}") from None
            linenos.append(lineno)
    if not linenos:
        raise ValueError("empty trace file")
    ks = np.array(ks)
    nodes = np.array(nodes)
    values = np.array(values)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise ValueError(f"line {linenos[r]}: non-finite value in trace row")
    bad = (ks < 0) | (nodes < 0) | (nodes >= n)
    if bad.any():
        r = int(np.argmax(bad))
        if ks[r] < 0:
            raise ValueError(f"line {linenos[r]}: negative iteration k={ks[r]}")
        raise ValueError(f"line {linenos[r]}: node index {nodes[r]} outside [0,{n})")
    T = int(ks.max())
    cells = ks * n + nodes
    order = np.argsort(cells, kind="stable")
    ordered = cells[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        r = int(repeats.min())
        raise ValueError(f"line {linenos[r]}: repeated row for k={ks[r]}, node={nodes[r]}")
    gaps = np.flatnonzero(ordered != np.arange(cells.size))
    if gaps.size or cells.size != (T + 1) * n:
        k, i = divmod(int(gaps[0]) if gaps.size else cells.size, n)
        raise ValueError(f"trace has no row for k={k}, node={i}")
    data = np.empty((3, cells.size))
    data[:, cells] = values.T
    x, lam, v = (col.reshape(T + 1, n) for col in data)
    return x, lam, v


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
        name = draw(st.sampled_from(sorted(MUTATIONS) + ["missing"]))
        pos = draw(st.integers(0, len(lines)))
        if name == "missing":
            if lines:
                del lines[min(pos, len(lines) - 1)]
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
        (VALID[:2] + ["", ""] + VALID[2:] + ["1,1,1,1,1"], "line 8: repeated row for k=1, node=1"),
        (["", *VALID[:3], "1,x,1,2,3"], "line 6: malformed trace row '1,x,1,2,3': invalid literal"),
        (VALID[:1] + ["  \t"] + VALID[1:2] + ["", "-1,0,1,2,3"], "line 6: negative iteration k=-1"),
        # '#' is an ordinary character: a comment row or a trailing comment is malformed
        (VALID[:2] + ["# comment"] + VALID[2:], "line 4: malformed trace row '# comment': expected 5 fields, got 1"),
        (["#" + VALID[0]] + VALID[1:], "line 2: malformed trace row '#0,0,1,2,3': invalid literal"),
        (VALID[:3] + [VALID[3] + " # x"], r"line 5: malformed trace row '1,1,10,11,12 # x': could not convert"),
        (VALID[:2] + ["1.0,0,7,8,9"] + VALID[3:], r"line 4: malformed trace row '1.0,0,7,8,9': invalid literal"),
        ([], "empty trace file"),
        (["", "  "], "empty trace file"),
    ],
    ids=[
        "blank-then-non-finite",
        "blanks-then-repeat",
        "blank-then-malformed",
        "whitespace-then-negative",
        "hash-row",
        "hash-prefix",
        "trailing-comment",
        "float-k",
        "empty",
        "only-blank",
    ],
)
def test_rejections_name_the_files_line(tmp_path, lines, message):
    path = tmp_path / "trace.csv"
    write(path, lines)
    new, reference = both(path, 2)
    assert new == reference
    with pytest.raises(ValueError, match=message):
        RunTrace.from_csv(path, problems_of(2), RecipSqrt())


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[:1] + ["   "] + rows[1:],
        lambda rows: [" , ".join(r.split(",")) for r in rows],
        lambda rows: ["0_1" + r[1:] if r.startswith("1,") else r for r in rows],
        lambda rows: [r.replace("1,1,", "1,١,") for r in rows],
    ],
    ids=["whitespace-line", "spaced-fields", "underscore", "unicode-digit"],
)
def test_accepted_variants_give_the_same_arrays(tmp_path, edit):
    path = tmp_path / "trace.csv"
    write(path, edit(VALID))
    new, reference = both(path, 2)
    assert new == reference
    assert len(new) == 3  # arrays, not an error


def test_k_beyond_int64_matches_reference(tmp_path):
    path = tmp_path / "trace.csv"
    write(path, VALID + [f"{2**63},0,1,2,3"])
    new, reference = both(path, 2)
    assert new == reference == ("ValueError", "trace has no row for k=2, node=0")
