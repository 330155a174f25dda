"""Case parsing, generation, share splits, and the bus-derived graph."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netalloc import (
    DisconnectedGraph,
    DispatchCase,
    FeasibilityError,
    GeneratorRecord,
    GraphTopology,
    ParseError,
    ShareSumMismatch,
    builtin_ieee14,
    bus_derived_graph,
    parse_bus_lines,
    parse_case,
    serialize_case,
    solve_centralized,
    synth_bus_lines,
    synth_ieee118_style,
    to_problems,
)
from netalloc.cases import (
    SYNTH_BETA_RANGE,
    SYNTH_GAMMA_RANGE,
    SYNTH_MU_RANGE,
    SYNTH_PMAX_RANGE,
    SYNTH_PMIN_RANGE,
    _synth_buses,
    load_case,
    save_case,
    serialize_bus_lines,
)
from conftest import SUITE_SEED

# deterministic examples and no example database, so the suite stays reproducible
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# bounded so that every sum of limits stays finite
VALUES = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
# ids, buses and bus numbers are int64, in a file and in a library case
INT64 = st.integers(-(2**63), 2**63 - 1)
BEYOND_INT64 = st.integers(max_value=-(2**63) - 1) | st.integers(min_value=2**63)


@st.composite
def feasible_cases(draw):
    """A feasible case whose name is one line without surrounding whitespace."""
    ids = draw(st.lists(INT64, max_size=8, unique=True))
    gens = []
    for gid in ids:
        pmin, pmax = sorted(draw(st.tuples(VALUES, VALUES)))
        gamma = draw(st.floats(min_value=0.0, max_value=1e300))
        gens.append(GeneratorRecord(gid, draw(INT64), gamma, draw(VALUES), draw(VALUES), pmin, pmax))
    lo = math.fsum(g.pmin for g in gens)
    hi = math.fsum(g.pmax for g in gens)
    demand = min(max(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)
    name = draw(st.text().filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1))
    return DispatchCase(generators=tuple(gens), demand=demand, name=name)

VALID_TEXT = """# demand=300 name=ieee14
id,bus,gamma,beta,mu,pmin,pmax
1,1,0.04,2.0,0.0,0.0,80
2,2,0.03,3.0,0.0,0.0,90
3,3,0.035,4.0,0.0,0.0,70
4,6,0.03,4.0,0.0,0.0,70
5,8,0.04,2.5,0.0,0.0,80
"""


class TestParseCase:
    def test_first_row(self):
        case = parse_case(VALID_TEXT)
        g = case.generators[0]
        assert (g.id, g.bus, g.gamma, g.beta, g.mu, g.pmin, g.pmax) == (
            1,
            1,
            0.04,
            2.0,
            0.0,
            0.0,
            80.0,
        )
        assert case.demand == 300.0 and case.name == "ieee14"

    def test_zero_demand_no_generators_is_trivial(self):
        case = parse_case("# demand=0 name=empty\nid,bus,gamma,beta,mu,pmin,pmax\n")
        assert case.n == 0

    def test_positive_demand_no_generators_infeasible(self):
        with pytest.raises(FeasibilityError):
            parse_case("# demand=5 name=empty\nid,bus,gamma,beta,mu,pmin,pmax\n")

    def test_negative_gamma_rejected(self):
        bad = VALID_TEXT.replace("1,1,0.04", "1,1,-0.1")
        with pytest.raises(ParseError, match="gamma") as err:
            parse_case(bad)
        assert err.value.line == 3

    def test_malformed_number_names_line(self):
        bad = VALID_TEXT.replace("0.03,3.0", "0.03,x")
        with pytest.raises(ParseError) as err:
            parse_case(bad)
        assert err.value.line == 4

    def test_missing_field(self):
        with pytest.raises(ParseError, match="7 comma-separated"):
            parse_case("# demand=10 name=t\nid,bus,gamma,beta,mu,pmin,pmax\n1,1,0.1,1,0,0\n")

    def test_unknown_metadata_key(self):
        with pytest.raises(ParseError, match="metadata"):
            parse_case("# demand=10 color=red\nid,bus,gamma,beta,mu,pmin,pmax\n")

    def test_duplicate_id(self):
        bad = VALID_TEXT.replace("2,2,0.03", "1,2,0.03")
        with pytest.raises(ParseError, match="duplicate"):
            parse_case(bad)

    def test_inverted_limits(self):
        bad = VALID_TEXT.replace("0.0,80\n", "90.0,80\n", 1)
        with pytest.raises(ParseError, match="pmin"):
            parse_case(bad)

    def test_demand_outside_limits(self):
        with pytest.raises(FeasibilityError):
            parse_case(VALID_TEXT.replace("demand=300", "demand=1000"))

    def test_limits_beyond_float_range_are_infeasible(self):
        text = "# demand=1 name=big\nid,bus,gamma,beta,mu,pmin,pmax\n1,1,0,0,0,0,1e308\n2,2,0,0,0,0,1e308\n"
        with pytest.raises(FeasibilityError, match="^case 'big': generator limits do not sum to a finite total$"):
            parse_case(text)

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_case("# demand=10 name=t\nid,gamma\n")

    def test_comments_and_blanks_ignored(self):
        text = VALID_TEXT.replace(
            "id,bus", "# trailing comment\n\nid,bus"
        ) + "\n# tail comment\n"
        assert parse_case(text).n == 5


class TestRoundTrip:
    def test_canonical_idempotence(self):
        once = serialize_case(parse_case(VALID_TEXT))
        twice = serialize_case(parse_case(once))
        assert once == twice

    def test_preserves_values(self):
        case = parse_case(serialize_case(builtin_ieee14()))
        assert case == builtin_ieee14()

    @SETTINGS
    @given(feasible_cases())
    def test_generated_cases_round_trip(self, case):
        assert parse_case(serialize_case(case)) == case

    @SETTINGS
    @given(st.data())
    def test_every_constructible_case_round_trips_through_a_file(self, tmp_path_factory, data):
        # a generator with an id or bus beyond int64 cannot be made, so
        # save_case never writes a case that load_case refuses
        gens = []
        for gid in data.draw(st.lists(INT64 | BEYOND_INT64, max_size=6, unique=True)):
            bus = data.draw(INT64 | BEYOND_INT64)
            beyond = [f"{field} {v}" for field, v in (("id", gid), ("bus", bus)) if not -(2**63) <= v < 2**63]
            if beyond:
                with pytest.raises(ValueError, match=rf"^generator {gid}: {beyond[0]} is beyond int64$"):
                    GeneratorRecord(gid, bus, 0.1, 1.0, 0.0, 0.0, 1.0)
                continue
            gamma, beta, mu = data.draw(st.tuples(st.floats(0.0, 1e300), VALUES, VALUES))
            pmin, pmax = sorted(data.draw(st.tuples(VALUES, VALUES)))
            gens.append(GeneratorRecord(gid, bus, gamma, beta, mu, pmin, pmax))
        case = DispatchCase(tuple(gens), demand=math.fsum(g.pmin for g in gens), name="wide")
        path = tmp_path_factory.mktemp("case") / "case.csv"
        save_case(case, path)
        assert load_case(path) == case

    @SETTINGS
    @given(st.lists(st.tuples(INT64, INT64).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple)))
    def test_bus_lines_round_trip(self, pairs):
        assert parse_bus_lines(serialize_bus_lines(pairs)) == sorted(set(pairs))

    @pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\x85b", "a\x1db", "a\u2028b", " a", "a\t", "\n"])
    def test_rejects_name_that_is_not_one_stripped_line(self, name):
        with pytest.raises(ValueError, match="one line without surrounding whitespace"):
            DispatchCase(generators=(), demand=0.0, name=name)

    @pytest.mark.parametrize("name", ["", "a b", "ieee14", "x#y name=z"])
    def test_accepts_one_stripped_line(self, name):
        case = DispatchCase(generators=(), demand=0.0, name=name)
        assert parse_case(serialize_case(case)) == case


class TestNonFiniteValues:
    FIELDS = ("gamma", "beta", "mu", "pmin", "pmax")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_generator_names_field(self, field, value):
        values = {"gamma": 0.1, "beta": 1.0, "mu": 0.0, "pmin": 0.0, "pmax": 5.0, field: value}
        with pytest.raises(ValueError, match=f"^generator 3: {field} must be finite, got {value}$"):
            GeneratorRecord(3, 1, *(values[f] for f in self.FIELDS))

    @pytest.mark.parametrize("demand", [math.nan, math.inf, -math.inf])
    def test_case_names_demand(self, demand):
        with pytest.raises(ValueError, match=f"^case 'toy': demand must be finite, got {demand}$"):
            DispatchCase(generators=(GeneratorRecord(1, 1, 0.1, 1.0, 0.0, 0.0, 5.0),), demand=demand, name="toy")

    def test_parse_case_reports_line_first(self):
        with pytest.raises(ParseError, match="non-finite value 'inf' for pmax") as err:
            parse_case(VALID_TEXT.replace("0.0,80\n", "0.0,inf\n", 1))
        assert err.value.line == 3


class TestBuiltinCase:
    def test_shape(self):
        case = builtin_ieee14()
        assert case.n == 5
        assert case.demand == 300.0

    def test_buses(self):
        assert [g.bus for g in builtin_ieee14().generators] == [1, 2, 3, 6, 8]

    def test_coefficients(self):
        gammas = [g.gamma for g in builtin_ieee14().generators]
        betas = [g.beta for g in builtin_ieee14().generators]
        pmaxes = [g.pmax for g in builtin_ieee14().generators]
        assert gammas == [0.04, 0.03, 0.035, 0.03, 0.04]
        assert betas == [2.0, 3.0, 4.0, 4.0, 2.5]
        assert pmaxes == [80.0, 90.0, 70.0, 70.0, 80.0]

    def test_oracle_feasible(self):
        sol = solve_centralized(to_problems(builtin_ieee14()), 300.0)
        assert sol.residual <= 1e-9


class TestSynthCase:
    def test_deterministic(self):
        assert synth_ieee118_style(7) == synth_ieee118_style(7)
        assert synth_bus_lines(7).tolist() == synth_bus_lines(7).tolist()

    def test_distinct_seeds_differ(self):
        assert synth_ieee118_style(7) != synth_ieee118_style(8)

    def test_ranges(self):
        case = synth_ieee118_style(3)
        assert case.n == 54 and case.demand == 6000.0
        for g in case.generators:
            assert SYNTH_GAMMA_RANGE[0] <= g.gamma <= SYNTH_GAMMA_RANGE[1]
            assert SYNTH_BETA_RANGE[0] <= g.beta <= SYNTH_BETA_RANGE[1]
            assert SYNTH_MU_RANGE[0] <= g.mu <= SYNTH_MU_RANGE[1]
            assert SYNTH_PMIN_RANGE[0] <= g.pmin <= SYNTH_PMIN_RANGE[1]
            assert SYNTH_PMAX_RANGE[0] <= g.pmax <= SYNTH_PMAX_RANGE[1]

    def test_demand_scales_with_size(self):
        case = synth_ieee118_style(3, n_gen=27)
        assert case.demand == pytest.approx(3000.0)
        assert case.n == 27

    @pytest.mark.parametrize("make", [synth_ieee118_style, synth_bus_lines])
    def test_rejects_negative_seed(self, make):
        with pytest.raises(ValueError, match=r"^synthetic case seed must be nonnegative, got -3$"):
            make(-3)

    def test_round_trip_through_text(self):
        case = synth_ieee118_style(5)
        assert parse_case(serialize_case(case)) == case

    # one generator has 3 buses, too few pairs for its padding target of 5
    # lines, so its padding stops at the draw budget; two take all 6 pairs of
    # their 4 buses
    @pytest.mark.parametrize("n_gen", [1, 2, 3, 17, 54, 300, 1000])
    def test_layout_matches_reference(self, n_gen):
        for seed in range(32):
            gen_buses, lines = reference_synth_layout(seed, n_gen)
            assert _synth_buses(seed, n_gen)[2] == gen_buses
            assert [g.bus for g in synth_ieee118_style(seed, n_gen).generators] == gen_buses
            got = synth_bus_lines(seed, n_gen)
            assert got.shape == (len(lines), 2) and got.tolist() == [list(line) for line in lines]


class TestToProblems:
    def test_equal_split(self):
        problems = to_problems(builtin_ieee14())
        assert [p.share for p in problems] == [60.0] * 5

    def test_equal_split_exact_total(self):
        case = synth_ieee118_style(2)
        problems = to_problems(case)
        assert math.fsum(p.share for p in problems) == case.demand

    def test_explicit_shares_need_not_be_local(self):
        problems = to_problems(builtin_ieee14(), shares=[300.0, 0.0, 0.0, 0.0, 0.0])
        assert problems[0].share == 300.0

    def test_explicit_share_sum_mismatch(self):
        with pytest.raises(ShareSumMismatch):
            to_problems(builtin_ieee14(), shares=[299.0, 0.0, 0.0, 0.0, 0.0])

    def test_explicit_share_count_mismatch(self):
        with pytest.raises(ShareSumMismatch):
            to_problems(builtin_ieee14(), shares=[300.0])

    def test_intervals_and_costs(self):
        p = to_problems(builtin_ieee14())[2]
        assert (p.interval.lo, p.interval.hi) == (0.0, 70.0)
        assert p.cost.gamma == 0.035 and p.cost.beta == 4.0


class TestBusDerivedGraph:
    def test_toy_network(self):
        # buses: 1-2-3-4-5 in a path; generators at 1, 3, 5.
        # gen0-gen1 connect through non-generator bus 2, gen1-gen2 through 4;
        # gen0-gen2 would have to pass bus 3, which hosts gen1: no edge.
        case = parse_case(
            "# demand=3 name=toy\n"
            "id,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.1,1.0,0.0,0.0,2.0\n"
            "2,3,0.1,1.0,0.0,0.0,2.0\n"
            "3,5,0.1,1.0,0.0,0.0,2.0\n"
        )
        g = bus_derived_graph(case, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_detour_creates_edge(self):
        # extra generator-free path 1-6-5 links the endpoint generators directly
        case = parse_case(
            "# demand=3 name=toy\n"
            "id,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.1,1.0,0.0,0.0,2.0\n"
            "2,3,0.1,1.0,0.0,0.0,2.0\n"
            "3,5,0.1,1.0,0.0,0.0,2.0\n"
        )
        g = bus_derived_graph(case, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 5)])
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_colocated_generators_adjacent(self):
        case = parse_case(
            "# demand=2 name=toy\n"
            "id,bus,gamma,beta,mu,pmin,pmax\n"
            "1,1,0.1,1.0,0.0,0.0,2.0\n"
            "2,1,0.1,1.0,0.0,0.0,2.0\n"
        )
        g = bus_derived_graph(case, [(1, 2)])
        assert g.edges.tolist() == [[0, 1]]

    def test_synth_layout_connected(self):
        for seed in (1, 5, 9):
            case = synth_ieee118_style(seed)
            g = bus_derived_graph(case, synth_bus_lines(seed))
            assert g.connected

    def test_bus_numbers_beyond_int64(self):
        # the ends of int64 are buses like 1 and 5 (the last network leaves
        # bus 2**63 - 1 apart); a generator or a line at a bus beyond int64
        # is refused, whether the line comes as a list or as a uint64 array
        big, low = 2**63 - 1, -(2**63)
        gens = tuple(GeneratorRecord(i + 1, bus, 0.1, 1.0, 0.0, 0.0, 1.0) for i, bus in enumerate([big, 1, 5]))
        case = DispatchCase(generators=gens, demand=0.0, name="toy")
        wide = np.array([[big, 1], [5, big]], dtype=np.uint64)
        for lines in ([(big, 5), (5, 1)], [(big, low), (low, 1), (5, 1)], wide):
            expected = graph_outcome(reference_bus_derived_graph, case, lines)
            assert graph_outcome(bus_derived_graph, case, lines) == expected
        for bus in (2**63, -(2**63) - 1, 2**70):
            with pytest.raises(ValueError, match=rf"^generator 4: bus {bus} is beyond int64$"):
                GeneratorRecord(4, bus, 0.1, 1.0, 0.0, 0.0, 1.0)
            for lines in ([(5, 1), (big, bus)], (line for line in [(bus, 5)])):
                with pytest.raises(ValueError, match="^a bus line holds a bus number beyond int64$"):
                    bus_derived_graph(case, lines)
        with pytest.raises(ValueError, match="^a bus line holds a bus number beyond int64$"):
            bus_derived_graph(case, np.array([[2**63, 1], [5, 1]], dtype=np.uint64))


class TestBusLinesFormat:
    def test_parse_and_dedupe(self):
        pairs = parse_bus_lines("# lines\n1 2\n2 1\n3 4\n")
        assert pairs == [(1, 2), (3, 4)]

    def test_rejects_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_bus_lines("2 2\n")

    @pytest.mark.parametrize("bus", [2**63, -(2**63) - 1])
    def test_rejects_bus_beyond_int64(self, bus):
        with pytest.raises(ParseError, match=rf"^line 2: malformed integer '{bus}' for bus$"):
            parse_bus_lines(f"1 2\n{bus} 1\n")


def reference_synth_layout(seed, n_gen):
    """The layout ``synth_ieee118_style`` and ``synth_bus_lines`` built before it was split."""
    rng = np.random.default_rng([int(seed), 1])
    n_bus = max(n_gen + 2, int(round(n_gen * 118 / 54)))
    gen_buses = np.sort(rng.choice(np.arange(1, n_bus + 1), size=n_gen, replace=False))
    order = rng.permutation(np.arange(1, n_bus + 1))
    edges = set()
    for idx in range(1, n_bus):
        parent = int(order[rng.integers(0, idx)])
        edges.add(tuple(sorted((int(order[idx]), parent))))
    # pad the spanning tree toward a grid-like line count (~1.6 per bus)
    extra = max(0, int(round(1.6 * n_bus)) - len(edges))
    attempts = 0
    while extra > 0 and attempts < 200 * n_bus:
        u, v = (int(t) for t in rng.integers(1, n_bus + 1, size=2))
        attempts += 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in edges:
            edges.add(key)
            extra -= 1
    return [int(bus) for bus in gen_buses], sorted(edges)


def reference_bus_derived_graph(case, bus_edges):
    """The per-generator search ``bus_derived_graph`` ran before it labelled load-bus components."""
    n = case.n
    bus_of = [g.bus for g in case.generators]
    gens_at = {}
    for gi, bus in enumerate(bus_of):
        gens_at.setdefault(bus, []).append(gi)
    adj = {}
    for u, v in bus_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    edges = set()
    for bus, gens in gens_at.items():
        for a in gens:
            for c in gens:
                if a < c:
                    edges.add((a, c))
    for gi, start in enumerate(bus_of):
        visited = {start}
        frontier = list(adj.get(start, ()))
        while frontier:
            bus = frontier.pop()
            if bus in visited:
                continue
            visited.add(bus)
            if bus in gens_at:
                for gj in gens_at[bus]:
                    if gj != gi:
                        edges.add((min(gi, gj), max(gi, gj)))
                continue  # paths may not pass through another generator bus
            frontier.extend(adj.get(bus, ()))
    g = GraphTopology(n, edges)
    if not g.connected:
        raise DisconnectedGraph(
            "bus network does not connect all generator buses; derived graph is disconnected"
        )
    return g


def graph_outcome(build, case, bus_edges):
    """The sorted edges of the built graph, or the type and message of its error."""
    try:
        return build(case, bus_edges).edges.tolist()
    except (DisconnectedGraph, ValueError) as exc:
        return type(exc).__name__, str(exc)


def random_bus_network(rng):
    """``(case, lines, features)``: a small case on a random bus network.

    Generators may share a bus, and buses may touch no line. Lines may be
    self-loops, repeat an earlier line in either orientation, or leave the
    network disconnected. ``features`` names which of these the draw holds.
    """
    n_bus = int(rng.integers(1, 11))
    n_gen = int(rng.integers(1, 9))
    buses = rng.integers(1, n_bus + 1, size=n_gen).tolist()
    gens = tuple(GeneratorRecord(i + 1, bus, 0.1, 1.0, 0.0, 0.0, 1.0) for i, bus in enumerate(buses))
    lines = [tuple(rng.integers(1, n_bus + 1, size=2).tolist()) for _ in range(int(rng.integers(0, 2 * n_bus + 1)))]
    for _ in range(int(rng.integers(0, 3))):
        if lines:
            u, v = lines[int(rng.integers(0, len(lines)))]
            lines.insert(int(rng.integers(0, len(lines) + 1)), (v, u))
    touched = {bus for line in lines for bus in line}
    features = {
        "co-located": len(set(buses)) < n_gen,
        "self-loop": any(u == v for u, v in lines),
        "both orientations": any((v, u) in lines for u, v in lines if u != v),
        "line-free bus": any(bus not in touched for bus in range(1, n_bus + 1)),
    }
    return DispatchCase(generators=gens, demand=0.0, name="toy"), lines, features


class TestBusDerivedGraphMatchesReference:
    """``bus_derived_graph`` against the per-generator search it replaced."""

    @pytest.mark.parametrize("n_gen, seeds", [(54, range(32)), (300, range(8)), (1000, [7])])
    def test_synth_cases(self, n_gen, seeds):
        for seed in seeds:
            case, lines = synth_ieee118_style(seed, n_gen), synth_bus_lines(seed, n_gen)
            expected = graph_outcome(reference_bus_derived_graph, case, lines)
            assert graph_outcome(bus_derived_graph, case, lines) == expected

    def test_random_networks(self):
        rng = np.random.default_rng(SUITE_SEED + 11)  # private stream
        seen = {"connected": 0, "DisconnectedGraph": 0, "ValueError": 0}
        for _ in range(1500):
            case, lines, features = random_bus_network(rng)
            expected = graph_outcome(reference_bus_derived_graph, case, iter(lines))
            assert graph_outcome(bus_derived_graph, case, (line for line in lines)) == expected, (case, lines)
            seen["connected" if isinstance(expected, list) else expected[0]] += 1
            for name, present in features.items():
                seen[name] = seen.get(name, 0) + present
        assert min(seen.values()) >= 100, seen
