"""Case parsing, generation, share splits, and the bus-derived graph."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netalloc import (
    DispatchCase,
    FeasibilityError,
    GeneratorRecord,
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
    serialize_bus_lines,
)

# deterministic examples and no example database, so the suite stays reproducible
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# bounded so that every sum of limits stays finite
VALUES = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def feasible_cases(draw):
    """A feasible case whose name is one line without surrounding whitespace."""
    ids = draw(st.lists(st.integers(), max_size=8, unique=True))
    gens = []
    for gid in ids:
        pmin, pmax = sorted(draw(st.tuples(VALUES, VALUES)))
        gamma = draw(st.floats(min_value=0.0, max_value=1e300))
        gens.append(GeneratorRecord(gid, draw(st.integers()), gamma, draw(VALUES), draw(VALUES), pmin, pmax))
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
    @given(st.lists(st.tuples(st.integers(), st.integers()).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple)))
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
        assert synth_bus_lines(7) == synth_bus_lines(7)

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

    def test_round_trip_through_text(self):
        case = synth_ieee118_style(5)
        assert parse_case(serialize_case(case)) == case


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


class TestBusLinesFormat:
    def test_parse_and_dedupe(self):
        pairs = parse_bus_lines("# lines\n1 2\n2 1\n3 4\n")
        assert pairs == [(1, 2), (3, 4)]

    def test_rejects_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_bus_lines("2 2\n")
