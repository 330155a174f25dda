"""Economic-dispatch case data: parsing, generation, and conversion.

A case file is plain CSV with one leading metadata line::

    # demand=300 name=ieee14
    id,bus,gamma,beta,mu,pmin,pmax
    1,1,0.04,2.0,0.0,0.0,80.0
    ...

Generator ``i`` costs ``gamma*P**2 + beta*P + mu`` for output ``P`` in
``[pmin, pmax]``; ``demand`` is the total the network must supply. Parsing is
strict: malformed numbers, unknown metadata keys, and convexity violations are
reported with their line number. Numbers here and in bus-line files follow
the package's one rule, :func:`~netalloc.errors._field`: what numpy's text
reader reads as an int64 (ids and buses) or a float64.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraph, FeasibilityError, ParseError, ShareSumMismatch, _field, _unreadable
from .graphs import GraphTopology, _distinct, _int_pairs, _offsets, _pair_array, component_labels
from .objectives import FeasibleInterval, LocalProblem, Quadratic

CASE_HEADER = "id,bus,gamma,beta,mu,pmin,pmax"

# Coefficient ranges of the 54-generator benchmark family; exact per-unit data
# is not published, so large cases are sampled uniformly from these ranges.
SYNTH_GAMMA_RANGE = (0.0024, 0.0697)
SYNTH_BETA_RANGE = (8.3391, 37.6968)
SYNTH_MU_RANGE = (6.78, 74.33)
SYNTH_PMIN_RANGE = (5.0, 150.0)
SYNTH_PMAX_RANGE = (150.0, 400.0)
SYNTH_BASE_GENERATORS = 54
SYNTH_BASE_DEMAND = 6000.0
SYNTH_BASE_BUSES = 118


@dataclass(frozen=True)
class GeneratorRecord:
    """One generator: identity and bus (int64s, as in a case file), cost coefficients, and limits."""

    id: int
    bus: int
    gamma: float
    beta: float
    mu: float
    pmin: float
    pmax: float

    def __post_init__(self):
        for field in ("id", "bus"):
            if not -(2**63) <= getattr(self, field) < 2**63:
                raise ValueError(f"generator {self.id}: {field} {getattr(self, field)} is beyond int64")
        for field in ("gamma", "beta", "mu", "pmin", "pmax"):
            if not math.isfinite(getattr(self, field)):
                raise ValueError(f"generator {self.id}: {field} must be finite, got {getattr(self, field)}")
        if self.gamma < 0.0:
            raise ValueError(f"generator {self.id}: gamma must be nonnegative, got {self.gamma}")
        if self.pmin > self.pmax:
            raise ValueError(
                f"generator {self.id}: pmin {self.pmin} exceeds pmax {self.pmax}"
            )


@dataclass(frozen=True)
class DispatchCase:
    """A named set of generators plus the total demand they must meet."""

    generators: tuple
    demand: float
    name: str

    def __post_init__(self):
        # the name is one metadata line of the case file, which strips it
        if self.name != self.name.strip() or len(self.name.splitlines()) > 1:
            raise ValueError(f"case name {self.name!r} must be one line without surrounding whitespace")
        if not math.isfinite(self.demand):
            raise ValueError(f"case {self.name!r}: demand must be finite, got {self.demand}")
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate generator ids in case {self.name!r}")
        try:
            total_min = math.fsum(g.pmin for g in self.generators)
            total_max = math.fsum(g.pmax for g in self.generators)
        except OverflowError:
            raise FeasibilityError(
                f"case {self.name!r}: generator limits do not sum to a finite total"
            ) from None
        if not (total_min <= self.demand <= total_max):
            raise FeasibilityError(
                f"case {self.name!r}: demand {self.demand} outside achievable range "
                f"[{total_min}, {total_max}]"
            )

    @property
    def n(self):
        return len(self.generators)


# each column of a generator row with the kind of number it holds
_COLUMNS = tuple(zip(CASE_HEADER.split(","), (int, int, float, float, float, float, float)))
_METADATA_RE = re.compile(r"^#\s*demand=(\S+)(?:\s+name=(.*))?\s*$")


def _parse_number(token, kind, lineno, what):
    """``token`` read by :func:`~netalloc.errors._field` as ``kind``; a float must be finite."""
    try:
        val = _field(token, kind)
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ParseError(lineno, f"malformed {noun} {token!r} for {what}") from None
    if not math.isfinite(val):
        raise ParseError(lineno, f"non-finite value {token!r} for {what}")
    return val


def parse_case(text):
    """Parse case file contents into a validated :class:`DispatchCase`."""
    lines = text.splitlines()
    demand = None
    name = "case"
    header_seen = False
    generators = []
    seen_ids = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if demand is None:
            m = _METADATA_RE.match(line)
            if not m:
                raise ParseError(
                    lineno, f"expected metadata line '# demand=<MW> name=<label>', got {raw!r}"
                )
            demand = _parse_number(m.group(1), float, lineno, "demand")
            if m.group(2) is not None:
                name = m.group(2).strip()
            continue
        if line.startswith("#"):
            continue
        if not header_seen:
            if line != CASE_HEADER:
                raise ParseError(lineno, f"expected header {CASE_HEADER!r}, got {raw!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ParseError(lineno, f"expected 7 comma-separated fields, got {len(parts)}")
        values = [_parse_number(token, kind, lineno, what) for token, (what, kind) in zip(parts, _COLUMNS)]
        gid, bus, gamma, beta, mu, pmin, pmax = values
        if gamma < 0.0:
            raise ParseError(lineno, f"gamma must be nonnegative for convexity, got {gamma}")
        if pmin > pmax:
            raise ParseError(lineno, f"pmin {pmin} exceeds pmax {pmax}")
        if gid in seen_ids:
            raise ParseError(lineno, f"duplicate generator id {gid}")
        seen_ids.add(gid)
        generators.append(GeneratorRecord(gid, bus, gamma, beta, mu, pmin, pmax))
    if demand is None:
        raise ParseError(0, "missing metadata line '# demand=<MW> name=<label>'")
    if not header_seen:
        raise ParseError(0, f"missing header line {CASE_HEADER!r}")
    return DispatchCase(generators=tuple(generators), demand=demand, name=name)


def serialize_case(case):
    """Canonical text form; parse followed by serialize is idempotent."""
    out = [f"# demand={case.demand!r} name={case.name}"]
    out.append(CASE_HEADER)
    for g in case.generators:
        out.append(
            f"{g.id},{g.bus},{g.gamma!r},{g.beta!r},{g.mu!r},{g.pmin!r},{g.pmax!r}"
        )
    return "\n".join(out) + "\n"


def _read_text(path, what):
    """The text of the file at ``path``; ValueError ``cannot read WHAT PATH: REASON`` if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _unreadable(what, path, exc) from None


def load_case(path):
    """Read and parse a case file; an unreadable file raises ValueError."""
    return parse_case(_read_text(path, "case file"))


def save_case(case, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_case(case))


def builtin_ieee14():
    """The built-in five-generator benchmark case (generators on buses 1, 2, 3, 6, 8)."""
    rows = [
        (1, 1, 0.04, 2.0, 80.0),
        (2, 2, 0.03, 3.0, 90.0),
        (3, 3, 0.035, 4.0, 70.0),
        (4, 6, 0.03, 4.0, 70.0),
        (5, 8, 0.04, 2.5, 80.0),
    ]
    gens = tuple(
        GeneratorRecord(gid, bus, gamma, beta, 0.0, 0.0, pmax)
        for gid, bus, gamma, beta, pmax in rows
    )
    return DispatchCase(generators=gens, demand=300.0, name="ieee14")


def _synth_buses(seed, n_gen):
    """``(rng, n_bus, gen_buses)``: the layout RNG, bus count and sorted generator buses.

    The generator buses are the first draw of the layout RNG, a stream separate
    from the coefficient stream so the layout does not perturb sampled cost data.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"synthetic case seed must be nonnegative, got {seed}")
    rng = np.random.default_rng([seed, 1])
    n_bus = max(n_gen + 2, int(round(n_gen * SYNTH_BASE_BUSES / SYNTH_BASE_GENERATORS)))
    gen_buses = np.sort(rng.choice(np.arange(1, n_bus + 1), size=n_gen, replace=False))
    return rng, n_bus, gen_buses.tolist()


def synth_ieee118_style(seed, n_gen=SYNTH_BASE_GENERATORS):
    """Deterministic synthetic case in the benchmark coefficient ranges.

    Demand scales proportionally when ``n_gen`` differs from the base 54.
    Sampling retries a bounded number of times if the drawn limits cannot meet
    the demand.
    """
    n_gen = int(n_gen)
    if n_gen < 1:
        raise ValueError(f"need at least one generator, got {n_gen}")
    demand = SYNTH_BASE_DEMAND * n_gen / SYNTH_BASE_GENERATORS
    gen_buses = _synth_buses(seed, n_gen)[2]
    rng = np.random.default_rng([int(seed), 0])
    for _ in range(100):
        gamma = rng.uniform(*SYNTH_GAMMA_RANGE, n_gen)
        beta = rng.uniform(*SYNTH_BETA_RANGE, n_gen)
        mu = rng.uniform(*SYNTH_MU_RANGE, n_gen)
        pmin = rng.uniform(*SYNTH_PMIN_RANGE, n_gen)
        pmax = rng.uniform(*SYNTH_PMAX_RANGE, n_gen)
        if math.fsum(pmin) <= demand <= math.fsum(pmax):
            rows = zip(gen_buses, *(a.tolist() for a in (gamma, beta, mu, pmin, pmax)))
            gens = tuple(GeneratorRecord(i, *row) for i, row in enumerate(rows, start=1))
            return DispatchCase(generators=gens, demand=demand, name=f"synth-{int(seed)}")
    raise FeasibilityError(
        f"could not sample limits meeting demand {demand} after 100 attempts (seed {seed})"
    )


def synth_bus_lines(seed, n_gen=SYNTH_BASE_GENERATORS):
    """Bus lines matching :func:`synth_ieee118_style` for the same seed.

    Returns a sorted ``(m, 2)`` int array of the lines ``u < v`` between buses
    ``1 .. n_bus``. A random spanning tree comes first: every bus after the
    first in a random order hangs from an earlier one, all drawn in one call.
    Random pairs then pad it toward about 1.6 lines per bus. They are drawn in
    batches and taken in draw order, each unless it is a self-loop or repeats
    a line, until enough are taken or ``200 * n_bus`` pairs are drawn. The
    generator draws one value at a time from the same stream, whatever the
    batch, so these are the lines that a draw per edge would give.
    """
    rng, n_bus, _ = _synth_buses(seed, int(n_gen))
    order = rng.permutation(np.arange(1, n_bus + 1))
    keys = np.sort(_line_keys(order[1:], order[rng.integers(0, np.arange(1, n_bus))], n_bus))
    extra = max(0, int(round(1.6 * n_bus)) - len(keys))
    budget = 200 * n_bus
    while extra > 0 and budget > 0:
        u, v = rng.integers(1, n_bus + 1, size=(min(budget, 2 * extra + 64), 2)).T
        budget -= len(u)
        drawn = _line_keys(u, v, n_bus)
        # a sorted search, not np.isin, whose np.unique imports numpy.ma (see graphs._distinct)
        taken = keys[np.searchsorted(keys, drawn).clip(max=len(keys) - 1)] == drawn
        fresh = np.flatnonzero((u != v) & ~taken)
        first = np.sort(fresh[np.unique(drawn[fresh], return_index=True)[1]])[:extra]
        keys = np.sort(np.concatenate((keys, drawn[first])))
        extra -= len(first)
    return np.stack(np.divmod(keys, n_bus + 1), axis=1)


def _line_keys(u, v, n_bus):
    """One int per line between buses ``1 .. n_bus``, ordered as its pair ``(min, max)``."""
    return np.minimum(u, v) * (n_bus + 1) + np.maximum(u, v)


def to_problems(case, shares=None):
    """Convert a case to per-node local problems.

    ``shares`` is either ``None`` for the equal split (the last node absorbs
    the floating-point remainder so the total is exact) or an explicit
    sequence summing to the demand within 1e-9.
    """
    n = case.n
    if shares is None:
        if n == 0:
            share_list = []
        else:
            even = case.demand / n
            share_list = [even] * (n - 1)
            share_list.append(case.demand - math.fsum(share_list))
    else:
        share_list = [float(s) for s in shares]
        if len(share_list) != n:
            raise ShareSumMismatch(
                f"got {len(share_list)} shares for {n} generators"
            )
        total = math.fsum(share_list)
        if abs(total - case.demand) > 1e-9:
            raise ShareSumMismatch(
                f"shares sum to {total!r}, demand is {case.demand!r}"
            )
    return [
        LocalProblem(
            cost=Quadratic(g.gamma, g.beta, g.mu),
            interval=FeasibleInterval(g.pmin, g.pmax),
            share=share_list[i],
        )
        for i, g in enumerate(case.generators)
    ]


def parse_bus_lines(text):
    """Parse a bus-line file: one ``bus_i bus_j`` pair per line, '#' comments."""
    pairs = set()
    for lineno, u, v in _int_pairs(text, "bus_i bus_j", "malformed integer {token!r} for bus"):
        if u == v:
            raise ParseError(lineno, f"self-loop on bus {u}")
        pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def serialize_bus_lines(pairs):
    if isinstance(pairs, np.ndarray):
        pairs = pairs.tolist()
    return "\n".join(f"{u} {v}" for u, v in sorted(set(map(tuple, pairs)))) + "\n"


def bus_derived_graph(case, bus_edges):
    """Generator communication graph implied by the physical bus network.

    Generators are adjacent iff some bus path between their buses passes
    through no other generator bus. Such a path is one line, or it crosses one
    component of the load buses (those hosting no generator), so the graph is
    the union of cliques on hubs: the generators at one bus, at both ends of
    one generator-generator line, or at the buses next to one load-bus
    component, labelled once by :func:`~netalloc.graphs.component_labels`. The
    result is connected whenever the bus network connects all generator buses.

    ``bus_edges`` is an ``(m, 2)`` int array of lines, as
    :func:`synth_bus_lines` returns, or any iterable of bus pairs; lines may
    repeat or be self-loops. The buses are numbered once, each hub's buses
    are expanded to its generators, and each clique to its pairs, by index
    arithmetic into one array, whose repeats one sort removes. On the
    1000-generator ``synth:7:1000`` network this takes about 30 ms where sets
    of pairs took 240-400 ms (2-vCPU VM, numpy 2.4.6).
    """
    n = case.n
    try:
        lines = _pair_array(bus_edges)
    except OverflowError:
        raise ValueError("a bus line holds a bus number beyond int64") from None
    gen_buses = np.array([g.bus for g in case.generators], dtype=np.int64)
    buses, index = np.unique(np.concatenate((gen_buses, lines.ravel())), return_inverse=True)
    n_bus, at, (u, v) = len(buses), index[:n], index[n:].reshape(-1, 2).T
    hosts = np.bincount(at, minlength=n_bus) > 0
    u, v = np.where(hosts[u], u, v), np.where(hosts[u], v, u)  # generator end first
    gen_gen, gen_load, load_load = hosts[v], hosts[u] & ~hosts[v], ~hosts[u]
    label = component_labels(n_bus, np.stack((u[load_load], v[load_load]), axis=1))
    # (hub, bus) incidences of the hubs: each bus, then each generator-generator
    # line, then each load-bus component, numbered after the lines by its label
    n_gg = int(np.count_nonzero(gen_gen))
    line_hub = n_bus + np.arange(n_gg)
    hub = np.concatenate((np.arange(n_bus), line_hub, line_hub, n_bus + n_gg + label[v[gen_load]]))
    hub_bus = np.concatenate((np.arange(n_bus), u[gen_gen], v[gen_gen], u[gen_load]))
    gens_by_bus, bus_start = np.argsort(at, kind="stable"), _offsets(at, n_bus)
    count = bus_start[hub_bus + 1] - bus_start[hub_bus]
    members = _distinct(np.repeat(hub, count) * n + gens_by_bus[_ranges(bus_start[hub_bus], count)])
    member_hub, member = np.divmod(members, n)
    # every member of a hub pairs with each later member of it: the hubs hold
    # their members in increasing order, so each pair comes out as (lo, hi)
    hub_end = _offsets(member_hub, 2 * n_bus + n_gg)[member_hub + 1]
    later = hub_end - np.arange(len(member)) - 1
    lo = np.repeat(member, later)
    hi = member[_ranges(np.arange(1, len(member) + 1), later)]
    keys = _distinct(lo * n + hi)
    g = GraphTopology(n, np.stack(np.divmod(keys, n), axis=1))
    if not g.connected:
        raise DisconnectedGraph(
            "bus network does not connect all generator buses; derived graph is disconnected"
        )
    return g


def _ranges(starts, counts):
    """``arange(s, s + c)`` for each start ``s`` and count ``c``, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts - starts, counts)
