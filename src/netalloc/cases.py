"""Economic-dispatch case data: parsing, generation, and conversion.

A case file is plain CSV with one leading metadata line::

    # demand=300 name=ieee14
    id,bus,gamma,beta,mu,pmin,pmax
    1,1,0.04,2.0,0.0,0.0,80.0
    ...

Generator ``i`` costs ``gamma*P**2 + beta*P + mu`` for output ``P`` in
``[pmin, pmax]``; ``demand`` is the total the network must supply. Parsing is
strict: malformed numbers, unknown metadata keys, and convexity violations are
reported with their line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraph, FeasibilityError, ParseError, ShareSumMismatch
from .graphs import GraphTopology
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
    """One generator: identity, bus location, cost coefficients, and limits."""

    id: int
    bus: int
    gamma: float
    beta: float
    mu: float
    pmin: float
    pmax: float

    def __post_init__(self):
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


_METADATA_RE = re.compile(r"^#\s*demand=(\S+)(?:\s+name=(.*))?\s*$")


def _parse_float(token, lineno, what):
    try:
        val = float(token)
    except ValueError:
        raise ParseError(lineno, f"malformed number {token!r} for {what}") from None
    if not math.isfinite(val):
        raise ParseError(lineno, f"non-finite value {token!r} for {what}")
    return val


def _parse_int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"malformed integer {token!r} for {what}") from None


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
            demand = _parse_float(m.group(1), lineno, "demand")
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
        gid = _parse_int(parts[0], lineno, "id")
        bus = _parse_int(parts[1], lineno, "bus")
        gamma = _parse_float(parts[2], lineno, "gamma")
        beta = _parse_float(parts[3], lineno, "beta")
        mu = _parse_float(parts[4], lineno, "mu")
        pmin = _parse_float(parts[5], lineno, "pmin")
        pmax = _parse_float(parts[6], lineno, "pmax")
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


def load_case(path):
    """Read and parse a case file; missing files surface as parse errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read case file {path}: {exc.strerror or exc}") from None
    return parse_case(text)


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


def _synth_layout(seed, n_gen):
    """Deterministic bus placement and line network for a synthetic case.

    Uses an RNG stream separate from the coefficient stream so the electrical
    layout does not perturb sampled cost data.
    """
    rng = np.random.default_rng([int(seed), 1])
    n_bus = max(n_gen + 2, int(round(n_gen * SYNTH_BASE_BUSES / SYNTH_BASE_GENERATORS)))
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
    gen_buses, _ = _synth_layout(seed, n_gen)
    rng = np.random.default_rng([int(seed), 0])
    for _ in range(100):
        gamma = rng.uniform(*SYNTH_GAMMA_RANGE, n_gen)
        beta = rng.uniform(*SYNTH_BETA_RANGE, n_gen)
        mu = rng.uniform(*SYNTH_MU_RANGE, n_gen)
        pmin = rng.uniform(*SYNTH_PMIN_RANGE, n_gen)
        pmax = rng.uniform(*SYNTH_PMAX_RANGE, n_gen)
        if math.fsum(pmin) <= demand <= math.fsum(pmax):
            gens = tuple(
                GeneratorRecord(
                    i + 1,
                    gen_buses[i],
                    float(gamma[i]),
                    float(beta[i]),
                    float(mu[i]),
                    float(pmin[i]),
                    float(pmax[i]),
                )
                for i in range(n_gen)
            )
            return DispatchCase(generators=gens, demand=demand, name=f"synth-{int(seed)}")
    raise FeasibilityError(
        f"could not sample limits meeting demand {demand} after 100 attempts (seed {seed})"
    )


def synth_bus_lines(seed, n_gen=SYNTH_BASE_GENERATORS):
    """Bus-line edge list matching :func:`synth_ieee118_style` for the same seed."""
    _, edges = _synth_layout(seed, int(n_gen))
    return edges


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
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'bus_i bus_j', got {raw!r}")
        u = _parse_int(parts[0], lineno, "bus")
        v = _parse_int(parts[1], lineno, "bus")
        if u == v:
            raise ParseError(lineno, f"self-loop on bus {u}")
        pairs.append((min(u, v), max(u, v)))
    return sorted(set(pairs))


def serialize_bus_lines(pairs):
    return "\n".join(f"{u} {v}" for u, v in sorted(set(pairs))) + "\n"


def bus_derived_graph(case, bus_edges):
    """Generator communication graph implied by the physical bus network.

    Generators are adjacent iff some bus path between their buses passes
    through no other generator bus; co-located generators are adjacent. The
    result is connected whenever the bus network connects all generator buses.
    """
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
