"""Seed and core predicates over planted graphs, the edge-peeling procedure
that turns seeds into cores, degree-product consistency reports, dyadic
degree partitions, and clique seed sizing.

A seed is a planted graph whose conditional expected copy count nearly
reaches the target k while using few edges; a core additionally requires
every single edge to contribute at least t to that expectation. Peeling
deletes low-contribution edges until a core (or nothing) remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .bounds import EdgeRootedInput, edge_rooted_bound
from .counting import (
    DEFAULT_PLANTED_BUDGET,
    PlantedModel,
    planted_edge_deltas,
    planted_expectation,
)
from .errors import ContractError, DomainError, IsolatedVertexError
from .graphs import Pattern, SimpleGraph


@dataclass(frozen=True)
class SeedParams:
    """Thresholds for seed/core membership.

    w defaults to 1/ln(n); cs is the seed constant (the underlying proofs
    only require it large enough, so it is a knob here). Derived:
      edge_cap = cs * (1/w) * k**(2/q) * ln(1/p)
      t        = w**2 * k**((q-2)/q) / (cs * ln(1/p))
    Note t * edge_cap = w * k exactly, which is what makes peeling safe.
    """

    n: int
    p: float
    k: int
    q: int
    cs: float = 10.0
    w: float = field(default=0.0)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")
        if self.k < 1:
            raise DomainError(f"target copy count must be positive, got {self.k}")
        if self.cs <= 0:
            raise DomainError(f"cs must be positive, got {self.cs}")
        if self.w == 0.0:
            if self.n < 3:
                raise DomainError("default w = 1/ln(n) needs n >= 3")
            object.__setattr__(self, "w", 1.0 / math.log(self.n))
        if not 0.0 < self.w < 1.0:
            raise DomainError(f"w must lie strictly in (0, 1), got {self.w}")

    @cached_property
    def edge_cap(self) -> float:
        return self.cs / self.w * self.k ** (2.0 / self.q) * math.log(1.0 / self.p)

    @cached_property
    def t(self) -> float:
        return (
            self.w**2
            * self.k ** ((self.q - 2.0) / self.q)
            / (self.cs * math.log(1.0 / self.p))
        )


def _model(params: SeedParams, g_star: SimpleGraph) -> PlantedModel:
    return PlantedModel(n=params.n, p=params.p, planted=g_star)


def is_seed(
    g_star: SimpleGraph,
    params: SeedParams,
    P: Pattern,
    budget: int = DEFAULT_PLANTED_BUDGET,
):
    """Seed test: conditional expectation >= (1-w)*k and edge count within
    the cap. Returns (verdict, expectation)."""
    expectation = planted_expectation(P, _model(params, g_star), budget)
    ok = expectation >= (1.0 - params.w) * params.k and g_star.m <= params.edge_cap
    return ok, expectation


def is_core(
    g_star: SimpleGraph,
    params: SeedParams,
    P: Pattern,
    budget: int = DEFAULT_PLANTED_BUDGET,
):
    """Core test: expectation >= (1-2w)*k, edge count within the cap, and
    every edge's deletion drop at least t. Returns (verdict, deltas).

    The input may not declare isolated vertices; pass the support-compacted
    graph.
    """
    for v in range(g_star.n):
        if g_star.degree(v) == 0:
            raise IsolatedVertexError(f"vertex {v} is isolated")
    expectation, deltas = planted_edge_deltas(P, _model(params, g_star), budget)
    return _core_verdict(expectation, deltas, g_star.m, params), deltas


def _core_verdict(expectation, deltas, m, params: SeedParams) -> bool:
    return (
        expectation >= (1.0 - 2.0 * params.w) * params.k
        and m <= params.edge_cap
        and all(d >= params.t for d in deltas.values())
    )


def _require(ok: bool, message: str):
    if not ok:
        raise ContractError(message)


def _compact_support(g: SimpleGraph) -> SimpleGraph:
    verts = g.support()
    pos = {v: i for i, v in enumerate(verts)}
    return SimpleGraph(len(verts), [(pos[u], pos[v]) for u, v in g.edges])


@dataclass(frozen=True)
class CoreReport:
    """Outcome of peeling: the surviving graph (support-compacted), the
    deletion order, the expectation after the start and after each deletion,
    and the verdict."""

    result: SimpleGraph
    peeled_edges: tuple
    expectation_trace: tuple
    verdict: str  # "Core", "Empty" or "NotSeedInput"
    min_degree: int | None
    min_degree_product: int | None


def peel_to_core(
    g_star: SimpleGraph,
    params: SeedParams,
    P: Pattern,
    budget: int = DEFAULT_PLANTED_BUDGET,
) -> CoreReport:
    """Iteratively delete the lexicographically smallest edge whose deletion
    drop is below t, until none remains or the graph is empty.

    The planted engine runs once per graph state and gives the expectation
    with every edge's drop. Each deletion's actual drop (the difference of
    two expectations) must equal the credited delta of the deleted edge.
    When the input is a seed the proof contract is checked too: every
    deletion drops the expectation by less than t, the total drop stays
    within w*k, and the survivor meets the expectation floor (1-2w)*k.
    A failed check raises ContractError.
    """
    t = params.t
    work = SimpleGraph(g_star.n, g_star.edges)
    expectation, deltas = planted_edge_deltas(P, _model(params, work), budget)
    trace = [expectation]
    seed_input = expectation >= (1.0 - params.w) * params.k and work.m <= params.edge_cap
    initial_expectation = expectation
    initial_edges = work.m
    peeled = []
    while work.m > 0:
        violating = [f for f in work.edges if deltas[f] < t]
        if not violating:
            break
        f = violating[0]
        delta_f = deltas[f]
        peeled.append(f)
        work = work.with_edges(e for e in work.edges if e != f)
        expectation, deltas = planted_edge_deltas(P, _model(params, work), budget)
        drop = trace[-1] - expectation
        tol = 1e-9 * max(1.0, trace[-1])
        _require(abs(drop - delta_f) <= tol,
                 f"deleting {f} dropped the expectation by {drop}, not by its delta {delta_f}")
        _require(drop < t + tol, f"deleting {f} dropped the expectation by {drop} >= t = {t}")
        trace.append(expectation)

    if seed_input and peeled:
        total_drop = initial_expectation - expectation
        slack = 1e-9 * max(1.0, initial_expectation)
        _require(total_drop <= t * initial_edges + slack,
                 f"total drop {total_drop} exceeds t times the seed's {initial_edges} edges")
        _require(total_drop <= params.w * params.k + slack,
                 f"total drop {total_drop} exceeds w*k = {params.w * params.k}")
    if seed_input and work.m > 0:
        _require(expectation >= (1.0 - 2.0 * params.w) * params.k - 1e-9 * params.k,
                 f"survivor expectation {expectation} is below the floor (1-2w)*k")

    if work.m == 0:
        return CoreReport(
            result=SimpleGraph(0, ()),
            peeled_edges=tuple(peeled),
            expectation_trace=tuple(trace),
            verdict="Empty",
            min_degree=None,
            min_degree_product=None,
        )
    # the last pass is the core test's: expectation and drops do not
    # depend on the labels, so the compacted survivor needs no new pass
    compact = _compact_support(work)
    ok = _core_verdict(expectation, deltas, compact.m, params)
    degs = [compact.degree(v) for v in range(compact.n)]
    min_prod = min(
        compact.degree(u) * compact.degree(v) for u, v in compact.edges
    )
    return CoreReport(
        result=compact,
        peeled_edges=tuple(peeled),
        expectation_trace=tuple(trace),
        verdict="Core" if ok else "NotSeedInput",
        min_degree=min(degs),
        min_degree_product=min_prod,
    )


def degree_product_report(g_star: SimpleGraph, params: SeedParams, P: Pattern):
    """Per edge: (edge, degree product, edge-rooted expectation bound).

    On a verified core every bound is at least t, since t <= deletion drop
    <= edge-rooted expectation <= bound.
    """
    if g_star.m == 0:
        raise DomainError("planted graph must be nonempty")
    out = []
    for u, v in g_star.edges:
        inp = EdgeRootedInput(
            d_a=g_star.degree(u),
            d_b=g_star.degree(v),
            e=g_star.m,
            n=params.n,
            p=params.p,
            pattern=P,
        )
        out.append(((u, v), g_star.degree(u) * g_star.degree(v), edge_rooted_bound(inp)))
    return out


@dataclass(frozen=True)
class DegreeProfile:
    """Dyadic degree partition around a threshold g.

    L holds the support vertices with degree >= g, split into classes
    L_i = {g*2**(i-1) <= d < g*2**i} for i = 1..m, with m minimal so every
    degree is below g*2**m. R holds the rest, with nested sets
    R_j = {d >= g*2**(-j)} for j = 1..j_max (j_max large enough to absorb
    every support vertex). e_ij counts edges between L_i and R_j - R_{j-1}.
    """

    g_threshold: float
    degrees: dict
    left: tuple
    right: tuple
    left_classes: dict
    right_classes: dict
    e_ij: dict
    m: int
    j_max: int
    s: int
    e_prime: int
    e_dprime: int
    r_prime: int


def degree_partition(g_star: SimpleGraph, g_threshold: float, s: int = 1) -> DegreeProfile:
    """Partition the support of a planted graph by degree around g_threshold.

    s controls the summary scalars: the top s left classes form L', the
    vertices outside R_{m-s} form R', e' counts L'-R' edges and e'' counts
    edges between L_i and R_i for i <= m-s.
    """
    if g_threshold <= 0:
        raise DomainError(f"threshold must be positive, got {g_threshold}")
    if s < 0:
        raise DomainError(f"s must be nonnegative, got {s}")
    support = g_star.support()
    deg = {v: g_star.degree(v) for v in support}
    left = tuple(v for v in support if deg[v] >= g_threshold)
    right = tuple(v for v in support if deg[v] < g_threshold)

    m = 0
    if left:
        dmax = max(deg[v] for v in left)
        while dmax >= g_threshold * 2**m:
            m += 1
    left_classes = {
        i: tuple(
            v
            for v in left
            if g_threshold * 2 ** (i - 1) <= deg[v] < g_threshold * 2**i
        )
        for i in range(1, m + 1)
    }

    j_max = m
    if right:
        dmin = min(deg[v] for v in right)
        while j_max < 1 or g_threshold * 2.0 ** (-j_max) > dmin:
            j_max += 1
    right_classes = {
        j: tuple(v for v in right if deg[v] >= g_threshold * 2.0 ** (-j))
        for j in range(1, j_max + 1)
    }

    left_of = {v: i for i, vs in left_classes.items() for v in vs}
    ring_of = {}
    prev: set = set()
    for j in range(1, j_max + 1):
        for v in right_classes[j]:
            if v not in prev:
                ring_of[v] = j
                prev.add(v)

    e_ij: dict = {}
    for u, v in g_star.edges:
        for a, b in ((u, v), (v, u)):
            if a in left_of and b in ring_of:
                key = (left_of[a], ring_of[b])
                e_ij[key] = e_ij.get(key, 0) + 1
                break

    s_eff = min(s, m)
    lo_cut = m - s_eff
    l_prime = {v for i in range(lo_cut + 1, m + 1) for v in left_classes.get(i, ())}
    r_low = set(right_classes.get(lo_cut, ())) if lo_cut >= 1 else set()
    r_prime_set = set(right) - r_low
    e_prime = sum(
        1
        for u, v in g_star.edges
        if (u in l_prime and v in r_prime_set) or (v in l_prime and u in r_prime_set)
    )
    e_dprime = sum(
        cnt for (i, j), cnt in e_ij.items() if i <= lo_cut and j <= i
    )
    return DegreeProfile(
        g_threshold=g_threshold,
        degrees=deg,
        left=left,
        right=right,
        left_classes=left_classes,
        right_classes=right_classes,
        e_ij=e_ij,
        m=m,
        j_max=j_max,
        s=s_eff,
        e_prime=e_prime,
        e_dprime=e_dprime,
        r_prime=len(r_prime_set),
    )


def clique_seed_size(P: Pattern, k: int) -> int:
    """Smallest clique size s whose copy count comb(s, q)*q!/aut reaches k."""
    if k < 1:
        raise DomainError(f"k must be positive, got {k}")
    s = P.q
    while math.comb(s, P.q) * P.copies_per_set < k:
        s += 1
    return s


def default_degree_threshold(P: Pattern, k: int) -> float:
    """Concrete stand-in k**(1/q) for the degree-partition threshold, with
    the unknowable polylog factor set to 1."""
    return k ** (1.0 / P.q)
