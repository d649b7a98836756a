"""Pattern-spanned subgraph structure.

A spanned graph is connected with every edge covered by some pattern copy.
This module extracts the spanned components of an arbitrary graph, computes
the exact minimum number of copies needed to cover a component (set cover by
branch and bound), evaluates the spanning-excess inequality
(2/delta)*e - v >= (l_star - 1)/delta, and handles the dyadic bookkeeping
used to classify components by how many copies they carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import iter_copies
from .errors import (
    BudgetExceededError,
    DomainError,
    NotSpannedError,
    PoolTooSmallError,
)
from .graphs import Pattern, SimpleGraph, compact_graph

MAX_COVER_COPIES = 10_000  # set-cover instances beyond this are refused
MAX_COVER_NODES = 10**6  # branch-and-bound nodes per minimum cover; acceptance 4 peaks at 4,873


@dataclass(frozen=True)
class SpannedComponent:
    """One spanned component: original vertex labels, the compact relabeled
    graph, and its copies in compact labels."""

    vertices: tuple
    graph: SimpleGraph
    copies: tuple

    @property
    def copy_count(self) -> int:
        return len(self.copies)


@dataclass(frozen=True)
class SpannedDecomposition:
    components: tuple
    dropped_edges: tuple

    @property
    def total_copies(self) -> int:
        return sum(c.copy_count for c in self.components)


def _overlap_components(copies):
    """Components of the copy-overlap graph, whose copies are adjacent when
    they share a vertex, each as its sorted copy indices, in order of their
    smallest index."""
    vsets = [{v for e in c for v in e} for c in copies]
    by_vertex: dict = {}
    for i, vs in enumerate(vsets):
        for v in vs:
            by_vertex.setdefault(v, []).append(i)
    seen, components = set(), []
    for start in range(len(copies)):
        if start not in seen:
            seen.add(start)
            order = [start]
            for i in order:  # the list is the queue: the loop reaches what it appends
                new = {j for v in vsets[i] for j in by_vertex[v]} - seen
                seen.update(new)
                order += new
            components.append(sorted(order))
    return components


def spanned_decompose(P: Pattern, g: SimpleGraph) -> SpannedDecomposition:
    """Drop edges of g in no pattern copy and split the rest into connected
    components, each reported with the copies it contains. iter_copies sorts
    copies by their sorted edge lists, so the components come in order of
    their smallest vertex."""
    copies = iter_copies(P, g)
    covered = set().union(*copies)
    dropped = tuple(e for e in g.edges if e not in covered)

    components = []
    for group in _overlap_components(copies):
        graph, pos = compact_graph(set().union(*(copies[i] for i in group)))
        new_copies = tuple(frozenset((pos[u], pos[v]) for u, v in copies[i]) for i in group)
        components.append(
            SpannedComponent(vertices=tuple(pos), graph=graph, copies=new_copies)
        )
    return SpannedDecomposition(components=tuple(components), dropped_edges=dropped)


def _greedy_cover(universe, sets):
    uncovered = set(universe)
    chosen = 0
    while uncovered:
        best = max(sets, key=lambda s: len(s & uncovered))
        gain = len(best & uncovered)
        if gain == 0:
            return None
        uncovered -= best
        chosen += 1
    return chosen


def _min_cover(universe, sets):
    """Exact minimum set cover by branch and bound.

    Branches on the uncovered element with the fewest covering sets; prunes
    with the greedy upper bound and a counting lower bound. Each search node
    draws on a budget of MAX_COVER_NODES; running out raises
    BudgetExceededError.
    """
    ub = _greedy_cover(universe, sets)
    if ub is None:
        raise NotSpannedError("an edge is covered by no copy")
    max_size = max(len(s) for s in sets)
    best = [ub]
    state = [MAX_COVER_NODES]

    cover_map = {e: [s for s in sets if e in s] for e in universe}

    def rec(uncovered, depth):
        state[0] -= 1
        if state[0] < 0:
            raise BudgetExceededError(f"set cover exceeded {MAX_COVER_NODES} search nodes")
        if not uncovered:
            best[0] = min(best[0], depth)
            return
        if depth + math.ceil(len(uncovered) / max_size) >= best[0]:
            return
        e = min(uncovered, key=lambda x: len(cover_map[x]))
        for s in cover_map[e]:
            rec(uncovered - s, depth + 1)

    rec(frozenset(universe), 0)
    return best[0]


def minimal_spanning_count(P: Pattern, S: SimpleGraph) -> int:
    """Exact minimum number of copies whose union covers every edge of S.

    Equals 1 exactly when S is a copy of the pattern itself. Raises
    NotSpannedError if some edge lies in no copy, and BudgetExceededError
    past MAX_COVER_COPIES copies or MAX_COVER_NODES search nodes.
    """
    if S.m == 0:
        raise NotSpannedError("graph has no edges")
    copies = iter_copies(P, S)
    if len(copies) > MAX_COVER_COPIES:
        raise BudgetExceededError(
            f"{len(copies)} copies exceed the set-cover cap {MAX_COVER_COPIES}"
        )
    return _min_cover(set(S.edges), [set(c) for c in copies])


@dataclass(frozen=True)
class SpanningExcessReport:
    """Spanning excess f = (2/delta)*e(S) - v(S) with the proven lower bound
    (l_star - 1)/delta."""

    f: float
    l_star: int
    lower: float


def spanning_excess_report(P: Pattern, S: SimpleGraph) -> SpanningExcessReport:
    """Evaluate the spanning-excess inequality on a spanned graph S.

    f >= (l_star - 1)/delta whenever l_star >= 2, and f = 0 when S is a
    single copy. Vertices are counted over the support of S.
    """
    l_star = minimal_spanning_count(P, S)
    v = len({x for e in S.edges for x in e})
    f = 2.0 * S.m / P.delta - v
    lower = (l_star - 1) / P.delta
    return SpanningExcessReport(f=f, l_star=l_star, lower=lower)


@dataclass(frozen=True)
class DyadicProfile:
    """Counts c[i] of values in [2**i, 2**(i+1)); t is the top nonzero index."""

    c: dict
    t: int

    @property
    def weighted_sum(self) -> int:
        return sum(ci * 2**i for i, ci in self.c.items())


def dyadic_profile(l_list) -> DyadicProfile:
    """Dyadic class counts for a list of copy counts, all at least 2.

    The weighted sum of class floors is sandwiched between the exact total
    and half of it: sum(l) >= sum(c_i * 2**i) >= sum(l)/2.
    """
    c: dict = {}
    for l in l_list:
        if l < 2:
            raise DomainError(f"copy counts must be at least 2, got {l}")
        i = l.bit_length() - 1  # 2**i <= l < 2**(i+1)
        c[i] = c.get(i, 0) + 1
    t = max(c) if c else 0
    return DyadicProfile(c=c, t=t)


def glue_random_spanned(
    P: Pattern, copies: int, rng: np.random.Generator, vertex_pool: int
) -> SimpleGraph:
    """Random connected graph built by placing `copies` images of the
    pattern, each sharing at least one vertex with the union so far.

    The output is spanned by construction. Raises PoolTooSmallError when the
    pool cannot host even one copy.
    """
    if copies < 1:
        raise DomainError(f"copy count must be positive, got {copies}")
    q = P.q
    if vertex_pool < q:
        raise PoolTooSmallError(f"pool of {vertex_pool} cannot host a {q}-vertex copy")
    pool = list(range(vertex_pool))
    used: list = []
    used_set: set = set()
    edges: set = set()
    for i in range(copies):
        if i == 0:
            image = [int(v) for v in rng.choice(pool, size=q, replace=False)]
        else:
            free = [v for v in pool if v not in used_set]
            max_fresh = min(q - 1, len(free))
            n_fresh = int(rng.integers(0, max_fresh + 1))
            n_shared = q - n_fresh
            if n_shared > len(used):
                n_shared = len(used)
                n_fresh = q - n_shared
            shared = [int(v) for v in rng.choice(used, size=n_shared, replace=False)]
            fresh = (
                [int(v) for v in rng.choice(free, size=n_fresh, replace=False)]
                if n_fresh
                else []
            )
            image = shared + fresh
            image = [image[j] for j in rng.permutation(q)]
        for v in image:
            if v not in used_set:
                used_set.add(v)
                used.append(v)
        for u, v in P.graph.edges:
            a, b = image[u], image[v]
            edges.add((a, b) if a < b else (b, a))
    return compact_graph(edges)[0]
