"""Graph and pattern data types, threshold sampling, thinning, and edge-list codecs.

Vertices are dense integer labels 0..n-1. Graphs are immutable after
construction and safe to share across threads; all randomness flows through
numpy Generators so that identical seeds reproduce identical graphs on any
platform (per-edge decisions are drawn in row-major edge order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    NotConnectedError,
    NotRegularError,
    ParseError,
    TooSmallError,
)

MAX_PATTERN_VERTICES = 10  # K_q still has q! automorphisms to enumerate


class SimpleGraph:
    """Labeled undirected simple graph on vertices 0..n-1.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v; adjacency
    sets are built lazily so that sparse graphs on many vertices stay cheap.
    """

    __slots__ = ("n", "edges", "_adj", "_edge_set")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) has endpoint outside [0, {n})")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)
        self.n = n
        self.edges = tuple(sorted(seen))
        self._adj = None
        self._edge_set = seen

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> dict:
        """Vertex -> frozenset of neighbors, only for vertices with degree > 0."""
        if self._adj is None:
            nbrs = {}
            for u, v in self.edges:
                nbrs.setdefault(u, set()).add(v)
                nbrs.setdefault(v, set()).add(u)
            self._adj = {v: frozenset(s) for v, s in nbrs.items()}
        return self._adj

    def neighbors(self, v) -> frozenset:
        return self.adj.get(v, frozenset())

    def degree(self, v) -> int:
        return len(self.adj.get(v, ()))

    def has_edge(self, u, v) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def support(self) -> tuple:
        """Vertices with degree at least 1, sorted."""
        return tuple(sorted(self.adj))

    def is_connected(self) -> bool:
        """Connectivity over all n declared vertices (n <= 1 is connected)."""
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def with_edges(self, edges) -> "SimpleGraph":
        """New graph on the same vertex set with the given edge set."""
        return SimpleGraph(self.n, edges)

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, m={self.m})"


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, ())


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {n}")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


@dataclass(frozen=True)
class Pattern:
    """A connected regular pattern graph with its cached invariants.

    aut_count is the order of the automorphism group, needed to convert
    injective homomorphism counts into copy counts.
    """

    graph: SimpleGraph
    q: int
    delta: int
    edge_count: int
    aut_count: int

    def __repr__(self):
        return f"Pattern(q={self.q}, delta={self.delta}, aut={self.aut_count})"


def make_pattern(g: SimpleGraph) -> Pattern:
    """Validate a pattern graph and compute its invariants.

    Raises TooSmallError, NotRegularError or NotConnectedError naming the
    violated invariant. The automorphism count is the number of injective
    maps of the pattern into itself, from the copy kernel; patterns are
    capped at 10 vertices because that enumerates every automorphism, up to
    q! of them for K_q.
    """
    from .counting import count_automorphisms  # deferred: counting imports graphs

    if g.n < 3:
        raise TooSmallError(f"pattern needs at least 3 vertices, got {g.n}")
    if g.n > MAX_PATTERN_VERTICES:
        raise DomainError(
            f"pattern size {g.n} exceeds the cap of {MAX_PATTERN_VERTICES}"
        )
    degs = [g.degree(v) for v in range(g.n)]
    if min(degs) != max(degs):
        raise NotRegularError(f"degrees range over [{min(degs)}, {max(degs)}]")
    if not g.is_connected():
        raise NotConnectedError("pattern graph is not connected")
    delta = degs[0]
    if delta * g.n % 2 != 0:  # cannot happen for a valid simple graph
        raise NotRegularError("q * delta must be even")
    return Pattern(
        graph=g,
        q=g.n,
        delta=delta,
        edge_count=g.m,
        aut_count=count_automorphisms(g),
    )


@dataclass(frozen=True)
class GnpModel:
    """Random graph model: each of the n(n-1)/2 edges present independently
    with probability p; seed fixes the sample stream."""

    n: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p}")
        if self.n < 0:
            raise DomainError(f"n must be nonnegative, got {self.n}")


def threshold_probability(n: int, delta: int) -> float:
    """Edge probability n**(-2/delta), the scale at which the expected number
    of copies of a delta-regular pattern stays bounded."""
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if delta < 2:
        raise DomainError(f"delta must be at least 2, got {delta}")
    return float(n) ** (-2.0 / delta)


@lru_cache(maxsize=32)
def _row_major_pairs(n: int):
    """Flat arrays u_of[i], v_of[i] for edge slots in row-major order."""
    m = n * (n - 1) // 2
    u_of = np.empty(m, dtype=np.int64)
    v_of = np.empty(m, dtype=np.int64)
    i = 0
    for u in range(n - 1):
        c = n - 1 - u
        u_of[i : i + c] = u
        v_of[i : i + c] = np.arange(u + 1, n)
        i += c
    u_of.setflags(write=False)
    v_of.setflags(write=False)
    return u_of, v_of


def sample_gnp_with(n: int, p: float, rng: np.random.Generator) -> SimpleGraph:
    """Draw one G(n, p) sample from an existing generator.

    One uniform is consumed per potential edge, in row-major edge order, so
    the stream position after the call is the same on every platform.
    """
    m = n * (n - 1) // 2
    if m == 0:
        return empty_graph(n)
    mask = rng.random(m) < p
    u_of, v_of = _row_major_pairs(n)
    idx = np.nonzero(mask)[0]
    edges = list(zip(u_of[idx].tolist(), v_of[idx].tolist()))
    return SimpleGraph(n, edges)


def sample_gnp(model: GnpModel) -> SimpleGraph:
    """Sample G(n, p); identical models (including seed) yield identical graphs."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(model.seed)))
    return sample_gnp_with(model.n, model.p, rng)


def thin_edges(g: SimpleGraph, keep: float, rng: np.random.Generator) -> SimpleGraph:
    """Retain each edge of g independently with probability keep.

    Decisions are drawn in sorted edge order. The vertex set is unchanged, so
    sampling G(n, p1) and thinning with p2 is distributed as G(n, p1*p2).
    """
    if not 0.0 <= keep <= 1.0:
        raise DomainError(f"keep probability must lie in [0, 1], got {keep}")
    if g.m == 0:
        return SimpleGraph(g.n, ())
    mask = rng.random(g.m) < keep
    edges = [e for e, kept in zip(g.edges, mask.tolist()) if kept]
    return SimpleGraph(g.n, edges)


def read_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad token in header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"negative count in header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad token in edge line {ln!r}") from exc
        if u == v:
            raise ParseError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {ln!r} (n={n})")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    return SimpleGraph(n, edges)


def write_edge_list(g: SimpleGraph) -> str:
    """Serialize to the edge-list format; read(write(g)) == g."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def worker_rng(seed: int, worker: int) -> np.random.Generator:
    """Independent stream for one worker, derived from (seed, worker index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(worker,))
    return np.random.Generator(np.random.PCG64(ss))


# Named patterns used throughout the CLI and tests.
def named_pattern(name: str) -> Pattern:
    name = name.lower()
    if name == "k3":
        return make_pattern(complete_graph(3))
    if name == "c4":
        return make_pattern(cycle_graph(4))
    if name == "k4":
        return make_pattern(complete_graph(4))
    if name == "k5":
        return make_pattern(complete_graph(5))
    raise DomainError(f"unknown pattern name {name!r} (use k3, c4, k4 or k5)")
