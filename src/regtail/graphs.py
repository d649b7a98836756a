"""Graph and pattern data types, threshold sampling, and edge-list codecs.

Vertices are dense integer labels 0..n-1. Graphs are immutable after
construction and safe to share across threads; all randomness flows through
numpy Generators so that identical seeds reproduce identical graphs on any
platform.

G(n, p) is sampled in batches: the edge slots of `count` graphs, in
row-major order graph after graph, form one Bernoulli(p) process whose
successes are found by summing geometric gaps (Batagelj and Brandes,
"Efficient generation of large random networks", Phys. Rev. E 71, 036113,
2005). The work is proportional to the number of edges drawn, not to the
C(n, 2) slots.
"""

from __future__ import annotations

import itertools
import math
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

# Below this cap the calls bound q themselves: planted sums refuse more than
# counting.MAX_ORBIT_MEMBERS edge subsets, second moments q > tails.MAX_SECOND_MOMENT_Q
MAX_PATTERN_VERTICES = 10
MAX_FRAME = 4096  # vertices per component frame; a larger component gets ball frames
LABEL_FRAME_MAX = 64  # labels up to which a graph is one frame over all of them


class _DegreeMasks(dict):
    """d -> mask of a frame's vertices of degree at least d, built on first
    use; later lookups are plain dict lookups."""

    __slots__ = ("nbr", "deg")

    def __init__(self, nbr, deg):
        super().__init__()
        self.nbr, self.deg = nbr, deg

    def __missing__(self, d):
        if self.deg is None:
            self.deg = [m.bit_count() for m in self.nbr]
        mask = self[d] = sum(1 << b for b, k in enumerate(self.deg) if k >= d)
        return mask


class _Frame:
    """Host vertices as bits: bit b stands for labels[b], and nbr[b] is the
    mask of its neighbours inside the frame. deg[b] is its degree in the
    whole graph, which the masks of at_least filter on; without deg the
    frame is a whole component and the masks hold every neighbour."""

    __slots__ = ("labels", "nbr", "at_least", "_bit")

    def __init__(self, labels, nbr, deg=None, bit=None):
        self.labels, self.nbr, self._bit = labels, nbr, bit
        self.at_least = _DegreeMasks(nbr, deg)

    @property
    def bit(self) -> dict:
        """Label -> bit, for the labels inside the frame."""
        if self._bit is None:
            self._bit = dict(zip(self.labels, range(len(self.labels))))
        return self._bit

    def mask_of(self, labels) -> int:
        """Mask of those of the labels inside the frame."""
        bit = self.bit
        return sum(1 << bit[v] for v in labels if v in bit)


class _BitView:
    """The support of a graph as integer bit masks, for the copy kernel.

    A graph on at most LABEL_FRAME_MAX labels is one frame over labels
    0..n-1, bit b for label b, and nbrs is None. Its neighbour masks come
    from one pass over the edge list, with no neighbour lists, search or
    sort; an isolated label is a bit that no mask holds. At that size masks
    of n bits cost less than finding the components, even when a few edges
    lie among many isolated labels.

    In a larger graph a connected component of at most MAX_FRAME vertices
    is one cached frame, its labels in sorted order. A mask is as long as
    its frame, so a component of s vertices costs about s**2 / 16 bytes of
    masks: fine for small or dense components, quadratic for a large sparse
    one, whose neighbour masks would each be as long as the component. A
    larger component therefore gets, for each root image the kernel tries,
    a fresh frame over the ball around it that can hold the rest of the
    map. Isolated vertices of a larger graph cost nothing. Every kind of
    frame orders its bits by label, as the kernel's symmetry conditions
    need.
    """

    __slots__ = ("nbrs", "frames", "large", "_home")

    def __init__(self, n, edges):
        if n <= LABEL_FRAME_MAX:
            nbr = [0] * n
            for u, v in edges:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
            self.nbrs, self.frames, self.large = None, [_Frame(list(range(n)), nbr)], []
            return
        nbrs = self.nbrs = {}
        for u, v in edges:
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        seen, groups = set(), []
        for root in sorted(nbrs):
            if root in seen:
                continue
            seen.add(root)
            members = [root]
            for u in members:
                for w in nbrs[u]:
                    if w not in seen:
                        seen.add(w)
                        members.append(w)
            members.sort()
            groups.append(members)
        bit = {}
        for ms in groups:
            if len(ms) <= MAX_FRAME:
                bit.update(zip(ms, range(len(ms))))
        mask = dict.fromkeys(bit, 0)
        for u, v in edges:
            if u in bit:
                mask[u] |= 1 << bit[v]
                mask[v] |= 1 << bit[u]
        self.frames = [_Frame(ms, [mask[v] for v in ms]) for ms in groups if len(ms) <= MAX_FRAME]
        self.large = [ms for ms in groups if len(ms) > MAX_FRAME]
        self._home = None

    def _ball(self, w, radius) -> _Frame:
        nbrs = self.nbrs
        seen, layer = {w}, [w]
        for _ in range(radius):
            nxt = []
            for u in layer:
                for x in nbrs[u]:
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            layer = nxt
        labels = sorted(seen)
        bit = dict(zip(labels, range(len(labels))))
        nbr = [sum(1 << bit[x] for x in nbrs[v] if x in bit) for v in labels]
        return _Frame(labels, nbr, [len(nbrs[v]) for v in labels], bit)

    def frame_at(self, w, radius):
        """A frame holding every vertex within radius of w, or None when w
        is isolated."""
        if self.nbrs is None:  # one label frame
            frame = self.frames[0]
            return frame if frame.nbr[w] else None
        if self._home is None:
            self._home = {v: frame for frame in self.frames for v in frame.labels}
        frame = self._home.get(w)
        if frame is None and w in self.nbrs:
            frame = self._ball(w, radius)
        return frame

    def roots(self, d: int, radius: int, placed):
        """(frame, used, mask) triples whose masks hold each vertex of
        degree at least d once, each frame holding every vertex within
        radius of its masked ones: the cached frames with their degree
        masks, then a ball frame around each such vertex of a large
        component. used marks the labels of `placed` inside the frame."""
        for frame in self.frames:
            mask = frame.at_least[d]
            if mask:
                yield frame, frame.mask_of(placed) if placed else 0, mask
        for ms in self.large:
            for w in ms:
                if len(self.nbrs[w]) >= d:
                    frame = self._ball(w, radius)
                    yield frame, frame.mask_of(placed), 1 << frame.bit[w]


class SimpleGraph:
    """Labeled undirected simple graph on vertices 0..n-1.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v; the
    degree list and the bit view are built lazily so that sparse graphs on
    many vertices stay cheap.
    """

    __slots__ = ("n", "edges", "_edge_set", "_degs", "_bits")

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
        self._edge_set = seen
        self._degs = None
        self._bits = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def _bit_view(self) -> _BitView:
        """The cached bit view of the support, for the copy kernel."""
        if self._bits is None:
            self._bits = _BitView(self.n, self.edges)
        return self._bits

    def degree(self, v) -> int:
        if self._degs is None:
            degs = [0] * self.n
            for u, w in self.edges:
                degs[u] += 1
                degs[w] += 1
            self._degs = degs
        return self._degs[v]

    def has_edge(self, u, v) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

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


def compact_graph(edges):
    """The graph on the endpoints of `edges`, relabeled 0, 1, ... in sorted
    label order, with the map from old labels to new. The map keeps the
    order of labels, so sorted pairs stay sorted."""
    pos = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    return SimpleGraph(len(pos), [(pos[u], pos[v]) for u, v in edges]), pos


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
    injective homomorphism counts into copy counts. edge_triangles is t(H),
    the fewest triangles of the pattern through one of its edges (q - 2 for
    K_q, 0 for C_q with q >= 4): an edge of a host graph in fewer triangles
    lies in no copy.
    """

    graph: SimpleGraph
    q: int
    delta: int
    edge_count: int
    aut_count: int
    edge_triangles: int

    @property
    def copies_per_set(self) -> int:
        """Copies of the pattern in K_q: q!/aut."""
        return math.factorial(self.q) // self.aut_count

    def __repr__(self):
        return f"Pattern(q={self.q}, delta={self.delta}, aut={self.aut_count})"


def make_pattern(g: SimpleGraph) -> Pattern:
    """Validate a pattern graph and compute its invariants.

    Raises TooSmallError, NotRegularError or NotConnectedError naming the
    violated invariant. The automorphism count is the group order of the
    pattern's symmetry-broken plan, the plan every later count reuses: its
    group is Aut(H) for a connected graph, and no automorphism is listed.
    """
    from .counting import _plan  # deferred: counting imports graphs

    if g.n < 3:
        raise TooSmallError(f"pattern needs at least 3 vertices, got {g.n}")
    if g.n > MAX_PATTERN_VERTICES:
        raise DomainError(
            f"pattern size {g.n} exceeds the cap of {MAX_PATTERN_VERTICES}"
        )
    # at most MAX_PATTERN_VERTICES <= LABEL_FRAME_MAX labels: one label frame
    nbr = g._bit_view().frames[0].nbr
    degs = [mask.bit_count() for mask in nbr]
    if min(degs) != max(degs):
        raise NotRegularError(f"degrees range over [{min(degs)}, {max(degs)}]")
    seen, stack = 1, [0]
    while stack:
        new = nbr[stack.pop()] & ~seen
        seen |= new
        stack.extend(b for b in range(g.n) if new >> b & 1)
    if seen != (1 << g.n) - 1:
        raise NotConnectedError("pattern graph is not connected")
    return Pattern(
        graph=g,
        q=g.n,
        delta=degs[0],
        edge_count=g.m,
        aut_count=_plan(g, g.edges, ())[6],
        edge_triangles=min((nbr[u] & nbr[v]).bit_count() for u, v in g.edges),
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
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")


def threshold_probability(n: int, delta: int) -> float:
    """Edge probability n**(-2/delta), the scale at which the expected number
    of copies of a delta-regular pattern stays bounded."""
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    if delta < 2:
        raise DomainError(f"delta must be at least 2, got {delta}")
    return float(n) ** (-2.0 / delta)


def _bernoulli_hits(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of the successes among `total` Bernoulli(p) trials,
    0 < p <= 1, as cumulative sums of geometric gaps.

    Each draw covers the expected remaining hits plus four standard
    deviations, so one draw almost always reaches past the end.
    """
    parts = []
    last = -1
    while last < total - 1:
        mean = (total - 1 - last) * p
        gaps = rng.geometric(p, size=int(mean + 4.0 * math.sqrt(mean)) + 16)
        np.minimum(gaps, total + 1, out=gaps)  # any longer gap also ends past the end
        np.cumsum(gaps, out=gaps)
        gaps += last
        parts.append(gaps)
        last = int(gaps[-1])
    hits = np.concatenate(parts)
    return hits[: np.searchsorted(hits, total)]


def _slot_pairs(n: int, slots: np.ndarray):
    """Endpoint arrays (u, v), u < v, of row-major edge slots of K_n.

    Counted from the last slot, t = C(n, 2) - 1 - s lies in row n - 2 - k
    for the k with k(k+1)/2 <= t < (k+1)(k+2)/2: the triangular root of t.
    Counting from the end keeps the square root free of cancellation. Its
    float value is never low, since the rounded root of the odd square
    (2k+1)**2 is exact, and at most one too high, for t just below the next
    row; that case is stepped back, with its triangular number.
    """
    t = n * (n - 1) // 2 - 1 - slots
    k = ((np.sqrt(8.0 * t + 1.0) - 1.0) * 0.5).astype(np.int64)
    tri = k * (k + 1) >> 1
    over = tri > t
    tri -= over * k
    k -= over
    return n - 2 - k, n - 1 - (t - tri)


def sample_gnp_slots(n: int, p: float, count: int, rng: np.random.Generator):
    """Edges of `count` independent G(n, p) samples as arrays (graph, slot).

    Edge i sits in graph graph[i], 0 <= graph[i] < count, at row-major slot
    slot[i] of K_n: slot u*(2n-u-1)/2 + v-u-1 for the pair u < v. The arrays
    are sorted by graph, then by slot. Time and memory are proportional to
    the number of edges drawn.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if n < 0 or count < 0:
        raise DomainError(f"n and count must be nonnegative, got n={n}, count={count}")
    m = n * (n - 1) // 2
    if m * count == 0 or p == 0.0:
        return (np.empty(0, dtype=np.int64),) * 2
    return np.divmod(_bernoulli_hits(m * count, p, rng), m)


def sample_gnp_batch(n: int, p: float, count: int, rng: np.random.Generator):
    """Edges of `count` independent G(n, p) samples as arrays (graph, u, v):
    `sample_gnp_slots` with each slot decoded by `_slot_pairs`, from the
    same draws.

    Edge i joins u[i] < v[i] in graph graph[i]; the arrays are sorted by
    graph, then by (u, v).
    """
    graph, slot = sample_gnp_slots(n, p, count, rng)
    u, v = _slot_pairs(n, slot)
    return graph, u, v


def sample_gnp_with(n: int, p: float, rng: np.random.Generator) -> SimpleGraph:
    """Draw one G(n, p) sample from an existing generator: the batch
    sampler with count = 1."""
    _, u, v = sample_gnp_batch(n, p, 1, rng)
    return SimpleGraph(n, zip(u.tolist(), v.tolist()))


def sample_gnp(model: GnpModel) -> SimpleGraph:
    """Sample G(n, p); identical models (including seed) yield identical graphs."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(model.seed)))
    return sample_gnp_with(model.n, model.p, rng)


def read_edge_list(text: str) -> SimpleGraph:
    """Parse the edge-list format: first line "n m", then m lines "u v".
    The edges are checked by SimpleGraph, whose DomainError is raised as
    ParseError; a bad edge is reported before a malformed line below it."""
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
    for ln in lines[1:]:
        try:
            edges.append(_edge_line(ln))
        except ParseError:
            _checked_graph(n, edges)  # an edge above this line may be bad
            raise
    return _checked_graph(n, edges)


def _edge_line(ln: str) -> tuple:
    parts = ln.split()
    if len(parts) != 2:
        raise ParseError(f"edge line must be 'u v', got {ln!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad token in edge line {ln!r}") from exc


def _checked_graph(n: int, edges: list) -> SimpleGraph:
    try:
        return SimpleGraph(n, edges)
    except DomainError as exc:  # a self-loop, an endpoint out of range or a duplicate
        raise ParseError(str(exc)) from exc


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
_NAMED_GRAPHS = {"k3": (complete_graph, 3), "c4": (cycle_graph, 4),
                 "k4": (complete_graph, 4), "k5": (complete_graph, 5)}


def named_pattern(name: str) -> Pattern:
    """The pattern of a name in _NAMED_GRAPHS, in any case, built and
    validated once per process; any other name raises DomainError."""
    name = name.lower()
    if name not in _NAMED_GRAPHS:
        raise DomainError(f"unknown pattern name {name!r} (use k3, c4, k4 or k5)")
    return _named_pattern(name)


@lru_cache(maxsize=None)
def _named_pattern(name: str) -> Pattern:
    build, n = _NAMED_GRAPHS[name]
    return make_pattern(build(n))
