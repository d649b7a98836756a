"""Monte Carlo and exact tail estimation, Poisson-limit diagnostics,
analytic lower-bound constructions, and the phase-transition scan.

Sampling work is split over a fixed number of logical workers, each with an
independent counter-based SplitMix64 stream keyed by (seed, worker index)
(`graphs.worker_rng`). The workers run one after another in one process,
and aggregation is order-independent, so identical (seed, workers) always
reproduces identical numbers.

Monte Carlo copy counts come from one batched engine. A worker's share is
sampled in chunks of graphs as edge arrays. For n <= MAX_EXACT_N a graph's
count comes from its edge bitmask, summed from the sampled row-major slots
without decoding them into pairs, and tested against every copy mask of
K_n. For larger n every graph of a chunk is pruned at once in numpy to its
largest subgraph of minimum degree delta with every edge in at least t(H)
triangles, t(H) being the fewest triangles of the pattern through one of
its edges (q - 2 for K_q, 0 for C_q with q >= 4); every copy lies there.
Edges in fewer triangles go first, before any delta-core peel; a chunk of
mean degree below delta (K3 near p = 1/n) first loses the edges at its
vertices of degree below delta, so the triangle count sees about 40% of
them. The core's connected components are then labeled by hook and
shortcut. A component that is a single cycle holds one copy if the pattern
is that cycle and none otherwise; the copy kernel runs only on the complex
components (more edges than vertices).
Near the threshold p = n**(-2/delta) most samples are sparse, and most
nonempty cores are disjoint cycles (or, after the truss prune, empty), so
the cost follows the edges drawn rather than the C(n, 2) vertex pairs.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import tail_rate
from .counting import (
    MAX_EXACT_N,
    CopiesAtLeast,
    count_copies,
    exact_probability,
    mask_copy_counts,
    tail_probability_table,
)
from .cores import clique_seed_size
from .errors import (
    BlockTooSmallError,
    DomainError,
    TooFewVerticesError,
    TooLargeError,
)
from .graphs import (
    GnpModel,
    Pattern,
    SimpleGraph,
    sample_gnp_batch,
    sample_gnp_slots,
    threshold_probability,
    worker_rng,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile

CSV_HEADER = "k,n,p,estimate,ci_low,ci_high,exact,L_value,clique_lb,disjoint_lb,samples"


def wilson_interval(successes: int, samples: int):
    """Wilson score 95% interval for a binomial proportion; valid near 0."""
    if samples < 1:
        raise DomainError("need at least one sample")
    phat = successes / samples
    z2 = Z95 * Z95
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2.0 * samples)) / denom
    half = (
        Z95
        * math.sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == samples else min(1.0, center + half)
    return lo, hi


@dataclass
class TailRow:
    """One record of a tail scan; optional fields stay None until filled."""

    k: int
    n: int
    p: float
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    exact: float | None = None
    L_value: float | None = None
    clique_lb: float | None = None
    disjoint_lb: float | None = None


# Entries of the largest per-chunk array (edges, or vertices over all the
# chunk's graphs): 163 graphs per chunk at n = 400 and p = 1/n. Chunks of
# 81 to 2,621 such graphs run equally fast; larger ones only cost memory.
MC_CHUNK_ENTRIES = 1 << 16


# Edge pairs closed at once in triangle_support: a dense graph's pairs
# never sit in memory together. A K5 chunk at its threshold (n = 400) has
# about 420,000.
SUPPORT_BLOCK = 1 << 20


def _chunk_graphs(n: int, p: float) -> int:
    """Graphs per sampled chunk: its vertex and expected edge arrays stay
    within MC_CHUNK_ENTRIES entries."""
    return max(1, MC_CHUNK_ENTRIES // max(n, math.ceil(n * (n - 1) // 2 * p), 1))


def _core_edges(a: np.ndarray, b: np.ndarray, size: int, delta: int, triangles: int):
    """The edges (a[i], b[i]) on vertices 0..size-1 of the largest subgraph
    of minimum degree delta with every edge in at least `triangles`
    triangles (adding edges keeps both properties, so every order of
    removals reaches it). Edges in fewer triangles (`triangle_support`) go
    first, which leaves a sparse graph few edges to peel; then the
    delta-core peel, a layer of low-degree vertices a round, and that prune
    alternate until neither drops an edge. With triangles >= 1, a graph of
    mean degree 2m/size below delta first loses the edges at a vertex of
    degree below delta, one round without relabelling: K3 near p = 1/n
    keeps about 40% of its edges for the support count, while K4 and K5 at
    their thresholds, of mean degree above delta, skip the round.

    Returns the kept edges' indices, their endpoints relabeled compactly (in
    input order) onto the kept edges' endpoints, and the number of labels.
    """
    idx, before = np.arange(len(a)), -1
    if triangles and 2 * len(a) < delta * size:
        alive = np.bincount(np.concatenate((a, b)), minlength=size) >= delta
        held = np.flatnonzero(alive[a] & alive[b])
        a, b, idx = a[held], b[held], held
    while len(idx) != before:
        before = len(idx)
        if triangles:
            held = np.flatnonzero(triangle_support(a, b, size) >= triangles)
            a, b, idx = a[held], b[held], idx[held]
        done = False
        while not done:
            alive = np.bincount(np.concatenate((a, b)), minlength=size) >= delta
            keep = alive[a] & alive[b]
            done = keep.all()
            live = np.flatnonzero(alive)
            label = np.empty(size, dtype=np.int64)
            label[live] = np.arange(len(live))
            a, b, idx, size = label[a[keep]], label[b[keep]], idx[keep], len(live)
        if not triangles:
            break
    return idx, a, b, size


def triangle_support(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """The number of triangles through each edge (a[i], b[i]) of a simple
    graph on vertices 0..size-1.

    Forward listing (Schank and Wagner, WEA 2005): orient each edge from its
    lower label to its higher. A triangle is then found once, at its lowest
    label, as a pair of that vertex's out-edges closed by the edge between
    their heads, which searchsorted finds among the sorted edge keys. Label
    rank needs no sort over the vertices, and keys already sorted, as the
    sampler's are, pass the stable argsort in linear time. On K4 and K5 chunk
    cores at n = 400 it closes 0.156M and 0.423M pairs per chunk, against
    0.110M and 0.346M under (degree, label) rank, in about the same time.
    """
    m = len(a)
    key = np.minimum(a, b) * size + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    tail = key // size
    head = key - tail * size
    # out-edges with a later out-edge of their tail, and how many follow
    lead = np.flatnonzero(tail[1:] == tail[:-1])
    last = np.append(np.flatnonzero(np.diff(lead) != 1), len(lead) - 1)
    later = np.repeat(last + 1, np.diff(last, prepend=-1)) - np.arange(len(lead))
    # pair each lead out-edge i with each later out-edge j of its tail, a
    # block of about SUPPORT_BLOCK pairs at a time: in a block from lead
    # lo, the pair numbered g is j = i + 1 + g - (pairs from lo to i)
    before = np.cumsum(later) - later
    support = np.zeros(m, dtype=np.int64)
    lo = 0
    while lo < len(lead):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + SUPPORT_BLOCK)))
        i = np.repeat(lead[lo:hi], later[lo:hi])
        j = np.arange(len(i)) + np.repeat(lead[lo:hi] + 1 - before[lo:hi] + before[lo],
                                          later[lo:hi])
        close = head[i] * size + head[j]
        at = np.minimum(np.searchsorted(key, close), m - 1)
        hit = key[at] == close
        support += np.bincount(np.concatenate((i[hit], j[hit], at[hit])), minlength=m)
        lo = hi
    out = np.empty(m, dtype=np.int64)
    out[order] = support
    return out


def _hook(par: np.ndarray, a: np.ndarray, b: np.ndarray):
    """One hooking round over edges whose endpoints have roots par[a] and
    par[b]: the larger root of each edge takes the smaller as its parent
    (the smallest one offered, over all its edges). Returns the edges that
    still joined two trees, the only ones a later round needs."""
    ra, rb = par[a], par[b]
    cross = ra != rb
    ra, rb = ra[cross], rb[cross]
    np.minimum.at(par, ra, rb)
    np.minimum.at(par, rb, ra)
    return a[cross], b[cross]


def _components(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Component label of each vertex 0..size-1 under the edges (a[i], b[i]):
    the smallest vertex of its component.

    Hook and shortcut after Shiloach and Vishkin (J. Algorithms 3 (1982)
    57-67): hook the roots of every edge's endpoints, then jump pointers
    (par = par[par]) until every tree is a star, and repeat until no edge
    joins two trees. Parents only decrease, so no cycle forms; a randomly
    labeled 10**6-cycle takes 13 hook rounds.
    """
    par = np.arange(size)
    while len(a):
        a, b = _hook(par, a, b)
        up = par[par]
        while not np.array_equal(up, par):
            par, up = up, up[up]
    return par


def _chunk_counts(P: Pattern, n: int, count: int, graph: np.ndarray,
                  u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Copy counts of `count` graphs on n vertices with edges (u[i], v[i])
    in graph graph[i], sorted by graph, then by (u, v).

    Every vertex of a copy of a delta-regular pattern has degree delta in
    the copy, and every edge lies in at least t(H) = P.edge_triangles of
    its triangles: the k-truss rule (Cohen, "Trusses", NSA technical
    report, 2008; Wang and Cheng, PVLDB 5 (2012) 812-823). So every copy
    lies in `_core_edges`, which drops the edges in fewer triangles before
    any peel: for K3 at n = 400 and p = 1/n about 80 of a chunk's 32,500
    edges are left. Each copy lies in one component of what is left
    (patterns are connected). A component with v vertices and e edges is a
    cycle (e == v), which holds one copy if the pattern is C_v and none
    otherwise, or complex (e > v). The copy kernel runs once per graph, on
    its complex components with at least q vertices and e(H) edges, and
    only on graphs that have one.
    """
    keep, a, b, size = _core_edges(graph * n + u, graph * n + v, count * n,
                                   P.delta, P.edge_triangles)
    if not len(keep):
        return np.zeros(count, dtype=np.int64)
    graph, u, v = graph[keep], u[keep], v[keep]
    comp = _components(a, b, size)
    cv = np.bincount(comp, minlength=size)
    ec = comp[a]
    ce = np.bincount(ec, minlength=size)
    ev, ee = cv[ec], ce[ec]
    # a q-cycle is one copy of C_q; in a core of degree >= 3 every e > v
    cycle = (ee == ev) & (ev == P.q)
    out = np.bincount(graph[cycle], minlength=count) // P.q
    cx = (ee > ev) & (ev >= P.q) & (ee >= P.edge_count)
    xg, xu, xv = graph[cx], u[cx], v[cx]
    cut = np.flatnonzero(np.diff(xg)) + 1
    for start, gu, gv in zip(np.r_[0, cut], np.split(xu, cut), np.split(xv, cut)):
        if len(gu):
            g = SimpleGraph(n, zip(gu.tolist(), gv.tolist()))
            out[xg[start]] += count_copies(P, g)
    return out


def _batch_counts(P: Pattern, n: int, p: float, count: int, rng) -> np.ndarray:
    """Copy counts of `count` G(n, p) graphs sampled as one batch.

    For n <= MAX_EXACT_N each graph's count is the number of copy masks of
    K_n inside its row-major edge bitmask (`counting.mask_copy_counts`, a
    pass over the batch per copy, so samples x copies work and no array
    over the 2^C(n,2) masks). A sampled slot is its edge's bit, so the
    bitmask is the sum of 2**slot over its edges: distinct powers of two,
    exact in float64 while C(n, 2) <= 53, and no slot is decoded into its
    pair. Otherwise the counts come from the components of the graphs'
    cores (`_chunk_counts`).
    """
    if n <= MAX_EXACT_N:
        graph, slot = sample_gnp_slots(n, p, count, rng)
        masks = np.bincount(graph, weights=np.ldexp(1.0, slot), minlength=count)
        return mask_copy_counts(P, n, masks.astype(np.int64))
    return _chunk_counts(P, n, count, *sample_gnp_batch(n, p, count, rng))


def _mc_counts(P: Pattern, model: GnpModel, samples: int, workers: int = 1) -> np.ndarray:
    """Copy counts of `samples` independent G(n, p) draws.

    Worker w handles a fixed contiguous share using the stream derived from
    (seed, w), so the counts depend only on (seed, workers). A share is
    sampled and counted in chunks whose size depends only on n and p.
    Workers past the samples-th have an empty share and are skipped.
    """
    if samples < 1:
        raise DomainError(f"samples must be positive, got {samples}")
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    n, p = model.n, model.p
    chunk = _chunk_graphs(n, p)
    base, rem = divmod(samples, workers)
    out = np.empty(samples, dtype=np.int64)
    pos = 0
    for w in range(min(workers, samples)):
        cnt = base + (1 if w < rem else 0)
        rng = worker_rng(model.seed, w)
        for start in range(0, cnt, chunk):
            size = min(chunk, cnt - start)
            out[pos : pos + size] = _batch_counts(P, n, p, size, rng)
            pos += size
    return out


def _tail_row(counts: np.ndarray, k: int, n: int, p: float, **bounds) -> TailRow:
    """The TailRow of threshold k over sampled copy counts: the share with
    at least k copies and its 95% Wilson interval; `bounds` fill the
    optional columns."""
    samples = len(counts)
    succ = int((counts >= k).sum())
    lo, hi = wilson_interval(succ, samples)
    return TailRow(k=k, n=n, p=p, estimate=succ / samples, ci_low=lo, ci_high=hi,
                   samples=samples, **bounds)


def mc_tail(P: Pattern, model: GnpModel, k: int, samples: int,
            workers: int = 1) -> TailRow:
    """Monte Carlo estimate of P(copy count >= k) with a 95% Wilson interval."""
    if k < 1:
        raise DomainError(f"tail threshold k must be at least 1, got {k}")
    return _tail_row(_mc_counts(P, model, samples, workers), k, model.n, model.p)


@dataclass(frozen=True)
class PoissonDiagnostic:
    """Empirical copy-count pmf against the matching Poisson law."""

    lam: float
    empirical_pmf: dict
    tv_distance: float
    samples: int


def expected_copy_count(P: Pattern, n: int, p: float) -> float:
    """Exact expected copy count comb(n, q) * (q!/aut) * p**edges."""
    return math.comb(n, P.q) * P.copies_per_set * p**P.edge_count


def poisson_diagnostic(P: Pattern, model: GnpModel, samples: int,
                       workers: int = 1) -> PoissonDiagnostic:
    """Total-variation distance between sampled copy counts and the Poisson
    law with the exact mean.

    Near the threshold probability the distance should be small; away from
    it the diagnostic quantifies the departure.
    """
    lam = expected_copy_count(P, model.n, model.p)
    counts = _mc_counts(P, model, samples, workers)
    top = int(counts.max())
    freq = np.bincount(counts, minlength=top + 1) / samples
    pois = np.empty(top + 1)
    pois[0] = math.exp(-lam)
    for j in range(1, top + 1):
        pois[j] = pois[j - 1] * lam / j
    tv = 0.5 * (float(np.abs(freq - pois).sum()) + max(0.0, 1.0 - float(pois.sum())))
    pmf = {int(j): float(freq[j]) for j in range(top + 1)}
    return PoissonDiagnostic(lam=lam, empirical_pmf=pmf, tv_distance=tv, samples=samples)


def clique_lower_bound(P: Pattern, n: int, p: float, k: int) -> float:
    """p**(s*(s-1)/2) with s the clique seed size: a fixed s-set being
    complete already forces at least k copies, so this lower-bounds the tail."""
    s = clique_seed_size(P, k)
    if s > n:
        raise TooFewVerticesError(f"clique of size {s} does not fit in n={n}")
    return p ** (s * (s - 1) // 2)


# Largest pattern the second-moment bound serves: its sum runs over the
# sum_j C(q, j)**2 * j! partial injections of the pattern into itself,
# 130,922 at q = 7 (0.14 s) and 1,441,729 at q = 8 (2.5 s).
MAX_SECOND_MOMENT_Q = 7


# E[X**2] = E[X] * E[X | one copy planted] gives the same bound through the
# planted engine, bit for bit on K3-K6, C4-C7, the prism and K_{3,3} when its
# integer map counts are summed before the one division. This listing stays
# because it is far faster on dense patterns (2-core host): K6 0.024 s against
# 0.47 s, K7 0.22 s against 17.4 s and 306 MiB, most of it K7's orbit table.
@functools.cache
def _overlap_histogram(q: int, edges: tuple) -> tuple:
    """((j, s), count) pairs over the partial injections sigma of the pattern's
    vertices 0..q-1 into themselves, j = |sigma| and s the number of edges
    ab with sigma(a)sigma(b) an edge, listed by backtracking."""
    arcs = set(edges) | {(b, a) for a, b in edges}
    back = [[a for a in range(i) if (a, i) in arcs] for i in range(q)]
    hist = Counter()

    def rec(image, j, s):  # image[a] is sigma(a), None off the domain
        if len(image) == q:
            hist[j, s] += 1
            return
        rec(image + (None,), j, s)
        for t in set(range(q)).difference(image):
            hit = sum((image[a], t) in arcs for a in back[len(image)])
            rec(image + (t,), j + 1, s + hit)

    rec((), 0, 0)
    return tuple(hist.items())


def second_moment_bound(P: Pattern, m: int, p: float) -> float:
    """Paley-Zygmund lower bound E[X]**2 / E[X**2] <= P(X > 0) for the copy
    count X of G(m, p) (Janson, Luczak and Rucinski, Random Graphs, 2000,
    ch. 3). With a = |Aut H|, a*E[X] = (m)_q p**e and a**2*E[X**2] is the
    sum over partial injections sigma of (m)_(2q-|sigma|) p**(2e - s(sigma))
    (`_overlap_histogram`). With p = x/y exactly, both are scaled by
    y**(2e) into integers, so the ratio is rounded once: no float overflows
    at tiny p, and p = 1 gives 1.0. Patterns above MAX_SECOND_MOMENT_Q
    vertices raise TooLargeError before any enumeration."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if m < 0:
        raise DomainError(f"m must be nonnegative, got {m}")
    if P.q > MAX_SECOND_MOMENT_Q:
        raise TooLargeError(
            f"second-moment bound capped at {MAX_SECOND_MOMENT_Q} pattern vertices, got {P.q}")
    if p == 0 or m < P.q:
        return 0.0  # no edges or too few vertices, no copy; the ratio itself is 0/0
    q, e, (x, y) = P.q, P.edge_count, p.as_integer_ratio()
    second = sum(h * math.perm(m, 2 * q - j) * x ** (2 * e - s) * y**s
                 for (j, s), h in _overlap_histogram(q, P.graph.edges))
    return (math.perm(m, q) * x**e) ** 2 / second


def disjoint_lower_bound(P: Pattern, n: int, p: float, s: int) -> float:
    """r**s with r a lower bound on P(at least one copy in G(n//s, p)): a
    lower bound on having s vertex-disjoint copies (blocks are disjoint and
    independent). r is exact for blocks of at most MAX_EXACT_N vertices and
    `second_moment_bound` above that, which raises TooLargeError for
    patterns above MAX_SECOND_MOMENT_Q vertices."""
    if s < 1:
        raise DomainError(f"s must be positive, got {s}")
    m = n // s
    if m < P.q:
        raise BlockTooSmallError(f"blocks of size {m} cannot hold a {P.q}-vertex copy")
    if m <= MAX_EXACT_N:
        return exact_probability(GnpModel(m, p), CopiesAtLeast(P, 1)) ** s
    return second_moment_bound(P, m, p) ** s


def crossover_k(q: int, log_n: float) -> int:
    """Smallest integer k >= 2 with k**(1-2/q) * ln(k) >= log_n, the point
    where the k*ln(k) mechanism overtakes k**(2/q)*ln(n)."""
    if log_n <= 0:
        raise DomainError(f"log_n must be positive, got {log_n}")

    def g(k):
        return k ** (1.0 - 2.0 / q) * math.log(k)

    lo, hi = 2, 2
    if g(lo) >= log_n:
        return lo
    while g(hi) < log_n:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if g(mid) >= log_n:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    crossover: int
    p: float


def scan_phase_transition(P: Pattern, n: int, ks, samples: int,
                          p: float | None = None, seed: int = 0,
                          workers: int = 1) -> ScanResult:
    """One TailRow per threshold k: Monte Carlo estimate, exact value when
    the size permits, the rate value, and both analytic lower bounds.

    All rows share a single batch of samples, which is what a per-k call of
    mc_tail with the same model would see anyway. The disjoint-blocks bound
    is `disjoint_lower_bound` for every k, and empty where that raises:
    blocks of m = n // k < q vertices, or a pattern too large for the
    second-moment bound.
    """
    if p is None:
        p = threshold_probability(n, P.delta)
    ks = sorted(set(int(k) for k in ks))
    if any(k < 1 for k in ks):
        raise DomainError("scan thresholds must be at least 1")
    counts = _mc_counts(P, GnpModel(n, p, seed), samples, workers)
    exact_tab = tail_probability_table(P, n, p) if n <= MAX_EXACT_N else None
    rows = []
    for k in ks:
        exact = None
        if exact_tab is not None:
            exact = float(exact_tab[k]) if k < len(exact_tab) else 0.0
        try:
            clq = clique_lower_bound(P, n, p, k)
        except TooFewVerticesError:
            clq = None
        try:
            dis = disjoint_lower_bound(P, n, p, k)
        except (BlockTooSmallError, TooLargeError):
            dis = None
        rows.append(_tail_row(counts, k, n, p, exact=exact,
                              L_value=tail_rate(k, n, P.q) if k >= 2 else 0.0,
                              clique_lb=clq, disjoint_lb=dis))
    return ScanResult(rows=tuple(rows), crossover=crossover_k(P.q, math.log(n)), p=p)


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))  # a numpy scalar's own repr is np.float64(...)
    return str(x)


def rows_to_csv(rows) -> str:
    """Fixed-schema CSV; float cells use shortest round-trip formatting so
    identical runs serialize byte-identically."""
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    lines += [",".join(_cell(getattr(r, c)) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows, crossover: int | None = None) -> str:
    payload = {"rows": [asdict(r) for r in rows]}
    if crossover is not None:
        payload["crossover"] = crossover
    return json.dumps(payload, indent=2, sort_keys=True)
