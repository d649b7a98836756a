"""Independent brute-force oracles used to validate the package.

Nothing here touches the package's counting kernel: copies are found by
enumerating edge subsets and testing isomorphism with a permutation search,
and planted expectations are summed copy by copy. Slow and obviously
correct. The subset-closure oracle keeps the plain one-view fold that the
package's closure reorganises for speed. Component labels come from a
sequential union-find, and triangle supports from every vertex triple.
The truss core is a set fixpoint over adjacency sets, and edge slots map to
their endpoints by integer square roots.

The references at the end are not independent: they are what no command
needs, built on the package's own marks and kernel. The full arrays over
the 2^C(n,2) masks close the package's copy masks and copy unions with its
subset closure, for the peeled histograms to be tested against, and the
automorphism count enumerates every map under a plan that breaks nothing,
for the symmetry-broken plans to be tested against. The copies through an
edge filter the package's copy listing, a path apart from the rooted
planted sums that count them inside the package; rooted_copies_through_edge
runs those sums' whole-pattern terms alone, for the tests of the rooted path.
"""

import math
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from regtail import counting


def _degree_profile(edges):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def is_isomorphic(edges_a, edges_b) -> bool:
    """Permutation-search isomorphism test for small edge sets."""
    ea = {tuple(sorted(e)) for e in edges_a}
    eb = {tuple(sorted(e)) for e in edges_b}
    if len(ea) != len(eb):
        return False
    da, db = _degree_profile(ea), _degree_profile(eb)
    if len(da) != len(db):
        return False
    if sorted(da.values()) != sorted(db.values()):
        return False
    va = sorted(da)
    vb = sorted(db)
    for perm in permutations(vb):
        mapping = dict(zip(va, perm))
        if all(da[x] == db[mapping[x]] for x in va):
            if all(tuple(sorted((mapping[u], mapping[v]))) in eb for u, v in ea):
                return True
    return False


def subset_copy_count(pattern_edges, host_edges) -> int:
    """Number of edge subsets of the host isomorphic to the pattern."""
    e_h = len(pattern_edges)
    q = len({v for e in pattern_edges for v in e})
    count = 0
    host = list(host_edges)
    for subset in combinations(host, e_h):
        support = {v for e in subset for v in e}
        if len(support) != q:
            continue
        if is_isomorphic(pattern_edges, subset):
            count += 1
    return count


def copies_in_complete_graph(pattern_edges, n):
    """All copies of the pattern inside K_n, as frozensets of sorted pairs.

    Enumerated by mapping the pattern onto every vertex subset in every
    order and deduplicating edge sets.
    """
    verts = sorted({v for e in pattern_edges for v in e})
    q = len(verts)
    out = set()
    for subset in combinations(range(n), q):
        for perm in permutations(subset):
            mapping = dict(zip(verts, perm))
            copy = frozenset(
                tuple(sorted((mapping[u], mapping[v]))) for u, v in pattern_edges
            )
            out.add(copy)
    return sorted(out, key=sorted)


def planted_expectation_oracle(pattern_edges, n, p, planted_edges) -> float:
    """Sum over all copies in K_n of p**(#copy edges outside the planted set)."""
    planted = {tuple(sorted(e)) for e in planted_edges}
    total = 0.0
    for copy in copies_in_complete_graph(pattern_edges, n):
        missing = sum(1 for e in copy if e not in planted)
        total += p**missing
    return total


def edge_rooted_oracle(pattern_edges, n, p, planted_edges, f) -> float:
    """Same sum restricted to copies containing the edge f."""
    planted = {tuple(sorted(e)) for e in planted_edges}
    f = tuple(sorted(f))
    total = 0.0
    for copy in copies_in_complete_graph(pattern_edges, n):
        if f not in copy:
            continue
        missing = sum(1 for e in copy if e not in planted)
        total += p**missing
    return total


def outside_edge_oracle(pattern_edges, n, p, planted_edges, f) -> float:
    """Copies through f using at least one edge outside the planted set."""
    planted = {tuple(sorted(e)) for e in planted_edges}
    f = tuple(sorted(f))
    total = 0.0
    for copy in copies_in_complete_graph(pattern_edges, n):
        if f not in copy:
            continue
        missing = sum(1 for e in copy if e not in planted)
        if missing >= 1:
            total += p**missing
    return total


def has_disjoint_copies(copies, s) -> bool:
    """Backtracking search for s pairwise vertex-disjoint copies."""
    vsets = [frozenset(v for e in c for v in e) for c in copies]

    def rec(start, used, left):
        if left == 0:
            return True
        for i in range(start, len(copies)):
            if vsets[i] & used:
                continue
            if rec(i + 1, used | vsets[i], left - 1):
                return True
        return False

    return rec(0, frozenset(), s)


def max_component_copies(copies) -> int:
    """Largest number of copies in one connected overlap component."""
    if not copies:
        return 0
    vsets = [frozenset(v for e in c for v in e) for c in copies]
    k = len(copies)
    seen = [False] * k
    best = 0
    for start in range(k):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            i = stack.pop()
            size += 1
            for j in range(k):
                if not seen[j] and vsets[i] & vsets[j]:
                    seen[j] = True
                    stack.append(j)
        best = max(best, size)
    return best


def exact_probability_oracle(pattern_edges, n, p, kind, arg) -> float:
    """Exact event probability by direct enumeration of all labeled graphs.

    kind is one of "at_least", "disjoint", "spanned". Intended for n <= 5.
    """
    all_edges = list(combinations(range(n), 2))
    m_all = len(all_edges)
    all_copies = copies_in_complete_graph(pattern_edges, n)
    total = 0.0
    for bits in range(1 << m_all):
        present = {all_edges[i] for i in range(m_all) if bits >> i & 1}
        m = len(present)
        copies = [c for c in all_copies if c <= present]
        if kind == "at_least":
            ok = len(copies) >= arg
        elif kind == "disjoint":
            ok = has_disjoint_copies(copies, arg)
        elif kind == "spanned":
            ok = max_component_copies(copies) >= arg
        else:
            raise ValueError(kind)
        if ok:
            total += p**m * (1 - p) ** (m_all - m)
    return total


def subset_closure_oracle(n, marked, dtype):
    """Subset closure over the 2^C(n,2) edge masks with one ufunc call per
    edge slot b on a (-1, 2, 2^b) view: every mask with bit b set takes in
    the entry of the mask without it (OR for bool, + for integers)."""
    m_slots = n * (n - 1) // 2
    arr = np.zeros(1 << m_slots, dtype=dtype)
    arr[np.asarray(marked, dtype=np.int64)] = 1
    fold = np.bitwise_or if arr.dtype == bool else np.add
    for b in range(m_slots):
        v = arr.reshape(-1, 2, 1 << b)
        fold(v[:, 1], v[:, 0], out=v[:, 1])
    return arr


def automorphism_count(edges) -> int:
    """Number of permutations of the edges' endpoints that map the edge set
    onto itself. The vertices are assigned in sorted order, and a partial
    assignment is dropped once an edge between two assigned vertices maps
    to a non-edge: a bijection that maps every edge to an edge maps the
    edge set onto itself."""
    es = {tuple(sorted(e)) for e in edges}
    verts = sorted({v for e in es for v in e})
    earlier = [[u for u in verts[:i] if (u, v) in es] for i, v in enumerate(verts)]
    mapping = {}

    def extend(i, free):
        if i == len(verts):
            return 1
        count = 0
        for w in sorted(free):
            if all(tuple(sorted((mapping[u], w))) in es for u in earlier[i]):
                mapping[verts[i]] = w
                count += extend(i + 1, free - {w})
        return count

    return extend(0, frozenset(verts))


def copies_in_graph(pattern_edges, n, host_edges):
    """All copies of the pattern in the graph on 0..n-1 with the given
    edges, sorted as the package sorts them.

    Each q-vertex subset carries the pattern's copies in K_q, renamed onto
    the subset in order, and keeps those whose edges are all present.
    """
    host = {tuple(sorted(e)) for e in host_edges}
    q = len({v for e in pattern_edges for v in e})
    local = copies_in_complete_graph(pattern_edges, q)
    out = []
    for subset in combinations(range(n), q):
        for copy in local:
            image = frozenset((subset[u], subset[v]) for u, v in copy)
            if image <= host:
                out.append(image)
    return sorted(out, key=sorted)


def component_labels_oracle(size, edges):
    """Smallest vertex of each vertex's component among 0..size-1, by
    union-find with path halving, one edge at a time."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(size)]


def triangle_support_oracle(size, edges):
    """For each edge in order, the number of triangles through it: every
    vertex triple of 0..size-1 whose three pairs are all edges credits
    each of its pairs."""
    edges = [tuple(sorted(e)) for e in edges]
    host = set(edges)
    count = dict.fromkeys(host, 0)
    for tri in combinations(range(size), 3):
        pairs = list(combinations(tri, 2))
        if all(e in host for e in pairs):
            for e in pairs:
                count[e] += 1
    return [count[e] for e in edges]


def truss_core_oracle(edges, delta, triangles):
    """The edges of the largest subgraph in which every vertex has degree at
    least delta and every edge lies in at least `triangles` triangles:
    drop every edge that breaks either rule in the current graph, and
    repeat until none does."""
    kept = {tuple(sorted(e)) for e in edges}
    while True:
        adj = {}
        for u, v in kept:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        bad = {(u, v) for u, v in kept
               if min(len(adj[u]), len(adj[v])) < delta or len(adj[u] & adj[v]) < triangles}
        if not bad:
            return kept
        kept -= bad


def slot_pair_oracle(n, slot):
    """The endpoints (u, v), u < v, of row-major edge slot `slot` of K_n:
    row u starts at slot u*(2n-u-1)/2, and `slot` lies in the last row that
    starts at or before it, found by an exact integer square root."""
    # u*(2n-1-u)/2 <= slot for u up to ((2n-1) - sqrt((2n-1)**2 - 8 slot)) / 2;
    # the loops settle the integer rounding
    u = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * slot)) // 2
    while u * (2 * n - 1 - u) // 2 > slot:
        u -= 1
    while (u + 1) * (2 * n - 2 - u) // 2 <= slot:
        u += 1
    return u, u + 1 + slot - u * (2 * n - 1 - u) // 2


@lru_cache(maxsize=32)
def copy_count_array(P, n):
    """Pattern-copy count of every labeled graph on n vertices (n <= 7),
    indexed by the row-major edge bitmask: the full-array reference of the
    package's count histogram."""
    counting._exact_slots(n)  # refuses n before K_n's copies are listed
    return counting._subset_closure(n, counting._kn_copies(P, n)[0], np.uint16)


def event_mask_array(event, n):
    """Whether each labeled graph on n vertices (n <= 7) has the structural
    event (DisjointCopies or HasSpannedWithCopies), indexed by the row-major
    edge bitmask: the bool closure of the event's copy unions."""
    return counting._subset_closure(n, event.unions(n), bool)


def count_automorphisms(g) -> int:
    """Number of automorphisms of g from the package's kernel: the injective
    maps of g into itself, each one enumerated under a plan that breaks no
    symmetry, within one budget cell of counting.DEFAULT_MAP_BUDGET."""
    plan = counting._greedy_order(g.n, g.edges, ())
    return counting._count_maps(plan, g, (), [counting.DEFAULT_MAP_BUDGET])


def copies_through_edge(P, g, f) -> int:
    """Number of copies of the pattern in g whose edge set holds f: the
    copies that counting.iter_copies lists, filtered for f."""
    f = tuple(sorted(f))
    return sum(f in copy for copy in counting.iter_copies(P, g))


def rooted_copies_through_edge(P, g, f) -> int:
    """The package's own count of the copies through f: the kernel runs of
    the rooted planted sums' whole-pattern terms, each pinning a pattern
    arc onto f, without the sub-pattern terms around them."""
    return counting._per_copy(P, sum(
        size * group * counting._count_maps(plan, g, f, [10**9])
        for plan, k, _, size, group, *_ in counting._planted_terms(P.graph, True)
        if k == P.edge_count))
