"""Exact copy and homomorphism counting, planted-model conditional
expectations, and exact small-n probability enumeration.

This is the brute-force oracle layer: every routine here is exact (up to
floating-point accumulation where probabilities are involved) and every
other module's inequality is checked against it.

The injective-map kernel enumerates vertex images in a greedy connected
order (each new pattern vertex adjacent to an already-placed one when
possible). Candidate sets are integer bit masks (Ullmann, J. ACM 23 (1976)
31-42) over frames of the host graph's bit view. A graph on at most
graphs.LABEL_FRAME_MAX labels is one frame indexed by label, built in one
pass over its edges. A larger graph has a cached frame per connected
component of up to graphs.MAX_FRAME vertices, and in a larger component a
ball around each root image, so that no mask grows with a large sparse
component. A position's candidates are the AND of the neighbour masks of
the images it is tied to, the frame's mask of vertices of large enough
degree, and the complement of the images already placed.
The last position is counted by popcount. It is the package's one
injective-map recursion: an optional leaf hook is handed each placed prefix
with the last position's candidate mask, once per prefix and not once per
map. Copies and automorphisms are listed by expanding the mask bit by bit;
planted edges are credited with one add per edge of the prefix, by the
popcount, and one per candidate for the edges at the last position. The
order in which maps are found follows the bit order, and no caller depends
on it. Every public call opens one budget cell of partial assignments, set
at call time to DEFAULT_MAP_BUDGET for a kernel call and to
DEFAULT_PLANTED_BUDGET for a planted sum, whose subset terms all draw on
it; an empty cell raises BudgetExceededError.

Each plan also breaks the symmetry of its planned edges (Grochow and
Kellis, RECOMB 2007). Its group G holds the automorphisms of the edge set
that fix every pin and map each component onto itself. Along the plan
order, every position j in the orbit of an earlier position i under the
pointwise stabilizer of the positions before i must take a higher label
than i's image. Exactly one map of each G-orbit meets these conditions,
and since a frame's bits follow its sorted labels, each condition is one
more AND with the bits above i's image. The kernel thus finds each copy
once instead of |Aut| times, and every caller multiplies the integer
counts, and the integer per-edge tallies of the planted sums, by |G|
before any float enters. The whole-pattern plan's group is Aut(H), so its
order is the pattern's aut_count; the orbit table lists Aut(H) with a plan
that breaks nothing.

Conditional expectations over a planted graph G* expand the product of
per-edge factors p + (1-p)*1[planted] over edge subsets T of the pattern H:

    aut * E = sum_T w_T N_T,  w_T = p**(e(H)-|T|) (1-p)**|T| perm(n-t_T, q-t_T),

where N_T counts injective maps of T's t_T vertices into G* carrying T's
edges onto planted edges, and the falling factorial places the untouched
vertices. A planted edge f has factor 1 in every copy through f, so the
copies through f expand over the subsets T holding the edge e that lands
on f, with one factor (1-p) fewer:

    aut * (1-p) * rooted(f) = sum_T w_T * #{(map of T, e in T) : e -> f}.

One kernel run per subset T therefore yields the expectation and, if each
leaf credits the images of T's edges, every deletion drop
delta(f) = (1-p) * rooted(f) = E[G*] - E[G* - f] at once.

An automorphism s of H carries the maps of s(T) onto those of T, so N_T,
t_T, |T| and the multiset of credited edge images are constant on each
Aut(H)-orbit of subsets. Both sums therefore run the kernel once per orbit
and weight it by the orbit size; rooted sums do the same over the orbits
of the pairs (pattern arc pinned onto f, T through that arc's edge).
K3, C4, K4 and K5 have 4, 6, 11 and 34 subset orbits (of 2^e(H)) and 4,
8, 20 and 120 rooted orbits (of e(H) * 2^e(H) pairs).

A map of T restricts to a map of T minus any edge, so N_T = 0 whenever a
subset of one edge fewer has no map. Each orbit records as predecessors
the orbits of its representative minus one edge (other than the pinned
arc's, when rooted), and every predecessor comes earlier in the table. A
sum skips, without a kernel run, each term with a predecessor that counted
no map; on a sparse planted graph most terms go this way. A skipped term
would have added 0.0, so the float additions are the same. A rooted sum's
whole-pattern terms count the copies through f inside the planted graph,
which is the integer the outside sum subtracts.

Exact probabilities for n <= 7 index every labeled graph by its row-major
edge bitmask, but no array over the 2^C(n,2) masks is built. A graph's
value under an event or a copy count is a subset closure: mark some masks,
then for each edge slot let every mask with that bit set take in the entry
of the mask without it, which answers "contains a marked mask" on bool
entries and "how many marked masks" on integers. Vertex 0's star is the
low n-1 bits of a mask and the bits above it are a mask over K_{n-1}, and
relabelling vertices 1..n-1 shows that the histogram by (edge count,
closure value) depends only on the star's size s. So it is the sum over s
of C(n-1, s) times one closure over K_{n-1}, of the rests of the marks
whose star lies in the first s star bits, binned by the rest's edge count
plus s: n closures over 2^C(n-1,2) masks in place of one over 2^C(n,2).
Copy counts mark the copies of the pattern in K_n. Both structural events
mark the copy unions that one breadth-first search over distinct union
masks reaches: the disjoint-copies event grows a union by the copies that
share no vertex with it and marks the unions of s copies, the
spanned-copies event grows it by the copies that touch it and marks the
connected unions with enough copies. None of this depends on p: each
pattern keeps a cached histogram of the graphs by (edge count, copy count),
and each event one of its satisfying graphs by edge count, so a probability
at a new p is one product with the weights p**m (1-p)**(C(n,2)-m). An event
that only asks for at least k copies (CopiesAtLeast for any k,
DisjointCopies with s <= 1, HasSpannedWithCopies with count <= 1) takes its
histogram as the sum of the count histogram's columns k and up; only the
other structural events peel a closure of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    ContractError,
    DomainError,
    EdgeAbsentError,
    TooLargeError,
)
from .graphs import Pattern, SimpleGraph, complete_graph

DEFAULT_MAP_BUDGET = 10**9  # partial assignments per enumeration call
DEFAULT_PLANTED_BUDGET = 10**8  # partial assignments per planted-model call
MAX_EXACT_N = 7  # exact probability enumerates all 2^C(n,2) graphs
PLAN_CACHE_SIZE = 1024  # holds every orbit plan of K3 to K5, pinned or not
# Members an orbit table may list. Every one enters a set that no budget
# counts: K7's 2^21 subsets still fit, K8's 2^28 would exhaust memory.
MAX_ORBIT_MEMBERS = 1 << 21
SPAN_CHUNK = 1 << 16  # (union, copy) pairs the spanned search grows at a time
_LOW_SLOTS = 4  # closure slots folded column by column: rows of 2^b are too short for one call


def _greedy_order(q, edge_list, pinned):
    """Order vertices so each one has as many placed neighbors as possible.

    Pinned vertices come first. Works for disconnected edge sets (a fresh
    root is started whenever no unplaced vertex touches the placed set).
    Returns the plan (order, back, hdeg, epos, reach, lower, group): back[i]
    lists the earlier positions adjacent to position i, hdeg[i] its degree
    in the edge set, epos the positions of each listed edge's endpoints,
    and reach[i] the largest distance from position i within its component
    of the edge set. Each component is placed in one run, its first vertex
    first. The plan breaks no symmetry: lower[i] is empty and group is 1.
    """
    nbrs = {v: set() for v in range(q)}
    for u, v in edge_list:
        nbrs[u].add(v)
        nbrs[v].add(u)
    verts = sorted({v for e in edge_list for v in e} | set(pinned))
    order = list(pinned)
    placed = set(pinned)
    while len(order) < len(verts):
        best = None
        best_key = None
        for v in verts:
            if v in placed:
                continue
            key = (len(nbrs[v] & placed), len(nbrs[v]), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    back = []
    for i, v in enumerate(order):
        back.append(tuple(j for j in range(i) if order[j] in nbrs[v]))
    hdeg = tuple(len(nbrs[v]) for v in order)
    pos = {v: i for i, v in enumerate(order)}
    epos = tuple((pos[u], pos[v]) for u, v in edge_list)
    reach = []
    for v in order:
        seen, layer, r = {v}, {v}, -1
        while layer:
            layer = set().union(*(nbrs[u] for u in layer)) - seen
            seen |= layer
            r += 1
        reach.append(r)
    return tuple(order), tuple(back), hdeg, epos, tuple(reach), ((),) * len(order), 1


class _Found(Exception):
    """Stops a kernel run at its first complete map."""


def _found(images, mask, labels):
    raise _Found


def _break_symmetry(q, plan, npins):
    """(lower, group) for a plan over q pattern vertices whose first npins
    positions are pinned.

    The group G is made of the automorphisms of the planned edges that fix
    every pin and map each component onto itself. Along the plan order, the
    orbit of position i under the pointwise stabilizer of the positions
    before it is found with pinned kernel runs of i's component into
    itself, one for each later position j of equal degree there, and each
    j of the orbit gets i in lower[j]. group is the product of the orbit
    sizes, |G|. G itself is never listed: K_10 would hold 10! maps.
    """
    order, back, hdeg, epos = plan[:4]
    comp = []  # first position of each position's component: every later one has a back
    for i, bk in enumerate(back):
        comp.append(comp[bk[0]] if bk else i)
    hosts = {}
    for a, b in epos:
        hosts.setdefault(comp[a], []).append((order[a], order[b]))
    hosts = {c: SimpleGraph(q, edges) for c, edges in hosts.items()}
    lower = [[] for _ in order]
    group = 1
    for i in range(npins, len(order)):
        c = comp[i]
        fixed = order[c:i]  # the component's earlier positions: it is placed in one run
        sub = _greedy_order(q, hosts[c].edges, fixed + (order[i],))
        size = 1
        for j in range(i + 1, len(order)):
            if comp[j] != c or hdeg[j] != hdeg[i]:
                continue
            try:
                _count_maps(sub, hosts[c], fixed + (order[j],), [DEFAULT_MAP_BUDGET], _found)
            except _Found:
                lower[j].append(i)
                size += 1
        group *= size
    return tuple(map(tuple, lower)), group


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(pattern_graph: SimpleGraph, edge_subset: tuple, pins: tuple):
    """Cached enumeration plan for the edges edge_subset of a pattern (its
    whole edge tuple, or a subset in the same order), with the pinned
    pattern vertices placed first, and with the conditions that break the
    symmetry of the planned edges. Every caller passes all three arguments
    positionally, so that each plan has one cache entry."""
    plan = _greedy_order(pattern_graph.n, edge_subset, pins)
    return plan[:5] + _break_symmetry(pattern_graph.n, plan, len(pins))


def _count_maps(plan, g: SimpleGraph, pins, state, leaf=None):
    """Number of injective maps that realize the planned edges inside g and
    meet the plan's symmetry conditions.

    pins maps plan positions (a prefix inside one component of the planned
    edges, such as the ends of one edge) to fixed images. state is a
    one-element list holding the remaining budget of partial assignments;
    exhausting it raises BudgetExceededError, and passing one cell to
    several calls makes them draw on one budget. leaf, if given, is called
    as leaf(images, mask, labels) once for each placed prefix of every
    position but the last that the last position can complete: images
    holds the prefix's images (indexed by plan position), mask the last
    position's nonempty candidate mask, and the complete maps are the
    prefix with labels[b] at the last position, for each bit b of mask.
    Pins covering every position give a one-bit mask; a plan of no
    positions has one map, the empty one, and calls no leaf.

    Candidates are bit masks over a frame of g's bit view. Each component of
    the planned edges is placed inside one frame, taken at its first
    position from the frames the view offers there, which reach far enough
    for the rest of the component. At a later position i the candidates are
    one AND: the frame's vertices of degree at least hdeg[i], the neighbour
    masks of the images in back[i], and the complement of the used bits.
    The last position's candidates are counted by popcount, a budget draw
    of as many assignments, leaf or not. The plan's symmetry conditions
    (Grochow and Kellis, RECOMB 2007) AND in, at position i, the bits above
    the image of each position in lower[i], so the count is of one map per
    orbit of the plan's group: the caller multiplies by its order, group.
    """
    order, back, hdeg, _, reach, lower, _ = plan
    npos = len(order)
    if not npos:
        return 1
    view = g._bit_view()
    images = [0] * npos
    nb = [0] * npos  # neighbour mask of each image in its frame
    above = [0] * npos  # mask of the frame's bits above each image's
    frame, used = None, 0
    if pins:
        frame = view.frame_at(pins[0], reach[0])
        if frame is None:  # an isolated pin, while every planned vertex has an edge
            return 0
        bit, nbr = frame.bit, frame.nbr
        for i, w in enumerate(pins):
            b = bit.get(w)
            if b is None:
                return 0
            low = 1 << b
            if used & low:
                return 0
            for j in back[i]:
                if not nb[j] & low:
                    return 0
            images[i], nb[i], above[i] = w, nbr[b], -(low << 1)
            used |= low
    if len(pins) == npos:
        if leaf is not None:
            leaf(images, low, frame.labels)
        return 1
    last, penult = npos - 1, npos - 2
    tail = back[last]  # never empty: the last position's component has an edge
    tail_lower = lower[last]

    def rec(i, frame, used):
        bk = back[i]
        if bk:
            mask = frame.at_least[hdeg[i]]
            for j in bk:
                mask &= nb[j]
            for j in lower[i]:
                mask &= above[j]
            frames = ((frame, used, mask),)
        else:
            frames = view.roots(hdeg[i], reach[i], images[:i])
        total = 0
        for frame, used, mask in frames:
            mask &= ~used
            if not mask:
                continue
            if i == last:
                k = mask.bit_count()
                state[0] -= k
                if state[0] < 0:
                    raise BudgetExceededError("injective-map enumeration budget hit")
                total += k
                if leaf is not None:
                    leaf(images, mask, frame.labels)
                continue
            labels, nbr = frame.labels, frame.nbr
            count_next = i == penult
            if count_next:  # the last position shares the frame
                need = frame.at_least[hdeg[last]]
            while mask:
                low = mask & -mask
                mask ^= low
                state[0] -= 1
                if state[0] < 0:
                    raise BudgetExceededError("injective-map enumeration budget hit")
                b = low.bit_length() - 1
                images[i], nb[i], above[i] = labels[b], nbr[b], -(low << 1)
                if count_next:
                    m = need & ~(used | low)
                    for j in tail:
                        m &= nb[j]
                    for j in tail_lower:
                        m &= above[j]
                    k = m.bit_count()
                    state[0] -= k
                    if state[0] < 0:
                        raise BudgetExceededError("injective-map enumeration budget hit")
                    total += k
                    if leaf is not None and k:
                        leaf(images, m, labels)
                else:
                    total += rec(i + 1, frame, used | low)
        return total

    return rec(len(pins), frame, used)


def _complete_maps(images, mask, labels):
    """The complete maps of one leaf call, one per bit of mask: images with
    its last entry set to that bit's label (the same list each time)."""
    while mask:
        low = mask & -mask
        mask ^= low
        images[-1] = labels[low.bit_length() - 1]
        yield images


def count_injective_homs(P: Pattern, g: SimpleGraph) -> int:
    """Number of injective vertex maps carrying every pattern edge to an edge of g."""
    plan = _plan(P.graph, P.graph.edges, ())
    return plan[6] * _count_maps(plan, g, (), [DEFAULT_MAP_BUDGET])


@lru_cache(maxsize=64)
def _orbit_table(h: SimpleGraph, rooted: bool):
    """(pins, subset bits, orbit size, predecessors) for every Aut(h)-orbit
    of the edge subsets T of h, each represented by its first member.

    Bit i of the subset stands for h.edges[i]. Unrooted, pins is () and
    the orbits are those of the subsets; rooted, they are the orbits of
    the pairs (arc, T) with the arc's edge in T, and pins is the arc.
    predecessors lists, in increasing order, the table indices of the
    orbits of T minus one of its edges other than the arc's, each below the
    entry's own index: a member minus an edge comes earlier in the order in
    which members are met. A table of more than MAX_ORBIT_MEMBERS members
    (2^e(h) subsets, or e(h) * 2^e(h) pairs) raises TooLargeError before
    anything is listed; the member map that finds each orbit's index lives
    only while the table is built.
    """
    n_members = len(h.edges) << len(h.edges) if rooted else 1 << len(h.edges)
    if n_members > MAX_ORBIT_MEMBERS:
        raise TooLargeError(
            f"orbit table of {n_members} members exceeds the cap {MAX_ORBIT_MEMBERS}")
    plan = _greedy_order(h.n, h.edges, ())  # lists every automorphism: nothing broken
    order, edges = plan[0], h.edges
    slot = {e: i for i, e in enumerate(edges)}
    autos = []  # per automorphism: vertex images, and edge slot images

    def leaf(images, mask, labels):
        for full in _complete_maps(images, mask, labels):
            s = dict(zip(order, full))
            autos.append((s, [slot[min(s[u], s[v]), max(s[u], s[v])] for u, v in edges]))

    _count_maps(plan, h, (), [DEFAULT_MAP_BUDGET], leaf)
    every = range(1 << len(edges))
    if rooted:
        members = ((arc, bits) for i, (u, v) in enumerate(edges)
                   for arc in ((u, v), (v, u)) for bits in every if bits >> i & 1)
    else:
        members = (((), bits) for bits in every)
    where = {}  # member -> index of its orbit in the table
    table = []
    for pins, bits in members:
        if (pins, bits) in where:
            continue
        orbit = {
            (tuple(s[x] for x in pins),
             sum(1 << j for i, j in enumerate(perm) if bits >> i & 1))
            for s, perm in autos
        }
        where.update(dict.fromkeys(orbit, len(table)))
        free = bits & ~(1 << slot[min(pins), max(pins)]) if pins else bits
        preds = {where[pins, bits & ~(1 << i)] for i in range(len(edges)) if free >> i & 1}
        table.append((pins, bits, len(orbit), tuple(sorted(preds))))
    return tuple(table)


def _per_copy(P: Pattern, maps: int) -> int:
    """Copy count from a count of injective maps, each copy hit |Aut| times.

    The group that the whole-pattern plan breaks is Aut(H), and make_pattern
    takes aut_count from its order: a mismatch means a Pattern built by hand
    with a wrong aut_count, which would scale every count."""
    group = _plan(P.graph, P.graph.edges, ())[6]
    if group != P.aut_count:
        raise ContractError(f"plan group order {group} differs from |Aut| = {P.aut_count}")
    return maps // group


def count_copies(P: Pattern, g: SimpleGraph) -> int:
    """Number of edge subsets of g isomorphic to the pattern."""
    return _per_copy(P, count_injective_homs(P, g))


def iter_copies(P: Pattern, g: SimpleGraph):
    """Distinct copies of the pattern in g, each a frozenset of edges: the
    plan breaks Aut(H), so each copy is met once."""
    plan = _plan(P.graph, P.graph.edges, ())
    epos = plan[3]
    out = []

    def leaf(images, mask, labels):
        for full in _complete_maps(images, mask, labels):
            out.append(frozenset(
                (full[i], full[j]) if full[i] < full[j] else (full[j], full[i])
                for i, j in epos
            ))

    _count_maps(plan, g, (), [DEFAULT_MAP_BUDGET], leaf)
    return sorted(out, key=sorted)


@dataclass(frozen=True)
class PlantedModel:
    """G(n, p) conditioned on a planted edge set being present.

    Edges of `planted` are present with probability 1, every other pair
    independently with probability p.
    """

    n: int
    p: float
    planted: SimpleGraph

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"p must lie strictly in (0, 1), got {self.p}")
        if self.planted.n > self.n:
            raise DomainError(
                f"planted graph on {self.planted.n} labels exceeds ambient n={self.n}"
            )


@lru_cache(maxsize=64)
def _planted_terms(h: SimpleGraph, rooted: bool):
    """The terms of a planted sum over h's subset orbits (rooted or not),
    one per orbit and in the orbit table's order: (plan, |T|, t_T, orbit
    size, group, inner, ends, preds), where inner lists the position pairs
    of T's edges away from the plan's last position, ends the other end of
    each edge at it, and preds has bit j set for each predecessor j of the
    orbit in the table."""
    terms = []
    for pins, bits, size, preds in _orbit_table(h, rooted):
        subset = tuple(e for i, e in enumerate(h.edges) if bits >> i & 1)
        plan = _plan(h, subset, pins)
        last = len(plan[0]) - 1
        inner = tuple((i, j) for i, j in plan[3] if last not in (i, j))
        ends = tuple(i + j - last for i, j in plan[3] if last in (i, j))
        terms.append((plan, len(subset), len(plan[0]), size, plan[6], inner, ends,
                      sum(1 << j for j in preds)))
    return tuple(terms)


def _planted_sum(P: Pattern, model: PlantedModel, state, root=(), credits=None):
    """The subset expansion of the module docstring: the sum over edge
    subsets T of the pattern of w_T * N_T, one kernel run per Aut(H)-orbit
    of subsets weighted by the orbit size.

    root = f, a planted edge, sums over the rooted orbits instead: the arc
    pinned onto f lowers the power of (1-p) by one, which sums the copies
    through f. credits, a dict over the planted edges, receives w_T for
    every map of T and every edge of T, at the edge's image: a leaf call
    credits the edges away from the last position once for each of its
    maps, and those at it once per candidate. All kernel runs draw on the
    one budget cell `state`.

    A map of T restricts to a map of T minus an edge, so a term with a
    predecessor that counted no map counts none either and is skipped
    without a kernel run. A skipped term would add 0.0, so the sum and the
    credits take the same float additions in the same order.

    Returns (sum, inside), inside being the orbit-weighted, group-scaled
    map count of the whole-pattern terms: |Aut(H)| times the copies inside
    the planted graph, or through f when rooted.
    """
    p, n, q = model.p, model.n, P.q
    if n < q:
        return 0.0, 0  # no copy fits: each term has t_T > n or no room for the rest
    e_h = P.edge_count
    rooted = bool(root)
    total, inside, zero = 0.0, 0, 0  # zero: bit j set when term j has no map
    for index, (plan, k, t, size, group, inner, ends, preds) in enumerate(
            _planted_terms(P.graph, rooted)):
        if preds & zero:
            zero |= 1 << index
            continue
        leaf = None
        if credits is not None:
            tally = {}  # image pair -> maps crediting it; a plain dict is fastest here

            def leaf(images, mask, labels, inner=inner, ends=ends, tally=tally):
                maps = mask.bit_count()
                for i, j in inner:
                    key = images[i], images[j]
                    tally[key] = tally.get(key, 0) + maps
                while mask:
                    low = mask & -mask
                    mask ^= low
                    w = labels[low.bit_length() - 1]
                    for i in ends:
                        key = images[i], w
                        tally[key] = tally.get(key, 0) + 1

        maps = _count_maps(plan, model.planted, root, state, leaf)
        if not maps:
            zero |= 1 << index
            continue
        if k == e_h:
            inside += size * group * maps
        weight = size * p ** (e_h - k) * (1.0 - p) ** (k - rooted)
        weight *= math.perm(n - t, q - t)
        # integer scaling first, so each float sees the full map count
        total += weight * (group * maps)
        if credits is None:
            continue
        per_edge = {}  # both arcs' tallies in one integer, so leaf order cannot round
        for (a, b), c in tally.items():
            f = (a, b) if a < b else (b, a)
            per_edge[f] = per_edge.get(f, 0) + c
        for f, c in per_edge.items():
            credits[f] += weight * (group * c)
    return total, inside


def planted_expectation(P: Pattern, model: PlantedModel) -> float:
    """Expected number of pattern copies in the planted model.

    Equals the sum over all copies in the complete graph of p raised to the
    number of copy edges missing from the planted graph.
    """
    return _planted_sum(P, model, [DEFAULT_PLANTED_BUDGET])[0] / P.aut_count


def planted_edge_deltas(P: Pattern, model: PlantedModel):
    """Expectation and the deletion drop of every planted edge, from one
    kernel run per Aut(H)-orbit of pattern edge subsets.

    Returns (expectation, {edge: delta}) with delta(f) = (1 - p) *
    rooted(f) = E[planted] - E[planted minus f]: each map of a subset T
    credits its weight w_T to the image of every edge of T (the credit
    identity of the module docstring).
    """
    credits = dict.fromkeys(model.planted.edges, 0.0)
    total, _ = _planted_sum(P, model, [DEFAULT_PLANTED_BUDGET], credits=credits)
    aut = P.aut_count
    return total / aut, {f: c / aut for f, c in credits.items()}


def _rooted_sum(P: Pattern, model: PlantedModel, f):
    """The rooted planted sum at the planted edge f, as (sum, inside)."""
    a, b = f
    if not model.planted.has_edge(a, b):
        raise EdgeAbsentError(f"edge {f} not present in planted graph")
    return _planted_sum(P, model, [DEFAULT_PLANTED_BUDGET], root=(a, b))


def edge_rooted_expectation(P: Pattern, model: PlantedModel, f) -> float:
    """Expected number of copies containing the planted edge f.

    Sum over copies through f of p**(#copy edges missing from the planted
    graph); f itself must be planted. One planted sum over the rooted
    orbits: each pins a pattern arc onto f and counts the maps of a subset
    T through the arc's edge, at weight w_T / (1 - p), since f's own factor
    is 1 and only subsets through that edge contribute.
    """
    return _rooted_sum(P, model, f)[0] / P.aut_count


def planted_edge_delta(P: Pattern, model: PlantedModel, f):
    """Drop in conditional expectation when the planted edge f is released.

    Returns (delta, rooted) where rooted is the edge-rooted expectation of
    copies through f and delta = (1 - p) * rooted, the exact decrease
    E[planted] - E[planted minus f]: releasing f turns its factor in every
    copy through f from 1 into p. For the drops of all planted edges at
    once use planted_edge_deltas.
    """
    rooted = edge_rooted_expectation(P, model, f)
    return (1.0 - model.p) * rooted, rooted


def edge_rooted_outside_sum(P: Pattern, model: PlantedModel, f) -> float:
    """Expected number of copies through f that use at least one non-planted
    edge: the rooted expectation less the copies through f inside the
    planted graph, which the same rooted pass counts in its whole-pattern
    terms."""
    total, inside = _rooted_sum(P, model, f)
    return total / P.aut_count - _per_copy(P, inside)


# ---------------------------------------------------------------------------
# Exact probabilities over all labeled graphs (n <= 7). The histograms are
# peeled from closures over K_{n-1}, built once per process and returned
# read-only; only the weights depend on p.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _edge_slots(n: int):
    """Row-major bit position for each pair, as a dict (u, v) -> bit."""
    slots = {}
    i = 0
    for u in range(n - 1):
        for v in range(u + 1, n):
            slots[(u, v)] = i
            i += 1
    return slots


@lru_cache(maxsize=32)
def _kn_copies(P: Pattern, n: int):
    """All copies of the pattern inside the complete graph on n vertices,
    as two read-only int64 arrays: each copy's row-major edge mask, and the
    mask of the pairs at its vertices (its vertex star)."""
    slots = _edge_slots(n)
    at = [0] * n  # the pairs at each vertex
    for (u, v), b in slots.items():
        at[u] |= 1 << b
        at[v] |= 1 << b
    masks, stars = [], []
    for copy in iter_copies(P, complete_graph(n)) if n >= P.q else ():
        masks.append(sum(1 << slots[e] for e in copy))
        star = 0
        for u, v in copy:
            star |= at[u] | at[v]
        stars.append(star)
    out = np.array(masks, dtype=np.int64), np.array(stars, dtype=np.int64)
    for arr in out:
        arr.setflags(write=False)
    return out


def _exact_slots(n: int) -> int:
    """C(n,2) for 0 <= n <= MAX_EXACT_N, checked before any 2^C(n,2) array
    exists."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if n > MAX_EXACT_N:
        raise TooLargeError(f"exact enumeration capped at n={MAX_EXACT_N}, got {n}")
    return n * (n - 1) // 2


def _subset_closure(n: int, marked, dtype) -> np.ndarray:
    """For every labeled graph on n vertices (n <= 7), indexed by its
    row-major edge bitmask: whether it contains a marked mask (bool dtype),
    or how many of the distinct marked masks it contains (integer dtype).

    Marks the masks in a zero array of 2^C(n,2) entries, then folds each
    edge slot b in turn: every mask with bit b set takes in the entry of the
    same mask without it. An ndarray of marks is used as it is; any other
    iterable is consumed only after the size check, so a lazy one costs
    nothing on a refused n.
    """
    m_slots = _exact_slots(n)
    arr = np.zeros(1 << m_slots, dtype=dtype)
    if not isinstance(marked, np.ndarray):
        marked = np.fromiter(marked, dtype=np.int64)
    arr[marked] = 1
    fold = np.bitwise_or if arr.dtype == bool else np.add
    for b in range(m_slots):
        v = arr.reshape(-1, 2, 1 << b)
        for j in range(1 << b) if b < _LOW_SLOTS else (slice(None),):
            fold(v[:, 1, j], v[:, 0, j], out=v[:, 1, j])
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=16)
def _popcounts(n: int):
    """Edge count of every labeled graph on n vertices (n <= 7), indexed by
    the row-major edge bitmask: the popcount of the mask's high half plus
    that of its low half, broadcast from one table of 2^ceil(C(n,2)/2)
    popcounts."""
    m_slots = _exact_slots(n)
    low = m_slots // 2
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(m_slots - low):
        table = np.concatenate((table, table + 1))
    pc = (table[:, None] + table[None, :1 << low]).reshape(-1)
    pc.setflags(write=False)
    return pc


def _peeled_histogram(n: int, marks: np.ndarray, dtype, width: int) -> np.ndarray:
    """Read-only float histogram, (C(n,2)+1) x width, of the labeled graphs
    on n vertices by (edge count, subset closure of the marks), peeled at
    vertex 0 as the module docstring describes: for each star size s,
    C(n-1, s) times the closure over K_{n-1} of the rests of the marks whose
    star lies in the first s star bits. A count closure counts every copy,
    since distinct copies keep distinct rests (a copy through vertex 0 joins
    it to the rest's vertices of degree delta - 1, and delta >= 2)."""
    m_slots = _exact_slots(n)
    k = max(n - 1, 0)
    star, rest = marks & ((1 << k) - 1), marks >> k
    keys = _popcounts(k).astype(np.int64) * width
    hist = np.zeros((m_slots + 1) * width, dtype=np.int64)
    for s in range(k + 1):
        closure = _subset_closure(k, rest[star >> s == 0], dtype)
        hist += math.comb(k, s) * np.bincount(keys + closure + s * width, minlength=hist.size)
    hist = hist.astype(np.float64).reshape(-1, width)
    hist.setflags(write=False)
    return hist


def _mask_dtypes(n: int, copies: int):
    """The narrowest signed dtypes that hold a row-major edge mask of K_n
    and a count of up to `copies` copies: int32 masks while C(n,2) <= 31,
    int64 above."""
    def holding(top):
        return next(t for t in (np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)
    return holding((1 << n * (n - 1) // 2) - 1), holding(copies)


def mask_copy_counts(P: Pattern, n: int, masks: np.ndarray) -> np.ndarray:
    """Copy count of each labeled graph on n vertices given by its
    row-major edge bitmask: every copy mask of K_n is tested against all
    the masks at once, on the narrowest dtypes that hold the masks and the
    counts (`_mask_dtypes`: int32 masks and int16 counts at n = 7)."""
    copies = _kn_copies(P, n)[0]
    mask_dtype, count_dtype = _mask_dtypes(n, len(copies))
    masks = masks.astype(mask_dtype, copy=False)
    out = np.zeros(masks.shape, dtype=count_dtype)
    for cm in copies.tolist():
        out += (masks & cm) == cm
    return out


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a nonnegative array, sorted (np.unique would
    import numpy.ma on its first call)."""
    a = np.sort(a)
    return a[np.diff(a, prepend=-1) != 0]


def _copy_unions(P: Pattern, n: int, count: int, disjoint: bool) -> np.ndarray:
    """Edge masks whose up-closure is a structural event on n vertices:
    the unions of `count` vertex-disjoint copies (disjoint), or the connected
    copy unions with at least `count` copies (spanned).

    Breadth-first from the copies in K_n: a union U not yet kept grows by
    every copy whose vertex star (the pairs at its vertices) meets U or, when
    disjoint, misses U, that is shares no vertex with U. A spanned U's copies
    lie in one overlap component, and growing through any component of G
    reaches a union inside G with `count` copies; its copies are counted by
    testing each copy mask. Each level is sorted, deduplicated and rid of
    the unions reached before (a searchsorted against their sorted masks),
    so each union grows once; d disjoint copies sit at level d. A count
    <= 0 marks the empty graph.
    """
    _exact_slots(n)
    if count <= 0:
        return np.zeros(1, dtype=np.int64)
    masks, stars = _kn_copies(P, n)
    rows = SPAN_CHUNK // max(1, len(masks))  # >= 1: K_7 holds at most 7! copies
    level = seen = np.sort(masks)
    found, d = [masks[:0]], 1  # found stays one empty array if K_n has no copy
    while level.size:
        done = (np.full(level.size, d >= count) if disjoint
                else mask_copy_counts(P, n, level) >= count)
        found.append(level[done])
        level = level[~done]
        grown = [masks[:0]]
        for start in range(0, level.size, rows):
            u = level[start:start + rows, None]
            grown.append(_distinct((u | masks)[((u & stars) != 0) != disjoint]))
        level = _distinct(np.concatenate(grown))
        at = np.minimum(np.searchsorted(seen, level), seen.size - 1)
        level = level[seen[at] != level]
        seen = np.sort(np.concatenate((seen, level)))
        d += 1
    return np.concatenate(found)


@dataclass(frozen=True)
class CopiesAtLeast:
    """Event: the graph contains at least k copies of the pattern."""

    pattern: Pattern
    k: int


@dataclass(frozen=True)
class DisjointCopies:
    """Event: there are s pairwise vertex-disjoint copies of the pattern."""

    pattern: Pattern
    s: int

    def unions(self, n: int) -> np.ndarray:
        return _copy_unions(self.pattern, n, self.s, disjoint=True)


@dataclass(frozen=True)
class HasSpannedWithCopies:
    """Event: some connected union of `count` distinct copies exists, i.e.
    the graph has a spanned subgraph spanned by that many copies."""

    pattern: Pattern
    count: int

    def unions(self, n: int) -> np.ndarray:
        return _copy_unions(self.pattern, n, self.count, disjoint=False)


def _weights_by_popcount(m_slots: int, p: float) -> np.ndarray:
    """p**j * (1-p)**(m_slots - j) for j = 0..m_slots, computed in log space."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    w = np.zeros(m_slots + 1)
    if p == 0.0:
        w[0] = 1.0
        return w
    if p == 1.0:
        w[m_slots] = 1.0
        return w
    lp, lq = math.log(p), math.log1p(-p)
    for j in range(m_slots + 1):
        w[j] = math.exp(j * lp + (m_slots - j) * lq)
    return w


def _copies_at_least(event):
    """The k for which the event is "at least k copies of its pattern", or
    None. One disjoint copy, or one connected union of a single copy, is just
    a copy; zero of either is the empty graph, which every graph contains."""
    if isinstance(event, CopiesAtLeast):
        return event.k
    if isinstance(event, DisjointCopies) and event.s <= 1:
        return event.s
    if isinstance(event, HasSpannedWithCopies) and event.count <= 1:
        return event.count
    return None


@lru_cache(maxsize=64)
def _event_histogram(event, n: int) -> np.ndarray:
    """Number of labeled graphs on n vertices satisfying the event at each
    edge count 0..C(n,2). A copies-at-least event sums the columns k and up
    of its pattern's count histogram, so it runs no closure of its own; any
    other event peels the bool closure of its copy unions. Either way every
    entry is an exact integer in float64. The event is a frozen dataclass,
    so it keys the cache; a refused build (TooLargeError) raises and is not
    cached."""
    k = _copies_at_least(event)
    if k is not None:
        hist = _count_histogram(event.pattern, n)[:, max(k, 0):].sum(axis=1)
    else:
        hist = _peeled_histogram(n, event.unions(n), bool, 2)[:, 1].copy()
    hist.setflags(write=False)
    return hist


def exact_probability(model, pred) -> float:
    """Exact probability of the event under G(n, p): the weight
    p**m (1-p)**(C(n,2)-m) summed over the satisfying labeled graphs, one
    dot product of the weights with the event's cached edge-count histogram."""
    n = model.n
    w = _weights_by_popcount(n * (n - 1) // 2, model.p)
    return float(np.dot(_event_histogram(pred, n), w))


@lru_cache(maxsize=32)
def _count_histogram(P: Pattern, n: int) -> np.ndarray:
    """Number of labeled graphs on n vertices with each (edge count, copy
    count) pair, as a read-only (C(n,2)+1) x (max copies+1) array: the
    peeled count closure of K_n's copy masks."""
    _exact_slots(n)  # refuses n before K_n's copies are listed
    masks = _kn_copies(P, n)[0]
    return _peeled_histogram(n, masks, np.uint16, len(masks) + 1)


def tail_probability_table(P: Pattern, n: int, p: float) -> np.ndarray:
    """P(copy count >= k) for k = 0..max over all labeled graphs; entry [k]."""
    w = _weights_by_popcount(n * (n - 1) // 2, p)
    mass_by_count = w @ _count_histogram(P, n)  # probability of exactly j copies
    return np.cumsum(mass_by_count[::-1])[::-1]
