import math
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    copies_in_complete_graph,
    copies_in_graph,
    copies_through_edge,
    copy_count_array,
    count_automorphisms,
    edge_rooted_oracle,
    event_mask_array,
    exact_probability_oracle,
    has_disjoint_copies,
    max_component_copies,
    outside_edge_oracle,
    planted_expectation_oracle,
    rooted_copies_through_edge,
    subset_closure_oracle,
    subset_copy_count,
)
from regtail import counting
from regtail.cli import _load_pattern
from regtail.cli import main as cli_main
from regtail.counting import (
    CopiesAtLeast,
    DisjointCopies,
    HasSpannedWithCopies,
    PlantedModel,
    count_copies,
    count_injective_homs,
    edge_rooted_expectation,
    edge_rooted_outside_sum,
    exact_probability,
    iter_copies,
    planted_edge_delta,
    planted_edge_deltas,
    planted_expectation,
    tail_probability_table,
)
from regtail.errors import BudgetExceededError, DomainError, EdgeAbsentError, TooLargeError
from regtail.graphs import (
    GnpModel,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    make_pattern,
    named_pattern,
    write_edge_list,
)
from regtail.verify import sweep_peel


def test_hom_counts(k3, c4, k5):
    assert count_injective_homs(k3, complete_graph(4)) == 24
    assert count_injective_homs(k3, SimpleGraph(5)) == 0
    assert count_injective_homs(c4, complete_graph(4)) == 24


def test_count_automorphisms(c4, monkeypatch):
    assert count_automorphisms(complete_graph(5)) == 120
    assert count_automorphisms(c4.graph) == 8
    assert count_automorphisms(SimpleGraph(5, [(0, 1), (1, 2), (2, 3)])) == 2
    monkeypatch.setattr(counting, "DEFAULT_MAP_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        count_automorphisms(complete_graph(6))


def test_copy_counts(k3, c4):
    assert count_copies(k3, complete_graph(5)) == 10
    assert count_copies(c4, complete_graph(4)) == 3
    assert count_copies(k3, complete_graph(3)) == 1


def test_iter_copies(k3):
    copies = iter_copies(k3, complete_graph(4))
    assert len(copies) == 4
    assert all(len(c) == 3 for c in copies)


def test_count_through_edge(k3, k5):
    assert rooted_copies_through_edge(k3, complete_graph(4), (0, 1)) == 2
    tri = complete_graph(3)
    assert rooted_copies_through_edge(k3, tri, (1, 2)) == 1
    with pytest.raises(EdgeAbsentError):  # the rooted sums' own edge check
        edge_rooted_expectation(k3, PlantedModel(4, 0.5, SimpleGraph(4)), (0, 1))
    # sum over edges counts each copy once per its edges
    g = complete_graph(5)
    total = sum(rooted_copies_through_edge(k3, g, e) for e in g.edges)
    assert total == k3.edge_count * count_copies(k3, g)


def test_edge_sum_identity_randomized(k3, c4):
    rng = np.random.default_rng(31)
    for pat in (k3, c4):
        for _ in range(20):
            n = int(rng.integers(pat.q, 9))
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = SimpleGraph(n, edges)
            through = [rooted_copies_through_edge(pat, g, e) for e in g.edges]
            assert through == [copies_through_edge(pat, g, e) for e in g.edges]
            assert sum(through) == pat.edge_count * count_copies(pat, g)


def test_monotone_under_edge_addition(k3, c4):
    rng = np.random.default_rng(41)
    for pat in (k3, c4):
        for _ in range(25):
            n = int(rng.integers(pat.q, 9))
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            missing = [e for e in combinations(range(n), 2) if e not in set(edges)]
            if not missing:
                continue
            extra = missing[int(rng.integers(0, len(missing)))]
            g = SimpleGraph(n, edges)
            g2 = SimpleGraph(n, edges + [extra])
            assert count_copies(pat, g2) >= count_copies(pat, g)
            p = float(rng.uniform(0.1, 0.9))
            assert planted_expectation(pat, PlantedModel(n, p, g2)) >= planted_expectation(
                pat, PlantedModel(n, p, g)
            ) - 1e-12


def test_kernel_matches_subset_oracle_randomized(k3, c4, k4):
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        p = float(rng.uniform(0.2, 0.9))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        g = SimpleGraph(n, edges)
        for pat in (k3, c4, k4):
            assert count_copies(pat, g) == subset_copy_count(pat.graph.edges, edges)


def test_budget_exceeded(k3, monkeypatch):
    count_injective_homs(k3, complete_graph(7))  # builds the plan at the default limit
    monkeypatch.setattr(counting, "DEFAULT_MAP_BUDGET", 5)
    with pytest.raises(BudgetExceededError):
        count_injective_homs(k3, complete_graph(7))


def test_planted_expectation_closed_forms(k3):
    model = PlantedModel(10, 0.1, SimpleGraph(10))
    assert planted_expectation(k3, model) == pytest.approx(
        math.comb(10, 3) * 0.1**3, rel=1e-12
    )
    # fully planted host: copy count, independent of p
    kn = complete_graph(5)
    for p in (0.1, 0.5, 0.9):
        model = PlantedModel(5, p, kn)
        assert planted_expectation(k3, model) == pytest.approx(10.0, rel=1e-12)


def test_planted_expectation_vs_oracle(k3, c4):
    rng = np.random.default_rng(3)
    for pat in (k3, c4):
        for _ in range(20):
            n = int(rng.integers(pat.q, 8))
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            p = float(rng.uniform(0.05, 0.9))
            got = planted_expectation(pat, PlantedModel(n, p, SimpleGraph(n, edges)))
            want = planted_expectation_oracle(pat.graph.edges, n, p, edges) / 1.0
            assert got == pytest.approx(want, rel=1e-10)


def test_planted_expectation_p_to_one_limit(k3):
    # as p -> 1 the expectation approaches the copy count of K_n
    tri = SimpleGraph(6, [(0, 1), (1, 2), (0, 2)])
    model = PlantedModel(6, 1 - 1e-12, tri)
    assert planted_expectation(k3, model) == pytest.approx(
        count_copies(k3, complete_graph(6)), rel=1e-9
    )


def test_planted_budget(k4, monkeypatch):
    # the budget counts partial assignments over all subset terms together
    model = PlantedModel(20, 0.1, complete_graph(9))
    planted_edge_deltas(k4, model)  # builds the plans at the default limit
    monkeypatch.setattr(counting, "DEFAULT_PLANTED_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        planted_edge_deltas(k4, model)
    with pytest.raises(BudgetExceededError):
        planted_expectation(k4, model)


def test_planted_empty_graph_is_a_closed_form(k3, monkeypatch):
    # only the empty subset contributes, and it enumerates nothing
    monkeypatch.setattr(counting, "DEFAULT_PLANTED_BUDGET", 1)
    got = planted_expectation(k3, PlantedModel(1000, 0.5, SimpleGraph(3)))
    assert got == pytest.approx(0.5**3 * math.comb(1000, 3), rel=1e-12)


def test_orbit_table_is_capped():
    """A table of more than MAX_ORBIT_MEMBERS members is refused before any
    member is listed: K8's 2^28 subsets would exhaust memory, and K7's rooted
    table holds 21 * 2^21 pairs."""
    k8 = make_pattern(complete_graph(8))
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        planted_expectation(k8, PlantedModel(20, 0.1, complete_graph(8)))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(TooLargeError):
        edge_rooted_expectation(make_pattern(complete_graph(7)),
                                PlantedModel(7, 0.5, complete_graph(7)), (0, 1))


def _disjoint_copies(pat, count):
    """count vertex-disjoint copies of the pattern, on labels 0..count*q-1."""
    q = pat.q
    return [(u + c * q, v + c * q) for c in range(count) for u, v in pat.graph.edges]


def test_planted_edge_deltas_vs_oracle(k3, c4, k4):
    rng = np.random.default_rng(29)
    cases = []
    for pat in (k3, c4, k4):
        for _ in range(6):
            support = int(rng.integers(pat.q, 7))
            while True:
                edges = [e for e in combinations(range(support), 2) if rng.random() < 0.6]
                if edges:
                    break
            cases.append((pat, support + int(rng.integers(1, 3)), edges))
        cases.append((pat, 2 * pat.q + 1, _disjoint_copies(pat, 2)))
    for pat, n, edges in cases:
        p = float(rng.uniform(0.05, 0.9))
        model = PlantedModel(n, p, SimpleGraph(n, edges))
        expectation, deltas = planted_edge_deltas(pat, model)
        want = planted_expectation_oracle(pat.graph.edges, n, p, edges)
        assert expectation == pytest.approx(want, rel=1e-10)
        assert set(deltas) == set(model.planted.edges)
        for f in edges:
            rooted = edge_rooted_oracle(pat.graph.edges, n, p, edges, f)
            assert deltas[f] == pytest.approx((1 - p) * rooted, rel=1e-10)
            assert deltas[f] == pytest.approx(planted_edge_delta(pat, model, f)[0], rel=1e-12)


@pytest.mark.parametrize("name, unrooted, rooted", [
    ("k3", 4, 4), ("c4", 6, 8), ("k4", 11, 20), ("k5", 34, 120),
])
def test_orbit_table(name, unrooted, rooted):
    h = named_pattern(name).graph
    e_h = h.m
    table = counting._orbit_table(h, False)
    assert len(table) == unrooted
    assert all(pins == () for pins, *_ in table)
    assert sum(size for _, _, size, _ in table) == 1 << e_h
    table = counting._orbit_table(h, True)
    assert len(table) == rooted
    assert sum(size for _, _, size, _ in table) == e_h << e_h
    for (u, v), bits, *_ in table:
        i = h.edges.index((min(u, v), max(u, v)))
        assert bits >> i & 1


# two triangles joined by a perfect matching: 3-regular, 12 automorphisms,
# and its triangle and matching edges lie in different edge orbits
_PRISM = make_pattern(SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                      (0, 3), (1, 4), (2, 5)]))


@pytest.mark.parametrize("seed", range(4))
def test_prism_vs_oracles(seed):
    """The orbit-weighted planted sums and the pinned copy count on a
    pattern that is regular but not edge-transitive, against the oracles,
    on a random planted graph around a planted prism copy."""
    rng = np.random.default_rng(seed)
    pat = _PRISM
    n = 7 + seed % 2
    labels = rng.permutation(n).tolist()
    planted = {tuple(sorted((labels[u], labels[v]))) for u, v in pat.graph.edges}
    planted |= {e for e in combinations(range(n), 2) if rng.random() < 0.3}
    edges = sorted(planted)
    g = SimpleGraph(n, edges)
    p = float(rng.uniform(0.1, 0.9))
    model = PlantedModel(n + 1, p, g)
    expectation, deltas = planted_edge_deltas(pat, model)
    want = planted_expectation_oracle(pat.graph.edges, n + 1, p, edges)
    assert expectation == pytest.approx(want, rel=1e-10)
    for f in edges[seed::5]:
        rooted = edge_rooted_oracle(pat.graph.edges, n + 1, p, edges, f)
        assert edge_rooted_expectation(pat, model, f) == pytest.approx(rooted, rel=1e-10)
        assert deltas[f] == pytest.approx((1 - p) * rooted, rel=1e-10)
        without = [e for e in edges if e != f]
        through = subset_copy_count(pat.graph.edges, edges) - subset_copy_count(
            pat.graph.edges, without)
        assert rooted_copies_through_edge(pat, g, f) == through


# Sparse planted graphs on 9 labels, on which most planted terms have no
# map: a matching, a path, a star, and a triangle with a pendant edge.
SPARSE = {
    "matching": [(0, 1), (2, 3), (4, 5), (6, 7)],
    "path": [(i, i + 1) for i in range(6)],
    "star": [(0, i) for i in range(1, 7)],
    "pendant": [(0, 1), (1, 2), (0, 2), (2, 3)],
}


@pytest.mark.parametrize("shape", SPARSE)
@pytest.mark.parametrize("name", ("k3", "c4", "k4"))
def test_pruned_planted_sums_match_oracles(name, shape):
    """The planted sums skip each term that a predecessor with no map rules
    out. The expectation, the credits, every rooted expectation and its
    outside part still match the oracles."""
    P = named_pattern(name)
    n, p, edges = 9, 0.3, SPARSE[shape]
    g = SimpleGraph(n, edges)
    model = PlantedModel(n, p, g)
    want = planted_expectation_oracle(P.graph.edges, n, p, edges)
    assert planted_expectation(P, model) == pytest.approx(want, rel=1e-10)
    expectation, deltas = planted_edge_deltas(P, model)
    assert expectation == pytest.approx(want, rel=1e-10)
    for f in edges:
        rooted = edge_rooted_oracle(P.graph.edges, n, p, edges, f)
        assert edge_rooted_expectation(P, model, f) == pytest.approx(rooted, rel=1e-10)
        assert deltas[f] == pytest.approx((1 - p) * rooted, rel=1e-10)
        outside = outside_edge_oracle(P.graph.edges, n, p, edges, f)
        assert edge_rooted_outside_sum(P, model, f) == pytest.approx(outside, rel=1e-10)


@pytest.mark.parametrize("call", ("expectation", "credits", "rooted"))
def test_ruled_out_terms_run_no_kernel(c4, call, monkeypatch):
    """On a planted matching, C4's terms with two adjacent edges have no
    map. The kernel runs for exactly the terms none of whose predecessors
    counted 0, fewer than all of them."""
    g = SimpleGraph(9, SPARSE["matching"])
    model = PlantedModel(9, 0.3, g)
    rooted = call == "rooted"
    root = (2, 3) if rooted else ()
    terms = counting._planted_terms(c4.graph, rooted)
    counts = [counting._count_maps(term[0], g, root, [10**9]) for term in terms]
    want = [term[0] for term in terms
            if all(counts[j] for j in range(len(terms)) if term[7] >> j & 1)]
    assert len(want) < len(terms)
    kernel, plans = counting._count_maps, []

    def spied(plan, *rest):
        plans.append(plan)
        return kernel(plan, *rest)

    monkeypatch.setattr(counting, "_count_maps", spied)
    if rooted:
        edge_rooted_expectation(c4, model, root)
    elif call == "credits":
        planted_edge_deltas(c4, model)
    else:
        planted_expectation(c4, model)
    assert plans == want


def test_plan_cache_is_bounded():
    info = counting._plan.cache_info()
    assert info.maxsize == counting.PLAN_CACHE_SIZE
    assert sweep_peel(("k3", "c4"), (2, 8), n=30) == []
    info = counting._plan.cache_info()
    assert 0 < info.currsize <= counting.PLAN_CACHE_SIZE
    # every unrooted and rooted orbit plan of K5, symmetry conditions included,
    # stays cached: a second run builds none
    k5 = named_pattern("k5")
    model = PlantedModel(12, 0.3, complete_graph(6))

    def run():
        planted_edge_deltas(k5, model)
        edge_rooted_expectation(k5, model, (0, 1))

    run()
    misses = counting._plan.cache_info().misses
    run()
    assert counting._plan.cache_info().misses == misses


def test_edge_delta_closed_forms(k3):
    # single planted edge: delta = (1-p)(n-2)p^2
    n, p = 10, 0.1
    one = SimpleGraph(n, [(0, 1)])
    delta, rooted = planted_edge_delta(k3, PlantedModel(n, p, one), (0, 1))
    assert delta == pytest.approx((1 - p) * (n - 2) * p**2, rel=1e-12)
    assert rooted == pytest.approx((n - 2) * p**2, rel=1e-12)
    # planted triangle: delta = (1-p)(1 + (n-3)p^2)
    tri = SimpleGraph(n, [(0, 1), (1, 2), (0, 2)])
    delta, rooted = planted_edge_delta(k3, PlantedModel(n, p, tri), (0, 1))
    assert delta == pytest.approx((1 - p) * (1 + (n - 3) * p**2), rel=1e-12)
    with pytest.raises(EdgeAbsentError):
        planted_edge_delta(k3, PlantedModel(n, p, tri), (0, 5))


def test_edge_delta_is_expectation_difference(k3, c4):
    rng = np.random.default_rng(17)
    for _ in range(100):
        pat = (k3, c4)[int(rng.integers(0, 2))]
        n = int(rng.integers(pat.q, 11))
        while True:
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            if edges:
                break
        p = float(rng.uniform(0.05, 0.95))
        g = SimpleGraph(n, edges)
        f = edges[int(rng.integers(0, len(edges)))]
        delta, _ = planted_edge_delta(pat, PlantedModel(n, p, g), f)
        without = SimpleGraph(n, (e for e in edges if e != f))
        diff = planted_expectation(pat, PlantedModel(n, p, g)) - planted_expectation(
            pat, PlantedModel(n, p, without)
        )
        assert delta == pytest.approx(diff, rel=1e-12, abs=1e-15)


def test_edge_rooted_vs_oracle(k3, c4):
    rng = np.random.default_rng(23)
    for pat in (k3, c4):
        for _ in range(10):
            n = int(rng.integers(pat.q, 8))
            while True:
                edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
                if edges:
                    break
            p = float(rng.uniform(0.1, 0.9))
            g = SimpleGraph(n, edges)
            f = edges[0]
            _, rooted = planted_edge_delta(pat, PlantedModel(n, p, g), f)
            want = edge_rooted_oracle(pat.graph.edges, n, p, edges, f)
            assert rooted == pytest.approx(want, rel=1e-10)
            outside = edge_rooted_outside_sum(pat, PlantedModel(n, p, g), f)
            inside = copies_through_edge(pat, g, f)
            assert outside == pytest.approx(want - inside, rel=1e-9, abs=1e-12)


def test_exact_probability_basics(k3):
    model = GnpModel(3, 0.3)
    assert exact_probability(model, CopiesAtLeast(k3, 0)) == pytest.approx(1.0)
    assert exact_probability(model, CopiesAtLeast(k3, 1)) == pytest.approx(0.3**3)
    with pytest.raises(TooLargeError):
        exact_probability(GnpModel(8, 0.1), CopiesAtLeast(k3, 1))


@pytest.mark.parametrize("p", (0.0, 1.0))
def test_exact_layer_at_p_0_and_1(p, k3, c4):
    """G(n, 0) is the empty graph and G(n, 1) is K_n: each event has
    probability 1 if that graph has it and 0 otherwise."""
    for pat, n in ((k3, 6), (c4, 5)):
        host = complete_graph(n) if p == 1.0 else SimpleGraph(n)
        copies = copies_in_graph(pat.graph.edges, n, host.edges)
        table = tail_probability_table(pat, n, p)
        assert table.tolist() == [float(k <= len(copies)) for k in range(len(table))]
        model = GnpModel(n, p)
        for event, holds in (
            (CopiesAtLeast(pat, len(copies)), True),
            (CopiesAtLeast(pat, len(copies) + 1), False),
            (DisjointCopies(pat, 2), has_disjoint_copies(copies, 2)),
            (HasSpannedWithCopies(pat, 2), max_component_copies(copies) >= 2),
        ):
            assert exact_probability(model, event) == float(holds), (pat, n, event)


def test_exact_probability_against_direct_enumeration(k3, c4):
    for pat, n, p in ((k3, 4, 0.3), (k3, 5, 0.15), (c4, 5, 0.4)):
        for kind, arg, pred in (
            ("at_least", 1, CopiesAtLeast(pat, 1)),
            ("at_least", 2, CopiesAtLeast(pat, 2)),
            ("disjoint", 1, DisjointCopies(pat, 1)),
            ("spanned", 2, HasSpannedWithCopies(pat, 2)),
        ):
            want = exact_probability_oracle(pat.graph.edges, n, p, kind, arg)
            got = exact_probability(GnpModel(n, p), pred)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_exact_arrays_refuse_n8(k3):
    listed = counting._kn_copies.cache_info().misses
    with pytest.raises(TooLargeError):
        copy_count_array(k3, 8)
    assert counting._kn_copies.cache_info().misses == listed  # refused before listing
    with pytest.raises(TooLargeError):
        counting._popcounts(8)
    with pytest.raises(TooLargeError):
        exact_probability(GnpModel(8, 0.2), CopiesAtLeast(k3, 1))
    with pytest.raises(TooLargeError):
        event_mask_array(DisjointCopies(k3, 2), 8)
    with pytest.raises(TooLargeError):
        event_mask_array(HasSpannedWithCopies(k3, 2), 8)


_K3, _C4, _K4 = (named_pattern(name) for name in ("k3", "c4", "k4"))
_EVENTS = (
    DisjointCopies(_K3, 2),
    HasSpannedWithCopies(_K3, 3),
    HasSpannedWithCopies(_C4, 3),
    HasSpannedWithCopies(_K3, 4),
    HasSpannedWithCopies(_C4, 4),
)


@lru_cache(maxsize=None)
def _event_array(event, n):
    return event_mask_array(event, n)


def _oracle_holds(event, copies):
    """The event on a host whose copies of the event's pattern are listed."""
    if isinstance(event, DisjointCopies):
        return has_disjoint_copies(copies, event.s)
    return max_component_copies(copies) >= event.count


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", (0.25, 0.4, 0.55, 0.7))
@pytest.mark.parametrize("n", (6, 7))
def test_exact_arrays_match_direct_counts(n, p, seed):
    """Every exact array entry agrees with the event or count evaluated on
    the graph its mask encodes (bit i is the i-th pair in row-major order),
    for seeded G(n, p) draws with p spread so that each event holds and fails."""
    pairs = list(combinations(range(n), 2))
    present = np.random.default_rng(seed).random(len(pairs)) < p
    mask = sum(1 << i for i in np.flatnonzero(present).tolist())
    g = SimpleGraph(n, [e for e, keep in zip(pairs, present) if keep])
    for event in _EVENTS:
        copies = copies_in_graph(event.pattern.graph.edges, n, g.edges)
        assert bool(_event_array(event, n)[mask]) == _oracle_holds(event, copies), event
    for pat in (_K3, _C4, _K4):
        assert int(copy_count_array(pat, n)[mask]) == count_copies(pat, g)
    assert int(counting._popcounts(n)[mask]) == g.m


@pytest.mark.parametrize("pat", (_K3, _C4), ids=("k3", "c4"))
def test_spanned_arrays_exhaustive_n5(pat):
    """Every one of the 1,024 graphs on 5 vertices, for every count from 0
    to 5 and one above the copies of K5: the array entry is the oracle's
    largest overlap component against the count."""
    pairs = list(combinations(range(5), 2))
    largest = [max_component_copies(copies_in_graph(
        pat.graph.edges, 5, [e for i, e in enumerate(pairs) if mask >> i & 1]))
        for mask in range(1 << len(pairs))]
    above = len(iter_copies(pat, complete_graph(5))) + 1
    for count in (*range(6), above):
        got = event_mask_array(HasSpannedWithCopies(pat, count), 5).tolist()
        assert got == [size >= count for size in largest], count


def test_disjoint_array_exhaustive_n6(k3):
    """Every one of the 32,768 graphs on 6 vertices: the entry of the
    two-disjoint-triangles array is the oracle's backtracking search over
    the triangles of K6 that the graph contains."""
    slot = {e: i for i, e in enumerate(combinations(range(6), 2))}
    triangles = copies_in_complete_graph(k3.graph.edges, 6)
    tri_masks = [sum(1 << slot[e] for e in c) for c in triangles]
    want = [has_disjoint_copies([c for c, cm in zip(triangles, tri_masks) if mask & cm == cm], 2)
            for mask in range(1 << len(slot))]
    got = event_mask_array(DisjointCopies(k3, 2), 6)
    assert got.tolist() == want
    assert int(got.sum()) == 4106


@pytest.mark.parametrize("dtype", (bool, np.uint8, np.uint16))
@pytest.mark.parametrize("n", range(2, 8))
def test_subset_closure_matches_one_view_fold(n, dtype):
    """The closure's per-column fold of the low edge slots gives the one-view
    fold's array bit for bit, on no marks, the full mask and seeded sets."""
    full = (1 << n * (n - 1) // 2) - 1
    rng = np.random.default_rng(n)
    for marked in ([], [full], [0], rng.integers(0, full + 1, 5), rng.integers(0, full + 1, 300)):
        marked = [int(m) for m in marked]
        got = counting._subset_closure(n, marked, dtype)
        want = subset_closure_oracle(n, marked, dtype)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_subset_closure_takes_arrays_as_they_are(monkeypatch):
    """An int64 array of marks is indexed directly, not copied element by
    element through np.fromiter; a lazy iterable stays unconsumed when n is
    refused."""
    marked = np.random.default_rng(0).integers(0, 1 << 15, 200)
    want = subset_closure_oracle(6, marked, np.uint16)

    def refused(*args, **kwargs):
        raise AssertionError("np.fromiter on an ndarray")

    monkeypatch.setattr(np, "fromiter", refused)
    assert counting._subset_closure(6, marked, np.uint16).tobytes() == want.tobytes()
    monkeypatch.undo()
    drawn = []
    lazy = (drawn.append(b) or b for b in range(3))
    with pytest.raises(TooLargeError):
        counting._subset_closure(8, lazy, bool)
    assert drawn == []


def _clear_exact_caches():
    for cached in (counting._popcounts, copy_count_array,
                   counting._event_histogram, counting._count_histogram):
        cached.cache_clear()


def _count_closures(monkeypatch):
    """Record (n, dtype) of every subset closure run from here on."""
    dtypes = []
    closure = counting._subset_closure

    def counted(n, marked, dtype):
        dtypes.append((n, dtype))
        return closure(n, marked, dtype)

    monkeypatch.setattr(counting, "_subset_closure", counted)
    return dtypes


def test_exact_layer_builds_each_array_once(monkeypatch, k3, capsys):
    """A cold verify bk peels the copy-count histogram, which answers one
    disjoint copy, and the two-disjoint-copies histogram once per n and not
    once per p: each runs one closure over K_6 per star size 0..6 of
    vertex 0, and none over K_7. Later tail tables and copies-at-least
    probabilities at new p values run no closure."""
    dtypes = _count_closures(monkeypatch)
    _clear_exact_caches()
    assert cli_main(["verify", "bk", "--n", "7"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert dtypes == [(6, np.uint16)] * 7 + [(6, bool)] * 7
    for p in (0.2, 0.3):
        tail_probability_table(k3, 7, p)
    for k in range(4):
        exact_probability(GnpModel(7, 0.25), CopiesAtLeast(k3, k))
    assert len(dtypes) == 14
    for p in (0.15, 0.3, 0.6):
        for kind, arg, pred in (("at_least", 2, CopiesAtLeast(k3, 2)),
                                ("disjoint", 1, DisjointCopies(k3, 1))):
            want = exact_probability_oracle(k3.graph.edges, 5, p, kind, arg)
            assert exact_probability(GnpModel(5, p), pred) == pytest.approx(want, rel=1e-9)


def test_spanned_histogram_runs_no_count_closure(monkeypatch, c4):
    """A cold spanned-copies histogram runs no copy-count closure (its
    search counts a union's copies by testing each copy mask): one bool
    closure over K_5 per star size 0..5 of vertex 0, once, and its
    full-array reference one bool closure over K_6."""
    dtypes = _count_closures(monkeypatch)
    _clear_exact_caches()
    event = HasSpannedWithCopies(c4, 3)
    for p in (0.2, 0.4):
        exact_probability(GnpModel(6, p), event)
    assert dtypes == [(5, bool)] * 6
    event_mask_array(event, 6)
    assert dtypes[6:] == [(6, bool)]
    with pytest.raises(TooLargeError):
        event_mask_array(event, 8)


@pytest.mark.parametrize("pat", (_K3, _C4, _K4), ids=("k3", "c4", "k4"))
def test_copies_at_least_histograms_match_their_arrays(monkeypatch, pat):
    """Every event's peeled histogram equals byte for byte the bincount of
    independent popcounts over the event's full array, at n = 2..7: every
    copies-at-least event (k from -1 to one above the most copies, s and
    count from -1 to 1), which with the count histogram cached runs no
    closure, and the structural events DisjointCopies with s = 2, 3 and
    HasSpannedWithCopies with count = 2..4. The count histogram itself
    equals the bincount of (popcount, copy count) over the full array."""
    for n in range(2, 8):
        m_slots = n * (n - 1) // 2
        masks = np.arange(1 << m_slots)
        pc = sum((masks >> b) & 1 for b in range(m_slots))
        counts = copy_count_array(pat, n)
        width = int(counts.max()) + 1
        want = np.bincount(pc * width + counts, minlength=(m_slots + 1) * width)
        counting._count_histogram.cache_clear()
        assert counting._count_histogram(pat, n).tobytes() == \
            want.astype(np.float64).reshape(-1, width).tobytes(), n
        arrays = [(CopiesAtLeast(pat, k), counts >= k) for k in range(-1, width + 1)]
        small = [DisjointCopies(pat, s) for s in (-1, 0, 1)]
        small += [HasSpannedWithCopies(pat, c) for c in (-1, 0, 1)]
        arrays += [(event, event_mask_array(event, n)) for event in small]
        structural = [DisjointCopies(pat, s) for s in (2, 3)]
        structural += [HasSpannedWithCopies(pat, c) for c in (2, 3, 4)]
        structural = [(event, event_mask_array(event, n)) for event in structural]
        counting._event_histogram.cache_clear()
        dtypes = _count_closures(monkeypatch)
        for i, (event, bits) in enumerate(arrays + structural):
            if i == len(arrays):
                assert dtypes == []  # the copies-at-least events so far
            want = np.bincount(pc[bits], minlength=m_slots + 1).astype(np.float64)
            assert counting._event_histogram(event, n).tobytes() == want.tobytes(), (event, n)
        monkeypatch.undo()


def test_exact_layer_refuses_invalid_input(k3):
    """Negative n and p outside [0, 1] (nan included) are domain errors, as
    in GnpModel."""
    with pytest.raises(DomainError):
        copy_count_array(k3, -3)
    with pytest.raises(DomainError):
        counting._popcounts(-1)
    with pytest.raises(DomainError):
        tail_probability_table(k3, -1, 0.3)
    for p in (1.5, -0.2, float("nan")):
        with pytest.raises(DomainError):
            tail_probability_table(k3, 6, p)


def test_exact_histograms_read_only(k3):
    event = DisjointCopies(k3, 2)
    for hist in (counting._event_histogram(event, 6), counting._count_histogram(k3, 6)):
        with pytest.raises(ValueError):
            hist[0] = 1.0
    first = exact_probability(GnpModel(6, 0.2), event), tail_probability_table(k3, 6, 0.2)
    _clear_exact_caches()
    again = exact_probability(GnpModel(6, 0.2), event), tail_probability_table(k3, 6, 0.2)
    assert first[0] == again[0]
    assert first[1].tobytes() == again[1].tobytes()


def test_exact_budget_refusal_not_cached(monkeypatch, k3):
    """n = 8 is refused on every call, before any array over the 2^28
    masks exists: neither the probability nor the event's search allocates
    one."""
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert np.prod(shape) < 1 << 28, shape
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    event = DisjointCopies(k3, 2)
    for _ in range(2):
        with pytest.raises(TooLargeError):
            exact_probability(GnpModel(8, 0.2), event)
        with pytest.raises(TooLargeError):
            event_mask_array(event, 8)


def test_exact_layer_allocates_no_array_over_the_masks(k3, capsys):
    """With cold caches, n = 7 tail tables, structural-event histograms and
    a scan's Monte Carlo allocate no array over the 2^21 masks of K_7:
    tracemalloc, which sees numpy's buffers, peaks below 2 MiB, the size of
    the smallest such array (the full arrays peak at 6 MiB and more). The
    CLI is warmed at n = 5 first, so that its one-time allocations are not
    counted."""
    p = 1 / 7
    scan = ["scan", "--pattern", "k3", "--kmax", "4", "--samples", "2000", "--format", "csv"]
    assert cli_main(scan + ["--n", "5"]) == 0
    for call in (lambda: tail_probability_table(k3, 7, p),
                 lambda: exact_probability(GnpModel(7, p), DisjointCopies(k3, 2)),
                 lambda: counting._event_histogram(HasSpannedWithCopies(k3, 2), 7),
                 lambda: cli_main(scan + ["--n", "7"])):
        _clear_exact_caches()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 21, peak
    capsys.readouterr()


def test_exact_probability_monotone_in_p(k3):
    probs = [
        exact_probability(GnpModel(6, p), CopiesAtLeast(k3, 2))
        for p in (0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))


def test_tail_table_consistency(k3):
    tab = tail_probability_table(k3, 6, 1 / 6)
    assert tab[0] == pytest.approx(1.0)
    assert all(a >= b - 1e-15 for a, b in zip(tab, tab[1:]))
    for k in (1, 3):
        assert tab[k] == pytest.approx(
            exact_probability(GnpModel(6, 1 / 6), CopiesAtLeast(k3, k)), rel=1e-12
        )


def test_bk_instance(k3):
    model = GnpModel(6, 1 / 6)
    d1 = exact_probability(model, DisjointCopies(k3, 1))
    d2 = exact_probability(model, DisjointCopies(k3, 2))
    assert d2 <= d1 * d1


def test_planted_model_validation():
    with pytest.raises(DomainError):
        PlantedModel(5, 0.0, SimpleGraph(5))
    with pytest.raises(DomainError):
        PlantedModel(3, 0.5, SimpleGraph(5))


def test_planted_sums_vanish_below_the_pattern_size(k5):
    # a K5 has no copy among n = 4 labels: subset terms on more than 4
    # vertices have no maps and are skipped, the rest carry a zero weight
    model = PlantedModel(4, 0.3, complete_graph(4))
    assert planted_expectation(k5, model) == 0.0
    assert edge_rooted_expectation(k5, model, (0, 1)) == 0.0
    expectation, deltas = planted_edge_deltas(k5, model)
    assert expectation == 0.0
    assert list(deltas.values()) == [0.0] * 6


def _int64_copy_counts(P, n, masks):
    """Copy counts of int64 masks, one int64 pass per copy mask of K_n."""
    out = np.zeros(masks.shape, dtype=np.int64)
    for cm in counting._kn_copies(P, n)[0].tolist():
        out += (masks.astype(np.int64) & cm) == cm
    return out


def test_mask_copy_counts_match_an_int64_reference(tmp_path):
    # C7 has 360 copies in K7: int32 masks and int16 counts, on random
    # masks and the all-ones mask of K7
    path = tmp_path / "c7.edges"
    path.write_text(write_edge_list(cycle_graph(7)))
    P = _load_pattern(f"@{path}")
    assert len(counting._kn_copies(P, 7)[0]) == 360
    full = (1 << 21) - 1
    masks = np.append(np.random.default_rng(7).integers(0, 1 << 21, 2000), full)
    masks |= np.random.default_rng(8).integers(0, 1 << 21, masks.size)  # denser graphs
    got = counting.mask_copy_counts(P, 7, masks)
    assert got.dtype == np.int16
    assert got.tolist() == _int64_copy_counts(P, 7, masks).tolist()
    assert got[-1] == 360 and got[:-1].max() > 0
    k3 = named_pattern("k3")
    assert counting.mask_copy_counts(k3, 7, np.array([full])).tolist() == [35]


def test_mask_dtypes_follow_the_slots_and_the_copies():
    # int32 holds masks of up to 31 bits: C(8, 2) = 28 fits, C(9, 2) = 36 does not
    assert counting._mask_dtypes(7, 360) == (np.int32, np.int16)
    assert counting._mask_dtypes(8, 20160)[0] is np.int32
    assert counting._mask_dtypes(9, 20160) == (np.int64, np.int16)
    assert counting._mask_dtypes(5, 15)[0] is np.int16
    assert counting._mask_dtypes(9, 1 << 15)[1] is np.int32
