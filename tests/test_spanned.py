import random
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    component_labels_oracle,
    copies_in_graph,
    copies_through_edge,
    max_component_copies,
    subset_copy_count,
)
from regtail.counting import count_copies
from regtail.errors import DomainError, NotSpannedError
from regtail.graphs import SimpleGraph, complete_graph
from regtail.spanned import (
    dyadic_profile,
    glue_random_spanned,
    minimal_spanning_count,
    spanned_decompose,
    spanning_excess_report,
)

BOOK = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])  # two triangles on an edge


def test_decompose_two_triangles(k3):
    g = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    dec = spanned_decompose(k3, g)
    assert len(dec.components) == 2
    assert all(c.copy_count == 1 for c in dec.components)
    assert dec.dropped_edges == ()


def test_decompose_pendant(k3):
    g = SimpleGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    dec = spanned_decompose(k3, g)
    assert len(dec.components) == 1
    assert dec.dropped_edges == ((2, 3),)
    assert dec.components[0].copy_count == 1


def test_decompose_k4(k3):
    dec = spanned_decompose(k3, complete_graph(4))
    assert len(dec.components) == 1
    assert dec.components[0].copy_count == 4


def test_decompose_conservation(k3, c4):
    rng = np.random.default_rng(2)
    from itertools import combinations

    for _ in range(60):
        n = int(rng.integers(4, 9))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        g = SimpleGraph(n, edges)
        for pat in (k3, c4):
            dec = spanned_decompose(pat, g)
            assert dec.total_copies == count_copies(pat, g)
            for f in dec.dropped_edges:
                assert copies_through_edge(pat, g, f) == 0
            for comp in dec.components:
                assert set(component_labels_oracle(comp.graph.n, comp.graph.edges)) == {0}
                covered = set()
                for c in comp.copies:
                    covered |= c
                assert covered == set(comp.graph.edges)


def test_decompose_group_sizes_match_oracle(k3, c4):
    """On seeded G(n, p) draws the largest component's copy count is the
    oracle's largest overlap component, and the counts add up to all copies."""
    rng = np.random.default_rng(12)
    for _ in range(80):
        n, p = int(rng.integers(4, 10)), rng.uniform(0.2, 0.6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        for pat in (k3, c4):
            copies = copies_in_graph(pat.graph.edges, n, edges)
            dec = spanned_decompose(pat, SimpleGraph(n, edges))
            sizes = [c.copy_count for c in dec.components]
            assert max(sizes, default=0) == max_component_copies(copies)
            assert sum(sizes) == len(copies)


def test_minimal_spanning_count(k3):
    assert minimal_spanning_count(k3, complete_graph(3)) == 1
    assert minimal_spanning_count(k3, BOOK) == 2
    # two triangles of K_4 always share an edge, so their union misses one
    # of the six edges; three are needed
    assert minimal_spanning_count(k3, complete_graph(4)) == 3
    with pytest.raises(NotSpannedError):
        minimal_spanning_count(k3, SimpleGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    with pytest.raises(NotSpannedError):
        minimal_spanning_count(k3, SimpleGraph(2, ()))


def test_minimal_count_one_iff_single_copy(k3, c4):
    rng = random.Random(4)
    for pat in (k3, c4):
        for _ in range(40):
            g = glue_random_spanned(pat, rng.randrange(1, 4), rng, 20)
            l_star = minimal_spanning_count(pat, g)
            is_copy = g.m == pat.edge_count and subset_copy_count(
                pat.graph.edges, g.edges
            ) == 1
            assert (l_star == 1) == is_copy


def test_spanning_excess_examples(k3):
    rep = spanning_excess_report(k3, complete_graph(3))
    assert rep.f == 0.0 and rep.l_star == 1
    rep = spanning_excess_report(k3, SimpleGraph(5, complete_graph(3).edges))
    assert rep.f == 0.0  # isolated vertices are not counted
    rep = spanning_excess_report(k3, BOOK)
    assert rep.f == pytest.approx(1.0)
    assert rep.lower == pytest.approx(0.5)
    assert rep.f >= rep.lower
    rep = spanning_excess_report(k3, complete_graph(4))
    assert rep.f == pytest.approx(2.0)
    assert rep.f >= rep.lower


def test_dyadic_profile():
    prof = dyadic_profile([2, 3, 5, 8])
    assert prof.c == {1: 2, 2: 1, 3: 1}
    assert prof.t == 3
    assert prof.weighted_sum == 16
    assert 18 >= prof.weighted_sum >= 9
    prof = dyadic_profile([2])
    assert prof.c == {1: 1} and prof.weighted_sum == 2
    with pytest.raises(DomainError):
        dyadic_profile([1])


def test_dyadic_sandwich_random():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        ls = [int(x) for x in rng.integers(2, 300, size=int(rng.integers(1, 15)))]
        prof = dyadic_profile(ls)
        assert sum(ls) >= prof.weighted_sum >= sum(ls) / 2


def test_glue_random_spanned(k3, c4):
    rng = random.Random(10)
    g1 = glue_random_spanned(k3, 1, rng, 10)
    assert g1.m == 3 and subset_copy_count(k3.graph.edges, g1.edges) == 1
    for pat in (k3, c4):
        for copies in (2, 3, 6):
            g = glue_random_spanned(pat, copies, rng, 40)
            dec = spanned_decompose(pat, g)
            assert len(dec.components) == 1
            assert not dec.dropped_edges
            rep = spanning_excess_report(pat, g)
            if rep.l_star >= 2:
                assert rep.f >= rep.lower - 1e-9
    from regtail.errors import PoolTooSmallError

    with pytest.raises(PoolTooSmallError):
        glue_random_spanned(k3, 2, rng, 2)
