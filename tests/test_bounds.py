import math
from itertools import combinations

import numpy as np
import pytest

from regtail.bounds import (
    EdgeRootedInput,
    chernoff_tail,
    edge_rooted_bound,
    exact_binomial_tail,
    finner_hom_bound,
    kl_bernoulli,
    min_edges_for_copies,
    outside_edge_bounds,
    power_sum_gap,
    split_cost_min,
    tail_rate,
)
from regtail.counting import count_copies, count_injective_homs
from regtail.errors import DomainError
from regtail.graphs import SimpleGraph, complete_graph


def test_finner_values(k3, c4):
    assert finner_hom_bound(k3, 3, 3) == pytest.approx(27 * (2 / 3) ** 1.5)
    assert count_injective_homs(k3, complete_graph(3)) <= finner_hom_bound(k3, 3, 3)
    assert finner_hom_bound(k3, 5, 0) == 0.0
    # regular pattern: the n powers cancel, leaving (2m)**(q/2)
    assert finner_hom_bound(c4, 17, 10) == pytest.approx(400.0)
    assert finner_hom_bound(c4, 99, 10) == pytest.approx(400.0)


def test_finner_accepts_bounded_degree_graph():
    # a path has max degree 2; the bound applies with delta = 2
    path = SimpleGraph(3, [(0, 1), (1, 2)])
    val = finner_hom_bound(path, 4, 5)
    assert val == pytest.approx(4.0**3 * (10 / 16) ** (2 / 2))


def test_finner_dominance_random(k3, c4, k4):
    rng = np.random.default_rng(5)
    for _ in range(150):
        n = int(rng.integers(3, 11))
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.uniform(0.2, 0.9)]
        g = SimpleGraph(n, edges)
        for pat in (k3, c4, k4):
            assert count_injective_homs(pat, g) <= finner_hom_bound(pat, n, g.m) + 1e-9


def test_min_edges_for_copies(k3):
    assert min_edges_for_copies(k3, 1) == 2
    assert min_edges_for_copies(k3, 10) == 8
    assert min_edges_for_copies(k3, 10) <= complete_graph(5).m


def test_min_edges_is_valid_lower_bound(k3, c4, k4):
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(3, 10))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        g = SimpleGraph(n, edges)
        for pat in (k3, c4, k4):
            copies = count_copies(pat, g)
            if copies >= 1:
                assert g.m >= min_edges_for_copies(pat, copies)


def test_edge_rooted_bound_value(k3):
    inp = EdgeRootedInput(d_a=1, d_b=1, e=1, n=100, p=0.01, pattern=k3)
    # q = 3 makes the third exponent zero
    assert edge_rooted_bound(inp) == pytest.approx(6 * 100 * (0.01 + 1e-4))
    exact = (100 - 2) * 0.01**2  # single planted edge, triangle pattern
    assert exact <= edge_rooted_bound(inp)


def test_edge_rooted_bound_monotone(c4):
    base = EdgeRootedInput(d_a=2, d_b=3, e=8, n=50, p=0.05, pattern=c4)
    v0 = edge_rooted_bound(base)
    for kw in ({"d_a": 3}, {"d_b": 4}, {"e": 9}):
        args = {"d_a": 2, "d_b": 3, "e": 8, "n": 50, "p": 0.05, "pattern": c4}
        args.update(kw)
        assert edge_rooted_bound(EdgeRootedInput(**args)) >= v0


def test_outside_bounds_delta2_form(k3):
    # delta = 2 kills the (delta-2)/delta exponent; q = 3 kills the third
    inp = EdgeRootedInput(d_a=1, d_b=5, e=10, n=100, p=0.01, pattern=k3)
    ob = outside_edge_bounds(inp)
    pref = 3 * 2 * 3  # q*delta * e(H)
    b1_literal = pref * (5 + 100 * 0.01**2) ** 0.5 * 0.01 * 100**0.5
    assert ob.b1 == pytest.approx(b1_literal)
    b2_literal = pref * (1 + 100 * 0.01**2) ** 0.5 * 0.01 * 100**0.5
    assert ob.b2 == pytest.approx(b2_literal)


def test_outside_b3_monotone_in_e(c4, k4):
    # the b3 exponent q/2 - 2 is nonnegative only for q >= 4
    for pat in (c4, k4):
        vals = [
            outside_edge_bounds(
                EdgeRootedInput(d_a=2, d_b=2, e=e, n=40, p=0.1, pattern=pat)
            ).b3
            for e in (4, 8, 16)
        ]
        assert vals[0] <= vals[1] <= vals[2]


def test_tail_rate():
    n = round(math.e**10)
    assert tail_rate(8, n, 3) == pytest.approx(8 * math.log(8))
    assert tail_rate(1000, n, 3) == pytest.approx(1000 ** (2 / 3) * math.log(n))
    assert tail_rate(1000, n, 3) == pytest.approx(1000.0, rel=1e-4)
    for q in (3, 4, 5):
        assert tail_rate(2, 7, q) == pytest.approx(
            min(2 * math.log(2), 2 ** (2 / q) * math.log(7))
        )
    with pytest.raises(DomainError):
        tail_rate(1, 10, 3)


def test_power_sum_gap():
    assert power_sum_gap([4.2], 3) == 0.0
    assert power_sum_gap([1, 1], 2) == pytest.approx(2 - math.sqrt(2))
    rng = np.random.default_rng(1)
    for _ in range(500):
        xs = rng.uniform(0, 5, size=int(rng.integers(1, 10)))
        assert power_sum_gap(xs.tolist(), float(rng.uniform(1.01, 6))) >= -1e-12
    with pytest.raises(DomainError):
        power_sum_gap([1.0], 1.0)
    with pytest.raises(DomainError):
        power_sum_gap([-0.1], 2.0)


def test_split_cost_min():
    res = split_cost_min(2, 1.0, 3)
    assert res.s_star == 1
    assert res.value == pytest.approx(1.0)
    assert res.rhs == pytest.approx(0.1 * min(2 * math.log(2), 2 ** (2 / 3)))
    assert res.value >= res.rhs
    # huge A forces all weight onto the s*ln(s) term
    res = split_cost_min(10, 1e6, 3)
    assert res.s_star == 10
    assert res.value == pytest.approx(10 * math.log(10))
    for k in range(2, 60):
        for a in (0.1, 1.0, 10.0):
            r = split_cost_min(k, a, 4)
            assert r.value >= r.rhs - 1e-9


def test_kl_and_tails():
    assert kl_bernoulli(0.37, 0.37) == 0.0
    assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))
    assert exact_binomial_tail(10, 10, 0.5) == pytest.approx(2**-10)
    assert chernoff_tail(10, 10, 0.5) == pytest.approx(2**-10)
    assert exact_binomial_tail(30, 0, 0.2) == 1.0
    assert chernoff_tail(30, 0, 0.2) == 1.0
    for n in (5, 20, 80):
        for p in (0.05, 0.3):
            for m in range(math.ceil(n * p), n + 1):
                assert exact_binomial_tail(n, m, p) <= chernoff_tail(n, m, p) * (1 + 1e-9)
    with pytest.raises(DomainError):
        exact_binomial_tail(5, 6, 0.5)
    with pytest.raises(DomainError):
        chernoff_tail(5, 2, 1.0)
    with pytest.raises(DomainError):
        kl_bernoulli(1.2, 0.5)
