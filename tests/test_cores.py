import math

import pytest

from regtail import cores
from regtail.cores import (
    CoreReport,
    SeedParams,
    clique_seed_size,
    degree_product_report,
    is_core,
    is_seed,
    peel_to_core,
)
from regtail.counting import PlantedModel, planted_expectation
from regtail.errors import ContractError, DomainError, IsolatedVertexError
from regtail.graphs import SimpleGraph, complete_graph, threshold_probability


def params_for(n, k, q, **kw):
    return SeedParams(n=n, p=threshold_probability(n, 2 if q == 3 else 3), k=k, q=q, **kw)


def test_seed_params_derived():
    params = SeedParams(n=50, p=0.02, k=9, q=3, cs=10.0)
    assert params.w == pytest.approx(1 / math.log(50))
    assert params.edge_cap == pytest.approx(
        10.0 * math.log(50) * 9 ** (2 / 3) * math.log(50)
    )
    assert params.t == pytest.approx(
        (1 / math.log(50)) ** 2 * 9 ** (1 / 3) / (10.0 * math.log(50))
    )
    # the identity that makes peeling safe
    assert params.t * params.edge_cap == pytest.approx(params.w * params.k)
    with pytest.raises(DomainError):
        SeedParams(n=50, p=0.02, k=9, q=3, w=1.5)


def test_clique_seed_size(k3, c4):
    assert clique_seed_size(k3, 1) == 3
    assert clique_seed_size(k3, 4) == 4
    assert clique_seed_size(c4, 3) == 4
    sizes = [clique_seed_size(k3, k) for k in range(1, 40)]
    assert sizes == sorted(sizes)
    for k in range(2, 40):
        s = clique_seed_size(k3, k)
        assert math.comb(s, 3) >= k > math.comb(s - 1, 3)


def test_is_seed_clique(k3):
    params = params_for(50, 4, 3)
    seed_graph = complete_graph(clique_seed_size(k3, 4))
    ok, expectation = is_seed(seed_graph, params, k3)
    assert ok
    assert expectation >= 4  # at least the copies already inside the clique


def test_is_seed_empty_fails(k3):
    params = params_for(50, 4, 3)
    ok, expectation = is_seed(SimpleGraph(0, ()), params, k3)
    assert not ok
    lam = math.comb(50, 3) * 0.02**3
    assert expectation == pytest.approx(lam, rel=1e-9)


def test_is_seed_edge_cap_gate(k3):
    # tiny cap rejects a clique whose expectation is huge
    params = SeedParams(n=50, p=0.02, k=2, q=3, cs=0.01, w=0.5)
    assert params.edge_cap < 1
    ok, expectation = is_seed(complete_graph(10), params, k3)
    assert not ok and expectation > 100


def test_is_core_rejects_isolated_vertex(k3):
    params = params_for(50, 4, 3)
    with pytest.raises(IsolatedVertexError):
        is_core(SimpleGraph(5, [(0, 1), (1, 2), (0, 2)]), params, k3)


def test_pendant_edge_breaks_core_and_peels_away(k3):
    # K_9 holds 84 >= 64 triangles; an isolated planted edge far from the
    # clique contributes (1-p)(n-2)p^2 ~ 0.019 < t ~ 0.037
    params = SeedParams(n=50, p=0.02, k=64, q=3, w=0.6)
    g = SimpleGraph(11, list(complete_graph(9).edges) + [(9, 10)])
    ok, deltas = is_core(g, params, k3)
    assert not ok
    assert deltas[(9, 10)] < params.t
    report = peel_to_core(g, params, k3)
    assert report.verdict == "Core"
    assert report.peeled_edges == ((9, 10),)
    assert report.result.m == 36
    ok2, _ = is_core(report.result, params, k3)
    assert ok2


def test_peel_fixpoint_and_empty(k3):
    params = params_for(50, 4, 3)
    seed_graph = complete_graph(4)
    report = peel_to_core(seed_graph, params, k3)
    assert report.verdict == "Core"
    assert report.peeled_edges == ()
    assert len(report.expectation_trace) == 1
    again = peel_to_core(report.result, params, k3)
    assert again.peeled_edges == ()
    empty = peel_to_core(SimpleGraph(0, ()), params, k3)
    assert empty.verdict == "Empty"
    assert empty.min_degree is None


def test_peel_trace_contract(k3):
    params = SeedParams(n=50, p=0.02, k=64, q=3, w=0.6)
    g = SimpleGraph(12, list(complete_graph(9).edges) + [(9, 10), (10, 11)])
    report = peel_to_core(g, params, k3)
    trace = report.expectation_trace
    assert len(trace) == len(report.peeled_edges) + 1
    for a, b in zip(trace, trace[1:]):
        assert a > b
        assert a - b < params.t
    assert len(report.peeled_edges) <= g.m


def _junk_seed():
    """K9 with two disjoint junk edges, both of which peel away at k=64."""
    params = SeedParams(n=50, p=0.02, k=64, q=3, w=0.6)
    return params, SimpleGraph(13, list(complete_graph(9).edges) + [(9, 10), (11, 12)])


def test_peel_runs_engine_once_per_graph_state(k3, monkeypatch):
    calls = []
    engine = cores.planted_edge_deltas

    def counted(P, model):
        calls.append(model.planted.m)
        return engine(P, model)

    monkeypatch.setattr(cores, "planted_edge_deltas", counted)
    params, g = _junk_seed()
    report = peel_to_core(g, params, k3)
    assert report.verdict == "Core" and len(report.peeled_edges) == 2
    assert calls == [38, 37, 36]


def test_peel_rejects_a_wrong_delta(k3, monkeypatch):
    engine = cores.planted_edge_deltas

    def halved(P, model):
        expectation, deltas = engine(P, model)
        return expectation, {f: d / 2 for f, d in deltas.items()}

    monkeypatch.setattr(cores, "planted_edge_deltas", halved)
    params, g = _junk_seed()
    with pytest.raises(ContractError):
        peel_to_core(g, params, k3)


def test_core_report_passes_is_core(k3, c4):
    for pat, k in ((k3, 6), (c4, 5)):
        params = params_for(50, k, pat.q)
        s = clique_seed_size(pat, k)
        report = peel_to_core(complete_graph(s), params, pat)
        assert report.verdict == "Core"
        ok, _ = is_core(report.result, params, pat)
        assert ok


def test_degree_product_report(k3):
    params = params_for(50, 6, 3)
    s = clique_seed_size(k3, 6)
    report = peel_to_core(complete_graph(s), params, k3)
    rows = degree_product_report(report.result, params, k3)
    assert len(rows) == report.result.m
    for _, product, bound in rows:
        assert product == (s - 1) ** 2
        assert bound >= params.t
    single = SimpleGraph(2, [(0, 1)])
    big_t = SeedParams(n=50, p=0.02, k=27_000, q=3, cs=0.5, w=0.9)
    assert big_t.t > 10
    rows = degree_product_report(single, big_t, k3)
    assert rows[0][2] < big_t.t  # consistent with it not being a core
    with pytest.raises(DomainError):
        degree_product_report(SimpleGraph(0, ()), params, k3)


def test_expectation_floor_identity(k3):
    # peeling from a seed can never dip below (1 - 2w) k: t * cap = w * k
    params = params_for(60, 10, 3)
    s = clique_seed_size(k3, 10)
    report = peel_to_core(complete_graph(s), params, k3)
    assert report.expectation_trace[-1] >= (1 - 2 * params.w) * params.k
