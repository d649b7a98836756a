import math

import numpy as np
import pytest

from regtail.counting import (
    CopiesAtLeast,
    count_copies,
    exact_probability,
    tail_probability_table,
)
from regtail.errors import BlockTooSmallError, DomainError, TooFewVerticesError
from regtail.graphs import (
    GnpModel,
    SimpleGraph,
    named_pattern,
    sample_gnp_batch,
    threshold_probability,
    worker_rng,
)
from regtail.tails import (
    CSV_HEADER,
    _chunk_graphs,
    _mc_counts,
    clique_lower_bound,
    crossover_k,
    disjoint_lower_bound,
    expected_copy_count,
    mc_tail,
    poisson_diagnostic,
    rows_to_csv,
    rows_to_json,
    scan_phase_transition,
    wilson_interval,
)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 351)
    assert lo == 0.0
    assert 0 < hi < 0.02
    lo, hi = wilson_interval(351, 351)
    assert hi == 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


def test_mc_tail_trivial(k3):
    model = GnpModel(6, 1 / 6, seed=1)
    assert mc_tail(k3, model, 0, 200).estimate == 1.0
    assert mc_tail(k3, model, 10**9, 200).estimate == 0.0


def test_mc_tail_matches_exact(k3):
    model = GnpModel(6, 1 / 6, seed=5)
    samples = 40_000
    row = mc_tail(k3, model, 1, samples, workers=2)
    exact = exact_probability(model, CopiesAtLeast(k3, 1))
    sigma = math.sqrt(exact * (1 - exact) / samples)
    assert abs(row.estimate - exact) <= 3 * sigma
    assert row.ci_low <= row.estimate <= row.ci_high


def test_mc_tail_deterministic(k3):
    model = GnpModel(10, 0.2, seed=9)
    a = mc_tail(k3, model, 2, 3000, workers=3)
    b = mc_tail(k3, model, 2, 3000, workers=3)
    assert a.estimate == b.estimate
    # worker 0 of 3 draws the same share of 1000 from stream (seed, 0) as a lone worker
    three = _mc_counts(k3, model, 3000, workers=3)
    assert np.array_equal(three[:1000], _mc_counts(k3, model, 1000, workers=1))
    assert three.sum() > 0


@pytest.mark.parametrize("name", ["k3", "c4", "k4"])
@pytest.mark.parametrize("n", [7, 30, 400])
@pytest.mark.parametrize("seed", [0, 1])
def test_mc_counts_match_unpruned_kernel(name, n, seed):
    # the delta-core prune drops no copy: the engine's counts equal the
    # kernel's on the full graphs rebuilt from the same sampled edges
    P = named_pattern(name)
    p = 1.5 * threshold_probability(n, P.delta)  # every case then sees copies
    counts = _mc_counts(P, GnpModel(n, p, seed), 80, workers=2)
    want = []
    chunk = _chunk_graphs(n, p)  # K4 at n = 400 takes two chunks per worker
    for w in range(2):
        rng = worker_rng(seed, w)
        for start in range(0, 40, chunk):
            graph, u, v = sample_gnp_batch(n, p, min(chunk, 40 - start), rng)
            for i in range(min(chunk, 40 - start)):
                hit = graph == i
                g = SimpleGraph(n, zip(u[hit].tolist(), v[hit].tolist()))
                want.append(count_copies(P, g))
    assert counts.tolist() == want
    assert sum(want) > 0


def test_expected_copy_count(k3):
    lam = expected_copy_count(k3, 400, 1 / 400)
    assert lam == pytest.approx(math.comb(400, 3) / 400**3)
    assert lam == pytest.approx(0.16542, abs=5e-6)


def test_poisson_diagnostic_small(k3):
    model = GnpModel(60, threshold_probability(60, 2), seed=0)
    diag = poisson_diagnostic(k3, model, 20_000, workers=2)
    assert sum(diag.empirical_pmf.values()) == pytest.approx(1.0, abs=1e-9)
    assert diag.tv_distance < 0.05


def test_poisson_diagnostic_p_zero(k3):
    diag = poisson_diagnostic(k3, GnpModel(30, 0.0, seed=0), 500)
    assert diag.empirical_pmf == {0: 1.0}
    assert diag.lam == 0.0
    assert diag.tv_distance == pytest.approx(0.0)


def test_clique_lower_bound(k3):
    assert clique_lower_bound(k3, 6, 1 / 6, 4) == pytest.approx((1 / 6) ** 6)
    assert clique_lower_bound(k3, 10, 0.3, 1) == pytest.approx(0.3**3)
    values = [clique_lower_bound(k3, 30, 0.2, k) for k in range(1, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(TooFewVerticesError):
        clique_lower_bound(k3, 3, 0.2, 2)


def test_clique_bound_below_exact(k3):
    p = 1 / 6
    tab = tail_probability_table(k3, 6, p)
    assert clique_lower_bound(k3, 6, p, 4) <= tab[4]


def test_disjoint_lower_bound(k3):
    b = disjoint_lower_bound(k3, 12, 0.3, 2)
    assert b.exact and b.block_size == 6
    assert b.value == pytest.approx(b.block_probability**2)
    one = disjoint_lower_bound(k3, 12, 0.3, 1)
    assert one.value == pytest.approx(one.block_probability)
    near_one = disjoint_lower_bound(k3, 14, 1 - 1e-12, 2)
    assert near_one.value == pytest.approx(1.0)
    with pytest.raises(BlockTooSmallError):
        disjoint_lower_bound(k3, 5, 0.3, 2)


def test_disjoint_bound_vs_mc(k3):
    # block product is a genuine lower bound for the n = 12 tail at k = 2
    p = 0.3
    b = disjoint_lower_bound(k3, 12, p, 2)
    row = mc_tail(k3, GnpModel(12, p, seed=3), 2, 30_000)
    assert b.value <= row.ci_high


def test_disjoint_bound_mc_path(k3):
    b = disjoint_lower_bound(k3, 24, 0.3, 2, samples=4000, seed=1)
    assert not b.exact and b.block_size == 12
    assert b.ci_low <= b.value <= b.ci_high


def test_crossover():
    # brute scan oracle
    def brute(q, log_n):
        k = 2
        while k ** (1 - 2 / q) * math.log(k) < log_n:
            k += 1
        return k

    for q, log_n in ((3, 10.0), (3, 1.0), (4, 7.5), (5, 3.0)):
        assert crossover_k(q, log_n) == brute(q, log_n)
    assert crossover_k(3, 10.0) == 28


def test_scan(k3):
    res = scan_phase_transition(k3, 6, range(1, 5), 4000, seed=2, workers=2)
    assert len(res.rows) == 4
    tab = tail_probability_table(k3, 6, res.p)
    for row in res.rows:
        assert row.exact == pytest.approx(tab[row.k], rel=1e-12)
        assert row.ci_low <= row.estimate <= row.ci_high
        if row.clique_lb is not None and row.estimate > 0:
            assert row.clique_lb <= row.ci_high
        if row.disjoint_lb is not None:
            assert row.disjoint_lb <= row.exact + 1e-12
    assert res.crossover == crossover_k(3, math.log(6))


def test_csv_schema(k3):
    res = scan_phase_transition(k3, 6, range(1, 3), 500, seed=0)
    text = rows_to_csv(res.rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == (
        "k,n,p,estimate,ci_low,ci_high,exact,L_value,clique_lb,disjoint_lb,samples"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[-1] == "500"
    # json mirror parses and matches row count
    import json

    payload = json.loads(rows_to_json(res.rows, crossover=res.crossover))
    assert len(payload["rows"]) == 2
    assert payload["crossover"] == res.crossover


def test_scan_determinism(k3):
    a = scan_phase_transition(k3, 6, range(1, 5), 3000, seed=11, workers=2)
    b = scan_phase_transition(k3, 6, range(1, 5), 3000, seed=11, workers=2)
    assert rows_to_csv(a.rows) == rows_to_csv(b.rows)
