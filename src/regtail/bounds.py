"""Closed-form evaluators for the explicit inequalities used throughout:
product-measure (Finner-Holder) homomorphism bounds, edge-rooted expectation
bounds, the tail-rate function, and the binomial-tail toolkit.

All logarithms are natural. Constants that the underlying proofs leave
implicit are instantiated from the proof structure (counts of ordered
adjacent pairs and of outside-edge choices), which makes every bound here
directly assertable against the exact counting oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, DomainError
from .graphs import Pattern, SimpleGraph


def _pattern_params(p_or_g):
    """(q, e, delta) from a Pattern or any bounded-degree SimpleGraph."""
    if isinstance(p_or_g, Pattern):
        return p_or_g.q, p_or_g.edge_count, p_or_g.delta
    if isinstance(p_or_g, SimpleGraph):
        g = p_or_g
        delta = max((g.degree(v) for v in range(g.n)), default=0)
        return g.n, g.m, delta
    raise DomainError(f"expected Pattern or SimpleGraph, got {type(p_or_g)!r}")


def finner_hom_bound(pattern_or_graph, n: int, m: int) -> float:
    """Upper bound n**q * (2m/n**2)**(e/delta) on the number of (injective)
    homomorphisms of the pattern into any n-vertex, m-edge graph.

    Valid for any pattern with maximum degree delta, connected or not. For a
    regular pattern the n-powers cancel and the bound is (2m)**(q/2).
    """
    if m < 0:
        raise DomainError(f"edge count must be nonnegative, got {m}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    q, e, delta = _pattern_params(pattern_or_graph)
    if e == 0:
        return float(n) ** q
    return float(n) ** q * (2.0 * m / (n * n)) ** (e / delta)


def min_edges_for_copies(P: Pattern, copies: int) -> int:
    """Minimum edge count of any graph holding at least `copies` copies.

    Inverts copies <= (2m)**(q/2) / aut exactly: the smallest integer m with
    (2m)**q >= (aut * copies)**2, which equals ceil((aut*copies)**(2/q) / 2).
    """
    if copies < 1:
        raise DomainError(f"copy count must be at least 1, got {copies}")
    target = (P.aut_count * copies) ** 2
    est = (P.aut_count * copies) ** (2.0 / P.q) / 2.0
    m = max(1, int(est) - 2)
    while (2 * m) ** P.q < target:
        m += 1
    return m


@dataclass(frozen=True)
class EdgeRootedInput:
    """Inputs for the edge-rooted expectation bounds: a planted graph with a
    distinguished edge whose endpoint degrees are d_a, d_b, planted edge
    count e, ambient vertex count n and background edge probability p."""

    d_a: int
    d_b: int
    e: int
    n: int
    p: float
    pattern: Pattern

    def __post_init__(self):
        if self.d_a < 1 or self.d_b < 1:
            raise DomainError("endpoint degrees must be at least 1")
        if self.e < 1:
            raise DomainError("planted edge count must be at least 1")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0, 1], got {self.p}")
        q, delta = self.pattern.q, self.pattern.delta
        if q / 2 - 2 + 1 / delta < -1e-12:
            raise ContractError("regular patterns keep the exponent q/2 - 2 + 1/delta nonnegative")


def edge_rooted_bound(inp: EdgeRootedInput) -> float:
    """Upper bound on the expected number of pattern copies through the
    distinguished planted edge.

    q*delta * n**(q-2) * (d_a/n + p**delta)**((delta-1)/delta)
                       * (d_b/n + p**delta)**((delta-1)/delta)
                       * (2e/n**2 + p**delta)**(q/2 - 2 + 1/delta)

    The prefactor q*delta counts the ordered adjacent vertex pairs of the
    pattern that the distinguished edge can realize.
    """
    q, delta = inp.pattern.q, inp.pattern.delta
    n, p = inp.n, inp.p
    pd = p**delta
    expo = (delta - 1) / delta
    third = q / 2 - 2 + 1 / delta
    return (
        q
        * delta
        * float(n) ** (q - 2)
        * (inp.d_a / n + pd) ** expo
        * (inp.d_b / n + pd) ** expo
        * (2.0 * inp.e / (n * n) + pd) ** third
    )


@dataclass(frozen=True)
class OutsideEdgeBounds:
    """The three outside-edge expectation bounds, split by whether the
    non-planted edge touches endpoint a, endpoint b, or neither."""

    b1: float
    b2: float
    b3: float

    @property
    def max(self) -> float:
        return max(self.b1, self.b2, self.b3)


def outside_edge_bounds(inp: EdgeRootedInput) -> OutsideEdgeBounds:
    """Bounds on the expected number of copies through the distinguished
    edge that use at least one edge from outside the planted graph.

    Each expression carries the explicit prefactor q*delta * (q*delta/2):
    ordered adjacent pair choices times outside-edge choices. For q = 3 the
    b3 exponent q/2 - 2 is negative and is computed as written.
    """
    q, delta = inp.pattern.q, inp.pattern.delta
    if delta < 2:
        raise DomainError("outside-edge bounds need delta >= 2")
    n, p = inp.n, inp.p
    pd = p**delta
    fa = inp.d_a + n * pd
    fb = inp.d_b + n * pd
    fe = inp.e + float(n) ** 2 * pd
    e1 = (delta - 1) / delta
    e2 = (delta - 2) / delta
    third = q / 2 - 2 + 1 / delta
    pref = q * delta * (q * delta // 2)
    b1 = pref * fa**e2 * fb**e1 * fe**third * p * n ** (1 / delta)
    b2 = pref * fa**e1 * fb**e2 * fe**third * p * n ** (1 / delta)
    b3 = pref * fa**e1 * fb**e1 * fe ** (q / 2 - 2) * p * n ** (2 / delta)
    return OutsideEdgeBounds(b1=b1, b2=b2, b3=b3)


def tail_rate(k: int, n: int, q: int) -> float:
    """The governing exponent scale min(k*ln(k), k**(2/q)*ln(n)) for the
    probability of seeing at least k pattern copies."""
    if k < 2:
        raise DomainError(f"tail threshold k must be at least 2, got {k}")
    if n < 2:
        raise DomainError(f"n must be at least 2, got {n}")
    return min(k * math.log(k), k ** (2.0 / q) * math.log(n))


def power_sum_gap(xs, p: float) -> float:
    """sum(x**(1/p)) - (sum(x))**(1/p) for nonnegative xs and p > 1.

    Always nonnegative: concavity of the p-th root makes the termwise sum
    dominate.
    """
    if p <= 1:
        raise DomainError(f"exponent p must exceed 1, got {p}")
    xs = list(xs)
    if any(x < 0 for x in xs):
        raise DomainError("all entries must be nonnegative")
    s = math.fsum(xs)
    return math.fsum(x ** (1.0 / p) for x in xs) - s ** (1.0 / p)


@dataclass(frozen=True)
class SplitCost:
    """Result of minimizing s*ln(s) + A*(k-s)**(2/q) over integer s."""

    s_star: int
    value: float
    rhs: float


def _xlogx(s: int) -> float:
    return 0.0 if s == 0 else s * math.log(s)


def split_cost_min(k: int, a: float, q: int) -> SplitCost:
    """Brute-force minimum over integer s in [0, k] of the split objective
    s*ln(s) + a*(k-s)**(2/q), with 0*ln(0) = 0.

    rhs is (1/10) * min(k*ln(k), a*k**(2/q)); the minimum dominates rhs for
    every k >= 2 (k = 2 is checked directly by the test suite).
    """
    if k < 2:
        raise DomainError(f"k must be at least 2, got {k}")
    if a <= 0:
        raise DomainError(f"a must be positive, got {a}")
    best_s, best_v = 0, None
    for s in range(k + 1):
        v = _xlogx(s) + a * (k - s) ** (2.0 / q)
        if best_v is None or v < best_v:
            best_s, best_v = s, v
    rhs = 0.1 * min(_xlogx(k), a * k ** (2.0 / q))
    return SplitCost(s_star=best_s, value=best_v, rhs=rhs)


def kl_bernoulli(t: float, p: float) -> float:
    """KL divergence between Bernoulli(t) and Bernoulli(p), nats; 0*log(0) = 0."""
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"t must lie in [0, 1], got {t}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    out = 0.0
    if t > 0:
        out += t * math.log(t / p)
    if t < 1:
        out += (1 - t) * math.log((1 - t) / (1 - p))
    return out


def _check_tail_args(n: int, m: int, p: float):
    if not 0 <= m <= n:
        raise DomainError(f"need 0 <= M <= N, got M={m}, N={n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")


def chernoff_tail(n: int, m: int, p: float) -> float:
    """Chernoff bound exp(-N * KL(M/N || p)) on P(Bin(N, p) >= M).

    An upper bound on the exact tail whenever M >= N*p; M = 0 returns 1.
    """
    _check_tail_args(n, m, p)
    if m == 0:
        return 1.0
    return math.exp(-n * kl_bernoulli(m / n, p))


def exact_binomial_tail(n: int, m: int, p: float) -> float:
    """P(Bin(N, p) >= M), each pmf term computed in log space."""
    _check_tail_args(n, m, p)
    if m == 0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    terms = []
    for j in range(m, n + 1):
        lw = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        terms.append(math.exp(lw + j * lp + (n - j) * lq))
    return min(1.0, math.fsum(terms))
