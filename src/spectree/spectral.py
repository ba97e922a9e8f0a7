"""Spectral radius computation, closed forms, bounds and integer certificates.

The closed form for the complete-split graph and the sandwich bound for its
one-edge augmentation are evaluated exactly in floating point; quotient
certificates, walk-sum quantities and the comparison of mu with the largest
root of an integer polynomial are exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundInapplicableError,
    ConvergenceError,
    HypothesisViolationError,
    ParameterError,
)
from .graphs import (
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    _adjacency_stack,
    _graph_stacks,
    bits,
)

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralResult:
    mu: float
    residual: float


def adjacency_matrix(g):
    return _adjacency_stack([g])[0]


def spectral_radii(graphs, tol=DEFAULT_TOL):
    """Largest adjacency eigenvalue of each of the graphs, which must all
    have the same order n >= 1, as a list of SpectralResult.

    One LAPACK ``eigh`` per stack of `_graph_stacks`, the adjacency
    matrices of one slice of the graphs: a disconnected graph's
    matrix is block-diagonal, so its value is already the largest over its
    components.  Each reported residual is the infinity norm ||Av - mu v||
    of the returned unit eigenvector; the first graph whose residual
    exceeds tol * max(1, mu) raises ConvergenceError carrying its result as
    ``best``.
    """
    graphs = list(graphs)
    stacks = _graph_stacks(graphs)
    if graphs and graphs[0].n == 0:
        raise ParameterError("spectral radius undefined for the empty graph")
    if tol <= 0:
        raise ParameterError("tol must be positive")
    results = []
    for a in stacks:
        w, v = np.linalg.eigh(a)
        mu = w[:, -1]
        x = v[:, :, -1:]
        residual = np.abs(a @ x - mu[:, None, None] * x).max(axis=(1, 2))
        batch = [SpectralResult(m, r) for m, r in zip(mu.tolist(), residual.tolist())]
        (bad,) = np.nonzero(residual > tol * np.maximum(1.0, mu))
        if bad.size:
            res = batch[bad[0]]
            raise ConvergenceError(
                f"eigh residual {res.residual:.3e} > tol {tol:.3e} * max(1, mu)",
                best=res,
            )
        results += batch
    return results


def spectral_radius(g, tol=DEFAULT_TOL):
    """spectral_radii of the one graph g."""
    return spectral_radii([g], tol)[0]


# -- closed forms and bounds ----------------------------------------------


def mu_S_closed(n, k):
    """Closed-form spectral radius of the complete-split graph S_{n,k}."""
    CompleteSplit(n, k).validate()
    radicand = k * n - (3 * k * k + 2 * k - 1) / 4
    if radicand <= 0:
        raise ParameterError(f"nonpositive radicand for n={n}, k={k}")
    return (k - 1) / 2 + math.sqrt(radicand)


def mu_S_plus_bounds(n, k):
    """Strict sandwich (lo, hi) around the spectral radius of S+_{n,k}."""
    CompleteSplitPlus(n, k).validate()
    denom = n - k - 2 * math.sqrt((n - k) / k)
    if denom <= 0:
        raise BoundInapplicableError(
            f"sandwich denominator {denom:.6g} <= 0 for n={n}, k={k}"
        )
    lo = mu_S_closed(n, k)
    return lo, lo + 1 / denom


def bound_min_degree(n, m, delta):
    """Upper bound on mu from order, size and minimum degree."""
    if not 0 <= delta <= n - 1:
        raise ParameterError(f"require 0 <= delta <= n-1, got {delta}, n={n}")
    if not delta * n / 2 <= m <= n * (n - 1) / 2:
        raise ParameterError(f"m={m} inconsistent with n={n}, delta={delta}")
    radicand = 2 * m - delta * n + (delta + 1) ** 2 / 4
    if radicand < 0:
        raise BoundInapplicableError(f"negative radicand for n={n}, m={m}, delta={delta}")
    return (delta - 1) / 2 + math.sqrt(radicand)


def bound_edges(m):
    """Upper bound on mu from the edge count alone."""
    if m < 0:
        raise ParameterError(f"m must be nonnegative, got {m}")
    return -0.5 + math.sqrt(2 * m + 0.25)


# -- exact comparison with an algebraic threshold ------------------------
#
# Polynomials are tuples of integer coefficients, highest degree first,
# without leading zeros; () is the zero polynomial.


def charpoly(matrix):
    """Characteristic polynomial det(xI - M) of a square integer matrix,
    by Faddeev-LeVerrier: B_1 = M, c_j = -tr(B_j) / j and
    B_{j+1} = M (B_j + c_j I).  Every division is exact."""
    n = len(matrix)
    nonzero = [[(j, int(x)) for j, x in enumerate(row) if x] for row in matrix]
    b = [[int(x) for x in row] for row in matrix]
    coeffs = [1]
    for j in range(1, n + 1):
        c = -sum(b[i][i] for i in range(n)) // j
        coeffs.append(c)
        if j == n:
            break
        for i in range(n):
            b[i][i] += c
        b = [_combine(terms, b, n) for terms in nonzero]
    return tuple(coeffs)


def _combine(terms, rows, n):
    """Sum of x * rows[j] over the (j, x) terms."""
    out = [0] * n
    for j, x in terms:
        out = [s + x * y for s, y in zip(out, rows[j])]
    return out


def split_quotient(family):
    """Quotient matrix of the equitable partition of S_{n,k} (hubs, rest)
    or of S+_{n,k} (hubs, extra-edge ends, rest).  Its largest eigenvalue
    is the family's spectral radius."""
    family.validate()
    n, k = family.n, family.k
    if isinstance(family, CompleteSplitPlus):
        return ((k - 1, 2, n - k - 2), (k, 1, 0), (k, 0, 0))
    if isinstance(family, CompleteSplit):
        return ((k - 1, n - k), (k, 0))
    raise ParameterError(f"no split quotient for {family!r}")


def _trim(p):
    i = 0
    while i < len(p) and not p[i]:
        i += 1
    return tuple(p[i:])


def _primitive(p):
    """p divided by the gcd of its coefficients; the signs stay."""
    c = math.gcd(*p)
    return tuple(x // c for x in p) if c > 1 else tuple(p)


def _prem(a, b):
    """Remainder of c * a by b for some constant c > 0."""
    if b[0] < 0:
        b = tuple(-x for x in b)
    lead, r = b[0], list(a)
    while len(r) >= len(b):
        f = r[0]
        pad = (0,) * (len(r) - len(b))
        r = list(_trim([lead * x - f * y for x, y in zip(r[1:], b[1:] + pad)]))
    return tuple(r)


def _gcd(a, b):
    """Greatest common divisor, up to a constant factor."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _divide(a, b):
    """a / b for a primitive b that divides a; by Gauss's lemma every
    quotient coefficient is an integer."""
    r, q = list(a), []
    while len(r) >= len(b):
        f = r[0] // b[0]
        q.append(f)
        pad = (0,) * (len(r) - len(b))
        r = [x - f * y for x, y in zip(r[1:], b[1:] + pad)]
    return tuple(q)


def _sturm_chain(p):
    """Sturm sequence of the squarefree part of p: p, p' and the negated
    remainders, each up to a positive factor, divided by the last one,
    gcd(p, p').  Its sign changes count distinct roots at any point."""
    d = len(p) - 1
    chain = [p, _trim([c * (d - i) for i, c in enumerate(p[:-1])])]
    while chain[-1]:
        chain.append(_primitive(tuple(-x for x in _prem(chain[-2], chain[-1]))))
    chain.pop()
    last = _primitive(chain[-1])
    return [_divide(c, last) for c in chain] if len(last) > 1 else chain


def _variations(chain, x):
    """Sign changes of the chain at the rational x = (num, den), den > 0,
    or at +infinity when x is None."""
    if x is None:
        signs = [p[0] for p in chain]
    else:
        num, den = x
        signs = []
        for p in chain:
            v, scale = 0, 1
            for c in p:  # den^deg * p(num / den), by Horner
                v = v * num + c * scale
                scale *= den
            if v:
                signs.append(v)
    return sum((s > 0) != (t > 0) for s, t in zip(signs, signs[1:]))


def _roots_in(chain, lo, hi):
    """Distinct real roots of chain[0] in (lo, hi]; hi None is +infinity."""
    return _variations(chain, lo) - _variations(chain, hi)


class LargestRoot:
    """theta, the largest real root of an integer polynomial q, held in an
    interval (lo / den, hi / den] that contains no other root of q and is
    at most about 2^-50 max(1, |theta|) wide; den is a power of two.  The
    interval comes from bisecting the Cauchy bound with Sturm counts.

    `value` is the float midpoint of the interval, and `compare(g)`
    decides sign(mu(g) - theta) exactly from the integer characteristic
    polynomial of g."""

    def __init__(self, q):
        q = _trim(tuple(q))
        if len(q) < 2:
            raise ParameterError("a threshold polynomial needs degree >= 1")
        self.q = q
        chain = self._chain = _sturm_chain(q)
        bound = 2 + max(abs(c) for c in q[1:]) // abs(q[0])  # Cauchy, rounded up
        lo, hi, den = -bound, bound, 1
        if not _roots_in(chain, (lo, den), (hi, den)):
            raise ParameterError(f"polynomial {q} has no real root")
        # invariant: theta lies in (lo, hi] / den and no root of q exceeds it
        while (hi - lo) << 50 > max(den, abs(hi)) or _roots_in(chain, (lo, den), (hi, den)) > 1:
            lo, hi, den = self._narrow(lo, hi, den)
        self._interval = lo, hi, den
        self.value = (lo + hi) / (2 * den)

    def _narrow(self, lo, hi, den):
        """The half of (lo, hi] / den that holds theta."""
        mid, den = lo + hi, 2 * den
        if _roots_in(self._chain, (mid, den), (2 * hi, den)):
            return mid, 2 * hi, den
        return 2 * lo, mid, den

    def compare(self, g):
        """sign(mu(g) - theta): +1, 0 or -1.

        p is the characteristic polynomial of g's adjacency matrix and
        h = gcd(p, q); p' is p without the factors of h.  The interval is
        narrowed until p' has no root in it, that is until p has no more
        roots there than h, whose only possible one is theta.  Then mu >
        theta iff p' (or p: h has no root above theta) has a root above the
        interval; otherwise mu = theta iff theta is a root of h."""
        p = charpoly(adjacency_matrix(g))
        chain, h = _sturm_chain(p), _sturm_chain(_gcd(p, self.q))
        lo, hi, den = self._interval
        while _roots_in(chain, (lo, den), (hi, den)) > _roots_in(h, (lo, den), (hi, den)):
            lo, hi, den = self._narrow(lo, hi, den)
        if _roots_in(chain, (hi, den), None):
            return 1
        return 0 if _roots_in(h, (lo, den), (hi, den)) else -1


# -- quotient certificate --------------------------------------------------


@dataclass(frozen=True)
class QuotientCertificate:
    a: int
    b: int
    column_sums: tuple
    mu_prime: float
    verdict: str  # proves_upper_bound | proves_equality | inconclusive


def _column_sums(g, a, b):
    """Column sums of A^2 - aA - bI as exact ints: column u sums to
    sum of d(v) over the neighbours v of u, minus a d(u) + b."""
    d = g.degrees()
    return [sum(d[v] for v in bits(row)) - a * d[u] - b for u, row in enumerate(g.rows)]


def lemma1_certificate(g, a, b):
    """Exact-integer column sums of A^2 - aA - bI and the resulting verdict.

    All column sums <= 0 certifies mu(g) <= largest root of x^2 - ax - b,
    with equality iff all sums are zero.  Requires g connected
    (irreducibility).
    """
    if a < 0 or b < 1:
        raise ParameterError(f"require a >= 0 and b >= 1, got a={a}, b={b}")
    if not g.is_connected():
        raise HypothesisViolationError("certificate requires a connected graph")
    sums = tuple(_column_sums(g, a, b))
    mu_prime = a / 2 + math.sqrt(a * a / 4 + b)
    if all(s == 0 for s in sums):
        verdict = "proves_equality"
    elif all(s <= 0 for s in sums):
        verdict = "proves_upper_bound"
    else:
        verdict = "inconclusive"
    return QuotientCertificate(a, b, sums, mu_prime, verdict)


# -- walk-sum decomposition ------------------------------------------------


@dataclass(frozen=True)
class WalkSumDecomposition:
    u: int
    l_graph: Graph  # graph on N1(u) union N2(u), relabeled
    l_vertices: tuple  # l_graph id -> original id
    n1: tuple  # original ids of N1(u)
    degree_in_l: tuple  # degrees in l_graph of N1(u), aligned with n1
    b_u: int


def _local_graph(g, n1, n2):
    """L_u for the masks n1 = N1(u) and n2 = N2(u): G[N1 + N2] without its
    N2-N2 edges, relabeled in vertex order, and its vertex list."""
    sub, verts = g.subgraph(bits(n1 | n2))
    keep = sum(1 << i for i, v in enumerate(verts) if n1 >> v & 1)
    rows = tuple(r if keep >> i & 1 else r & keep for i, r in enumerate(sub.rows))
    return Graph(sub.n, rows, sum(r.bit_count() for r in rows) // 2), tuple(verts)


def walk_sum_B_u(g, u, k):
    """Exact walk-sum quantity at u for the threshold parameter k.

    B_u = sum of L_u-degrees over N1(u) - (k-2) d(u) - k(n-k), where L_u is
    the graph on N1(u) union N2(u) keeping only the edges inside N1(u) and
    between N1(u) and N2(u).  Every neighbour v of u has all its other
    neighbours in N1(u) + N2(u), so its L_u-degree is d(v) - 1 and B_u is
    column u of A^2 - (k-1)A - k(n-k)I.
    """
    if not 0 <= u < g.n:
        raise ParameterError(f"vertex {u} out of range for n={g.n}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n1, n2, *_ = g.bfs_shells(u) + [0, 0]
    l_graph, verts = _local_graph(g, n1, n2)
    n1_list = tuple(bits(n1))
    degs = tuple(g.degree(v) - 1 for v in n1_list)
    b_u = _column_sums(g, k - 1, k * (g.n - k))[u]
    return WalkSumDecomposition(u, l_graph, verts, n1_list, degs, b_u)


# -- dense-core witness search --------------------------------------------


def dense_core_witness(g, k, c, tol=DEFAULT_TOL):
    """Minimum-degree peeling witness search.

    Repeatedly deletes vertices of degree <= k-1 and reports the first
    intermediate subgraph H satisfying either
      (i)  mu(H) > sqrt((2k+1)|H|), or
      (ii) |H| >= sqrt(n), delta(H) >= k and
           mu(H) > (k-1)/2 + sqrt(k|H| - k^2 + c + 1/2),
    as (H, "i" | "ii").  Returns None when peeling empties the graph with
    neither condition met.
    """
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    n0 = g.n
    h = g
    while h.n > 0:
        mu = spectral_radius(h, tol).mu
        if mu > math.sqrt((2 * k + 1) * h.n):
            return h, "i"
        delta = min(h.degrees())
        if (
            h.n >= math.sqrt(n0)
            and delta >= k
            and mu > (k - 1) / 2 + math.sqrt(k * h.n - k * k + c + 0.5)
        ):
            return h, "ii"
        weak = [v for v in range(h.n) if h.degree(v) <= k - 1]
        if not weak:
            return None  # stable core, no condition met
        keep = [v for v in range(h.n) if h.degree(v) > k - 1]
        if not keep:
            return None
        h, _ = h.subgraph(keep)
    return None
