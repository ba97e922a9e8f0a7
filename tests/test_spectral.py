import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectree.errors import (
    BoundInapplicableError,
    ConvergenceError,
    HypothesisViolationError,
    ParameterError,
)
from spectree.graphs import (
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    Path,
    Star,
    build_family,
    disjoint_union,
    empty_graph,
)
from spectree.spectral import (
    LargestRoot,
    adjacency_matrix,
    bound_edges,
    bound_min_degree,
    charpoly,
    dense_core_witness,
    lemma1_certificate,
    mu_S_closed,
    mu_S_plus_bounds,
    spectral_radii,
    spectral_radius,
    split_quotient,
    walk_sum_B_u,
)
from spectree.enumeration import all_graphs, random_graph

from oracles import edge_list_adjacency, eigh_mu, exact_mu_sign


def jacobi_spectral_radius(g, sweeps=100, tol=1e-12):
    """Largest eigenvalue via cyclic Jacobi rotations: an oracle independent
    of the LAPACK path in spectral_radius.  Capped at n = 64."""
    if not 1 <= g.n <= 64:
        raise ParameterError("jacobi oracle needs 1 <= n <= 64")
    n = g.n
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                off = max(off, abs(apq))
                theta = (a[q, q] - a[p, p]) / (2 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1)
                )
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < tol:
            break
    return float(np.max(np.diag(a)))


def random_connected(n, rng):
    # random spanning tree plus random extra edges
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                edges.append((i, j))
    return Graph.from_edges(n, sorted(set(edges)))


class TestSpectralRadius:
    def test_known_values(self):
        assert spectral_radius(build_family(Complete(4))).mu == pytest.approx(3.0, abs=1e-9)
        assert spectral_radius(build_family(Star(4))).mu == pytest.approx(2.0, abs=1e-9)
        # path on 3 vertices: sqrt(2)
        assert spectral_radius(build_family(Path(3))).mu == pytest.approx(
            math.sqrt(2), abs=1e-9
        )

    def test_pinned_complete_split_values(self):
        assert spectral_radius(build_family(CompleteSplit(5, 2))).mu == pytest.approx(
            3.0, abs=1e-8
        )
        assert spectral_radius(build_family(CompleteSplit(8, 2))).mu == pytest.approx(
            4.0, abs=1e-8
        )

    def test_disconnected_takes_max_component(self):
        g = disjoint_union(build_family(Complete(4)), build_family(Path(2)))
        res = spectral_radius(g)
        assert res.mu == pytest.approx(3.0, abs=1e-9)

    def test_disconnected_matches_per_component_oracle(self):
        # the largest per-component eigvalsh value, components found by a
        # plain set-based search
        checked = 0
        for n in range(2, 8):
            for g in all_graphs(n):
                if g.is_connected():
                    continue
                a = adjacency_matrix(g)
                unseen, best = set(range(n)), 0.0
                while unseen:
                    comp, todo = set(), [min(unseen)]
                    while todo:
                        v = todo.pop()
                        if v not in comp:
                            comp.add(v)
                            todo += [w for w in range(n) if a[v, w]]
                    unseen -= comp
                    c = sorted(comp)
                    best = max(best, float(np.linalg.eigvalsh(a[np.ix_(c, c)])[-1]))
                mu = spectral_radius(g).mu
                assert abs(mu - best) <= 1e-12 * max(1.0, best)
                checked += 1
        assert checked == 256  # the disconnected classes on at most 7 vertices

    def test_single_vertex(self):
        mu = spectral_radius(empty_graph(1)).mu
        assert mu == 0.0 and math.copysign(1, mu) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_edgeless(self, n):
        # a -0.0 would show up in reports
        mu = spectral_radius(empty_graph(n)).mu
        assert mu == 0.0 and math.copysign(1, mu) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            spectral_radius(Graph(0, (), 0))

    def test_residual_reported(self):
        res = spectral_radius(build_family(Path(10)))
        assert res.residual <= 1e-10

    def test_convergence_error_carries_best(self):
        with pytest.raises(ConvergenceError) as exc:
            spectral_radius(build_family(Path(30)), tol=1e-300)
        assert exc.value.best.mu > 0

    @pytest.mark.parametrize("t", [2, 10, 30, 200, 500, 2000])
    def test_path_closed_form(self, t):
        # mu(P_t) = 2 cos(pi / (t + 1)), on paths far longer than campaign graphs
        mu = spectral_radius(build_family(Path(t))).mu
        assert abs(mu - 2 * math.cos(math.pi / (t + 1))) <= 1e-12

    def test_matches_jacobi(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected(rng.randint(2, 10), rng)
            mu = spectral_radius(g).mu
            assert mu == pytest.approx(jacobi_spectral_radius(g), abs=1e-8)

    def test_bipartite_no_stall(self):
        # even cycles have eigenvalues +-2; the shifted iteration must not
        # oscillate between them
        cycle = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert spectral_radius(cycle).mu == pytest.approx(2.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9))
    def test_edge_monotone(self, seed):
        rng = random.Random(seed)
        g = random_connected(rng.randint(3, 8), rng)
        non_edges = [
            (i, j)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if not g.has_edge(i, j)
        ]
        if not non_edges:
            return
        u, v = rng.choice(non_edges)
        assert spectral_radius(g.with_edge(u, v)).mu >= spectral_radius(g).mu - 1e-9


class TestSpectralRadii:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_graphs_against_oracle(self, n):
        graphs = all_graphs(n)
        results = spectral_radii(graphs)
        assert len(results) == len(graphs)
        for g, res in zip(graphs, results):
            mu = eigh_mu(g)
            assert abs(res.mu - mu) <= 1e-14 * max(1.0, mu)
            assert res.residual <= 1e-10 * max(1.0, mu)

    def test_path_200_batch(self):
        # orders above 64 need more than one word per row
        g = build_family(Path(200))
        (res,) = spectral_radii([g])
        assert abs(res.mu - 2 * math.cos(math.pi / 201)) <= 1e-12
        assert np.array_equal(adjacency_matrix(g), edge_list_adjacency(g))

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 64, 65])
    def test_adjacency_at_byte_widths(self, n):
        # rows of one byte and of several, each ending on or just past a
        # byte boundary
        g = random_graph(n, p=0.5, seed=n)
        a = adjacency_matrix(g)
        assert all(a[u, v] == g.has_edge(u, v) for u in range(n) for v in range(n))

    def test_random_70_vertex_graphs(self):
        graphs = [random_graph(70, p=0.3, seed=seed) for seed in (70, 71, 72)]
        for g, res in zip(graphs, spectral_radii(graphs)):
            mu = eigh_mu(g)
            assert abs(res.mu - mu) <= 1e-14 * mu
            assert np.array_equal(adjacency_matrix(g), edge_list_adjacency(g))

    def test_multi_slice_batches(self, monkeypatch):
        # slices of max(1, 2^14 // n^2) graphs: 256 at n = 8 (whose values
        # test_all_graphs_against_oracle checks) and 10 at n = 40
        graphs = [random_graph(40, p=0.3, seed=s) for s in range(30)]
        stacks = []
        eigh = np.linalg.eigh

        def recording(a):
            stacks.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        assert len(spectral_radii(all_graphs(8))) == 12346
        results = spectral_radii(graphs)
        monkeypatch.undo()
        assert stacks == [(256, 8, 8)] * 48 + [(58, 8, 8)] + [(10, 40, 40)] * 3
        assert len(results) == len(graphs)
        for g, res in zip(graphs, results):
            mu = eigh_mu(g)
            assert abs(res.mu - mu) <= 1e-14 * mu

    def test_convergence_error_names_the_failing_graph(self):
        # an edgeless graph has residual exactly 0, so under a tiny tol
        # only the path fails, and the error carries the path's result;
        # after 20 edgeless graphs the path is in the second slice of 18
        path = build_family(Path(30))
        for before in (1, 20):
            with pytest.raises(ConvergenceError) as exc:
                spectral_radii([empty_graph(30)] * before + [path, empty_graph(30)], tol=1e-300)
            assert exc.value.best.mu == pytest.approx(2 * math.cos(math.pi / 31), abs=1e-12)
            assert exc.value.best.residual > 0

    def test_mixed_orders_rejected(self):
        with pytest.raises(ParameterError):
            spectral_radii([build_family(Path(4)), build_family(Path(5))])

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            spectral_radii([Graph(0, (), 0)])

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ParameterError):
            spectral_radii([build_family(Path(4))], tol=tol)
        with pytest.raises(ParameterError):
            spectral_radius(build_family(Path(4)), tol=tol)


class TestAdjacencyMatrix:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("dtype", [float, np.int64])
    def test_against_edge_list_oracle(self, n, dtype):
        for g in all_graphs(n):
            a = adjacency_matrix(g).astype(dtype)
            assert np.array_equal(a, edge_list_adjacency(g, dtype=dtype))

    def test_certificates_from_the_edge_list_matrix(self):
        # lemma1_certificate's column sums of A^2 - aA - bI, recomputed on
        # the oracle matrix
        for n in range(2, 7):
            for g in all_graphs(n, connected_only=True):
                a = edge_list_adjacency(g, dtype=np.int64)
                for x, y in [(0, 1), (1, 2), (2, n)]:
                    sums = (a @ a - x * a - y * np.eye(n, dtype=np.int64)).sum(axis=0)
                    cert = lemma1_certificate(g, x, y)
                    assert cert.column_sums == tuple(int(s) for s in sums)


class TestClosedForm:
    def test_pinned(self):
        assert mu_S_closed(5, 2) == pytest.approx(3.0, abs=1e-12)
        assert mu_S_closed(8, 2) == pytest.approx(4.0, abs=1e-12)

    def test_formula_shape(self):
        # (k-1)/2 + sqrt(kn - (3k^2 + 2k - 1)/4) spelled out independently
        for n, k in [(10, 1), (17, 3), (60, 5)]:
            expect = (k - 1) / 2 + math.sqrt(k * n - (3 * k * k + 2 * k - 1) / 4)
            assert mu_S_closed(n, k) == expect

    def test_grid_against_eigensolver(self):
        for k in range(1, 6):
            for n in range(k + 2, 41):
                g = build_family(CompleteSplit(n, k))
                assert spectral_radius(g).mu == pytest.approx(
                    mu_S_closed(n, k), abs=1e-8
                )

    def test_parameter_check(self):
        with pytest.raises(ParameterError):
            mu_S_closed(5, 5)


# the acceptance-1 grid, restricted to n <= 16
SMALL_GRID = [(n, k) for k in range(1, 6) for n in range(k + 2, 17)]


class TestExactThreshold:
    def test_charpoly_against_eigenvalues(self):
        for seed in range(40):
            g = random_graph(2 + seed % 11, p=0.4, seed=seed)
            expect = np.poly(np.linalg.eigvalsh(adjacency_matrix(g)))
            assert np.allclose(charpoly(edge_list_adjacency(g, dtype=int)), expect, atol=1e-6)

    def test_charpoly_of_quotients(self):
        for n, k in SMALL_GRID:
            assert charpoly(split_quotient(CompleteSplit(n, k))) == (1, -(k - 1), -k * (n - k))
            q = charpoly(split_quotient(CompleteSplitPlus(n, k)))
            mu = spectral_radius(build_family(CompleteSplitPlus(n, k))).mu
            assert LargestRoot(q).value == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("n, k", SMALL_GRID)
    def test_signs_on_the_grid(self, n, k):
        s_graph = build_family(CompleteSplit(n, k))
        plus_graph = build_family(CompleteSplitPlus(n, k))
        s_root = LargestRoot(charpoly(split_quotient(CompleteSplit(n, k))))
        plus_root = LargestRoot(charpoly(split_quotient(CompleteSplitPlus(n, k))))
        assert s_root.value == pytest.approx(mu_S_closed(n, k), rel=1e-13)
        assert s_root.compare(s_graph) == 0
        assert plus_root.compare(plus_graph) == 0
        assert s_root.compare(plus_graph) == 1
        assert plus_root.compare(s_graph) == -1

    def test_against_rational_oracle(self):
        # every graph on at most 6 vertices against the thresholds of
        # S_{6,2} (1/2 + sqrt(8.25)), S_{5,2} (3) and S+_{6,2} (a cubic)
        families = [CompleteSplit(6, 2), CompleteSplit(5, 2), CompleteSplitPlus(6, 2)]
        for fam in families:
            q = charpoly(split_quotient(fam))
            theta = LargestRoot(q)
            for n in range(1, 7):
                for g in all_graphs(n):
                    assert theta.compare(g) == exact_mu_sign(g, q), (fam, g.edges())

    def test_multiple_roots(self):
        # (x - 2)^3: the Sturm chain is taken of the squarefree part
        theta = LargestRoot((1, -6, 12, -8))
        assert theta.value == pytest.approx(2.0, abs=1e-11)
        assert theta.compare(build_family(Complete(3))) == 0
        assert theta.compare(build_family(Path(3))) == -1
        assert theta.compare(build_family(Complete(4))) == 1

    def test_multiple_eigenvalue_at_an_interval_end(self):
        # bisecting the Cauchy interval (-4, 4] of x - 2 ends the interval
        # exactly at 2, a double eigenvalue of 2 K_3, where every term of a
        # Sturm chain that was not reduced to the squarefree part vanishes
        k3, k4 = build_family(Complete(3)), build_family(Complete(4))
        theta = LargestRoot((1, -2))
        assert theta.compare(disjoint_union(k3, k3)) == 0
        assert theta.compare(disjoint_union(k4, disjoint_union(k3, k3))) == 1

    def test_root_closer_than_the_first_interval(self):
        # theta = a / 2^70 within 2^-70 of mu(P_3) = sqrt(2): the interval
        # must be narrowed past its first 2^-50 width to separate them
        a = math.isqrt(2 << 140)  # floor(sqrt(2) 2^70)
        p3 = build_family(Path(3))
        assert LargestRoot((1 << 70, -a)).compare(p3) == 1
        assert LargestRoot((1 << 70, -(a + 1))).compare(p3) == -1
        assert exact_mu_sign(p3, (1, 0, -2)) == 0 == LargestRoot((1, 0, -2)).compare(p3)

    def test_rejects_polynomials_without_real_root(self):
        for q in [(1,), (1, 0, 1)]:
            with pytest.raises(ParameterError):
                LargestRoot(q)


class TestSandwich:
    def test_pinned_interval(self):
        lo, hi = mu_S_plus_bounds(20, 2)
        assert lo == pytest.approx(6.520797289396148, abs=1e-9)
        assert hi == pytest.approx(lo + 1 / 12, abs=1e-12)
        assert hi == pytest.approx(6.604130622729481, abs=1e-9)

    def test_strictness_grid(self):
        for k in range(1, 6):
            for n in range(k + 2, 41):
                if n - k - 2 * math.sqrt((n - k) / k) <= 0:
                    continue
                lo, hi = mu_S_plus_bounds(n, k)
                mu = spectral_radius(build_family(CompleteSplitPlus(n, k))).mu
                assert lo < mu < hi

    def test_degenerate_denominator(self):
        # n - k - 2 sqrt((n-k)/k) = 0 exactly at (n, k) = (3, 1)
        with pytest.raises(BoundInapplicableError):
            mu_S_plus_bounds(3, 1)


class TestOtherBounds:
    def test_bound_edges_tight_on_complete(self):
        # K_n: mu = n-1 = -1/2 + sqrt(2m + 1/4) with m = n(n-1)/2
        for n in range(2, 10):
            m = n * (n - 1) // 2
            assert bound_edges(m) == pytest.approx(n - 1, abs=1e-12)

    def test_bound_min_degree_reduces_to_edges(self):
        assert bound_min_degree(10, 15, 0) == pytest.approx(bound_edges(15), abs=1e-12)

    def test_bounds_dominate_random(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_connected(rng.randint(2, 9), rng)
            mu = spectral_radius(g).mu
            assert mu <= bound_edges(g.e) + 1e-9
            assert mu <= bound_min_degree(g.n, g.e, min(g.degrees())) + 1e-9

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            bound_edges(-1)
        with pytest.raises(ParameterError):
            bound_min_degree(5, 2, 3)  # m below delta*n/2


class TestQuotientCertificate:
    def test_equality_on_complete_split(self):
        g = build_family(CompleteSplit(5, 2))
        cert = lemma1_certificate(g, 1, 6)
        assert cert.column_sums == (0, 0, 0, 0, 0)
        assert cert.verdict == "proves_equality"
        assert cert.mu_prime == pytest.approx(3.0, abs=1e-12)

    def test_equality_grid(self):
        # includes k = 1, where a = 0 and the quotient root is sqrt(n-1)
        for k in range(1, 6):
            for n in range(k + 2, 31):
                g = build_family(CompleteSplit(n, k))
                cert = lemma1_certificate(g, k - 1, k * (n - k))
                assert all(s == 0 for s in cert.column_sums)
                assert cert.verdict == "proves_equality"

    def test_triangle_column_sums(self):
        # K_3: A^2 - A - 2I has all-zero column sums, so mu = 2 is certified
        g = build_family(Complete(3))
        cert = lemma1_certificate(g, 1, 2)
        assert cert.column_sums == (0, 0, 0)
        assert cert.verdict == "proves_equality"
        assert cert.mu_prime == pytest.approx(2.0, abs=1e-12)

    def test_upper_bound_verdict_sound(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_connected(rng.randint(2, 8), rng)
            a = rng.randint(1, 4)
            b = rng.randint(1, 12)
            cert = lemma1_certificate(g, a, b)
            mu = spectral_radius(g).mu
            if cert.verdict == "proves_upper_bound":
                assert mu <= cert.mu_prime + 1e-9
            if cert.verdict == "proves_equality":
                assert mu == pytest.approx(cert.mu_prime, abs=1e-8)

    def test_connectivity_required(self):
        g = disjoint_union(build_family(Path(2)), build_family(Path(2)))
        with pytest.raises(HypothesisViolationError):
            lemma1_certificate(g, 1, 2)

    def test_equality_at_max_vertices(self):
        # S_{5000,2}: an n x n integer matrix would take 200 MB here
        g = build_family(CompleteSplit(5000, 2))
        cert = lemma1_certificate(g, 1, 2 * 4998)
        assert cert.column_sums == (0,) * 5000
        assert cert.verdict == "proves_equality"


class TestWalkSum:
    def test_zero_on_extremal(self):
        g = build_family(CompleteSplit(5, 2))
        assert walk_sum_B_u(g, 0, 2).b_u == 0  # hub vertex
        assert walk_sum_B_u(g, 4, 2).b_u == 0  # independent-set vertex

    def test_matches_matrix_column_sum(self):
        # B_u is the u-column sum of A^2 - (k-1)A - k(n-k)I, here on the
        # oracle's matrix
        for g in [build_family(CompleteSplit(n, k)) for n, k in [(6, 2), (9, 3), (12, 2)]] + [
            random_graph(n, p=0.4, seed=n) for n in range(2, 12)
        ]:
            n = g.n
            adj = edge_list_adjacency(g, dtype=np.int64)
            for k in (2, 3):
                bmat = adj @ adj - (k - 1) * adj - k * (n - k) * np.eye(n, dtype=np.int64)
                for u in range(n):
                    assert walk_sum_B_u(g, u, k).b_u == int(bmat[:, u].sum())

    @pytest.mark.parametrize("n", range(1, 8))
    def test_against_the_edge_list(self, n):
        # L_u, its N1 degrees and B_u, rebuilt from g.edges() alone
        for g in all_graphs(n):
            edges = g.edges()
            for u in range(n):
                n1 = {w for v, w in edges if v == u} | {v for v, w in edges if w == u}
                n2 = {x for e in edges if set(e) & n1 for x in e} - n1 - {u}
                l_edges = {e for e in edges if set(e) & n1 and set(e) <= n1 | n2}
                for k in (2, 3):
                    w = walk_sum_B_u(g, u, k)
                    assert w.n1 == tuple(sorted(n1))
                    assert w.l_vertices == tuple(sorted(n1 | n2))
                    l_deg = {v: sum(v in e for e in l_edges) for v in n1}
                    assert w.degree_in_l == tuple(l_deg[v] for v in w.n1)
                    assert w.b_u == sum(w.degree_in_l) - (k - 2) * len(n1) - k * (n - k)
                    got = {tuple(sorted((w.l_vertices[i], w.l_vertices[j])))
                           for i, j in w.l_graph.edges()}
                    assert got == l_edges
                    assert w.l_graph.e == len(l_edges)

    def test_l_graph_structure(self):
        g = build_family(Path(4))
        w = walk_sum_B_u(g, 0, 2)
        # N1 = {1}, N2 = {2}; L keeps the single edge 1-2
        assert w.n1 == (1,)
        assert w.l_graph.e == 1
        assert w.b_u == 1 - 0 * 1 - 2 * 2

    def test_parameter_checks(self):
        g = build_family(Path(3))
        with pytest.raises(ParameterError):
            walk_sum_B_u(g, 5, 2)
        with pytest.raises(ParameterError):
            walk_sum_B_u(g, 0, 0)


class TestDenseCoreWitness:
    def test_dense_graph_triggers_condition_i(self):
        g = build_family(Complete(30))
        out = dense_core_witness(g, 2, 1)
        assert out is not None
        h, cond = out
        assert cond == "i"
        assert h.n == 30

    def test_extremal_family_peels_to_none(self):
        # S_{100,2}: mu = 0.5 + sqrt(196.25) sits below both witness
        # thresholds and every vertex has degree >= k, so peeling stalls
        g = build_family(CompleteSplit(100, 2))
        assert dense_core_witness(g, 2, 2) is None

    def test_sparse_graph_returns_none(self):
        assert dense_core_witness(build_family(Path(12)), 2, 1) is None

    def test_witness_conditions_hold(self):
        g = build_family(Complete(40))
        h, cond = dense_core_witness(g, 3, 1)
        mu = spectral_radius(h).mu
        if cond == "i":
            assert mu > math.sqrt(7 * h.n)
        else:
            assert h.n >= math.sqrt(g.n) and min(h.degrees()) >= 3

    def test_k_check(self):
        with pytest.raises(ParameterError):
            dense_core_witness(build_family(Path(3)), 1, 1)
