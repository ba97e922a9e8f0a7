"""Acceptance gate: the ten release criteria, one pass/fail line each.

Each test prints exactly one line of the form

    ACCEPTANCE <id> <title>: PASS (<elapsed>s)

(or FAIL) so the suite log doubles as the acceptance report.  Expensive
shared artifacts (the exhaustive graph streams) are session-cached.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from spectree.graphs import (
    Broom,
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    build_family,
    canonical_key,
    canonical_keys,
    decode_graph6,
    encode_graph6,
    empty_graph,
)
from spectree.spectral import (
    lemma1_certificate,
    mu_S_closed,
    mu_S_plus_bounds,
    bound_edges,
    bound_min_degree,
    spectral_radius,
)
from spectree.embed import (
    all_trees_of_order,
    contains_tree,
    is_valid_embedding,
    longest_path_stats,
)
from spectree.turan import edge_threshold_S_plus, three_leg_spiders
from spectree.enumeration import all_graphs
from spectree.harness import (
    CampaignSpec,
    Source,
    VerificationReport,
    report_to_json,
    run_campaign,
)
from oracles import brute_force_contains, labeled_tree_from_pruefer

GRID = [(n, k) for k in range(1, 6) for n in range(k + 2, 61)]


class _Criterion:
    """Context manager printing the one-line verdict for a criterion."""

    def __init__(self, ident, title, limit_s):
        self.ident = ident
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.ident} {self.title}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed > self.limit_s:
            pytest.fail(
                f"criterion {self.ident} exceeded its {self.limit_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_01_closed_form_vs_eigensolver():
    with _Criterion(1, "closed form vs eigensolver on the grid", 10):
        assert mu_S_closed(5, 2) == pytest.approx(3.0, abs=1e-12)
        assert mu_S_closed(8, 2) == pytest.approx(4.0, abs=1e-12)
        for n, k in GRID:
            mu = spectral_radius(build_family(CompleteSplit(n, k))).mu
            assert abs(mu - mu_S_closed(n, k)) <= 1e-8, (n, k)


def test_02_sandwich_bounds_strict():
    with _Criterion(2, "one-edge augmentation sandwich is strict", 10):
        lo20, hi20 = mu_S_plus_bounds(20, 2)
        assert lo20 == pytest.approx(6.520797, abs=1e-6)
        assert hi20 == pytest.approx(6.604131, abs=1e-6)
        for n, k in GRID:
            if n - k - 2 * math.sqrt((n - k) / k) <= 0:
                continue
            lo, hi = mu_S_plus_bounds(n, k)
            mu = spectral_radius(build_family(CompleteSplitPlus(n, k)), tol=1e-12).mu
            assert lo < mu < hi, (n, k, lo, mu, hi)


def test_03_quotient_certificate_exact_zeros():
    with _Criterion(3, "quotient certificate: exact zero column sums", 5):
        for n, k in GRID:
            cert = lemma1_certificate(
                build_family(CompleteSplit(n, k)), k - 1, k * (n - k)
            )
            assert cert.column_sums == (0,) * n, (n, k)
            assert cert.verdict == "proves_equality"


def test_04_broom_exception_tables():
    with _Criterion(4, "broom exception tables at n=30", 30):
        n = 30
        for k in (2, 3):
            order = 2 * k + 3
            s_host = build_family(CompleteSplit(n, k))
            plus_host = build_family(CompleteSplitPlus(n, k))
            s_missing = set()
            plus_missing = set()
            for s in range(1, order - 1):
                t = order - s
                broom = Broom(s, t)
                if contains_tree(s_host, broom) is None:
                    s_missing.add((s, t))
                if contains_tree(plus_host, broom) is None:
                    plus_missing.add((s, t))
            assert s_missing == {(1, 2 * k + 2), (2, 2 * k + 1)}, (k, s_missing)
            assert plus_missing == {(1, 2 * k + 2)}, (k, plus_missing)


def test_05_broom_witness_and_edge_formula():
    with _Criterion(5, "long-broom witness and edge threshold formula", 5):
        pat = build_family(Broom(2, 5))
        for n in (10, 20):
            host = build_family(CompleteSplitPlus(n, 2))
            emb = contains_tree(host, pat)
            assert emb is not None and is_valid_embedding(host, pat, emb), n
        for n, k in GRID:
            if k > n - 2:
                continue
            assert (
                edge_threshold_S_plus(n, k)
                == k * n - k * (k + 1) // 2 + 1
                == build_family(CompleteSplitPlus(n, k)).e
            )


def test_06_unconditional_lemma_suites_exhaustive():
    with _Criterion(6, "exhaustive unconditional lemma suites", 600):
        # longest-path walk bound, exact: all connected graphs n <= 7
        for n in range(1, 8):
            for g in all_graphs(n, connected_only=True):
                stats = longest_path_stats(g)
                assert 2 * g.e <= sum(stats.p), encode_graph6(g)

        # path edge threshold, exact: all graphs n <= 8, t <= 6
        # three-leg spider threshold, exact: all graphs n <= 8, t in {4, 5}
        spiders = {t: three_leg_spiders(t) for t in (4, 5)}
        for n in range(1, 9):
            for g in all_graphs(n):
                ell = longest_path_stats(g).longest_order
                for t in range(3, 7):
                    if 2 * g.e > (t - 2) * n:
                        assert ell >= t, (encode_graph6(g), t)
                for t in (4, 5):
                    if 2 * g.e > (t - 2) * n:
                        for sp in spiders[t]:
                            assert contains_tree(g, sp) is not None, (
                                encode_graph6(g),
                                sp.legs,
                            )

        # spectral bounds dominate mu: all graphs n <= 7
        for n in range(1, 8):
            for g in all_graphs(n):
                mu = spectral_radius(g).mu if g.e else 0.0
                assert mu <= bound_edges(g.e) + 1e-9, encode_graph6(g)
                delta = min(g.degrees())
                assert mu <= bound_min_degree(n, g.e, delta) + 1e-9, encode_graph6(g)


def test_07_embedder_oracle_equivalence():
    with _Criterion(7, "embedder agrees with permutation oracle", 60):
        rng = random.Random(2024)
        trees = {t: all_trees_of_order(t) for t in range(2, 7)}
        for _ in range(200):
            n = rng.randint(2, 7)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.choice((0.2, 0.4, 0.6, 0.8))
            ]
            host = Graph.from_edges(n, edges)
            pat = rng.choice(trees[rng.randint(2, min(6, n))])
            got = contains_tree(host, pat)
            expect = brute_force_contains(host, pat)
            assert (got is None) == (expect is None)
            if got is not None:
                assert is_valid_embedding(host, pat, got)


def _oracle_graph_classes(n):
    """Vectorized min-over-permutations bitmask dedup, independent of the
    production canonical form."""
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    nbits = len(pairs)
    codes = np.arange(1 << nbits, dtype=np.int64)
    bit = (codes[:, None] >> np.arange(nbits)) & 1
    weights = np.int64(1) << np.arange(nbits, dtype=np.int64)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        idx = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        np.minimum(best, bit[:, idx] @ weights, out=best)
    return len(np.unique(best))


def test_08_enumeration_regressions():
    with _Criterion(8, "enumeration counts pinned against oracles", 60):
        oracle_counts = [1] + [_oracle_graph_classes(n) for n in range(2, 7)]
        assert oracle_counts == [1, 2, 4, 11, 34, 156]
        assert [len(all_graphs(n)) for n in range(1, 7)] == oracle_counts

        pinned_trees = {6: 6, 7: 11, 8: 23}
        for order, expect in pinned_trees.items():
            # keyed in one canonical_keys block per first Pruefer entry
            keys = set()
            for first in range(order):
                block = [
                    labeled_tree_from_pruefer((first, *rest), order)
                    for rest in itertools.product(range(order), repeat=order - 3)
                ]
                keys.update(canonical_keys(block))
            assert len(keys) == expect, order
            assert len(all_trees_of_order(order)) == expect, order


def test_09_conjecture_campaign_report():
    with _Criterion(9, "exhaustive n=8 campaign report invariants", 600):
        spec = CampaignSpec(
            campaign="conjecture_a", k=2, n_min=8, n_max=8, source=Source("exhaustive")
        )
        report = run_campaign(spec)
        assert report.totals["graphs_scanned"] == 12346

        # the extremal graph is the unique exceptional equality graph
        excluded = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        assert len(excluded) == 1
        assert excluded[0]["key"] == canonical_key(build_family(CompleteSplit(8, 2)))

        # schema-valid, deterministic report
        payload = report_to_json(report)
        data = json.loads(payload)
        assert data["schema_version"] == 1
        assert set(data) == {
            "schema_version",
            "spec",
            "totals",
            "verdicts",
            "violations",
            "boundary",
            "empirical_thresholds",
            "timings",
            "tool_version",
        }
        assert report_to_json(VerificationReport(**data)) == payload

        # a second run agrees on the violation set (and verdicts)
        again = run_campaign(spec)
        assert again.violations == report.violations
        assert again.verdicts == report.verdicts


def test_10_graph6_conformance():
    with _Criterion(10, "graph6 round-trip and byte-exact fixtures", 30):
        for n in range(1, 8):
            for g in all_graphs(n):
                assert decode_graph6(encode_graph6(g)) == g
        fixtures = {
            "@": empty_graph(1),
            "A_": Graph.from_edges(2, [(0, 1)]),
            "Bw": Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
            "D?{": Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
            # path 0-1-2-3-4: column-major upper-triangle bits 101001|000100
            "DhC": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            # complete K5: 111111|111100
            "D~{": Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
        }
        for text, g in fixtures.items():
            assert encode_graph6(g) == text, text
            assert decode_graph6(text) == g, text
