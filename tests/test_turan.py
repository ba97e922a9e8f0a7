import pytest

from spectree.errors import HypothesisViolationError, ParameterError
from spectree.graphs import (
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    Path,
    Spider,
    build_family,
    disjoint_union,
)
from spectree.embed import longest_path_stats
from spectree.spectral import mu_S_closed, mu_S_plus_bounds
from spectree.turan import (
    bound_ell_P3,
    bound_linear_forest,
    bound_path,
    check_lemma,
    edge_threshold_S_plus,
    three_leg_spiders,
)
from spectree.enumeration import all_graphs


class TestBounds:
    def test_path_bound_values(self):
        b = bound_path(10, 4)
        assert b.bound == 10.0
        assert b.applicability == "exact"

    def test_path_bound_tight_on_clique_unions(self):
        # disjoint K_{t-1} blocks meet (t-2)n/2 exactly and avoid P_t
        for t in (3, 4, 5):
            g = build_family(Complete(t - 1))
            g = disjoint_union(g, build_family(Complete(t - 1)))
            assert g.e == (t - 2) * g.n / 2
            assert longest_path_stats(g).longest_order == t - 1

    def test_ell_p3_marked_asymptotic(self):
        b = bound_ell_P3(12, 2)
        assert b.bound == 18.0
        assert b.applicability == "asymptotic"
        with pytest.raises(ParameterError):
            bound_ell_P3(12, 1)

    def test_linear_forest_bound(self):
        b = bound_linear_forest(20, (4, 5))
        assert b.bound == 60.0
        assert b.applicability == "asymptotic"

    def test_linear_forest_exclusions(self):
        with pytest.raises(ParameterError):
            bound_linear_forest(20, (3, 3, 3))  # the all-P3 case is excluded
        with pytest.raises(ParameterError):
            bound_linear_forest(20, (4,))
        with pytest.raises(ParameterError):
            bound_linear_forest(20, (4, 1))

    def test_path_bound_needs_two_vertices(self):
        # every graph on n >= 1 vertices contains P_1: no P_1-free graph
        # exists, and (t-2)n/2 would read -n/2
        with pytest.raises(ParameterError):
            bound_path(3, 1)

    def test_ell_p3_bound_needs_a_vertex(self):
        with pytest.raises(ParameterError):
            bound_ell_P3(-5, 2)

    def test_linear_forest_bound_needs_a_vertex(self):
        with pytest.raises(ParameterError):
            bound_linear_forest(0, (4, 5))

    @pytest.mark.parametrize(
        "fn, family, outside",
        [
            (mu_S_closed, "CompleteSplit", [(5, 0), (5, 5), (3, -1)]),
            (mu_S_plus_bounds, "CompleteSplitPlus", [(5, 0), (5, 4), (3, -1)]),
            (edge_threshold_S_plus, "CompleteSplitPlus", [(5, 0), (5, 4), (3, -1)]),
        ],
    )
    def test_split_domains_are_the_family_specs(self, fn, family, outside):
        # the (n, k) domain is the family spec's, checked by its validate()
        for n, k in outside:
            with pytest.raises(ParameterError, match=f"{family} requires"):
                fn(n, k)

    def test_edge_threshold(self):
        # threshold equals the edge count of the one-edge augmentation
        for n in range(4, 40):
            for k in range(1, n - 1):
                g = build_family(CompleteSplitPlus(n, k))
                assert edge_threshold_S_plus(n, k) == g.e


class TestThreeLegSpiders:
    def test_small_orders(self):
        assert [s.legs for s in three_leg_spiders(4)] == [(1, 1, 1)]
        assert [s.legs for s in three_leg_spiders(5)] == [(2, 1, 1)]
        assert sorted(s.legs for s in three_leg_spiders(6)) == [(2, 2, 1), (3, 1, 1)]

    def test_orders_are_exact(self):
        for t in range(4, 10):
            spiders = three_leg_spiders(t)
            assert spiders
            assert all(s.order == t for s in spiders)
            assert all(len(s.legs) == 3 for s in spiders)


class TestCheckLemma:
    def test_sum_longest_path_holds_everywhere(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert not check_lemma(g, "sum_longest_path").violation

    def test_spider_lemma_holds_small(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                for t in (4, 5):
                    assert not check_lemma(g, "spider3_erdos_sos", t=t).violation

    def test_spider_lemma_reports_missing(self):
        # C_4 has e = n so it misses the bound for t = 4 (hyp fails), while
        # K_4 satisfies it and contains the 3-star
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        v = check_lemma(c4, "spider3_erdos_sos", t=4)
        assert not v.hypothesis_holds and not v.violation
        v = check_lemma(build_family(Complete(4)), "spider3_erdos_sos", t=4)
        assert v.hypothesis_holds and v.conclusion_holds

    def test_spider_lemma_rejects_small_t(self):
        # no 3-leg spider has fewer than 4 vertices, so t <= 3 would give a
        # vacuous verdict whose hypothesis and conclusion both hold
        for t in (1, 2, 3):
            with pytest.raises(ParameterError):
                check_lemma(build_family(Path(5)), "spider3_erdos_sos", t=t)

    def test_path_turan_excludes_extremal(self):
        g = build_family(CompleteSplitPlus(12, 2))
        v = check_lemma(g, "path_turan", k=2)
        assert not v.hypothesis_holds  # the extremal graph itself is excluded

    def test_path_turan_on_complete(self):
        g = build_family(Complete(9))
        v = check_lemma(g, "path_turan", k=2)
        assert v.hypothesis_holds and v.conclusion_holds and not v.violation

    def test_broom_turan_on_complete(self):
        g = build_family(Complete(8))
        v = check_lemma(g, "broom_turan", k=2)
        assert v.hypothesis_holds and v.conclusion_holds

    def test_connectivity_requirements(self):
        g = disjoint_union(build_family(Complete(3)), build_family(Complete(3)))
        with pytest.raises(HypothesisViolationError):
            check_lemma(g, "path_turan", k=2)
        with pytest.raises(HypothesisViolationError):
            check_lemma(g, "broom_turan", k=2)

    def test_unknown_lemma(self):
        with pytest.raises(ParameterError):
            check_lemma(build_family(Path(3)), "nope")

    def test_missing_parameters(self):
        g = build_family(Complete(4))
        with pytest.raises(ParameterError):
            check_lemma(g, "path_turan")
        with pytest.raises(ParameterError):
            check_lemma(g, "spider3_erdos_sos")

    def test_verdicts_equal_iff_graphs_equal(self):
        g = build_family(Path(5))
        v = check_lemma(g, "sum_longest_path")
        assert v == check_lemma(build_family(Path(5)), "sum_longest_path")
        # a relabelled path reads the same otherwise but is another graph
        other = Graph.from_edges(5, [(0, 2), (2, 1), (1, 3), (3, 4)])
        assert other != g
        assert v != check_lemma(other, "sum_longest_path")


class TestPathTuranExhaustiveSmall:
    def test_no_violations_n6(self):
        # e > (t-2)n/2 forces P_t: exhaustive over n <= 6, t <= 6
        for n in range(1, 7):
            for g in all_graphs(n):
                stats = longest_path_stats(g)
                for t in range(3, 7):
                    if g.e > (t - 2) * n / 2:
                        assert stats.longest_order >= t
