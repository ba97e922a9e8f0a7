import csv
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spectree.errors import BudgetExceededError, HypothesisViolationError, ParameterError
from spectree.graphs import (
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Spider,
    _slice_size,
    build_family,
    canonical_key,
    decode_graph6,
    encode_graph6,
)
from spectree.embed import (
    all_trees_of_order,
    contains_tree,
    longest_path_stats,
    proof_guided_spider_embed,
    tree_test,
)
from spectree.enumeration import all_graphs, graph_order
from spectree.spectral import LargestRoot, charpoly, spectral_radii, split_quotient
from spectree.turan import check_lemma, partitions, three_leg_spiders
from spectree import harness, turan
from spectree.harness import (
    CAMPAIGNS,
    CampaignSpec,
    Source,
    VerificationReport,
    report_to_csv,
    report_to_json,
    run_campaign,
    write_report,
)

from oracles import brute_force_contains, eigh_mu, exact_mu_sign


def count_mu_graphs(monkeypatch):
    """Make harness.spectral_radii record the canonical key of every graph
    it is given; returns the list it appends to."""
    seen = []

    def counting(graphs, *args, **kwargs):
        graphs = list(graphs)
        seen.extend(canonical_key(g) for g in graphs)
        return spectral_radii(graphs, *args, **kwargs)

    monkeypatch.setattr(harness, "spectral_radii", counting)
    return seen


def small_spec(**kw):
    args = dict(campaign="conjecture_a", k=2, n_min=6, n_max=6, source=Source("exhaustive"))
    args.update(kw)
    return CampaignSpec(**args)


class TestSpecValidation:
    def test_unknown_campaign(self):
        with pytest.raises(ParameterError):
            small_spec(campaign="nope").validate()

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            small_spec(k=1).validate()

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            small_spec(n_min=8, n_max=6).validate()

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one(self, budget, monkeypatch):
        # rejected before any graph is scanned
        monkeypatch.setattr(harness, "_source", None)
        with pytest.raises(ParameterError, match="budget"):
            run_campaign(small_spec(budget=budget))

    @pytest.mark.parametrize(
        "source",
        # no draws, negative draws, a perturbation of radius < 1, and a
        # perturbation base that is not a complete split, or none
        [
            Source("random", count=-3),
            Source("random", count=0),
            Source("perturbation", count=0, base=CompleteSplit(6, 2)),
            Source("perturbation", count=5, base=CompleteSplit(6, 2), radius=0),
            Source("perturbation", count=5, base=CompleteSplit(6, 2), radius=-1),
            Source("perturbation", count=5, base=Complete(6)),
            Source("perturbation", count=5),
        ],
    )
    def test_bad_sampled_source(self, source):
        with pytest.raises(ParameterError):
            small_spec(source=source).validate()

    @pytest.mark.parametrize(
        "campaign, k, n_min, smallest",
        [
            ("theorem_spider", 2, 1, 3),
            ("conjecture_a", 2, 2, 3),
            ("theorem_path", 3, 3, 4),
            ("genbroom_explore", 2, 2, 3),
            ("conjecture_b", 3, 4, 5),
        ],
    )
    def test_range_below_the_threshold_family(self, campaign, k, n_min, smallest):
        # mu(S_{n,k}) needs n >= k + 1 and mu(S+_{n,k}) needs n >= k + 2
        with pytest.raises(ParameterError, match=f"n >= {smallest} "):
            small_spec(campaign=campaign, k=k, n_min=n_min, n_max=8).validate()
        small_spec(campaign=campaign, k=k, n_min=smallest, n_max=8).validate()

    @pytest.mark.parametrize("campaign", ["lemma_suite", "broom_turan"])
    def test_campaigns_without_threshold_start_at_one(self, campaign):
        small_spec(campaign=campaign, k=3, n_min=1, n_max=2).validate()


class TestMuCampaign:
    def test_exhaustive_n6(self):
        # order 6 = 2k+2: target trees are spanning, so disconnected dense
        # graphs (e.g. K_5 + K_1) are genuine desk-scale violations; the
        # invariants are internal consistency, not a zero count
        report = run_campaign(small_spec())
        assert report.totals["graphs_scanned"] == 156
        q = charpoly(split_quotient(CompleteSplit(6, 2)))
        for v in report.verdicts:
            if v["classification"] == "excluded_exceptional":
                continue
            qualifies = exact_mu_sign(decode_graph6(v["key"]), q) >= 0
            assert v["classification"] == ("qualifying" if qualifies else "non_qualifying")
            if qualifies:
                assert v["conclusion_holds"] == (not v["missing"])
                assert v["violation"] == bool(v["missing"])
        # mu(EK~o) = mu(S_{6,2}) = 1/2 + sqrt(8.25) exactly
        (eq,) = [v for v in report.verdicts if v["key"] == "EK~o"]
        assert eq["classification"] == "qualifying"
        assert report.totals["violations"] == len(report.violations)
        assert all(v["missing"] for v in report.violations)

    def test_one_spectral_radius_call_per_graph(self, monkeypatch):
        # every scanned graph passes through the batch exactly once
        seen = count_mu_graphs(monkeypatch)
        report = run_campaign(small_spec(n_min=5, n_max=5))
        assert len(seen) == report.totals["graphs_scanned"] == 34
        assert sorted(seen) == sorted(v["key"] for v in report.verdicts)
        assert len(set(seen)) == 34

    def test_one_spectral_radii_call_per_order(self, monkeypatch):
        # spectral_radii slices each order itself; the harness hands it the
        # whole order at once
        sizes = []

        def recording(graphs, *args, **kwargs):
            sizes.append(len(graphs))
            return spectral_radii(graphs, *args, **kwargs)

        monkeypatch.setattr(harness, "spectral_radii", recording)
        run_campaign(small_spec(n_min=7, n_max=8))
        assert sizes == [1044, 12346]

    def test_violations_carry_witness_keys(self):
        # e.g. the octahedron qualifies but has max degree 4, so the 5-star
        # is genuinely missing; violations must name their graphs stably
        report = run_campaign(small_spec())
        for v in report.violations:
            assert v["key"] and v["classification"] == "qualifying"

    def test_extremal_graph_excluded(self):
        report = run_campaign(small_spec())
        excluded = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        assert len(excluded) == 1
        assert excluded[0]["key"] == canonical_key(build_family(CompleteSplit(6, 2)))

    def test_conjecture_b_excludes_augmented_extremal(self):
        spec = small_spec(campaign="conjecture_b")
        report = run_campaign(spec)
        excluded = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        keys = {v["key"] for v in excluded}
        assert canonical_key(build_family(CompleteSplitPlus(6, 2))) in keys

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_conjecture_b_excludes_complete_graph(self, n, k):
        # S+_{n,n-2} is K_n, the only graph of order n at its threshold
        report = run_campaign(small_spec(campaign="conjecture_b", k=k, n_min=n, n_max=n))
        (excluded,) = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        assert excluded["key"] == canonical_key(build_family(Complete(n)))
        assert report.totals["hypothesis_satisfying"] == 0

    @pytest.mark.parametrize(
        "campaign, digest",
        [
            ("conjecture_a", "88d7cae2e5fdb1cdcb7670f082915802f92cbfd8aa1a83732c7aebb1114e6c5a"),
            ("lemma_suite", "ae876c2c3382df7498bddc95d7e82219677da6f5e3aeefb9a87a92837e86a230"),
        ],
    )
    def test_pinned_random_source_n7(self, campaign, digest):
        # 60 draws on 7 vertices, keyed by one canonical_keys call: sha256
        # of the report outside its timings, pinned from the per-graph
        # canonical_key keys
        spec = CampaignSpec(campaign, 2, 7, 7, Source("random", count=60, seed=3))
        report = run_campaign(spec)
        keys = [v["key"] for v in report.verdicts]
        assert sorted(keys) == sorted(canonical_key(decode_graph6(k)) for k in keys)
        assert len(set(keys)) == 56
        payload = [report.verdicts, report.violations, report.totals, report.empirical_thresholds]
        assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "campaign, k, base, n_max, seed, digest",
        [
            (
                "conjecture_b", 3, CompleteSplitPlus(24, 3), 40, 1,
                "da27707dcaf9d655a20689df0bd97caccf7a1c807501ce09cc362c23427475c3",
            ),
            (
                "conjecture_a", 3, CompleteSplit(12, 3), 30, 2,
                "10e2ae4b1767d22771bc261059050fda76beb6593cc5c1a0529ffd9f413fe3f4",
            ),
            (
                "theorem_spider", 2, CompleteSplit(8, 2), 16, 3,
                "8eb1c4e9235ab8744002f789b405129ee79cfc6092ede491a69fcbe9d9651b6f",
            ),
        ],
    )
    def test_pinned_perturbation_reports(self, campaign, k, base, n_max, seed, digest):
        # radius 2, six draws per (add, remove) pair around the extremal
        # graph from base.n to n_max: sha256 of the JSON report with its
        # timings emptied, pinned from the sampler that listed every edge
        # and non-edge and the containment scan that called contains_tree
        source = Source("perturbation", count=6, seed=seed, base=base, radius=2)
        report = run_campaign(CampaignSpec(campaign, k, base.n, n_max, source))
        assert lemma_digest(report) == digest

    def test_random_source_deterministic(self):
        # 30 draws on 4 vertices (11 classes) repeat keys; verdicts come in
        # (n, key, index) order and two runs agree byte for byte outside
        # the timings
        spec = small_spec(n_min=4, n_max=5, source=Source("random", count=30, seed=9))
        a = run_campaign(spec)
        b = run_campaign(spec)
        order = [(v["n"], v["key"], v["index"]) for v in a.verdicts]
        assert len({(n, key) for n, key, _ in order}) < len(order)
        assert order == sorted(order)
        assert a.verdicts == b.verdicts
        assert a.totals == b.totals
        strip = lambda r: report_to_json(dataclasses.replace(r, timings={}))
        assert strip(a) == strip(b)

    def test_perturbation_source(self):
        spec = small_spec(
            n_min=10,
            n_max=10,
            source=Source("perturbation", count=5, seed=4, base=CompleteSplit(10, 2), radius=1),
        )
        report = run_campaign(spec)
        # the unperturbed base is index 0 and sits exactly on its threshold
        base = next(v for v in report.verdicts if v["index"] == 0)
        assert base["classification"] == "excluded_exceptional"
        assert report.totals["graphs_scanned"] == 11

    def test_theorem_path_campaign(self):
        report = run_campaign(small_spec(campaign="theorem_path", n_min=7, n_max=7))
        assert report.totals["hypothesis_satisfying"] > 0
        # every violation names the missing path pattern
        assert all(v["missing"] == ["path"] for v in report.violations)


def _digest(keys):
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _numpy_mu(n):
    """(graph, largest adjacency eigenvalue by eigvalsh) for every graph on n vertices."""
    out = []
    for g in all_graphs(n):
        a = np.array([[g.has_edge(u, v) for v in range(n)] for u in range(n)], float)
        out.append((g, np.linalg.eigvalsh(a)[-1]))
    return out


@pytest.fixture(scope="module")
def report_n8():
    return run_campaign(small_spec(n_min=8, n_max=8))


class TestExactThreshold:
    # sha256 of the sorted keys, joined by "\n", of the 28 graphs other
    # than S_{8,2} with mu = mu(S_{8,2}) = 4, and of the 14 of them that
    # miss a tree of order 6
    EQUAL_N8 = "6f8f47a18a42aadd81e9b47fc660243ae16a800d9c1b3ff7329d25992e82d7e0"
    VIOLATIONS_N8 = "0a56bc385612febe1073b120f91d922c694928e38d2f047e5960002bb9959d74"

    def test_pinned_n8_report(self, report_n8):
        assert report_n8.totals == {
            "graphs_scanned": 12346,
            "hypothesis_satisfying": 5176,
            "boundary_classified": 0,
            "violations": 14,
        }
        assert report_n8.boundary == []
        assert report_n8.empirical_thresholds == {
            "per_n_violations": {"8": 14},
            "zero_violation_from_n": None,
        }
        classes = [v["classification"] for v in report_n8.verdicts]
        assert classes.count("excluded_exceptional") == 1
        assert _digest(v["key"] for v in report_n8.violations) == self.VIOLATIONS_N8
        connected = [decode_graph6(v["key"]).is_connected() for v in report_n8.violations]
        assert sum(connected) == 6

    def test_n8_chunked_mu_against_oracle(self, report_n8):
        # 12,346 graphs are solved in many slices; each row's mu is the
        # per-graph edge-list eigh value
        assert 12346 // _slice_size(8) >= 40
        for v in report_n8.verdicts:
            mu = eigh_mu(decode_graph6(v["key"]))
            assert abs(v["mu"] - mu) <= 1e-14 * max(1.0, mu), v["key"]

    def test_n8_violations_name_their_missing_trees(self, report_n8):
        # each missing pattern is named by the canonical graph6 key of a
        # tree of order 6, and the permutation oracle confirms its absence
        for v in report_n8.violations:
            host = decode_graph6(v["key"])
            assert v["missing"] == sorted(set(v["missing"])), v["key"]
            for name in v["missing"]:
                tree = decode_graph6(name)
                assert tree.n == 6 and tree.e == 5 and tree.is_connected(), name
                assert canonical_key(tree) == name
                assert brute_force_contains(host, tree) is None, (v["key"], name)

    def test_n8_equalities_against_oracle(self, report_n8):
        q = charpoly(split_quotient(CompleteSplit(8, 2)))
        equal = [
            v
            for v in report_n8.verdicts
            if abs(v["mu"] - 4) < 1e-6 and v["classification"] != "excluded_exceptional"
        ]
        assert len(equal) == 28
        assert _digest(v["key"] for v in equal) == self.EQUAL_N8
        trees = all_trees_of_order(6)
        for v in equal:
            g = decode_graph6(v["key"])
            assert exact_mu_sign(g, q) == 0, v["key"]
            assert v["classification"] == "qualifying"
            misses = any(brute_force_contains(g, t) is None for t in trees)
            assert v["violation"] == misses, v["key"]
        assert sum(v["violation"] for v in equal) == 14

    # (campaign, k) -> graphs of order <= 8 with mu within 1e-9 of the
    # threshold: the 44 graphs that a float band once left unclassified
    # (30, 11, 1 and 2) and the extremal graph of every other order
    BAND = {
        ("conjecture_a", 2): 36,
        ("conjecture_a", 3): 16,
        ("conjecture_b", 2): 5,
        ("conjecture_b", 3): 5,
    }

    @pytest.mark.parametrize("campaign, k", sorted(BAND))
    def test_band_graphs_are_exact_equalities(self, campaign, k):
        family = CompleteSplitPlus if campaign == "conjecture_b" else CompleteSplit
        band = 0
        for n in range(k + 1 + (campaign == "conjecture_b"), 9):
            q = charpoly(split_quotient(family(n, k)))
            theta = LargestRoot(q)
            for g, mu in _numpy_mu(n):
                if abs(mu - theta.value) <= 1e-9 * theta.value:
                    band += 1
                    assert exact_mu_sign(g, q) == 0 == theta.compare(g), encode_graph6(g)
        assert band == self.BAND[campaign, k]

    def test_bench_checks_accept_the_report(self, report_n8):
        # bench/checks.py, loaded read-only, is the benchmark's report gate
        path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
        spec = importlib.util.spec_from_file_location("bench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        workload = SimpleNamespace(
            campaign="conjecture_a", k=2, source="exhaustive", expected_scanned=12346
        )
        assert checks.check_report(workload, report_n8, checks.MuOracle()) == []


def count_tree_tests(monkeypatch, calls, key):
    """Make harness.tree_test count, in calls[key], the patterns that its
    per-host tests decide."""

    def counting(host, budget):
        contains = tree_test(host, budget)

        def counted(pattern):
            calls[key] += 1
            return contains(pattern)

        return counted

    monkeypatch.setattr(harness, "tree_test", counting)


def count_containment(monkeypatch):
    """Count the (graph, pattern) pairs the harness tests; returns the
    counter."""
    calls = [0]
    count_tree_tests(monkeypatch, calls, 0)
    return calls


def plain_missing(g, patterns, budget=10**8):
    """Names of the patterns g does not contain, each tested on its own."""
    return [name for name, pat in patterns if contains_tree(g, pat, budget=budget) is None]


class TestInheritedMissing:
    # an exhaustive graph tests only the patterns its enumeration parent
    # misses; these compare every qualifying row with an uninherited filter

    @pytest.mark.parametrize("campaign, n_min", [("conjecture_a", 3), ("conjecture_b", 4)])
    def test_range_against_oracles(self, campaign, n_min):
        spec = small_spec(campaign=campaign, n_min=n_min, n_max=8)
        patterns = harness._patterns(spec)
        report = run_campaign(spec)
        qualifying = [v for v in report.verdicts if v["classification"] == "qualifying"]
        # K_{n_min} is the exceptional graph, and nothing else qualifies
        assert {v["n"] for v in qualifying} == set(range(n_min + 1, 9))
        for v in qualifying:
            g = decode_graph6(v["key"])
            if v["n"] <= 6:
                expected = [
                    name for name, pat in patterns if brute_force_contains(g, pat) is None
                ]
            else:
                expected = plain_missing(g, patterns)
            assert v["missing"] == expected, v["key"]

    def test_single_order_n8_calls(self, monkeypatch, report_n8):
        # the order-7 and order-6 parent sets are computed on demand; a
        # fallback to testing all six trees would make 31,056 calls
        calls = count_containment(monkeypatch)
        report = run_campaign(small_spec(n_min=8, n_max=8))
        assert 0 < calls[0] <= 9000
        assert calls[0] == 8483
        assert report.verdicts == report_n8.verdicts
        patterns = harness._patterns(small_spec())
        for v in report.verdicts:
            if v["classification"] == "qualifying":
                assert v["missing"] == plain_missing(decode_graph6(v["key"]), patterns)

    def test_parents_are_read_through_source(self, monkeypatch, report_n8):
        # the scan reads order 8 and the memo reads the parents of order 7
        # and below through the same _source
        source = harness._source
        orders = []

        def recording(spec, n):
            orders.append(n)
            return source(spec, n)

        monkeypatch.setattr(harness, "_source", recording)
        report = run_campaign(small_spec(n_min=8, n_max=8))
        assert orders[0] == 8 and orders.count(8) == 1
        assert max(orders[1:]) == 7
        assert report.verdicts == report_n8.verdicts

    def test_no_state_between_calls(self, monkeypatch):
        calls = count_containment(monkeypatch)
        spec = small_spec(n_min=7, n_max=7)
        first = run_campaign(spec)
        work = calls[0]
        second = run_campaign(spec)
        assert calls[0] == 2 * work > 0
        assert first.verdicts == second.verdicts

    def test_undecided_ancestor_is_tested_by_its_child(self):
        # with a budget of 30 nodes some parents outside the scan exhaust
        # their search; their children then test those patterns themselves,
        # and the campaign completes as it does without inheritance
        spec = small_spec(n_min=7, n_max=7, budget=30)
        patterns = harness._patterns(spec)
        report = run_campaign(spec)
        for v in report.verdicts:
            if v["classification"] == "qualifying":
                g = decode_graph6(v["key"])
                assert v["missing"] == plain_missing(g, patterns, budget=30), v["key"]

    def test_sampled_graphs_test_every_pattern(self, monkeypatch):
        calls = count_containment(monkeypatch)
        spec = small_spec(n_min=7, n_max=7, source=Source("random", count=20, seed=4))
        report = run_campaign(spec)
        qualifying = [v for v in report.verdicts if v["classification"] == "qualifying"]
        assert qualifying
        assert calls[0] == 6 * len(qualifying)


def count_lemma_work(monkeypatch):
    """Count the longest-path DP runs (through check_lemma) and the spider
    searches of lemma_suite; returns the counter."""
    calls = {"dp": 0, "spider": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(turan, "longest_path_stats", counting("dp", longest_path_stats))
    count_tree_tests(monkeypatch, calls, "spider")
    return calls


def lemma_digest(report):
    """sha256 of the JSON report with its timings emptied."""
    report = dataclasses.replace(report, timings={})
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


class TestInheritedLemmas:
    # lemma_suite settles e <= sum(p)/2 from the parent's exact sum where it
    # can and tests only the spiders the parent misses; the lemmas never
    # fail, so the inherited facts are checked against exact ones directly
    REPORT_1_8 = "04a7e65ee037c9b632d93d95a71942b080961a23f9a17ce3539db5ef1d4e6daf"
    REPORT_8_8 = "7c847f0759832e358e8a8d61867d16b07efd25a9c4888ce025e0fa41d203aaf2"

    def test_path_sum_floor_is_sound(self):
        # the floor from the parent's exact sum never exceeds the graph's
        # exact sum; a floor of parent + 3 overshoots on 16 graphs, the
        # first K_2 over its parent K_1
        exact = {
            n: [sum(longest_path_stats(g).p) for g in graph_order(n).graphs]
            for n in range(1, 9)
        }
        over = []
        for n in range(2, 9):
            order = graph_order(n)
            for g, key, parent, total in zip(order.graphs, order.keys, order.parents, exact[n]):
                if harness._path_sum_floor(exact[n - 1][parent], g.e) > total:
                    over.append(key)
        assert over == [], (len(over), over[:3])

    def test_spider_sets_against_plain_filter(self):
        # every class on n <= 7, inside the spider hypotheses or not
        facts = harness._facts(small_spec(campaign="lemma_suite", n_min=1, n_max=8))
        for t in (4, 5):
            spiders = three_leg_spiders(t)
            for n in range(1, 8):
                for index, g in enumerate(graph_order(n).graphs):
                    plain = [sp.legs for sp in spiders if contains_tree(g, sp) is None]
                    assert [legs for legs, _ in facts.of(t, n, index)] == plain, (t, n, index)

    def test_single_order_n8_work_and_report(self, monkeypatch):
        # without inheritance: 12,346 DP runs and 20,463 spider searches
        calls = count_lemma_work(monkeypatch)
        report = run_campaign(small_spec(campaign="lemma_suite", n_min=8, n_max=8))
        assert 0 < calls["dp"] <= 3000
        assert 0 < calls["spider"] <= 1500
        assert calls["spider"] == 1281
        assert lemma_digest(report) == self.REPORT_8_8

    def test_range_report(self):
        report = run_campaign(small_spec(campaign="lemma_suite", n_min=1, n_max=8))
        assert report.totals["violations"] == 0
        assert lemma_digest(report) == self.REPORT_1_8

    def test_no_state_between_calls(self, monkeypatch):
        calls = count_lemma_work(monkeypatch)
        spec = small_spec(campaign="lemma_suite", n_min=7, n_max=7)
        first = run_campaign(spec)
        work = dict(calls)
        second = run_campaign(spec)
        assert calls == {name: 2 * count for name, count in work.items()}
        assert work["dp"] > 0 and work["spider"] > 0
        assert first.verdicts == second.verdicts


class TestOtherCampaigns:
    def test_lemma_suite_clean_n5(self):
        report = run_campaign(small_spec(campaign="lemma_suite", n_min=5, n_max=5))
        assert report.totals["graphs_scanned"] == 34
        assert report.totals["violations"] == 0

    def test_lemma_suite_spends_the_spec_budget(self):
        # one unit pays only for the split certificate, so the first spider
        # that needs a search exhausts it
        with pytest.raises(BudgetExceededError):
            run_campaign(CampaignSpec("lemma_suite", 2, 1, 7, budget=1))

    def test_broom_turan_small(self):
        report = run_campaign(small_spec(campaign="broom_turan", n_min=7, n_max=7))
        # the threshold is asymptotic; per-n counts are still reported
        assert "per_n_violations" in report.empirical_thresholds
        for v in report.verdicts:
            if v["classification"] == "qualifying" and not v["violation"]:
                assert v["conclusion_holds"] is True

    def test_broom_turan_computes_no_mu(self, monkeypatch):
        seen = count_mu_graphs(monkeypatch)
        report = run_campaign(small_spec(campaign="broom_turan", n_min=5, n_max=7))
        assert report.totals["graphs_scanned"] == 34 + 156 + 1044
        assert seen == []
        assert all(v["mu"] is None for v in report.verdicts)

    def test_genbroom_explore_is_advisory(self):
        report = run_campaign(small_spec(campaign="genbroom_explore", n_min=7, n_max=7))
        assert report.totals["violations"] == 0  # advisory: never hard-fails

    def test_campaign_registry(self):
        assert "conjecture_a" in CAMPAIGNS and "lemma_suite" in CAMPAIGNS

    @pytest.mark.parametrize(
        "campaign, n_min, digest",
        [
            ("theorem_path", 3, "44a7186651dd694071ecc424ace4575324f30e3972579bb7304836bd85273117"),
            ("theorem_brooms", 3, "cfd40a211bd36b1851755d5ff03bdcd49b0e071f681af41c571689b3861b40fa"),
            ("genbroom_explore", 3, "7b4742112a9e7bd9b8041878b1f24338fadb8118e826f362d297e978721f0f18"),
            ("conjecture_b", 4, "6ff0525b7d753d68c1fdbc8d2b847c29a42d9ad179bef886c5fd2ea8b5e7000b"),
            ("broom_turan", 1, "7a6ce7f704821d2c46deb9145420b5d526891b67bfd8758f568f16abe447a8e6"),
        ],
    )
    def test_pinned_exhaustive_reports(self, campaign, n_min, digest):
        # k = 2, every graph from the smallest valid n to 7: sha256 of the
        # JSON report with its timings emptied
        report = run_campaign(small_spec(campaign=campaign, n_min=n_min, n_max=7))
        assert lemma_digest(report) == digest


class TestCampaignsAgreeWithCheckLemma:
    # the campaigns take the lemmas' hypotheses and trees from turan, so on
    # every graph with n <= 7 their rows read as check_lemma's verdicts
    def test_lemma_suite_spider_rows(self):
        report = run_campaign(small_spec(campaign="lemma_suite", n_min=1, n_max=7))
        assert len(report.verdicts) == sum(len(graph_order(n).graphs) for n in range(1, 8))
        for v in report.verdicts:
            g = decode_graph6(v["key"])
            for t in (4, 5):
                violation = check_lemma(g, "spider3_erdos_sos", t=t).violation
                assert (f"spider3_t{t}" in v["missing"]) == violation, (v["key"], t)

    @pytest.mark.parametrize("k", [2, 3])
    def test_broom_turan_rows(self, k):
        report = run_campaign(small_spec(campaign="broom_turan", k=k, n_min=1, n_max=7))
        assert len(report.verdicts) == sum(len(graph_order(n).graphs) for n in range(1, 8))
        for v in report.verdicts:
            g = decode_graph6(v["key"])
            qualifies = v["classification"] == "qualifying"
            if not g.is_connected():
                assert not qualifies, v["key"]
                continue
            verdict = check_lemma(g, "broom_turan", k=k)
            assert qualifies == verdict.hypothesis_holds, v["key"]
            assert bool(v["missing"]) == verdict.violation, v["key"]
        # the lemma is asymptotic: small orders do fail it
        assert report.totals["violations"] > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_theorem_spider_patterns_are_the_embedder_class(self, k):
        # the spiders on 2k + 3 vertices that the proof-guided embedder
        # takes are exactly the campaign's patterns, in partition order
        host = build_family(Complete(2 * k + 3))
        accepted = []
        for legs in partitions(2 * k + 2):
            try:
                proof_guided_spider_embed(host, Spider(*legs), k)
            except HypothesisViolationError:
                continue
            accepted.append(f"spider_{'_'.join(map(str, legs))}")
        patterns = harness._patterns(small_spec(campaign="theorem_spider", k=k))
        assert [name for name, _ in patterns] == accepted
        assert 0 < len(accepted) < len(list(partitions(2 * k + 2)))


class TestExhaustiveKeys:
    # exhaustive graphs carry the canonical graph6 key they were decoded
    # from; the report keys must be exactly what canonicalising would give
    @pytest.mark.parametrize(
        "campaign, n_min",
        # mu(S_{n,2}) needs n >= 3
        [("conjecture_a", 3), ("lemma_suite", 1), ("broom_turan", 1)],
    )
    def test_keys_are_canonical(self, campaign, n_min):
        report = run_campaign(small_spec(campaign=campaign, n_min=n_min, n_max=7))
        for v in report.verdicts:
            assert v["key"] == canonical_key(decode_graph6(v["key"]))
        for n in range(n_min, 8):
            keys = [v["key"] for v in report.verdicts if v["n"] == n]
            assert keys == [canonical_key(g) for g in all_graphs(n)], n


class TestReports:
    def test_json_roundtrip(self):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        data = json.loads(report_to_json(report))
        again = VerificationReport(**data)
        assert report_to_json(again) == report_to_json(report)
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

    def test_csv_shape(self):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        lines = report_to_csv(report).splitlines()
        assert lines[0].startswith("n,index,key,mu,")
        assert len(lines) == 1 + len(report.verdicts)

    def test_render_report(self):
        # conjecture_a, k=2, n=5 has violations, so `missing` is non-empty
        report = run_campaign(small_spec(n_min=5, n_max=5))
        assert harness.render_report(report, "json") == report_to_json(report)
        text = harness.render_report(report, "csv")
        assert text == report_to_csv(report)
        # ";" lies outside the graph6 alphabet, so the CSV join splits back
        rows = list(csv.DictReader(io.StringIO(text)))
        assert any(v["missing"] for v in report.verdicts)
        for row, v in zip(rows, report.verdicts):
            assert (row["missing"].split(";") if row["missing"] else []) == v["missing"]
        with pytest.raises(ParameterError):
            harness.render_report(report, "xml")

    def test_write_deterministic(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_report(report, "json", p1)
        write_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_bad_format(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        with pytest.raises(ParameterError):
            write_report(report, "xml", tmp_path / "r.xml")

    def test_write_bad_path(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        with pytest.raises(OSError):
            write_report(report, "json", tmp_path / "no" / "dir" / "r.json")
