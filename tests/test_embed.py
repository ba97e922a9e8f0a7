import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from spectree.errors import (
    BudgetExceededError,
    CapExceededError,
    HypothesisViolationError,
    ParameterError,
)
from spectree.graphs import (
    Broom,
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    Path,
    Spider,
    Star,
    build_family,
    canonical_key,
    canonical_keys,
    decode_graph6,
    empty_graph,
    encode_graph6,
)
from spectree import embed, harness
from spectree.enumeration import all_graphs, graph_order, perturb_extremal, random_graph
from spectree.harness import CampaignSpec, Source, run_campaign
from spectree.embed import (
    _split_profile,
    all_trees_of_order,
    as_graph,
    contains_tree,
    find_linear_forest,
    fits_in_S,
    is_tree,
    is_valid_embedding,
    longest_path_stats,
    min_vertex_cover_tree,
    proof_guided_spider_embed,
    tree_test,
)
from oracles import (
    ahu_tree_code,
    brute_force_contains,
    brute_force_linear_forest,
    brute_force_longest_paths,
    brute_force_split_profile,
    frozen_embed_tree,
    frozen_longest_path_stats,
    labeled_tree_from_pruefer,
)


def random_host(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestContainsTree:
    def test_path_in_complete(self):
        host = build_family(Complete(5))
        emb = contains_tree(host, Path(5))
        assert emb is not None
        assert is_valid_embedding(host, build_family(Path(5)), emb)

    def test_star_too_big(self):
        assert contains_tree(build_family(Path(5)), Star(3)) is None

    def test_pattern_larger_than_host(self):
        assert contains_tree(build_family(Path(3)), Path(4)) is None

    def test_non_tree_rejected(self):
        with pytest.raises(ParameterError):
            contains_tree(build_family(Complete(4)), build_family(Complete(3)))

    def test_budget_zero_raises(self):
        # a budget below one unit is a usage error, even when the pattern
        # cannot fit the host
        for host in (build_family(Complete(5)), build_family(Path(3))):
            for budget in (0, -1):
                with pytest.raises(ParameterError):
                    contains_tree(host, Path(4), budget=budget)

    def test_budget_exhausted_raises(self):
        # the certificate takes the one unit and the search needs another
        with pytest.raises(BudgetExceededError):
            contains_tree(build_family(Path(8)), Path(5), budget=1)

    def test_graph_pattern_accepted(self):
        host = build_family(Complete(4))
        pat = Graph.from_edges(3, [(0, 1), (1, 2)])
        emb = contains_tree(host, pat)
        assert emb is not None and is_valid_embedding(host, pat, emb)

    def test_broom_in_augmented_split(self):
        for n in (10, 20):
            host = build_family(CompleteSplitPlus(n, 2))
            pat = build_family(Broom(2, 5))
            emb = contains_tree(host, pat)
            assert emb is not None and is_valid_embedding(host, pat, emb)

    def test_broom_missing_from_split(self):
        # B_{2,5} needs vertex cover 3, the hub side of S_{30,2} has only 2
        host = build_family(CompleteSplit(30, 2))
        assert contains_tree(host, Broom(2, 5)) is None

    def test_oracle_equivalence_random(self):
        rng = random.Random(42)
        trees = {t: all_trees_of_order(t) for t in range(2, 7)}
        for _ in range(100):
            n = rng.randint(2, 7)
            host = random_host(n, rng.random(), rng)
            t = rng.randint(2, min(6, n))
            pat = rng.choice(trees[t])
            got = contains_tree(host, pat)
            expect = brute_force_contains(host, pat)
            assert (got is None) == (expect is None)
            if got is not None:
                assert is_valid_embedding(host, pat, got)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_tree_always_embeds_in_itself(self, seed):
        rng = random.Random(seed)
        t = rng.randint(2, 8)
        seq = [rng.randrange(t) for _ in range(t - 2)]
        tree = labeled_tree_from_pruefer(seq, t)
        emb = contains_tree(tree, tree)
        assert emb is not None and is_valid_embedding(tree, tree, emb)


class TestVertexCover:
    def test_star(self):
        assert min_vertex_cover_tree(build_family(Star(5))) == 1

    def test_path(self):
        # P_n needs floor(n/2)
        for n in range(2, 10):
            assert min_vertex_cover_tree(build_family(Path(n))) == n // 2

    def test_broom(self):
        assert min_vertex_cover_tree(build_family(Broom(2, 5))) == 3

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(40):
            t = rng.randint(2, 8)
            seq = [rng.randrange(t) for _ in range(t - 2)]
            tree = labeled_tree_from_pruefer(seq, t)
            edges = tree.edges()
            brute = next(
                size
                for size in range(t + 1)
                for cover in itertools.combinations(range(t), size)
                if all(u in cover or v in cover for u, v in edges)
            )
            assert min_vertex_cover_tree(tree) == brute

    def test_fits_in_S(self):
        # cover size <= k iff the tree embeds in the split graph for large n
        assert fits_in_S(Star(6), 1)
        assert not fits_in_S(Path(5), 1)
        assert fits_in_S(Path(5), 2)
        assert not fits_in_S(Broom(2, 5), 2)
        assert fits_in_S(Broom(2, 5), 3)

    def test_fits_matches_actual_containment(self):
        n = 24
        for k in (2, 3):
            host = build_family(CompleteSplit(n, k))
            for tree in all_trees_of_order(2 * k + 2):
                assert fits_in_S(tree, k) == (contains_tree(host, tree) is not None)


def near_split_hosts():
    """S_{n,k} and S+_{n,k} for n <= 8, k in {2, 3}, two perturbations of
    each, and ten seeded random graphs."""
    hosts = []
    for k in (2, 3):
        for n in range(k + 2, 9):
            for base in (CompleteSplit(n, k), CompleteSplitPlus(n, k)):
                hosts.append(build_family(base))
                hosts += [perturb_extremal(base, 1, 1, seed) for seed in (0, 1)]
    rng = random.Random(77)
    hosts += [random_host(rng.randint(5, 8), rng.uniform(0.3, 0.9), rng) for _ in range(10)]
    return hosts


class TestSplitCertificate:
    def test_profile_against_oracle(self):
        for t in range(2, 11):
            for tree in all_trees_of_order(t):
                best = brute_force_split_profile(tree)
                expect = []
                for c in sorted(best):
                    if not expect or best[c] < expect[-1][1]:
                        expect.append((c, best[c]))
                front = _split_profile(tree)
                assert [(c, m) for c, m, _, _ in front] == expect
                for c, m, cover, rest in front:
                    # C and the leading m pairs of rest realise (c, m)
                    assert len(cover) == c and sorted(cover + rest) == list(range(t))
                    left = {frozenset(e) for e in tree.edges() if not set(e) & set(cover)}
                    assert left == {frozenset(rest[2 * i : 2 * i + 2]) for i in range(m)}
                cover_size = min(c for c, m in best.items() if m == 0)
                assert front[-1][:2] == (cover_size, 0)
                assert min_vertex_cover_tree(tree) == cover_size

    def test_sweep_near_split_hosts(self):
        trees = [tree for t in range(4, 8) for tree in all_trees_of_order(t)]
        fired = tried = 0
        for host in near_split_hosts():
            for tree in trees:
                if tree.n > host.n:
                    continue
                tried += 1
                # one budget unit is the certificate's; the search needs more
                try:
                    cert = contains_tree(host, tree, budget=1)
                except BudgetExceededError:
                    cert = None
                if cert is not None:
                    fired += 1
                    assert is_valid_embedding(host, tree, cert)
                got = contains_tree(host, tree)
                assert (got is None) == (brute_force_contains(host, tree) is None)
                assert got is None or is_valid_embedding(host, tree, got)
        assert 0 < fired < tried

    def test_certified_trees_need_one_budget_unit(self):
        # every tree with (c, m) <= (3, 1) lies in S+_{40,3}: C into the three
        # hubs, the matching edge onto the extra edge; no search is needed
        host = build_family(CompleteSplitPlus(40, 3))
        trees = [t for t in all_trees_of_order(9) if brute_force_split_profile(t)[3] <= 1]
        assert len(trees) > 40
        for tree in trees:
            emb = contains_tree(host, tree, budget=1)
            assert emb is not None and is_valid_embedding(host, tree, emb)

    def test_perturbation_campaign_rarely_searches(self, monkeypatch):
        counts = {"contains": 0, "search": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def tests(host, budget):
            return counted("contains", tree_test(host, budget))

        monkeypatch.setattr(harness, "tree_test", tests)
        monkeypatch.setattr(embed, "_embed_tree", counted("search", embed._embed_tree))
        base = CompleteSplitPlus(24, 3)
        source = Source("perturbation", count=6, seed=1, base=base, radius=2)
        run_campaign(CampaignSpec("conjecture_b", 3, 24, 26, source))
        assert counts["contains"] > 0
        assert counts["search"] <= 0.02 * counts["contains"]


def outcome(fn, *args):
    """fn(*args) as ("value", result) or ("raises", the error class)."""
    try:
        return "value", fn(*args)
    except (BudgetExceededError, ParameterError) as exc:
        return "raises", type(exc)


class TestTreeTest:
    # tree_test(host, budget) decides one host's patterns from one shared
    # split sequence; each verdict is contains_tree's, budget and errors too
    TREES = [tree for t in range(4, 8) for tree in all_trees_of_order(t)]

    @staticmethod
    def hosts():
        return [g for n in range(1, 8) for g in all_graphs(n)] + near_split_hosts()

    def test_matches_contains_tree(self):
        checked = 0
        for host in self.hosts():
            contains = tree_test(host)
            for tree in self.TREES:
                found = contains_tree(host, tree)
                assert contains(tree) == (found is not None), (encode_graph6(host), tree.n)
                assert found is None or is_valid_embedding(host, tree, found)
                checked += 1
        assert checked == (1252 + len(near_split_hosts())) * len(self.TREES)

    def test_matches_brute_force(self):
        # the permutation oracle on n <= 6 and the near-split hosts; on the
        # 1,044 graphs of order 7 it needs about 30 s on 2 vCPUs, so those
        # are compared with contains_tree above
        hosts = [g for n in range(1, 7) for g in all_graphs(n)] + near_split_hosts()
        for host in hosts:
            contains = tree_test(host)
            for tree in self.TREES:
                expect = brute_force_contains(host, tree) is not None
                assert contains(tree) == expect, (encode_graph6(host), tree.n)

    def test_pattern_order_does_not_matter(self):
        # the split sequence is extended by whichever pattern asks first
        rng = random.Random(5)
        for host in near_split_hosts():
            trees = list(self.TREES)
            rng.shuffle(trees)
            contains = tree_test(host)
            assert [contains(t) for t in trees] == [tree_test(host)(t) for t in trees]

    def test_budget_one_raises_where_contains_tree_raises(self):
        raised = 0
        for host in self.hosts():
            contains = tree_test(host, budget=1)
            for tree in self.TREES:
                got = outcome(contains, tree)
                expect = outcome(contains_tree, host, tree, 1)
                if expect[0] == "value":
                    expect = "value", expect[1] is not None
                assert got == expect, (encode_graph6(host), tree.n)
                raised += got[0] == "raises"
        assert raised > 0

    def test_budget_below_one_and_non_trees_raise(self):
        host = build_family(Complete(5))
        for budget in (0, -1):
            with pytest.raises(ParameterError):
                tree_test(host, budget)(Path(4))
        with pytest.raises(ParameterError):
            tree_test(host)(build_family(Complete(3)))
        assert tree_test(build_family(Path(3)))(Path(4)) is False

    def test_pinned_sweep(self):
        # every contains_tree witness, certificate's and search's, over the
        # graphs with n <= 7 and perturbations of S+_{n,3}; tree_test agrees
        small = [tree for t in range(2, 8) for tree in all_trees_of_order(t)]
        big = all_trees_of_order(9)
        sweep = [(g, small) for n in range(1, 8) for g in all_graphs(n)]
        sweep += [
            (perturb_extremal(CompleteSplitPlus(n, 3), 1, 1, seed), big)
            for n in range(20, 30)
            for seed in range(6)
        ]
        digest = hashlib.sha256()
        count = 0
        for index, (host, trees) in enumerate(sweep):
            contains = tree_test(host)
            for tree in trees:
                e = contains_tree(host, tree)
                assert contains(tree) == (e is not None)
                digest.update(f"{index} {None if e is None else e.assignment}\n".encode())
                count += 1
        assert count == 32868
        assert digest.hexdigest().startswith("a8ca37cbe01dd149")


def frozen_search(host, parents, pat_deg, sibs, budget, roots=None):
    """The frozen search behind `_embed_tree`'s signature; sibs is unused."""
    return frozen_embed_tree(host, parents, pat_deg, budget, roots)


class TestSiblingPruning:
    # isomorphic sibling subtrees are tried in one order only; the
    # lexicographically first embedding survives, so every result is the
    # unpruned search's and only the budget spent falls
    @staticmethod
    def host():
        return build_family(CompleteSplitPlus(24, 3)).with_edge(4, 5)

    @pytest.mark.parametrize(
        "pattern, least",
        [
            (Spider(2, 2, 2, 2), 208),  # 904 without sibling pruning
            (decode_graph6("HCH?_CL"), 365),  # 524
            (decode_graph6("HKC_GOB"), 236),  # P_9, rooted off-centre: no isomorphic siblings
        ],
    )
    def test_least_budget_on_split_plus_an_edge(self, pattern, least):
        host = self.host()
        emb = contains_tree(host, pattern, budget=least)
        assert emb is not None and is_valid_embedding(host, as_graph(pattern), emb)
        assert tree_test(host, least)(pattern) is True
        with pytest.raises(BudgetExceededError):
            contains_tree(host, pattern, budget=least - 1)
        with pytest.raises(BudgetExceededError):
            tree_test(host, least - 1)(pattern)

    @staticmethod
    def against_frozen(monkeypatch, calls):
        """The results of calls() and the search nodes they spent, with the
        search as it is and with the frozen search patched in."""
        spent = []

        def counted(search):
            def wrapper(host, parents, pat_deg, sibs, budget, roots=None):
                left = budget.left
                try:
                    return search(host, parents, pat_deg, sibs, budget, roots)
                finally:
                    spent[-1] += left - budget.left

            return wrapper

        runs = []
        for search in (embed._embed_tree, frozen_search):
            spent.append(0)
            with monkeypatch.context() as m:
                m.setattr(embed, "_embed_tree", counted(search))
                runs.append(calls())
        return runs, spent

    def test_small_graphs_match_frozen_search(self, monkeypatch):
        trees = [tree for t in range(2, 8) for tree in all_trees_of_order(t)]
        hosts = [g for n in range(1, 8) for g in all_graphs(n)]
        (now, before), (spent, spent_before) = self.against_frozen(
            monkeypatch, lambda: [contains_tree(h, t) for h in hosts for t in trees]
        )
        assert len(now) == 1252 * 24
        assert now == before
        assert spent < spent_before

    def test_random_graphs_match_frozen_search(self, monkeypatch):
        trees = all_trees_of_order(9)[::3]
        hosts = [random_graph(14, p=0.3, seed=seed) for seed in range(300)]
        (now, before), (spent, spent_before) = self.against_frozen(
            monkeypatch, lambda: [contains_tree(h, t) for h in hosts for t in trees]
        )
        assert now == before
        assert any(r is not None for r in now) and any(r is None for r in now)
        assert spent < spent_before

        # equal legs are the apex's isomorphic children; on these hosts the
        # pruning saves nothing on the first four forests, only on the last two
        forests = [[2, 2, 2], [3, 3], [3, 2, 2, 1], [4, 4, 1], [3, 3, 3, 3], [4, 4, 4]]
        (now, before), (spent, spent_before) = self.against_frozen(
            monkeypatch,
            lambda: [
                find_linear_forest(h, lengths, range(0, 14, 2))
                for h in hosts
                for lengths in forests
            ],
        )
        assert now == before
        assert any(r is not None for r in now) and any(r is None for r in now)
        assert spent < spent_before

    def test_perturbed_split_plus_matches_frozen_search(self, monkeypatch):
        trees = all_trees_of_order(9)
        assert len(trees) == 47
        hosts = [
            perturb_extremal(CompleteSplitPlus(n, 3), 1, 1, seed)
            for n in range(20, 30)
            for seed in range(6)
        ]
        (now, before), (spent, spent_before) = self.against_frozen(
            monkeypatch, lambda: [contains_tree(h, t) for h in hosts for t in trees]
        )
        assert now == before
        assert spent < spent_before


class TestLinearForest:
    def test_paths_in_complete(self):
        host = build_family(Complete(7))
        forest = find_linear_forest(host, [3, 2, 2])
        assert forest is not None
        used = [v for p in forest for v in p]
        assert len(set(used)) == len(used) == 7
        for path in forest:
            assert all(host.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_impossible(self):
        assert find_linear_forest(build_family(Star(5)), [3, 3]) is None

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_raises(self, budget):
        # rejected on entry, also where the paths cannot fit the host
        with pytest.raises(ParameterError, match="search budget must be >= 1"):
            find_linear_forest(build_family(Path(3)), [2, 2], budget=budget)

    def test_anchoring(self):
        # P_6: both 3-paths exist, but only one can end at vertex 0
        host = build_family(Path(6))
        forest = find_linear_forest(host, [3, 3], anchor_set=[0, 5])
        assert forest is not None
        assert all(p[0] in (0, 5) or p[-1] in (0, 5) for p in forest)
        assert find_linear_forest(host, [6], anchor_set=[2]) is None

    def test_total_exceeds_host(self):
        assert find_linear_forest(build_family(Path(4)), [3, 3]) is None

    def test_too_long_for_the_recursion(self):
        # the search takes one stack frame per position: past the
        # interpreter's recursion limit it stops with a stated error
        host = build_family(Path(1200))
        assert len(find_linear_forest(host, [900])[0]) == 900
        with pytest.raises(CapExceededError, match="recursion limit"):
            find_linear_forest(host, [1100])

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            find_linear_forest(build_family(Path(4)), [])
        with pytest.raises(ParameterError):
            find_linear_forest(build_family(Path(4)), [3], anchor_set=[9])

    @staticmethod
    def assert_forest(host, lengths, anchor_set, forest):
        assert [len(p) for p in forest] == list(lengths)
        used = [v for p in forest for v in p]
        assert len(set(used)) == len(used)
        for path in forest:
            assert all(host.has_edge(a, b) for a, b in zip(path, path[1:]))
            # every path is listed from its anchored end
            assert anchor_set is None or path[0] in anchor_set

    def test_anchor_and_twin_differ(self):
        # 1 and 2 are twins in the host but only 1 is an anchor: the unit
        # path needs it once 0-2-3 takes anchor 0
        host = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
        forest = find_linear_forest(host, [3, 1], anchor_set=[0, 1])
        assert forest is not None
        self.assert_forest(host, [3, 1], [0, 1], forest)

    def test_oracle_sweep(self):
        # two or three paths, three trials in four anchored to a proper
        # subset: the mix where an anchor can have a non-anchor twin
        rng = random.Random(2024)
        found = 0
        for trial in range(1200):
            n = rng.randint(3, 7)
            host = random_host(n, rng.uniform(0.3, 0.8), rng)
            lengths = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
            anchor = None
            if trial % 4:
                anchor = rng.sample(range(n), rng.randint(1, n - 1))
            forest = find_linear_forest(host, lengths, anchor)
            expect = brute_force_linear_forest(host, lengths, anchor)
            assert (forest is not None) == expect, (host.rows, lengths, anchor)
            if forest is not None:
                found += 1
                self.assert_forest(host, lengths, anchor, forest)
        assert 300 < found < 900  # both outcomes are well represented


class TestLongestPath:
    def test_path_graph(self):
        stats = longest_path_stats(build_family(Path(6)))
        assert stats.longest_order == 6
        assert stats.p[0] == 5  # endpoint reaches the whole path
        assert stats.p[2] == 3  # interior vertex: longer side has 3 edges

    def test_witness_is_a_path(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_host(rng.randint(2, 8), 0.4, rng)
            stats = longest_path_stats(g)
            w = stats.witness
            assert len(set(w)) == len(w) == stats.longest_order
            assert all(g.has_edge(a, b) for a, b in zip(w, w[1:]))

    def test_sum_bound_identity(self):
        # e(G) <= sum_v p_v / 2 for every graph (exact lemma)
        rng = random.Random(8)
        for _ in range(40):
            g = random_host(rng.randint(1, 8), rng.random(), rng)
            stats = longest_path_stats(g)
            assert g.e <= sum(stats.p) / 2

    def test_partition_and_attachment_counts(self):
        g = build_family(Star(4))
        stats = longest_path_stats(g)
        assert stats.longest_order == 3
        assert len(stats.y) == 2
        assert all(stats.s[v] == 1 for v in stats.y)  # leaves touch the hub only

    def test_cap(self):
        with pytest.raises(CapExceededError):
            longest_path_stats(empty_graph(21))

    def test_against_path_oracle(self):
        for n in range(1, 8):
            for g in all_graphs(n):
                stats = longest_path_stats(g)
                p = brute_force_longest_paths(g)
                assert stats.p == p
                assert stats.longest_order == max(p) + 1
                w = stats.witness
                assert len(set(w)) == len(w) == stats.longest_order
                assert all(g.has_edge(a, b) for a, b in zip(w, w[1:]))
                assert p[w[0]] == stats.longest_order - 1
                assert stats.x == set(w)
                assert stats.y == set(range(n)) - set(w)
                assert stats.s == {
                    v: sum(g.has_edge(v, x) for x in w) for v in sorted(stats.y)
                }

    def test_pinned_witness_order(self):
        # the witness starts at the first argmax of p and steps to the
        # smallest neighbour that still begins a path of the length left;
        # sha256 of the "p witness" lines over all_graphs(n), n <= 7
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in all_graphs(n):
                stats = longest_path_stats(g)
                digest.update(f"{stats.p} {stats.witness}\n".encode())
        assert digest.hexdigest() == (
            "6ecfa6de5f52f005539310b6b9f3400f0a591c3c834501235995f813da1d2e5b"
        )

    def test_pinned_witness_order_n8(self):
        # the same digest over all_graphs(8), the graphs of the lemma suite
        digest = hashlib.sha256()
        for g in all_graphs(8):
            stats = longest_path_stats(g)
            digest.update(f"{stats.p} {stats.witness}\n".encode())
        assert digest.hexdigest() == (
            "35461992afaa8434e4b7b4b06c9042c81f51e28aaf80f09ca450e2120c167bb7"
        )

    def test_frozen_oracle_random(self):
        rng = random.Random(914)
        for _ in range(200):
            g = random_host(rng.randint(9, 14), rng.uniform(0.1, 0.9), rng)
            assert longest_path_stats(g) == frozen_longest_path_stats(g)

    def test_at_the_cap(self):
        g = random_host(20, 0.3, random.Random(2020))
        stats = longest_path_stats(g)
        w = stats.witness
        assert len(set(w)) == len(w) == stats.longest_order == max(stats.p) + 1
        assert all(g.has_edge(a, b) for a, b in zip(w, w[1:]))
        assert stats.p[w[0]] == stats.longest_order - 1
        assert stats == frozen_longest_path_stats(g)

    def test_cost_at_the_cap(self):
        # a dense 20-vertex graph: about 0.1 s on a 2-vCPU Xeon, where the
        # per-set DP took about 5 s (wall time: tracemalloc would stretch
        # the per-set DP to minutes)
        g = random_host(20, 0.6, random.Random(2021))
        t0 = time.perf_counter()
        longest_path_stats(g)
        assert time.perf_counter() - t0 < 1.5


class TestTreeGeneration:
    # non-isomorphic free trees on 1..12 vertices (OEIS A000055)
    COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]

    def test_counts(self):
        assert [len(all_trees_of_order(t)) for t in range(1, 13)] == self.COUNTS

    @pytest.mark.parametrize("t", range(2, 13))
    def test_distinct_by_ahu_oracle(self, t):
        trees = all_trees_of_order(t)
        assert all(is_tree(g) and g.n == t for g in trees)
        assert len({ahu_tree_code(g) for g in trees}) == len(trees)

    @pytest.mark.parametrize("t", range(2, 13))
    def test_canonically_labelled_in_key_order(self, t):
        keys = [encode_graph6(g) for g in all_trees_of_order(t)]
        assert keys == [canonical_key(g, cap=12) for g in all_trees_of_order(t)]
        assert keys == sorted(keys)

    # sha256 of the "\n"-joined canonical keys of each order, in the order
    # returned, as generated with one child per (tree, vertex) pair
    KEYS = {
        2: "ada8d598e51a0bf0",
        3: "c690f114c997123e",
        4: "5dc0d3070f07599b",
        5: "e01f5f5cfa1fbed3",
        6: "5db8928c5eda52d2",
        7: "cbde6bcfa1c8d068",
        8: "27b7d6405e3cf976",
        9: "1a3e77fd658ada3f",
        10: "a3120b62cb4d9ab2",
        11: "116457c3123b9dec",
        12: "381b154108952741",
    }

    @pytest.mark.parametrize("t", range(2, 13))
    def test_pinned_keys(self, t):
        keys = "\n".join(encode_graph6(g) for g in all_trees_of_order(t))
        assert hashlib.sha256(keys.encode()).hexdigest()[:16] == self.KEYS[t]

    def test_one_child_per_twin_class(self, monkeypatch):
        # a leaf hung on either of two twins gives the same tree, so order
        # 12 keys 3,502 children (one per twin class of every tree on
        # 1..11 vertices), not 4,394, in one canonical_keys call per level
        calls = []

        def counting(graphs, *args, **kwargs):
            graphs = list(graphs)
            calls.append(len(graphs))
            return canonical_keys(graphs, *args, **kwargs)

        all_trees_of_order.cache_clear()
        monkeypatch.setattr(embed, "canonical_keys", counting)
        try:
            trees = all_trees_of_order(12)
        finally:
            all_trees_of_order.cache_clear()
        assert len(trees) == 551
        assert len(calls) == 11
        assert sum(calls) == 3502

    def test_all_are_trees_distinct(self):
        trees = all_trees_of_order(7)
        assert all(is_tree(t) for t in trees)
        keys = {canonical_key(t) for t in trees}
        assert len(keys) == len(trees)

    def test_deterministic_order(self):
        a = [canonical_key(t) for t in all_trees_of_order(7)]
        b = [canonical_key(t) for t in all_trees_of_order(7)]
        assert a == b

    def test_pruefer_oracle_agreement(self):
        # every labeled tree from a Pruefer sequence is isomorphic to some
        # generated free tree, and every class is hit
        for t in (6, 7):
            generated = {canonical_key(g) for g in all_trees_of_order(t)}
            seen = set()
            for seq in itertools.product(range(t), repeat=t - 2):
                seen.add(canonical_key(labeled_tree_from_pruefer(seq, t)))
            assert seen == generated

    def test_cap(self):
        with pytest.raises(CapExceededError):
            all_trees_of_order(13)
        for t in (0, -1):
            with pytest.raises(ParameterError):
                all_trees_of_order(t)


class TestProofGuidedSpider:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_raises(self, budget):
        # rejected on entry, also where the low-degree route needs no search
        g = decode_graph6("I????B~~w")
        with pytest.raises(ParameterError, match="search budget must be >= 1"):
            proof_guided_spider_embed(g, Spider(1, 1, 1, 3), 2, budget=budget)

    def test_requires_spider_shape(self):
        g = build_family(CompleteSplitPlus(30, 3))
        with pytest.raises(HypothesisViolationError):
            # r = 2 odd legs only
            proof_guided_spider_embed(g, Spider(1, 3, 2, 2), 3)
        with pytest.raises(HypothesisViolationError):
            # wrong order for k = 3
            proof_guided_spider_embed(g, Spider(1, 1, 1), 3)

    def test_embeds_in_augmented_split(self):
        g = build_family(CompleteSplitPlus(50, 3))
        out = proof_guided_spider_embed(g, Spider(1, 1, 1, 2, 3), 3)
        assert out is not None
        emb, trace = out
        assert is_valid_embedding(g, build_family(Spider(1, 1, 1, 2, 3)), emb)
        assert trace.branch

    def test_embeds_in_complete(self):
        g = build_family(Complete(9))
        out = proof_guided_spider_embed(g, Spider(1, 1, 1, 2, 3), 3)
        assert out is not None
        emb, _ = out
        assert is_valid_embedding(g, build_family(Spider(1, 1, 1, 2, 3)), emb)

    @pytest.mark.parametrize(
        "host6, spider, k",
        [
            (r"Hv\WCH?", Spider(1, 1, 1, 3), 2),
            ("J]rTzBKkam_", Spider(1, 1, 1, 2, 3), 3),
        ],
    )
    def test_unit_legs_join_the_forest(self, host6, spider, k):
        # the L_u route places the unit legs in its linear forest, beside
        # the long legs, so it needs no fallback here
        g = decode_graph6(host6)
        out = proof_guided_spider_embed(g, spider, k)
        assert out is not None
        emb, trace = out
        assert trace.branch == "case2_subcase1_Lu"
        assert trace.notes == []
        assert is_valid_embedding(g, build_family(spider), emb)

    @pytest.mark.parametrize(
        "host6, spider, k",
        [
            ("I????B~~w", Spider(1, 1, 1, 3), 2),
            ("K??????~~~~~", Spider(1, 1, 1, 2, 3), 3),
        ],
    )
    def test_bipartite_route(self, host6, spider, k):
        # S_{n,k} with its hubs last: every walk sum is 0, so u = 0 has
        # degree k, and the spider's two colour classes go onto the hubs
        # and their common neighbours
        g = decode_graph6(host6)
        assert g.degree(0) == k
        emb, trace = proof_guided_spider_embed(g, spider, k)
        assert trace.branch == "case1_bipartite"
        assert trace.notes == []
        assert is_valid_embedding(g, build_family(spider), emb)

    def test_fallback_trace_is_labelled_fallback(self):
        # the N1(u) route finds no linear forest, so the exact search
        # produces the embedding and the trace must say so
        g = decode_graph6(r"Hx\R~Im")
        spider = Spider(1, 1, 1, 2, 3)
        emb, trace = proof_guided_spider_embed(g, spider, 3)
        assert trace.branch == "fallback"
        assert trace.notes == [
            "no linear forest in G[N1(u)]",
            "route case2_subcase2_N1 failed",
            "exact fallback search",
        ]
        assert is_valid_embedding(g, build_family(spider), emb)

    # sha256 of the replay's outcomes over the n = 7 qualifying hosts of
    # theorem_spider k = 2 against its three spiders, as computed before
    # the walk sums were read off the degrees
    REPLAY_N7 = "fe52658d3d37c6f0988cffefabcf7ca0756267995745b081c09a4a2f9b340212"

    def test_pinned_replay_n7(self):
        report = run_campaign(CampaignSpec("theorem_spider", 2, 7, 7))
        order = graph_order(7)
        hosts = [
            order.graphs[v["index"]]
            for v in report.verdicts
            if v["classification"] == "qualifying"
        ]
        spiders = [Spider(3, 1, 1, 1), Spider(2, 1, 1, 1, 1), Spider(1, 1, 1, 1, 1, 1)]
        h = hashlib.sha256()
        branches = []
        for g in hosts:
            for spider in spiders:
                out = proof_guided_spider_embed(g, spider, 2)
                if out is None:
                    h.update(b"None;")
                    branches.append("not contained")
                    continue
                emb, trace = out
                row = (emb.assignment, trace.u, trace.b_u, trace.branch, trace.notes)
                h.update(repr(row).encode() + b";")
                branches.append(trace.branch)
        assert len(hosts) == 325
        counts = {b: branches.count(b) for b in set(branches)}
        assert counts == {
            "case2_subcase1_Lu": 106,
            "case2_subcase2_N1": 234,
            "fallback": 372,
            "not contained": 263,
        }
        assert h.hexdigest() == self.REPLAY_N7

    def test_agrees_with_exact_search(self):
        rng = random.Random(31)
        spider = Spider(1, 1, 1, 3)  # order 7 = 2k+3 for k = 2
        pat = build_family(spider)
        for _ in range(40):
            g = random_host(rng.randint(7, 9), rng.uniform(0.3, 0.9), rng)
            out = proof_guided_spider_embed(g, spider, 2)
            expect = contains_tree(g, pat)
            assert (out is None) == (expect is None)
            if out is not None:
                assert is_valid_embedding(g, pat, out[0])
