import hashlib
import itertools
import os

import numpy as np
import pytest

from spectree.errors import CapExceededError, ParameterError
from spectree.graphs import (
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    Path,
    build_family,
    canonical_key,
    decode_graph6,
    encode_graph6,
)
from spectree import enumeration, graphs
from spectree.enumeration import (
    all_graphs,
    graph_order,
    perturb_extremal,
    random_graph,
)

from oracles import frozen_canonical_key, frozen_perturb_extremal


def brute_force_class_count(n):
    """Isomorphism classes on n vertices by vectorized min-over-permutations
    of the edge bitmask.  Independent of the production canonical form."""
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: i for i, p in enumerate(pairs)}
    nbits = len(pairs)
    codes = np.arange(1 << nbits, dtype=np.int64)
    bit = (codes[:, None] >> np.arange(nbits)) & 1
    weights = (np.int64(1) << np.arange(nbits, dtype=np.int64))
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        idx = [pos[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        np.minimum(best, bit[:, idx] @ weights, out=best)
    return len(np.unique(best))


class TestAllGraphs:
    def test_counts_against_brute_force(self):
        for n in range(2, 6):
            assert len(all_graphs(n)) == brute_force_class_count(n)

    def test_pinned_counts(self):
        assert [len(all_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]

    @pytest.mark.parametrize(
        "n, count, digest",
        [
            (7, 1044, "cf43d74eea2e83dd129ee163ab4ba9c0f95efd52978be61a3b45e8d9557307a0"),
            (8, 12346, "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5"),
        ],
    )
    def test_pinned_key_strings(self, n, count, digest):
        # the keys are graph identities in reports, so their bytes are pinned:
        # sha256 of the ordered keys joined by newlines
        keys = graph_order(n).keys
        assert len(keys) == count
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (7, "1c3ea6a5893e2a65a00e8a2c8c3db96d94629523eb0e23596ed5806581296b0d"),
            (8, "bb9f812522e4fde20821f9aee2236454bab09c12e76d4e8fd7f1088c049a3a24"),
        ],
    )
    def test_pinned_parent_indices(self, n, digest):
        # campaigns inherit facts along the parents, so their indices are
        # pinned too: sha256 of the indices joined by commas
        parents = graph_order(n).parents
        assert hashlib.sha256(",".join(map(str, parents)).encode()).hexdigest() == digest

    @pytest.mark.skipif(
        os.environ.get("SPECTREE_SLOW") != "1",
        reason="opt-in n = 9 tier, about 12 s; set SPECTREE_SLOW=1",
    )
    def test_opt_in_n9_count(self):
        # keys and parents pinned as at n = 7 and 8
        order = graph_order(9, cap=9)
        assert len(order.keys) == 274668
        keys = hashlib.sha256("\n".join(order.keys).encode()).hexdigest()
        assert keys == "84c0f2b683ec39628c405a8c2a125d40dceb0097d2e6c3c61d3cfc041e94d11b"
        parents = hashlib.sha256(",".join(map(str, order.parents)).encode()).hexdigest()
        assert parents == "53975fa24cc29d7db97fa848c72bd63178aa0028a1ebda5ddc9e13827cd3e564"
        # the order's graphs, read by the table-driven reader, agree with
        # the strict decoder on every class, field for field
        assert all(
            (g.n, g.rows, g.e) == (h.n, h.rows, h.e)
            for g, h in zip(order.graphs, map(decode_graph6, order.keys))
        )

    def test_connected_counts(self):
        assert [len(all_graphs(n, connected_only=True)) for n in range(1, 7)] == [
            1, 1, 2, 6, 21, 112,
        ]

    def test_pairwise_non_isomorphic(self):
        graphs = all_graphs(5)
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs)

    def test_deterministic_order(self):
        a = [encode_graph6(g) for g in all_graphs(6)]
        b = [encode_graph6(g) for g in all_graphs(6)]
        assert a == b
        assert a == sorted(a)

    def test_caps(self):
        with pytest.raises(CapExceededError):
            all_graphs(9)
        with pytest.raises(ParameterError):
            graph_order(10, cap=10)
        with pytest.raises(ParameterError):
            all_graphs(0)


def unpruned_augmentation_keys(n):
    """Every graph on n vertices up to isomorphism, built by joining a new
    vertex to every subset of each class on n - 1 vertices, with no degree
    or twin filter, keyed by the frozen oracle."""
    classes = {frozen_canonical_key(Graph(1, (0,), 0)): Graph(1, (0,), 0)}
    for m in range(2, n + 1):
        children = {}
        for parent in classes.values():
            for mask in range(1 << (m - 1)):
                nbrs = [v for v in range(m - 1) if mask >> v & 1]
                g = Graph.from_edges(m, parent.edges() + [(v, m - 1) for v in nbrs])
                children.setdefault(frozen_canonical_key(g), g)
        classes = children
    return sorted(classes)


class TestAugmentation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_unpruned_oracle(self, n):
        assert unpruned_augmentation_keys(n) == list(graph_order(n).keys)

    def test_canonical_key_calls(self, monkeypatch):
        # twin-orbit augmentation keys 2,088 children for n = 1..7, against
        # 3,131 with the maximum-degree filter alone; every one of them
        # passes through the stack keyer
        keyed = []

        def counting_keys(stacks):
            def counted():
                for stack in stacks:
                    keyed.extend([stack.shape[1]] * len(stack))
                    yield stack

            return stack_keys(counted())

        stack_keys = enumeration._stack_keys
        monkeypatch.setattr(enumeration, "_cache", {})
        monkeypatch.setattr(enumeration, "_stack_keys", counting_keys)
        counts = [len(graph_order(n).keys) for n in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]
        assert len(keyed) == 2088
        assert sorted(set(keyed)) == list(range(2, 8))

    def test_ordering_weights_once_per_composition(self, monkeypatch):
        # the keyer builds each colour-class composition's ordering weights
        # once per stream: 192 over the children on n <= 8, the base order
        # once per n among them
        built = []
        ordering_weights = graphs._ordering_weights

        def counting_weights(sizes):
            built.append(sizes)
            return ordering_weights(sizes)

        monkeypatch.setattr(enumeration, "_cache", {})
        monkeypatch.setattr(graphs, "_ordering_weights", counting_weights)
        assert len(graph_order(8).keys) == 12346
        assert len(built) == len(set(built)) == 192
        assert [(1,) * n in built for n in range(2, 9)] == [True] * 7


class TestParentLinks:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_parent_is_child_minus_a_max_degree_vertex(self, n):
        parent_keys = [frozen_canonical_key(g) for g in all_graphs(n - 1)]
        order = graph_order(n)
        for key, g, parent in zip(order.keys, order.graphs, order.parents):
            degrees = g.degrees()
            top = max(degrees)
            assert any(
                frozen_canonical_key(g.subgraph([u for u in range(n) if u != v])[0])
                == parent_keys[parent]
                for v in range(n)
                if degrees[v] == top
            ), key

    @pytest.mark.parametrize("n", range(1, 9))
    def test_graphs_are_the_decoded_keys(self, n):
        order = graph_order(n)
        assert all_graphs(n) == [decode_graph6(k) for k in order.keys]
        assert len(order.keys) == len(order.graphs) == len(order.parents)
        assert all(a is b for a, b in zip(order.graphs, all_graphs(n)))

    def test_returned_lists_are_fresh(self):
        order = graph_order(6)
        assert {type(order.keys), type(order.graphs), type(order.parents)} == {tuple}
        graphs = all_graphs(6)
        assert all_graphs(6) is not graphs
        assert all(a is b for a, b in zip(graphs, all_graphs(6)))
        graphs.clear()
        all_graphs(6, connected_only=True).clear()
        assert len(all_graphs(6)) == 156
        assert len(all_graphs(6, connected_only=True)) == 112

    def test_first_order_has_no_parent(self):
        order = graph_order(1)
        assert order.keys == ("@",)
        assert order.graphs == (Graph(1, (0,), 0),)
        assert order.parents == (None,)


class TestRandomGraph:
    def test_seed_determinism(self):
        a = random_graph(10, m=20, seed=5)
        b = random_graph(10, m=20, seed=5)
        assert a == b
        assert a.e == 20

    def test_different_seeds_differ(self):
        assert random_graph(12, p=0.5, seed=1) != random_graph(12, p=0.5, seed=2)

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            random_graph(5)
        with pytest.raises(ParameterError):
            random_graph(5, m=3, p=0.5)
        with pytest.raises(ParameterError):
            random_graph(5, m=11)
        with pytest.raises(ParameterError):
            random_graph(5, p=1.5)


class TestPerturbation:
    def test_seed_determinism(self):
        a = perturb_extremal(CompleteSplit(10, 2), add=2, remove=1, seed=3)
        b = perturb_extremal(CompleteSplit(10, 2), add=2, remove=1, seed=3)
        assert a == b

    def test_edge_budget(self):
        base = build_family(CompleteSplitPlus(10, 2))
        g = perturb_extremal(CompleteSplitPlus(10, 2), add=3, remove=1, seed=0)
        assert g.e == base.e + 2

    def test_base_type_check(self):
        with pytest.raises(ParameterError):
            perturb_extremal(Path(5), add=1)

    @pytest.mark.parametrize(
        "base, add, remove, seed, added, removed",
        [
            (CompleteSplit(10, 2), 2, 1, 3, [(4, 8), (4, 9)], [(0, 8)]),
            (CompleteSplitPlus(24, 3), 2, 0, 7, [(5, 6), (7, 17)], []),
            (CompleteSplitPlus(40, 3), 1, 1, 11, [(25, 38)], [(1, 20)]),
            (CompleteSplit(12, 4), 0, 3, 5, [], [(1, 7), (2, 4), (3, 7)]),
            (CompleteSplitPlus(30, 3), 3, 2, 12345, [(7, 8), (9, 20), (11, 19)], [(0, 2), (1, 26)]),
        ],
    )
    def test_pinned_draws(self, base, add, remove, seed, added, removed):
        # the draws seed the perturbation campaigns, so they are pinned:
        # the non-edges are listed in (i, j) order, whatever builds them
        edges = set(build_family(base).edges())
        g = perturb_extremal(base, add=add, remove=remove, seed=seed)
        assert sorted(set(g.edges()) - edges) == added
        assert sorted(edges - set(g.edges())) == removed

    def test_remove_too_many(self):
        with pytest.raises(ParameterError):
            perturb_extremal(CompleteSplit(5, 1), remove=100)

    def test_matches_frozen_list_sampler(self):
        # S_{n,k} and S+_{n,k} for 2 <= n <= 28 and every k, up to two edges
        # added and two removed, seeds 0-2: the same graph or the same
        # error message as the sampler that listed every edge and non-edge
        def outcome(sampler, *args):
            try:
                return sampler(*args)
            except ParameterError as exc:
                return str(exc)

        cases = errors = 0
        for n in range(2, 29):
            for family, top in ((CompleteSplit, n - 1), (CompleteSplitPlus, n - 2)):
                for k in range(1, top + 1):
                    for add, remove, seed in itertools.product(range(3), range(3), range(3)):
                        args = family(n, k), add, remove, seed
                        got = outcome(perturb_extremal, *args)
                        assert got == outcome(frozen_perturb_extremal, *args), args
                        cases += 1
                        errors += isinstance(got, str)
        assert (cases, errors) == (19683, 564)
