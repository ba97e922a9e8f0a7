import itertools
import math
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectree.errors import CapExceededError, Graph6Error, ParameterError
from spectree import graphs
from spectree.graphs import (
    Broom,
    Complete,
    CompleteSplit,
    CompleteSplitPlus,
    Explicit,
    Graph,
    Path,
    Spider,
    Star,
    _adjacency_stack,
    _ranks_below,
    _read_keys,
    _refine_color_stack,
    _search,
    build_family,
    canonical_key,
    canonical_keys,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    is_complete_split,
    is_complete_split_plus,
    join,
    m_copies,
    neighborhood_shells,
    parse_edge_list,
    twin_classes,
    write_edge_list,
)
from spectree.embed import all_trees_of_order
from spectree.enumeration import _children, all_graphs, graph_order, perturb_extremal, random_graph

from oracles import (
    dense_ranks,
    frozen_canonical_key,
    frozen_colors,
    frozen_is_complete_split,
    frozen_is_complete_split_plus,
    graph6_text,
    ranks_below,
)


def random_graph_raw(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def plant_twins(g, count, rng):
    """g plus `count` new vertices, each a true or false twin of a random
    existing vertex, randomly relabelled."""
    for _ in range(count):
        u = rng.randrange(g.n)
        w = g.n
        edges = g.edges() + [(x, w) for x in g.neighbors(u)]
        if rng.random() < 0.5:
            edges.append((u, w))
        g = Graph.from_edges(w + 1, edges)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


class TestFamilies:
    def test_complete_split_counts(self):
        g = build_family(CompleteSplit(5, 2))
        assert (g.n, g.e) == (5, 7)

    def test_complete_split_edge_formula_grid(self):
        for n in range(2, 61):
            for k in range(1, n):
                g = build_family(CompleteSplit(n, k))
                assert g.e == k * n - k * (k + 1) // 2

    def test_complete_split_plus(self):
        g = build_family(CompleteSplitPlus(20, 2))
        assert (g.n, g.e) == (20, 38)

    def test_spider_fig1(self):
        g = build_family(Spider(3, 3, 2, 1))
        assert (g.n, g.e) == (10, 9)
        assert sorted(g.degrees(), reverse=True)[0] == 4

    def test_broom_degenerate_cases(self):
        # single-bristle broom is a path; length-one handle is a star
        for t in (2, 5, 8):
            b = build_family(Broom(1, t))
            assert sorted(b.degrees()) == sorted(build_family(Path(t + 1)).degrees())
            assert b.n == t + 1 and b.e == t
        for s in (1, 4):
            b = build_family(Broom(s, 1))
            assert sorted(b.degrees()) == sorted(build_family(Star(s)).degrees())

    def test_parameter_violations(self):
        with pytest.raises(ParameterError):
            build_family(CompleteSplit(5, 5))
        with pytest.raises(ParameterError):
            build_family(CompleteSplitPlus(5, 4))
        with pytest.raises(ParameterError):
            build_family(Spider())
        with pytest.raises(ParameterError):
            build_family(Spider(2, 0))

    def test_explicit_rejects_bad_edges(self):
        with pytest.raises(ParameterError):
            build_family(Explicit(3, ((0, 0),)))
        with pytest.raises(ParameterError):
            build_family(Explicit(3, ((0, 1), (1, 0))))

    def test_spider_bipartition_gap(self):
        # odd-order spider: bipartition classes differ by |odd legs - 1|
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(2, 5)
            legs = [rng.randint(1, 4) for _ in range(m)]
            sp = Spider(*legs)
            if sp.order % 2 == 0:
                continue
            g = build_family(sp)
            color = [-1] * g.n
            color[0] = 0
            stack = [0]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if color[w] == -1:
                        color[w] = 1 - color[v]
                        stack.append(w)
            a = color.count(0)
            b = color.count(1)
            assert abs(a - b) == abs(sp.odd_legs - 1)


class TestOperations:
    def test_join_is_complete_split(self):
        g = join(build_family(Complete(2)), empty_graph(3))
        s = build_family(CompleteSplit(5, 2))
        assert canonical_key(g) == canonical_key(s)

    def test_disjoint_union_edges(self):
        p3 = build_family(Path(3))
        u = disjoint_union(p3, p3)
        assert (u.n, u.e) == (6, 4)

    def test_m_copies(self):
        p3 = build_family(Path(3))
        assert canonical_key(m_copies(p3, 2)) == canonical_key(disjoint_union(p3, p3))

    def test_shells_complete_split(self):
        g = build_family(CompleteSplit(5, 2))
        assert [len(s) for s in neighborhood_shells(g, 0)] == [4]
        assert [len(s) for s in neighborhood_shells(g, 4)] == [2, 2]

    def test_shells_path_endpoint(self):
        g = build_family(Path(3))
        assert [len(s) for s in neighborhood_shells(g, 0)] == [1, 1]

    def test_shells_out_of_range(self):
        with pytest.raises(ParameterError):
            neighborhood_shells(build_family(Path(3)), 5)

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
    def test_relabel_needs_a_permutation(self, perm):
        with pytest.raises(ParameterError, match="permutation"):
            build_family(Path(3)).relabel(perm)

    @pytest.mark.parametrize("vertices", [[-1, 2], [5], [0, 3]])
    def test_subgraph_vertices_out_of_range(self, vertices):
        with pytest.raises(ParameterError, match="outside"):
            build_family(Path(3)).subgraph(vertices)

    def test_subgraph_of_no_vertices(self):
        assert build_family(Path(3)).subgraph([]) == (Graph(0, (), 0), [])


class TestGraph6:
    def test_fixtures(self):
        assert encode_graph6(build_family(Complete(1))) == "@"
        assert encode_graph6(build_family(Complete(3))) == "Bw"
        assert encode_graph6(build_family(Path(3))) == "Bg"
        assert encode_graph6(empty_graph(5)) == "D??"

    def test_decode_star(self):
        g = decode_graph6("D?{")
        assert (g.n, g.e) == (5, 4)
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]
        assert encode_graph6(g) == "D?{"

    def test_truncated_input(self):
        with pytest.raises(Graph6Error) as exc:
            decode_graph6("D?")
        assert exc.value.offset is not None

    def test_bad_character(self):
        with pytest.raises(Graph6Error):
            decode_graph6("B\x1f")

    @pytest.mark.parametrize(
        "text, offset",
        # non-zero padding after 1 and after 10 adjacency bits, and K3's
        # order in the long form
        [("A`", 1), ("D?}", 2), ("~??Bw", 0)],
    )
    def test_rejects_what_encode_never_writes(self, text, offset):
        with pytest.raises(Graph6Error) as exc:
            decode_graph6(text)
        assert exc.value.offset == offset

    def test_accepts_only_what_encode_writes(self):
        # every order digit up to 5 followed by every body of the right length
        alphabet = [chr(c) for c in range(63, 127)]
        for n in range(6):
            need = n * (n - 1) // 2
            accepted = 0
            for body in itertools.product(alphabet, repeat=-(-need // 6)):
                text = chr(63 + n) + "".join(body)
                try:
                    g = decode_graph6(text)
                except Graph6Error:
                    continue
                assert encode_graph6(g) == text
                accepted += 1
            assert accepted == 2**need

    def test_order_above_the_cap(self):
        # rejected at the order field, before the 2 MB body is read
        n = graphs.MAX_VERTICES + 1
        order = "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
        with pytest.raises(Graph6Error) as exc:
            decode_graph6("~" + order + "?" * -(-n * (n - 1) // 12))
        assert exc.value.offset == 0

    def test_roundtrip_at_the_cap(self):
        g = build_family(CompleteSplit(graphs.MAX_VERTICES, 2))
        h = decode_graph6(encode_graph6(g))
        assert h == g and h.e == g.e

    def test_long_form(self):
        g = build_family(Path(100))
        s = encode_graph6(g)
        assert s.startswith("~")
        assert decode_graph6(s) == g

    def test_roundtrip_every_key_to_n8(self):
        for n in range(1, 9):
            for key in graph_order(n).keys:
                g = decode_graph6(key)
                assert encode_graph6(g) == key
                assert g.e == len(g.edges())

    @pytest.mark.parametrize("n", [63, 300])
    def test_long_form_roundtrip(self, n):
        g = random_graph(n, p=0.5, seed=n)
        s = encode_graph6(g)
        assert s.startswith("~") and not s.startswith("~~")
        h = decode_graph6(s)
        assert h == g and h.e == g.e

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 62, 63, 300])
    def test_encode_against_definition(self, n):
        # the order field's short and long forms, and bodies that end on
        # and off a sextet boundary
        rng = random.Random(n)
        for p in (0.0, 0.3, 0.5, 1.0):
            g = random_graph_raw(n, p, rng)
            assert encode_graph6(g) == graph6_text(g)
            assert decode_graph6(graph6_text(g)) == g

    def test_encode_every_graph_to_n6(self):
        for n in range(7):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for code in range(1 << len(pairs)):
                g = Graph.from_edges(n, [pq for b, pq in enumerate(pairs) if code >> b & 1])
                assert encode_graph6(g) == graph6_text(g)
                assert decode_graph6(graph6_text(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**15 - 1))
    def test_roundtrip_n6(self, code):
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges = [pairs[b] for b in range(15) if code >> b & 1]
        g = Graph.from_edges(6, edges)
        assert decode_graph6(encode_graph6(g)) == g

    def test_complete_graph_at_the_cap(self):
        # 0.3-0.5 s on a 2-vCPU Xeon, where setting each edge's bit in its
        # row ints took 2.9-6.4 s
        n = graphs.MAX_VERTICES
        # built from its rows: build_family adds the 12.5 million edges one
        # by one, which takes longer than the decoding under test
        g = Graph(n, tuple((1 << n) - 1 ^ 1 << v for v in range(n)), n * (n - 1) // 2)
        text = encode_graph6(g)
        start = time.perf_counter()
        h = decode_graph6(text)
        assert time.perf_counter() - start < 1.5
        assert h == g and h.e == g.e


def fields(gs):
    return [(g.n, g.rows, g.e) for g in gs]


class TestReadKeys:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_key_to_n8(self, n):
        keys = graph_order(n).keys
        assert fields(_read_keys(keys)) == fields(map(decode_graph6, keys))

    @pytest.mark.parametrize("t", range(1, 13))
    def test_every_tree_level(self, t):
        keys = [encode_graph6(g) for g in all_trees_of_order(t)]
        assert fields(_read_keys(keys)) == fields(map(decode_graph6, keys))

    @pytest.mark.parametrize(
        "keys",
        # no body digit; one digit of 1 bit; one full digit; 10 bits and
        # 2 of padding in the second digit
        [["@"], ["A?", "A_"], ["C?", "CF", "C~"], ["D??", "D?{", "DQo", "D~{"]],
    )
    def test_edge_cases(self, keys):
        assert fields(_read_keys(keys)) == fields(map(decode_graph6, keys))

    @pytest.mark.parametrize(
        "keys",
        # another length, another order digit, a long-form order, and a
        # character that encodes to two bytes
        [["D?{", "D?"], ["D?{", "D?{?"], ["D?{", "E???"], ["D?{", "C~?"],
         ["~??~" + "?" * 326], ["D?é"]],
    )
    def test_rejects_keys_of_another_shape(self, keys):
        with pytest.raises(ParameterError):
            _read_keys(keys)


class TestEdgeList:
    def test_roundtrip(self):
        g = build_family(CompleteSplitPlus(7, 2))
        assert parse_edge_list(write_edge_list(g)) == g

    def test_bad_header(self):
        with pytest.raises(ParameterError):
            parse_edge_list("3 5\n0 1\n")

    @pytest.mark.parametrize("line", ["0", "0 1 2"])
    def test_edge_line_not_a_pair(self, line):
        with pytest.raises(ParameterError, match=repr(line)):
            parse_edge_list(f"3 1\n{line}\n")


class TestCanonical:
    def test_relabel_invariance_p3(self):
        p3 = build_family(Path(3))
        keys = {canonical_key(p3.relabel(list(p))) for p in itertools.permutations(range(3))}
        assert len(keys) == 1

    def test_distinguishes(self):
        assert canonical_key(build_family(Path(3))) != canonical_key(
            build_family(Complete(3))
        )

    def test_random_relabelings(self):
        rng = random.Random(7)
        g = random_graph_raw(7, 0.5, rng)
        k0 = canonical_key(g)
        for _ in range(100):
            perm = list(range(7))
            rng.shuffle(perm)
            assert canonical_key(g.relabel(perm)) == k0

    def test_brute_force_agreement(self):
        # canonical equality must exactly match permutation isomorphism
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph_raw(5, rng.random(), rng)
            h = random_graph_raw(5, rng.random(), rng)
            iso = any(
                g.relabel(list(p)) == h for p in itertools.permutations(range(5))
            )
            assert (canonical_key(g) == canonical_key(h)) == iso

    def test_cap(self):
        with pytest.raises(CapExceededError):
            canonical_key(empty_graph(11))

    def test_raised_cap(self):
        # rows of 11 vertices lie outside the neighbour table for n <= 10
        g = build_family(Spider(1, 2, 3, 4))
        assert canonical_key(g, cap=11) == frozen_canonical_key(g)

    def test_symmetric_inputs(self):
        # keys pinned from the unpruned search, which took about 40 s on
        # these four together; each has a colour block of twins
        cases = [
            (empty_graph(10), "I????????"),
            (build_family(Complete(10)), "I~~~~~~~w"),
            (build_family(Star(9)), "I??????~w"),
            (build_family(CompleteSplit(10, 2)), "I????B~~w"),
        ]
        start = time.perf_counter()
        assert [canonical_key(g) for g, _ in cases] == [key for _, key in cases]
        assert time.perf_counter() - start < 2.0

    def test_frozen_oracle_with_planted_twins(self):
        # random and circulant bases: circulants are regular, so one colour
        # block holds vertices that are not twins
        rng = random.Random(11)
        for _ in range(120):
            base = rng.randint(1, 6)
            if rng.random() < 0.5:
                g = random_graph_raw(base, rng.random(), rng)
            else:
                jumps = [d for d in range(1, base // 2 + 1) if rng.random() < 0.5]
                edges = {
                    tuple(sorted((i, (i + d) % base))) for i in range(base) for d in jumps
                }
                g = Graph.from_edges(base, edges)
            g = plant_twins(g, rng.randint(1, 8 - base), rng)
            assert canonical_key(g) == frozen_canonical_key(g)


    def test_frozen_oracle_every_n7_class_relabelled(self):
        rng = random.Random(2024)
        for g in all_graphs(7):
            perm = list(range(7))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert canonical_key(h) == frozen_canonical_key(h)

    @pytest.mark.parametrize("n", [9, 10])
    def test_frozen_oracle_sparse_n9_n10(self, n):
        # 36 and 45 adjacency bits: a key with no padding and one with three
        # padding bits in its last character
        rng = random.Random(n)
        for seed in range(200):
            g = random_graph(n, m=rng.randint(n - 2, 2 * n), seed=seed)
            assert canonical_key(g) == frozen_canonical_key(g)


def augmentation_children(n):
    """The children of `_children(n)`, each built from its (parent, mask)
    pair as the parent plus a new vertex n - 1 joined to the mask."""
    parents = graph_order(n - 1).graphs
    return [
        Graph.from_edges(n, parents[p].edges() + [(v, n - 1) for v in range(n - 1) if mask >> v & 1])
        for p, mask in _children(n)
    ]


def ordering_count(g):
    """Colour-respecting orderings of g: the product of the factorials of
    its stable colour-class sizes."""
    return math.prod(math.factorial(k) for k in Counter(frozen_colors(g)).values())


def keying_paths(monkeypatch):
    """Record, per canonical_keys call, the stream indices that the batch
    minimum over orderings keys and the bitset rows that the scalar search
    gets.  The keyer keys each stack before it takes the next, so a group
    member's stream index is its index in the stack plus the number of
    graphs in the stacks before."""
    batched, searched = [], []
    before = 0
    stack_keys, minimum, search = graphs._stack_keys, graphs._batch_minimum, graphs._search

    def keys(stacks):
        def counted():
            nonlocal before
            before = 0
            for stack in stacks:
                yield stack
                before += len(stack)

        return stack_keys(counted())

    def batch(pairs, members, weights):
        batched.extend(before + i for i in members)
        return minimum(pairs, members, weights)

    def scalar(rows, colors):
        searched.append(tuple(rows))
        return search(rows, colors)

    monkeypatch.setattr(graphs, "_stack_keys", keys)
    monkeypatch.setattr(graphs, "_batch_minimum", batch)
    monkeypatch.setattr(graphs, "_search", scalar)
    return batched, searched


def hard_graphs():
    """Regular graphs whose single colour class is not one set of twins,
    so their keys need the search: C8, Q3, K_{4,4} and Petersen."""
    cycle = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    cube = Graph.from_edges(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b])
    k44 = join(empty_graph(4), empty_graph(4))
    petersen = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    return [cycle, cube, k44, petersen]


class TestCanonicalKeys:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_augmentation_child(self, n):
        children = augmentation_children(n)
        assert canonical_keys(children) == [frozen_canonical_key(g) for g in children]

    @pytest.mark.parametrize("n", [9, 10])
    def test_seeded_random_graphs(self, n):
        # 400 graphs: at n = 10 two full slices of 163 and a partial one
        rng = random.Random(100 + n)
        batch = [random_graph(n, p=rng.uniform(0.2, 0.8), seed=seed) for seed in range(400)]
        assert canonical_keys(batch) == [frozen_canonical_key(g) for g in batch]

    def test_graphs_that_need_the_search(self):
        rng = random.Random(8)
        for g in hard_graphs():
            assert ordering_count(g) > 64
            # alone, the slice has no graph with a single ordering
            assert canonical_keys([g]) == [frozen_canonical_key(g)]
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_keys([g.relabel(perm)]) == [frozen_canonical_key(g)]
        # mixed with single-ordering graphs in one slice
        mixed = [build_family(Path(8))] + hard_graphs()[:3] + [build_family(Star(7))]
        assert canonical_keys(mixed) == [frozen_canonical_key(g) for g in mixed]

    def test_searched_children(self, monkeypatch):
        # of the 24,282 children on n <= 8, 8,596 have a discrete colouring
        # and are keyed off their base order, 15,045 have at most 64
        # colour-respecting orderings and take the batch minimum over them,
        # and only the other 641 reach the scalar search (5,724 did before
        # the batch minimum)
        children = [augmentation_children(n) for n in range(2, 9)]
        batched, searched = keying_paths(monkeypatch)
        for batch in children:
            canonical_keys(batch)
        total = sum(map(len, children))
        assert total == 24282
        assert len(batched) == 15045
        assert len(searched) == 641
        base = total - len(batched) - len(searched)
        assert base == 8596
        assert sum(ordering_count(g) == 1 for batch in children for g in batch) == base

    @pytest.mark.parametrize("n", range(2, 8))
    def test_each_path_against_the_oracle(self, n, monkeypatch):
        # every child that the batch minimum keys has at most 64 orderings,
        # every searched one more, and both agree with the frozen oracle
        children = augmentation_children(n)
        batched, searched = keying_paths(monkeypatch)
        assert canonical_keys(children) == [frozen_canonical_key(g) for g in children]
        assert all(1 < ordering_count(children[i]) <= 64 for i in batched)
        for rows in searched:
            assert ordering_count(Graph(n, rows, sum(r.bit_count() for r in rows) // 2)) > 64
        if n >= 4:
            assert batched

    @pytest.mark.parametrize(
        "edges, n, count, path",
        [
            # classes of 4 and 2: 48 orderings, the most that n <= 10 can
            # have up to 64, since 64 = (2!)^6 needs 12 vertices
            ([(0, 5), (3, 4)], 6, 48, "batch"),
            # classes of 3, 3 and 2: 72, the fewest above 64
            ([(0, 7), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)], 8, 72, "search"),
        ],
    )
    def test_ordering_count_picks_the_path(self, edges, n, count, path, monkeypatch):
        rng = random.Random(count)
        g = Graph.from_edges(n, edges)
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert ordering_count(h) == count
            batched, searched = keying_paths(monkeypatch)
            assert canonical_keys([h]) == [frozen_canonical_key(g)]
            assert (batched, searched) == (([0], []) if path == "batch" else ([], [h.rows]))
            monkeypatch.undo()

    def test_ranks_against_python_ranks(self):
        # rows with ties, with one value, sorted both ways, and codes just
        # below 2^53, where neighbouring floats are one apart
        rng = random.Random(5)
        top = 2.0**53
        rows = [[3, 1, 3, 2, 1, 0, 3, 2], [5] * 8, list(range(8)), list(range(7, -1, -1))]
        rows += [[rng.randint(0, 3) for _ in range(10)] for _ in range(50)]
        rows += [[top - 1 - rng.randint(0, 3) for _ in range(10)] for _ in range(20)]
        rows += [[rng.choice([0.0, top - 1, top - 2]) for _ in range(10)] for _ in range(20)]
        for width in (8, 10):
            batch = [r for r in rows if len(r) == width]
            values = np.array(batch, dtype=float)
            assert _ranks_below(values).tolist() == [ranks_below(r) for r in batch]

    def test_batch_colours_match_frozen_colours(self):
        rng = random.Random(3)
        cases = [augmentation_children(7), hard_graphs()[:3], [hard_graphs()[3]]]
        for n in (9, 10):
            cases.append([random_graph(n, p=rng.random(), seed=seed) for seed in range(100)])
        # the batch colours count the signatures below each vertex's own;
        # their order and ties give the same ordered partition
        for batch in cases:
            colors = _refine_color_stack(_adjacency_stack(batch))
            assert [dense_ranks(row) for row in colors.tolist()] == [frozen_colors(g) for g in batch]

    def test_search_nodes(self):
        # the search tracks how long a prefix its codes share with the best
        # code so far, so a leaf found in one subtree prunes the next: the
        # 2,088 children on n <= 7 take 23,460 search nodes from their
        # batch colours, against 24,320 with a pruning flag fixed per frame
        children = [augmentation_children(n) for n in range(2, 8)]
        colors = [_refine_color_stack(_adjacency_stack(batch)).tolist() for batch in children]
        nodes = 0

        def count(frame, event, arg):
            nonlocal nodes
            code = frame.f_code
            if event == "call" and code.co_name == "rec" and code.co_filename == graphs.__file__:
                nodes += 1

        sys.setprofile(count)
        try:
            for batch, rows in zip(children, colors):
                for g, row in zip(batch, rows):
                    _search(g.rows, row)
        finally:
            sys.setprofile(None)
        assert sum(map(len, children)) == 2088
        assert nodes == 23460

    def test_edge_cases(self):
        assert canonical_keys([]) == []
        assert canonical_keys(iter([Graph(0, (), 0)])) == ["?"]
        assert canonical_keys([Graph(1, (0,), 0)]) == ["@"]
        assert canonical_keys([Graph(2, (2, 1), 1), empty_graph(2)]) == ["A_", "A?"]
        with pytest.raises(CapExceededError):
            canonical_keys([empty_graph(11)])
        with pytest.raises(ParameterError):
            canonical_keys([empty_graph(3), empty_graph(4)])

    @pytest.mark.parametrize("n", [11, 12])
    def test_orders_eleven_and_twelve(self, n):
        # above n = 10 the codes outgrow a float's 53 bits, so every graph
        # is searched from its batch colours, alone or in a batch; each
        # relabelled tree keys to its canonically labelled generated self
        rng = random.Random(1000 + n)
        trees = all_trees_of_order(n)
        cases = [random_graph(n, p=rng.uniform(0.1, 0.9), seed=seed) for seed in range(150)]
        cases += [t.relabel(rng.sample(range(n), n)) for t in trees]
        keys = [canonical_key(g, cap=12) for g in cases]
        assert canonical_keys(cases, cap=12) == keys
        assert keys[150:] == [encode_graph6(t) for t in trees]
        small = [(g, key) for g, key in zip(cases, keys) if ordering_count(g) <= 64]
        assert len(small) >= 100
        assert all(frozen_canonical_key(g) == key for g, key in small)

    def test_no_cap_above_twelve(self):
        # the refinement's codes stop being exact floats at n = 13
        with pytest.raises(CapExceededError):
            canonical_key(empty_graph(13), cap=13)
        assert canonical_key(empty_graph(12), cap=13) == encode_graph6(empty_graph(12))

    def test_exported(self):
        import spectree

        assert spectree.canonical_keys is canonical_keys

    def test_orders_zero_and_one_skip_the_search(self, monkeypatch):
        # a graph on at most one vertex has one ordering, so its graph6
        # string is its key
        batched, searched = keying_paths(monkeypatch)
        assert canonical_key(Graph(0, (), 0)) == "?"
        assert canonical_key(Graph(1, (0,), 0)) == "@"
        assert (batched, searched) == ([], [])

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_twin_heavy_graphs(self, n, monkeypatch):
        # every colour class is one set of twins, so these graphs have a
        # single ordering up to automorphism; the number of orderings P
        # still picks their path: the batch minimum for P <= 64, else the
        # search
        def one_twin_class_per_colour(g):
            colors = frozen_colors(g)
            return all(
                len(twin_classes(g.rows, [v for v in range(g.n) if colors[v] == c])) == 1
                for c in set(colors)
            )

        rng = random.Random(n)
        cases = [
            empty_graph(n),
            build_family(Complete(n)),
            build_family(Star(n - 1)),
            join(empty_graph(2), empty_graph(n - 2)),
            join(join(empty_graph(1), empty_graph(2)), empty_graph(n - 3)),
        ]
        cases[2:] = [g.relabel(rng.sample(range(n), n)) for g in cases[2:]]
        assert all(map(one_twin_class_per_colour, cases))
        for seed in range(20):
            g = plant_twins(random_graph(n - 3, p=0.5, seed=seed), 3, rng)
            if one_twin_class_per_colour(g) and 1 < ordering_count(g) <= 64:
                cases.append(g)
        # every relabelling of the empty graph and of K_n is the graph
        # itself, so their keys are their graph6 strings (the frozen oracle
        # would try all n! orderings)
        expected = [encode_graph6(g) for g in cases[:2]]
        expected += [frozen_canonical_key(g) for g in cases[2:]]
        batched, searched = keying_paths(monkeypatch)
        assert canonical_keys(cases) == expected
        assert sorted(batched) == list(range(5, len(cases))) and len(batched) >= 10
        assert searched == [g.rows for g in cases[:5]]


class TestFamilyRecognizers:
    def test_recognize(self):
        assert is_complete_split(build_family(CompleteSplit(30, 3)), 3)
        assert not is_complete_split(build_family(CompleteSplitPlus(30, 3)), 3)
        assert is_complete_split_plus(build_family(CompleteSplitPlus(30, 3)), 3)
        assert not is_complete_split_plus(build_family(CompleteSplit(30, 3)), 3)

    def test_recognize_every_small_split_plus(self):
        # S+_{n,n-2} is K_n, whose extra-edge ends are hubs too
        rng = random.Random(10)
        for n in range(3, 13):
            for k in range(1, n - 1):
                g = build_family(CompleteSplitPlus(n, k))
                perm = list(range(n))
                rng.shuffle(perm)
                assert is_complete_split_plus(g.relabel(perm), k), (n, k)
                assert not is_complete_split_plus(build_family(CompleteSplit(n, k)), k)
                assert not is_complete_split_plus(g, k - 1) and not is_complete_split_plus(g, k + 1)
                if n - k >= 5:
                    # move an edge from hub 0 to a leaf onto two other
                    # leaves: same order, size and hubs but one
                    moved = g.without_edge(0, n - 1).with_edge(n - 2, n - 3)
                    assert not is_complete_split_plus(moved, k), (n, k)

    def test_recognize_relabeled(self):
        rng = random.Random(3)
        g = build_family(CompleteSplitPlus(12, 2))
        perm = list(range(12))
        rng.shuffle(perm)
        assert is_complete_split_plus(g.relabel(perm), 2)


class TestDegreeSequenceRecognizers:
    """The degree-sequence recognisers against the frozen ones."""

    @staticmethod
    def verdicts(g, k):
        new = is_complete_split(g, k), is_complete_split_plus(g, k)
        frozen = frozen_is_complete_split(g, k), frozen_is_complete_split_plus(g, k)
        assert new == frozen, (encode_graph6(g), k)
        return new

    def test_every_class_up_to_n8(self):
        found = Counter()
        for n in range(1, 9):
            for g in all_graphs(n):
                for k in range(-1, n + 2):
                    split, plus = self.verdicts(g, k)
                    found["S"] += split
                    found["S+"] += plus
        # one S_{n,k} for each 1 <= k <= n-1, one S+_{n,k} for each 1 <= k <= n-2
        assert found == {"S": 28, "S+": 21}

    def test_families_and_perturbations_relabelled(self):
        # every S_{n,k} and S+_{n,k} with 3 <= n <= 59 and, for k = 1, n/2
        # and the largest k, their seeded perturbations (up to 2 edges added
        # and up to 2 removed), each relabelled by one seeded permutation
        rng = random.Random(23)
        for n in range(3, 60):
            for family, top in ((CompleteSplit, n - 1), (CompleteSplitPlus, n - 2)):
                for k in range(1, top + 1):
                    base = family(n, k)
                    g = build_family(base)
                    graphs = [g]
                    if k in (1, n // 2, top):
                        free = n * (n - 1) // 2 - g.e
                        graphs += [
                            perturb_extremal(base, add=a, remove=r, seed=seed)
                            for a in range(3)
                            for r in range(3)
                            if 0 < a + r and a <= free + r
                            for seed in range(3)
                        ]
                    for h in graphs:
                        perm = list(range(n))
                        rng.shuffle(perm)
                        h = h.relabel(perm)
                        for j in (k - 1, k, k + 1):
                            self.verdicts(h, j)
                    split, plus = self.verdicts(g, k)
                    assert plus if family is CompleteSplitPlus else split
