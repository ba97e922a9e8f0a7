"""Exact containment engines: tree embedding, linear forests, longest paths,
free-tree generation and the proof-guided spider embedder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice

from .errors import (
    BudgetExceededError,
    CapExceededError,
    HypothesisViolationError,
    ParameterError,
)
from .graphs import (
    FAMILY_TYPES,
    Graph,
    Spider,
    _read_keys,
    bits,
    build_family,
    canonical_keys,
    twin_classes,
)
from .spectral import _column_sums, _local_graph

DEFAULT_BUDGET = 10**8
LONGEST_PATH_CAP = 20
TREE_CAP = 12


@dataclass(frozen=True)
class Embedding:
    """Injective pattern -> host vertex assignment preserving edges."""

    assignment: tuple  # assignment[pattern_id] = host_id

    def pairs(self):
        return list(enumerate(self.assignment))


def is_valid_embedding(host, pattern, emb):
    """Independent validation: injectivity plus edge preservation."""
    a = emb.assignment
    if len(a) != pattern.n or len(set(a)) != len(a):
        return False
    if any(not 0 <= h < host.n for h in a):
        return False
    return all(host.has_edge(a[u], a[v]) for u, v in pattern.edges())


def as_graph(pattern):
    if isinstance(pattern, Graph):
        return pattern
    if isinstance(pattern, FAMILY_TYPES):
        return build_family(pattern)
    raise ParameterError(f"pattern must be a Graph or family spec, got {pattern!r}")


def is_tree(g):
    return g.n >= 1 and g.e == g.n - 1 and g.is_connected()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget):
        if budget < 1:
            raise ParameterError(f"search budget must be >= 1, got {budget}")
        self.left = budget

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("search budget exhausted")


def contains_tree(host, pattern, budget=DEFAULT_BUDGET):
    """Exact tree-subgraph search.  Returns an Embedding or None.

    The decision is `_find`'s, shared with `tree_test`, and the witness
    the split certificate's or the search's.  Raises ParameterError for a
    non-tree, then for a budget below 1; BudgetExceededError when the
    budget runs out, a distinct outcome from "not contained"; and
    CapExceededError past about 990 pattern vertices (see `_embed_tree`).

    The search tries one host vertex per twin class, and a child of a
    pattern vertex whose rooted subtree is isomorphic to an earlier
    sibling's takes a host vertex after that sibling's in their shared
    candidate list.  Any embedding can be re-sorted within a sibling class
    and moved onto earlier twins, and either step only makes it
    lexicographically smaller, so the lexicographically first embedding
    survives both prunings: the result is the unpruned search's, and only
    the budget spent falls (see `_embed_tree`).
    """
    pat = as_graph(pattern)
    _pattern_order(pat)  # raises ParameterError for a non-tree
    _Budget(budget)
    found = _find(host, _Splits(host), pat, budget)
    if found is None:
        return None
    if len(found) == 4:  # the certificate's (C, rest, X, Y)
        found = found[0] + found[1], found[2] + found[3]
    assignment = [0] * pat.n
    for v, h in zip(*found):
        assignment[v] = h
    return Embedding(tuple(assignment))


def tree_test(host, budget=DEFAULT_BUDGET):
    """The containment test pattern -> bool of one host, for a caller that
    asks about many trees and needs no embedding.

    The decision is `_find`'s, shared with `contains_tree`, and a budget
    below 1 fails here, before any pattern.  The certificate compares
    counts only, against the host's split sequence, whose entries are
    built on first use and shared by all patterns."""
    _Budget(budget)
    splits = _Splits(host)

    def contains(pattern):
        return _find(host, splits, as_graph(pattern), budget) is not None

    return contains


def _find(host, splits, pat, budget):
    """Whether host, with split sequence `splits`, contains the tree pat:
    None when pat is larger, else the certificate's fit (C, rest, X, Y) for
    one unit of a fresh budget, else the search's (order, image) or None.
    Raises ParameterError for a non-tree."""
    if pat.n > host.n:
        _pattern_order(pat)  # a non-tree raises all the same
        return None
    fit = _fit(splits, _split_profile(pat))
    if fit is not None:
        return fit
    order, parents, pat_deg, sibs = _pattern_order(pat)
    left = _Budget(budget)
    left.spend()  # the certificate's unit
    image = _embed_tree(host, parents, pat_deg, sibs, left)
    return None if image is None else (order, image)


@lru_cache(maxsize=1024)
def _pattern_order(pat):
    """BFS order from the highest-degree vertex, children by decreasing
    degree; parents[i] is the index (in the order) of the parent,
    pat_deg[i] the degree of order[i] and sibs[i] its `_siblings` entry.
    Cached per pattern graph, which is immutable and hashable; raises
    ParameterError for a non-tree."""
    if not is_tree(pat):
        raise ParameterError("pattern is not a tree")
    root = max(range(pat.n), key=pat.degree)
    order = [root]
    parents = [None]
    pos = {root: 0}
    head = 0
    while head < len(order):
        v = order[head]
        for w in sorted(pat.neighbors(v), key=pat.degree, reverse=True):
            if w not in pos:
                pos[w] = len(order)
                parents.append(head)
                order.append(w)
        head += 1
    degrees = tuple(pat.degree(v) for v in order)
    return tuple(order), tuple(parents), degrees, _siblings(parents)


def _siblings(parents):
    """sibs[i]: the last position before i with the same parent and an
    isomorphic rooted subtree, or -1.  Subtrees are coded bottom-up, each
    by the sorted codes of its children (AHU), numbered on first sight."""
    n = len(parents)
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[parents[i]].append(i)
    codes = {}
    code = [0] * n
    for i in range(n - 1, -1, -1):
        key = tuple(sorted(code[c] for c in kids[i]))
        if key not in codes:
            codes[key] = len(codes)
        code[i] = codes[key]
    sibs = [-1] * n
    last = {}
    for i in range(1, n):
        key = parents[i], code[i]
        sibs[i] = last.get(key, -1)
        last[key] = i
    return tuple(sibs)


def _embed_tree(host, parents, pat_deg, sibs, budget, roots=None):
    """Backtracking search for a tree laid out with parents[i] < i.

    Returns the host images of the pattern positions, or None.  The root
    tries `roots` when given, else every host vertex.  Every candidate
    list is in one fixed order (decreasing host degree, then id; `roots` as
    given), so the search meets embeddings in lexicographic order.  Two
    prunings keep the lexicographically first embedding E and so return
    exactly what the unpruned search returns:
    - twins: of the candidates with one open or closed neighbourhood,
      only the first usable one is tried.  Moving E's image onto an
      earlier twin, or swapping the two when E uses both, gives a smaller
      embedding, so E never skips one.
    - siblings: position i with sibs[i] = j >= 0 shares j's parent, so its
      candidate list too, and scans it from one past the slot j took.
      Swapping the isomorphic subtrees of i and j maps E to an embedding
      that differs first at j, and it is smaller there unless E already
      gives i a later slot than j.
    `rec` takes a stack frame per position: past the recursion limit (about
    990 positions less the caller's depth) the search ends in CapExceededError."""
    n = len(parents)
    image = [0] * n
    rows = host.rows
    deg = host.degrees()
    by_deg = deg.__getitem__
    # candidates in decreasing host degree, ties by vertex id (stable
    # sort); neighbour lists are sorted once per host vertex, on first use
    if roots is None:
        roots = sorted(range(host.n), key=by_deg, reverse=True)
    nbrs_by_deg = {}

    def rec(i, used):
        budget.spend()
        if i == n:
            return True
        need = pat_deg[i]
        if parents[i] is None:
            cands = roots
        else:
            p = image[parents[i]]
            cands = nbrs_by_deg.get(p)
            if cands is None:
                cands = nbrs_by_deg[p] = sorted(bits(rows[p]), key=by_deg, reverse=True)
        # sibling pruning: an isomorphic later sibling scans the shared
        # list from one past its earlier sibling's image
        j = sibs[i]
        start = cands.index(image[j]) + 1 if j >= 0 else 0
        # twin pruning: vertices with identical neighborhoods (open or
        # closed) are interchangeable, so try only one per twin class
        open_sigs = set()
        closed_sigs = set()
        for h in islice(cands, start, None):
            if used >> h & 1 or deg[h] < need:
                continue
            row = rows[h]
            if row in open_sigs or row | 1 << h in closed_sigs:
                continue
            open_sigs.add(row)
            closed_sigs.add(row | 1 << h)
            image[i] = h
            if rec(i + 1, used | 1 << h):
                return True
        return False

    try:
        return image if rec(0, 0) else None
    except RecursionError:
        raise CapExceededError(f"tree search of {n} positions passes the recursion limit") from None


# -- split profile and certificate ------------------------------------------


def _least(*fronts):
    """Pointwise least m of fronts c -> (m, mask of C); the first on ties."""
    out = {}
    for front in fronts:
        for c, entry in front.items():
            if c not in out or entry[0] < out[c][0]:
                out[c] = entry
    return out


def _join(f, g):
    """Min-plus convolution of two fronts over disjoint vertex sets."""
    return _least(*({c + d: (m + k, a | b)} for c, (m, a) in f.items()
                    for d, (k, b) in g.items()))


@lru_cache(maxsize=1024)
def _split_profile(pat):
    """Pareto front (c, m, C, rest) of the tree over the vertex sets C with
    pat - C a matching plus isolated vertices: c = |C| rising, m the fewest
    matching edges, falling to 0 at the minimum vertex cover; rest is V - C,
    the m matched pairs first.  Leaf-to-root DP over fronts c -> (m, mask of
    C) for three states: in C, unmatched, matched to a child."""
    order, parents, _, _ = _pattern_order(pat)
    cut = [{1: (0, 1 << v)} for v in order]
    free, pair = [{0: (0, 0)}] * pat.n, [{}] * pat.n
    for j in range(pat.n - 1, 0, -1):
        p = parents[j]
        up = _join(free[j], {0: (1, 0)})  # j matched to p: one more edge
        cut[p] = _join(cut[p], _least(cut[j], free[j], pair[j]))
        pair[p] = _least(_join(pair[p], cut[j]), _join(free[p], up))
        free[p] = _join(free[p], cut[j])
    front = []
    for c, (m, cover) in sorted(_least(cut[0], free[0], pair[0]).items()):
        if not front or m < front[-1][1]:
            rest = [v for e in pat.edges() if not (1 << e[0] | 1 << e[1]) & cover for v in e]
            rest += bits((1 << pat.n) - 1 & ~cover & ~sum(1 << v for v in rest))
            front.append((c, m, tuple(bits(cover)), tuple(rest)))
    return tuple(front)


class _Splits:
    """The split sequence of one host, extended on demand.  Entry c is
    (X, Y, |M|): X the c highest-degree vertices (ties to the lower id),
    Y their common neighbourhood with the pairs of a greedy matching M in
    G[Y] first.  The sequence ends before the first c whose X is not a
    clique, since no larger X is one either."""

    __slots__ = ("rows", "top", "commons", "entries")

    def __init__(self, host):
        self.rows = host.rows
        self.top = sorted(range(host.n), key=host.degrees().__getitem__, reverse=True)
        self.commons = [(1 << host.n) - 1]  # commons[c]: X's common closed nbhd
        self.entries = {}

    def at(self, c):
        """Entry c, or None when X is not a clique."""
        entry = self.entries.get(c)
        if entry is not None:
            return entry
        rows = self.rows
        commons = self.commons
        while len(commons) <= c:
            x = self.top[len(commons) - 1]
            if not commons[-1] >> x & 1:
                return None  # x misses an earlier vertex of X
            commons.append(commons[-1] & (rows[x] | 1 << x))
        xs = tuple(self.top[:c])
        free, matched = commons[c] & ~sum(1 << x for x in xs), []
        for y in bits(free):
            nb = rows[y] & free
            if free >> y & 1 and nb:
                z = (nb & -nb).bit_length() - 1
                free ^= 1 << y | 1 << z
                matched += (y, z)
        entry = self.entries[c] = xs, tuple(matched + bits(free)), len(matched) // 2
        return entry


def _fit(splits, profile):
    """The first entry (c, m, C, rest) of the split profile of a tree with
    at most host.n vertices whose host split has |M| >= m and
    |Y| >= |rest|, as (C, rest, X, Y), or None: C goes into the clique X and
    rest into Y, its pairs onto M, and all of Y is adjacent to all of X, so
    no search is needed."""
    for c, m, cover, rest in profile:
        split = splits.at(c)
        if split is None:
            return None  # the top c + 1 vertices contain the top c
        xs, ys, size = split
        if size >= m and len(ys) >= len(rest):
            return cover, rest, xs, ys
    return None


def min_vertex_cover_tree(g):
    """Minimum vertex cover size of a tree: the m = 0 end of its profile."""
    return _split_profile(g)[-1][0]


def fits_in_S(tree, k):
    """Whether the tree embeds in S_{n,k} for all large n: minimum vertex
    cover, the m = 0 end of the split profile, at most k."""
    cover = min_vertex_cover_tree(as_graph(tree))  # raises for a non-tree
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return cover <= k


# -- linear forests -------------------------------------------------------


def find_linear_forest(host, lengths, anchor_set=None, budget=DEFAULT_BUDGET):
    """Vertex-disjoint paths with the given vertex counts.

    When anchor_set is given, every path starts at a vertex inside it.
    Returns a list of vertex lists aligned with `lengths`, each listed from
    its anchored end, or None.  The forest is searched as a spider: an apex
    joined to the anchor set (to every vertex when there is none) is the
    centre and the paths are its legs, laid out longest first.  Raises
    CapExceededError past about 990 path vertices (see `_embed_tree`).
    """
    left = _Budget(budget)
    if not lengths or any(t < 1 for t in lengths):
        raise ParameterError(f"path orders must be >= 1, got {lengths}")
    if anchor_set is not None:
        anchor_mask = 0
        for v in anchor_set:
            if not 0 <= v < host.n:
                raise ParameterError(f"anchor vertex {v} out of range")
            anchor_mask |= 1 << v
    else:
        anchor_mask = (1 << host.n) - 1
    if sum(lengths) > host.n:
        return None
    apex = host.n
    rows = [row | (anchor_mask >> v & 1) << apex for v, row in enumerate(host.rows)]
    rows.append(anchor_mask)
    augmented = Graph(host.n + 1, tuple(rows), host.e + anchor_mask.bit_count())
    idx = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    parents = [None]
    pat_deg = [len(lengths)]
    for i in idx:
        first = len(parents)
        parents += [0, *range(first, first + lengths[i] - 1)]
        pat_deg += [2] * (lengths[i] - 1) + [1]
    # equal legs are isomorphic siblings under the apex
    image = _embed_tree(augmented, parents, pat_deg, _siblings(parents), left, roots=[apex])
    if image is None:
        return None
    paths = [None] * len(lengths)
    pos = 1
    for i in idx:
        paths[i] = image[pos : pos + lengths[i]]
        pos += lengths[i]
    return paths


# -- longest paths ---------------------------------------------------------


@dataclass(frozen=True)
class PathStats:
    p: tuple  # p[v] = edge count of a longest path starting at v
    longest_order: int  # vertex count of a global longest path
    witness: tuple  # one longest path as a vertex tuple
    x: frozenset  # V(witness)
    y: frozenset  # remaining vertices
    s: dict  # s[v] = |N(v) & X| for v in Y


@lru_cache(maxsize=None)
def _set_patterns(n):
    """Bitsets over the 2^n vertex sets of an n-vertex graph, bit R standing
    for the set R: without[w] holds the sets that miss w, size[k] the sets of
    k vertices.  Each is built by doubling a shorter pattern."""
    without = []
    for w in range(n):
        pat, width = (1 << (1 << w)) - 1, 2 << w
        while width < 1 << n:
            pat |= pat << width
            width <<= 1
        without.append(pat)
    size = [1]
    for m in range(n):
        size = [a | b << (1 << m) for a, b in zip(size + [0], [0] + size)]
    return tuple(without), tuple(size)


def longest_path_stats(g):
    """Exact per-vertex longest-path lengths by a layered subset DP, run on
    big-integer bitsets over the 2^n vertex sets.

    Layer i holds, for each vertex w, the bitset of (i+1)-vertex sets that
    carry a spanning path ending at w; the next layer ORs the neighbours'
    bitsets, keeps the sets that miss w and adds w by a shift.  Paths reverse,
    so p[w] is the last layer in which w ends a path, and ends[w] ORs all of
    w's layers.  The witness starts at the first argmax of p and steps to the
    smallest neighbour that ends a path of the length left on sets that miss
    the prefix."""
    if g.n > LONGEST_PATH_CAP:
        raise CapExceededError(
            f"longest-path search capped at n={LONGEST_PATH_CAP}, got {g.n}"
        )
    if g.n == 0:
        raise ParameterError("empty graph")
    n = g.n
    without, size = _set_patterns(n)
    nbrs = [bits(row) for row in g.rows]
    steps = [(w, nb, without[w], 1 << w) for w, nb in enumerate(nbrs)]
    front = [1 << (1 << w) for w in range(n)]
    ends = list(front)
    p = [0] * n
    layer = 0
    while any(front):
        layer += 1
        nxt = []
        for w, nb, miss, shift in steps:
            reach = 0
            for v in nb:
                reach |= front[v]
            f = (reach & miss) << shift
            nxt.append(f)
            if f:
                ends[w] |= f
                p[w] = layer
        front = nxt
    p = tuple(p)
    start = max(range(n), key=p.__getitem__)
    path = [start]
    avoid = without[start]
    for remaining in range(p[start], 0, -1):
        want = size[remaining] & avoid
        for w in nbrs[path[-1]]:
            if ends[w] & want:
                break
        path.append(w)
        avoid &= without[w]
    x = frozenset(path)
    y = frozenset(range(n)) - x
    mask = sum(1 << v for v in path)
    s = {v: (g.rows[v] & mask).bit_count() for v in sorted(y)}
    return PathStats(p, len(path), tuple(path), x, y, s)


# -- free trees ------------------------------------------------------------


@lru_cache(maxsize=16)
def all_trees_of_order(t):
    """All pairwise non-isomorphic free trees on t vertices, each labelled
    canonically and listed in canonical-key order, so encode_graph6(tree)
    is its identity.  Generated by leaf augmentation deduplicated by
    canonical key: each level's children are keyed by one canonical_keys
    call, and the level is the sorted set of their keys.  A leaf hung on
    one vertex of a twin class gives the same tree as on any other, so
    each parent gets one child per twin class.  Cached per t."""
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    if t > TREE_CAP:
        raise CapExceededError(f"tree generation supports t <= {TREE_CAP}, got {t}")
    level = ["@"]  # the graph6 key of the one tree on one vertex
    for m in range(2, t + 1):
        children = [
            Graph.from_edges(m, g.edges() + [(v, g.n)])
            for g in _read_keys(level)
            for v, *_ in twin_classes(g.rows, range(g.n))
        ]
        level = sorted(set(canonical_keys(children, cap=TREE_CAP)))
    return _read_keys(level)


# -- proof-guided spider embedding ----------------------------------------


@dataclass
class SpiderTrace:
    u: int = -1
    b_u: int = 0
    branch: str = ""
    notes: list = field(default_factory=list)


def is_theorem_spider(spider):
    """Whether the spider theorem covers `spider`: r >= 3 odd legs and
    2s - r >= 2 for its s unit legs."""
    r = spider.odd_legs
    return r >= 3 and 2 * spider.unit_legs - r >= 2


def proof_guided_spider_embed(g, spider, k, budget=DEFAULT_BUDGET):
    """Constructive spider embedding replaying the extremal argument.

    Requires a spider of order 2k+3 that `is_theorem_spider`.  Picks a
    vertex u with nonnegative walk sum, branches on deg(u) vs log2(n), and
    assembles the spider from a linear forest found in the local graph
    around u.  Falls back to the generic exact search when the constructive
    route fails at desk scale; any returned embedding is validated.
    """
    _Budget(budget)  # a budget below 1 fails here, before any route
    if not isinstance(spider, Spider):
        raise ParameterError("pattern must be a Spider spec")
    spider.validate()
    if not is_theorem_spider(spider):
        raise HypothesisViolationError(
            f"need r >= 3 odd legs and 2s - r >= 2 for s unit legs, got legs {spider.legs}"
        )
    if spider.order != 2 * k + 3:
        raise HypothesisViolationError(
            f"spider order {spider.order} != 2k+3 = {2 * k + 3}"
        )
    pat = build_family(spider)
    trace = SpiderTrace()

    # the walk sums B_u; the pivot is the first vertex of largest B_u
    sums = _column_sums(g, k - 1, k * (g.n - k))
    u = max(range(g.n), key=sums.__getitem__, default=None)
    if u is None or sums[u] < 0:
        trace.notes.append("no vertex with nonnegative walk sum; falling back")
        return _finish_fallback(g, pat, trace, budget)
    trace.u = u
    trace.b_u = sums[u]
    n1, n2, *_ = g.bfs_shells(u) + [0, 0]

    if g.degree(u) <= math.log2(max(g.n, 2)):
        emb = _case_low_degree(g, k, pat, n1, n2, trace)
    else:
        emb = _case_high_degree(g, u, k, spider, n1, n2, trace, budget)
    if emb is not None and is_valid_embedding(g, pat, emb):
        return emb, trace
    if emb is not None:
        trace.notes.append("constructed embedding failed validation; falling back")
    return _finish_fallback(g, pat, trace, budget)


def _finish_fallback(g, pat, trace, budget):
    if trace.branch:
        trace.notes.append(f"route {trace.branch} failed")
    trace.branch = "fallback"
    trace.notes.append("exact fallback search")
    emb = contains_tree(g, pat, budget=budget)
    if emb is None:
        return None
    return emb, trace


def _case_low_degree(g, k, pat, n1, n2, trace):
    """Complete-bipartite route: k common neighbors of u, from the mask n1
    = N1(u), over a chunk of the second neighborhood n2 = N2(u)."""
    trace.branch = "case1_bipartite"
    # the spider's 2-colouring: vertex 0 and its even BFS shells, the odd shells
    pat_shells = pat.bfs_shells(0)
    sides = bits(1 | sum(pat_shells[1::2])), bits(sum(pat_shells[::2]))
    side_small, side_big = sorted(sides, key=len)
    if len(side_small) > k:
        trace.notes.append("spider cover side exceeds k")
        return None
    for xs in combinations(bits(n1), k):
        common = n2
        for x in xs:
            common &= g.rows[x]
        ys = bits(common)
        if len(ys) >= len(side_big):
            assignment = [0] * pat.n
            xs = list(xs)
            for i, v in enumerate(side_small):
                assignment[v] = xs[i]
            for i, v in enumerate(side_big):
                assignment[v] = ys[i]
            return Embedding(tuple(assignment))
    trace.notes.append("no k-set with enough common second-shell neighbors")
    return None


def _case_high_degree(g, u, k, spider, n1, n2, trace, budget):
    """Linear-forest route inside L_u or inside G[N1(u)], for the masks
    n1 = N1(u) and n2 = N2(u).

    The legs, unit legs included, are one linear forest whose paths start
    in N1(u), so each path hangs off u as a leg of the spider centred there.
    """
    e_cross = sum((g.rows[v] & n2).bit_count() for v in bits(n1))
    threshold = (
        k * g.degree(u) + (2 * k - 2) * n2.bit_count() - k * (g.n - k)
    )
    if e_cross > threshold:
        trace.branch = "case2_subcase1_Lu"
        where = "L_u"
        local, verts = _local_graph(g, n1, n2)
        anchor = [i for i, v in enumerate(verts) if n1 >> v & 1]
    else:
        trace.branch = "case2_subcase2_N1"
        where = "G[N1(u)]"
        local, verts = g.subgraph(bits(n1))
        anchor = None
    try:
        forest = find_linear_forest(local, spider.legs, anchor, budget=budget)
    except BudgetExceededError:
        trace.notes.append(f"linear-forest budget exhausted in {where}")
        return None
    if forest is None:
        trace.notes.append(f"no linear forest in {where}")
        return None
    # the spider layout: centre 0, then each leg from the centre outwards
    assignment = [u]
    for path in forest:
        assignment += [verts[i] for i in path]
    return Embedding(tuple(assignment))
