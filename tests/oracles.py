"""Independent test oracles: brute-force searches and exact rational
linear algebra that share no code with the production paths."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

import numpy as np

from spectree.embed import LONGEST_PATH_CAP, Embedding, PathStats, as_graph
from spectree.errors import CapExceededError, ParameterError
from spectree.graphs import CompleteSplit, CompleteSplitPlus, Graph, bits, build_family


def brute_force_contains(host, pattern):
    """Permutation-oracle containment test (small instances only)."""
    from itertools import permutations

    pat = as_graph(pattern)
    if pat.n > host.n:
        return None
    pedges = pat.edges()
    for perm in permutations(range(host.n), pat.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in pedges):
            return Embedding(tuple(perm))
    return None


def labeled_tree_from_pruefer(seq, t):
    """Labeled tree on t vertices from a Pruefer sequence (len t-2)."""
    degree = [1] * t
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(t) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(t, edges)


def ahu_tree_code(g):
    """AHU code of a tree, invariant under relabelling: the sorted nested
    parenthesis strings of the tree rooted at its centre or centres."""
    n = g.n
    if n <= 2:
        return ("()",) if n == 1 else ("(())",)
    # find centres by leaf stripping
    deg = list(g.degrees())
    alive = set(range(n))
    leaves = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in leaves:
            alive.discard(v)
            for w in g.neighbors(v):
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    centres = sorted(alive)

    def rooted(v, parent):
        return "(" + "".join(sorted(rooted(w, v) for w in g.neighbors(v) if w != parent)) + ")"

    if len(centres) == 1:
        return (rooted(centres[0], None),)
    a, b = centres
    return tuple(sorted((rooted(a, b), rooted(b, a))))


def brute_force_linear_forest(host, lengths, anchor_set=None):
    """Whether vertex-disjoint paths of the given vertex counts exist, each
    with an end-vertex in anchor_set when it is given.  Tries every ordered
    choice of sum(lengths) host vertices, cut into consecutive paths."""
    anchors = set(range(host.n) if anchor_set is None else anchor_set)
    for perm in permutations(range(host.n), sum(lengths)):
        start = 0
        for t in lengths:
            path = perm[start : start + t]
            start += t
            if path[0] not in anchors and path[-1] not in anchors:
                break
            if not all(host.has_edge(a, b) for a, b in zip(path, path[1:])):
                break
        else:
            return True
    return False


def brute_force_longest_paths(g):
    """p[v] = edge count of a longest simple path starting at v, found by
    plain DFS over every simple path (small graphs only)."""
    best = [0] * g.n

    def extend(path):
        best[path[0]] = max(best[path[0]], len(path) - 1)
        for w in range(g.n):
            if w not in path and g.has_edge(path[-1], w):
                path.append(w)
                extend(path)
                path.pop()

    for v in range(g.n):
        extend([v])
    return tuple(best)


def brute_force_split_profile(tree):
    """{c: m} over every vertex set C of size c whose removal leaves the
    tree with maximum degree at most 1: m is the fewest edges left.  Tries
    all 2^n subsets (small trees only)."""
    edges = tree.edges()
    best = {}
    for c in range(tree.n + 1):
        for cover in combinations(range(tree.n), c):
            left = [(u, v) for u, v in edges if u not in cover and v not in cover]
            ends = [x for e in left for x in e]
            if len(ends) == len(set(ends)):
                best[c] = min(best.get(c, len(left)), len(left))
    return best


def dense_ranks(row):
    """Each entry's rank among the distinct values of the row."""
    distinct = sorted(set(row))
    return [distinct.index(x) for x in row]


def ranks_below(row):
    """Each entry's count of entries below it in the row."""
    return [sum(y < x for y in row) for x in row]


def graph6_text(g):
    """The graph6 string of g as the format defines it: N(n), then the bits
    x(0,1), x(0,2), x(1,2), x(0,3), x(1,3), x(2,3), ... of the upper
    triangle, padded with zeros to a multiple of six; each group of six,
    most significant first, is the character 63 + its value.  N(n) is one
    such character for n <= 62, "~" and 18 bits for n <= 258047, and "~~"
    and 36 bits above."""

    def characters(bit_list):
        bit_list = bit_list + [0] * (-len(bit_list) % 6)
        return "".join(
            chr(63 + sum(b << (5 - k) for k, b in enumerate(bit_list[i : i + 6])))
            for i in range(0, len(bit_list), 6)
        )

    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        width = 18 if n <= 258047 else 36
        head = "~" * (width // 18) + characters([n >> s & 1 for s in range(width - 1, -1, -1)])
    return head + characters([int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)])


def frozen_colors(g):
    """Stable 1-WL colours as dense ranks, kept frozen as an oracle: the
    first colour is the degree, and each round ranks the signatures
    (colour, sorted neighbour colours) until no class splits."""
    colors = g.degrees()
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(g.n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def frozen_canonical_key(g):
    """The canonical form as it stood before twin pruning, kept frozen as an
    oracle: `frozen_colors`, then the minimum column code over every
    colour-respecting ordering, with no symmetry pruning."""
    if g.n <= 1:
        return graph6_text(g)
    classes = {}
    for v, c in enumerate(frozen_colors(g)):
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    rows = g.rows
    best = None
    seq = []
    cols = []

    def rec(bi, remaining, tight):
        nonlocal best
        if bi == len(blocks):
            if best is None or cols < best:
                best = list(cols)
            return
        block = blocks[bi] if remaining is None else remaining
        pos = len(seq)
        for idx, v in enumerate(block):
            col = 0
            for i in range(pos):
                col = col << 1 | (rows[v] >> seq[i] & 1)
            t = tight
            if t and best is not None:
                if col > best[pos]:
                    continue
                if col < best[pos]:
                    t = False
            seq.append(v)
            cols.append(col)
            rest = block[:idx] + block[idx + 1 :]
            if rest:
                rec(bi, rest, t)
            else:
                rec(bi + 1, None, t)
            seq.pop()
            cols.pop()

    rec(0, None, True)
    edges = [
        (i, j) for j in range(1, g.n) for i in range(j) if best[j] >> (j - 1 - i) & 1
    ]
    return graph6_text(Graph.from_edges(g.n, edges))


def frozen_longest_path_stats(g, cap=LONGEST_PATH_CAP):
    """The layered subset DP of longest_path_stats as it stood before the
    bitset rewrite, kept frozen as an oracle.

    layers[i] lists the (i+1)-vertex sets that carry a spanning path, end[mask]
    its end vertices; paths reverse, so p[v] is the last layer whose ends hold
    v.  The witness starts at the first argmax of p and steps to the smallest
    neighbour that begins a path of the length left."""
    if g.n > cap:
        raise CapExceededError(f"longest-path search capped at n={cap}, got {g.n}")
    if g.n == 0:
        raise ParameterError("empty graph")
    rows = g.rows
    layers = [[1 << v for v in range(g.n)]]
    end = [0] * (1 << g.n)
    for mask in layers[0]:
        end[mask] = mask
    while layers[-1]:
        nxt = []
        for mask in layers[-1]:
            ends = end[mask]
            reach = 0
            while ends:
                low = ends & -ends
                reach |= rows[low.bit_length() - 1]
                ends ^= low
            m = reach & ~mask
            while m:
                low = m & -m
                m ^= low
                key = mask | low
                e = end[key]
                if not e:
                    nxt.append(key)
                end[key] = e | low
        layers.append(nxt)
    unions = [reduce(int.__or__, map(end.__getitem__, layer), 0) for layer in layers]
    p = tuple(max(i for i, u in enumerate(unions) if u >> v & 1) for v in range(g.n))
    start = max(range(g.n), key=lambda v: p[v])
    path = [start]
    mask = 1 << start
    for remaining in range(p[start], 0, -1):
        ends = (end[r] for r in layers[remaining - 1] if not r & mask)
        m = rows[path[-1]] & reduce(int.__or__, ends, 0)
        low = m & -m
        path.append(low.bit_length() - 1)
        mask |= low
    x = frozenset(path)
    y = frozenset(range(g.n)) - x
    s = {v: (g.rows[v] & mask).bit_count() for v in sorted(y)}
    return PathStats(p, len(path), tuple(path), x, y, s)


def inertia(matrix):
    """(positive, zero, negative) eigenvalue counts of a symmetric rational
    matrix: symmetric elimination over Fractions, which by Sylvester's law
    of inertia keeps the counts.  A zero diagonal with a nonzero entry
    m[i][j] is first made 2 m[i][j] by adding row and column j to i."""
    m = [[Fraction(x) for x in row] for row in matrix]
    counts = [0, 0, 0]
    while m:
        n = len(m)
        i = next((i for i in range(n) if m[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if m[i][j]), None)
            if pair is None:
                counts[1] += n
                break
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
        d = m[i][i]
        counts[0 if d > 0 else 2] += 1
        rest = [r for r in range(n) if r != i]
        m = [[m[r][c] - m[r][i] * m[i][c] / d for c in rest] for r in rest]
    return tuple(counts)


def exact_mu_sign(g, q):
    """sign(mu(g) - theta) for theta the largest root of a monic integer
    polynomial q of degree at most 3, by rational inertia.

    An integer theta is compared directly: A - theta I has a positive
    eigenvalue iff mu > theta, and else a zero one iff mu = theta.
    Otherwise m, q without its integer roots, is irreducible over Q, so
    the rational matrix A has theta as an eigenvalue exactly as often as
    nullity(m(A)) / deg m.  With rationals lo < theta < hi 1e-9 from the
    float root, mu = theta iff (lo, hi] holds that many eigenvalues of A
    and no eigenvalue exceeds hi; any other count in (lo, hi] raises."""
    assert q[0] == 1 and len(q) <= 4, q
    n = g.n
    a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]

    def shifted(r):
        return [[a[u][v] - (r if u == v else 0) for v in range(n)] for u in range(n)]

    def value(p, x):
        return reduce(lambda acc, c: acc * x + c, p, 0)

    theta_f = float(max(np.roots(q).real))
    bound = 1 + max(abs(c) for c in q)
    m = list(q)
    for r in range(-bound, bound + 1):
        while len(m) > 1 and value(m, r) == 0:
            if abs(r - theta_f) < 1e-6:
                pos, zero, _ = inertia(shifted(r))
                return 1 if pos else 0 if zero else -1
            for i in range(1, len(m)):  # synthetic division by x - r
                m[i] += r * m[i - 1]
            m.pop()
    lo = Fraction(theta_f) - Fraction(1, 10**9)
    hi = Fraction(theta_f) + Fraction(1, 10**9)
    assert value(q, lo) < 0 < value(q, hi), "float root misses theta"
    above_hi = inertia(shifted(hi))[0]
    if above_hi:
        return 1
    above_lo = inertia(shifted(lo))[0]
    if not above_lo:
        return -1
    ma = [[0] * n for _ in range(n)]
    for c in m:  # Horner: ma = ma A + c I
        ma = [
            [sum(ma[u][w] * a[w][v] for w in range(n)) + (c if u == v else 0) for v in range(n)]
            for u in range(n)
        ]
    nullity = inertia(ma)[1]
    assert nullity % (len(m) - 1) == 0, nullity
    if above_lo - above_hi == nullity // (len(m) - 1):
        return 0
    raise AssertionError(f"eigenvalues within 1e-9 of theta other than theta in {g!r}")


def edge_list_adjacency(g, dtype=float):
    """Adjacency matrix of g set entry by entry from g.edges()."""
    a = np.zeros((g.n, g.n), dtype=dtype)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return a


def eigh_mu(g):
    """Largest adjacency eigenvalue of g by one np.linalg.eigh on the
    edge-list matrix, graph by graph."""
    return float(np.linalg.eigh(edge_list_adjacency(g))[0][-1])


def frozen_is_complete_split(g, k):
    """The S_{n,k} recogniser as it stood before the degree-sequence test,
    kept frozen as an oracle: k hubs of degree n-1, and every other vertex
    adjacent to exactly the hubs."""
    n = g.n
    if not 1 <= k <= n - 1:
        return False
    if g.e != k * n - k * (k + 1) // 2:
        return False
    hub_mask = 0
    hub_count = 0
    for v in range(n):
        if g.degree(v) == n - 1:
            hub_mask |= 1 << v
            hub_count += 1
    if hub_count < k:
        return False
    for v in range(n):
        if not hub_mask >> v & 1:
            if g.rows[v] != hub_mask:
                return False
    return True


def frozen_is_complete_split_plus(g, k):
    """The S+_{n,k} recogniser as it stood before the degree-sequence test,
    kept frozen as an oracle: removing some edge between two vertices of
    degree k+1 leaves S_{n,k}."""
    n = g.n
    if not 1 <= k <= n - 2 or g.e != k * n - k * (k + 1) // 2 + 1:
        return False
    ends = [v for v in range(n) if g.degree(v) == k + 1]
    return any(
        frozen_is_complete_split(g.without_edge(u, v), k)
        for i, u in enumerate(ends)
        for v in ends[i + 1 :]
        if g.has_edge(u, v)
    )


def frozen_perturb_extremal(base, add=0, remove=0, seed=0):
    """The perturbation sampler as it stood before it drew pair indices,
    kept frozen as an oracle: it samples from the full edge list, then from
    the full non-edge list, each listed in (i, j) order."""
    if not isinstance(base, (CompleteSplit, CompleteSplitPlus)):
        raise ParameterError("base must be CompleteSplit or CompleteSplitPlus")
    if add < 0 or remove < 0:
        raise ParameterError("add and remove must be nonnegative")
    g = build_family(base)
    rng = random.Random(seed)
    if remove > g.e:
        raise ParameterError(f"cannot remove {remove} of {g.e} edges")
    for u, v in rng.sample(g.edges(), remove):
        g = g.without_edge(u, v)
    non_edges = [(i, j) for i, r in enumerate(g.rows) for j in range(i + 1, g.n) if not r >> j & 1]
    if add > len(non_edges):
        raise ParameterError(f"cannot add {add} edges, only {len(non_edges)} slots")
    for u, v in rng.sample(non_edges, add):
        g = g.with_edge(u, v)
    return g


def frozen_embed_tree(host, parents, pat_deg, budget, roots=None):
    """The tree search as it stood before sibling-symmetry pruning, kept
    frozen as an oracle: backtracking over a layout with parents[i] < i,
    candidates in decreasing host degree (ties by id), one candidate per
    twin class at each position, budget.spend() once per node.  Returns the
    host images of the pattern positions, or None."""
    n = len(parents)
    image = [0] * n
    rows = host.rows
    deg = host.degrees()
    by_deg = deg.__getitem__
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
        open_sigs = set()
        closed_sigs = set()
        for h in cands:
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

    return image if rec(0, 0) else None
