"""Isomorph-free exhaustive generation of small graphs and seeded samplers."""

from __future__ import annotations

import random
from itertools import islice, tee

from .errors import CapExceededError, ParameterError
from .graphs import (
    CompleteSplit,
    CompleteSplitPlus,
    Graph,
    _bit_rows,
    _read_keys,
    _slice_size,
    _stack_keys,
    build_family,
    encode_graph6,
    twin_classes,
)

EXHAUSTIVE_CAP = 8
OPT_IN_CAP = 9

_cache = {}


class _Order:
    """The classes on n vertices: their canonical graph6 keys in sorted
    order, the canonical graph of each class, read from its key, and for
    each class the index, in the order n - 1 lists, of the parent whose
    augmentation first produced it (None at n = 1), all as tuples."""

    __slots__ = ("keys", "graphs", "parents")

    def __init__(self, keys, graphs, parents):
        self.keys = keys
        self.graphs = graphs
        self.parents = parents


def graph_order(n, cap=EXHAUSTIVE_CAP):
    """The classes on n vertices as an `_Order`, cached.  Each key is the
    canonical graph6 string its graph is decoded from, so it equals
    `canonical_key(graph)`; each parent is the index in graph_order(n - 1)
    of a class isomorphic to the graph minus one of its maximum-degree
    vertices.  The graphs are read by one `_read_keys` pass over the keys,
    after the augmentation's working set is released."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if cap > OPT_IN_CAP:
        raise ParameterError(f"cap beyond n={OPT_IN_CAP} is out of scope")
    if n > cap:
        raise CapExceededError(f"exhaustive enumeration capped at n={cap}, got {n}")
    if n in _cache:
        return _cache[n]
    if n == 1:
        keys, parents = (encode_graph6(Graph(1, (0,), 0)),), (None,)
    else:
        keys, parents = _augment(n)
    order = _cache[n] = _Order(keys, _read_keys(keys), parents)
    return order


def _augment(n):
    """The sorted keys of the classes on n vertices and the parent index of
    each, n >= 2.

    Built by vertex augmentation that keeps only children whose new vertex
    has maximum degree: deleting a maximum-degree vertex of any graph on n
    vertices leaves a parent in the n - 1 list, so every class is still
    reached.  Twins of the parent are interchangeable, so in each twin
    class the new vertex is joined only to a prefix of the class.  The
    children stream as (parent, mask) pairs into stacks of adjacency
    matrices, which `_stack_keys` keys in generation order, so each class
    takes the parent of its first child."""
    # one int object per parent, shared by every class it names
    ids = list(range(len(graph_order(n - 1).keys)))
    children, links = tee(_children(n))
    first = {}  # key -> parent of its first child
    for (parent, _), key in zip(links, _stack_keys(_child_stacks(n, children))):
        first.setdefault(key, ids[parent])
    keys = tuple(sorted(first))
    return keys, tuple(first[k] for k in keys)


def _children(n):
    """Each augmentation child on n vertices as (parent, mask): the index
    of its parent in graph_order(n - 1) and the neighbourhood of the new
    vertex n - 1, in generation order."""
    for parent, base in enumerate(graph_order(n - 1).graphs):
        degrees = base.degrees()
        top = max(degrees)
        top_mask = sum(1 << v for v, d in enumerate(degrees) if d == top)
        masks = [0]
        for cls in twin_classes(base.rows, range(n - 1)):
            prefixes = [0]
            for v in cls:
                prefixes.append(prefixes[-1] | 1 << v)
            masks = [m | p for m in masks for p in prefixes]
        for mask in masks:
            d = mask.bit_count()
            # the new vertex has degree d; a neighbour of degree top
            # would reach top + 1
            if d < top or d == top and mask & top_mask:
                continue
            yield parent, mask


def _child_stacks(n, children):
    """A stream of `_children(n)` as (m, n, n) 0/1 float adjacency stacks
    of `_slice_size(n)`: each parent's matrix, taken from one stack of the
    n - 1 order, bordered by its child's mask bits."""
    import numpy as np

    prev = graph_order(n - 1).graphs
    base = _bit_rows((r for g in prev for r in g.rows), n - 1).reshape(len(prev), n - 1, n - 1)
    while batch := list(islice(children, _slice_size(n))):
        index, masks = zip(*batch)
        new = _bit_rows(masks, n - 1)
        stack = np.zeros((len(batch), n, n), np.uint8)
        stack[:, :-1, :-1] = base[list(index)]
        stack[:, -1, :-1] = new
        stack[:, :-1, -1] = new
        yield stack.astype(float)


def all_graphs(n, connected_only=False):
    """One representative per isomorphism class on n vertices, as a new
    list in deterministic (canonical graph6) order.  The graphs are the
    enumeration's own immutable objects, each read from its class's key
    by the order's one `_read_keys` pass (see `graph_order`).  Orders
    above EXHAUSTIVE_CAP are reached through `graph_order(n, cap)`."""
    graphs = graph_order(n).graphs
    if connected_only:
        return [g for g in graphs if g.is_connected()]
    return list(graphs)


def random_graph(n, m=None, p=None, seed=0):
    """Uniform G(n, m) or independent-edge G(n, p), reproducible per seed."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if (m is None) == (p is None):
        raise ParameterError("give exactly one of m and p")
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if m is not None:
        if not 0 <= m <= len(pairs):
            raise ParameterError(f"m={m} out of range for n={n}")
        edges = rng.sample(pairs, m)
    else:
        if not 0 <= p <= 1:
            raise ParameterError(f"p={p} outside [0, 1]")
        edges = [pq for pq in pairs if rng.random() < p]
    return Graph.from_edges(n, edges)


def _nth_pair(g, index, present):
    """The index-th pair (i, j), i < j, in lexicographic order among the
    edges of g (present=True) or among its non-edges."""
    for i, row in enumerate(g.rows):
        upper = row >> i + 1
        if not present:
            upper ^= (1 << g.n - i - 1) - 1
        count = upper.bit_count()
        if index < count:
            for _ in range(index):
                upper &= upper - 1
            return i, i + (upper & -upper).bit_length()
        index -= count


def perturb_extremal(base, add=0, remove=0, seed=0):
    """Remove `remove` random edges from the extremal base graph, then add
    `add` random non-edges.  Reproducible per seed (see `_perturb`)."""
    if not isinstance(base, (CompleteSplit, CompleteSplitPlus)):
        raise ParameterError("base must be CompleteSplit or CompleteSplitPlus")
    if add < 0 or remove < 0:
        raise ParameterError("add and remove must be nonnegative")
    return _perturb(build_family(base), add, remove, seed)


def _perturb(g, add, remove, seed):
    """The graph g with `remove` random edges removed, then `add` random
    non-edges added, for `add`, `remove` >= 0.

    Each step draws indices into the lexicographic list of the edges, or of
    the non-edges, of the graph as it was before the step, and maps only
    the drawn indices to pairs; `random.sample` draws the same indices from
    a range as from a list of that length."""
    rng = random.Random(seed)
    if remove > g.e:
        raise ParameterError(f"cannot remove {remove} of {g.e} edges")
    for u, v in [_nth_pair(g, i, True) for i in rng.sample(range(g.e), remove)]:
        g = g.without_edge(u, v)
    slots = g.n * (g.n - 1) // 2 - g.e
    if add > slots:
        raise ParameterError(f"cannot add {add} edges, only {slots} slots")
    for u, v in [_nth_pair(g, i, False) for i in rng.sample(range(slots), add)]:
        g = g.with_edge(u, v)
    return g
