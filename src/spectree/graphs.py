"""Immutable simple graphs with bitset adjacency rows, plus family constructors.

Vertices are dense ids 0..n-1.  Adjacency is kept as one Python int per
vertex (bit j set iff adjacent to j), which gives O(1) adjacency tests and
word-parallel neighborhood intersection in the embedding hot paths.
"""

from __future__ import annotations

import binascii
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import getitem

from .errors import CapExceededError, Graph6Error, ParameterError

MAX_VERTICES = 5000


class Graph:
    """Undirected simple graph.  Immutable after construction."""

    __slots__ = ("n", "rows", "e")

    def __init__(self, n, rows, e):
        self.n = n
        self.rows = rows  # tuple of ints, rows[v] bit u == adjacency
        self.e = e

    @classmethod
    def from_edges(cls, n, edges):
        if n < 0 or n > MAX_VERTICES:
            raise ParameterError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = [0] * n
        e = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ParameterError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            e += 1
        return cls(n, tuple(rows), e)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u, v):
        return bool(self.rows[u] >> v & 1)

    def degree(self, v):
        return self.rows[v].bit_count()

    def degrees(self):
        return [r.bit_count() for r in self.rows]

    def neighbors(self, v):
        return bits(self.rows[v])

    def edges(self):
        out = []
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(r):
                out.append((u, v))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Graph(n={self.n}, e={self.e})"

    # -- derived graphs ---------------------------------------------------

    def with_edge(self, u, v):
        if u == v or self.has_edge(u, v):
            raise ParameterError(f"cannot add edge ({u},{v})")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows), self.e + 1)

    def without_edge(self, u, v):
        if not self.has_edge(u, v):
            raise ParameterError(f"no edge ({u},{v}) to remove")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows), self.e - 1)

    def relabel(self, perm):
        """New graph with vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ParameterError(f"relabel needs a permutation of range({self.n})")
        rows = [0] * self.n
        for u, v in self.edges():
            a, b = perm[u], perm[v]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return Graph(self.n, tuple(rows), self.e)

    def subgraph(self, vertices):
        """Induced subgraph on `vertices` (iterable), relabeled 0..m-1.

        Returns (subgraph, vertex_list) with vertex_list[i] the original id.
        """
        vs = sorted(set(vertices))
        if vs and not (0 <= vs[0] and vs[-1] < self.n):
            raise ParameterError(f"subgraph vertex ids {vs} outside 0..{self.n - 1}")
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        e = 0
        for i, v in enumerate(vs):
            for w in bits(self.rows[v]):
                j = index.get(w)
                if j is not None and j > i:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                    e += 1
        return Graph(len(vs), tuple(rows), e), vs

    # -- traversal --------------------------------------------------------

    def is_connected(self):
        """Whether vertex 0 and its BFS shells, which are disjoint masks
        without it, cover all n vertices."""
        return self.n == 0 or 1 + sum(self.bfs_shells(0)) == (1 << self.n) - 1

    def bfs_shells(self, u):
        """Vertex masks at BFS distance 1, 2, ... from u (u excluded)."""
        if not 0 <= u < self.n:
            raise ParameterError(f"vertex {u} out of range for n={self.n}")
        seen = 1 << u
        shells = []
        frontier = self.rows[u]
        while frontier:
            shells.append(frontier)
            seen |= frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= self.rows[v]
            frontier = nxt & ~seen
        return shells


def bits(mask):
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- family specs ---------------------------------------------------------


@dataclass(frozen=True)
class CompleteSplit:
    """K_k joined to an independent set of n-k vertices."""

    n: int
    k: int

    def validate(self):
        if not 1 <= self.k <= self.n - 1:
            raise ParameterError(f"CompleteSplit requires 1 <= k <= n-1, got {self}")


@dataclass(frozen=True)
class CompleteSplitPlus:
    """CompleteSplit plus one edge inside the independent set."""

    n: int
    k: int

    def validate(self):
        if not 1 <= self.k <= self.n - 2:
            raise ParameterError(
                f"CompleteSplitPlus requires 1 <= k <= n-2, got {self}"
            )


@dataclass(frozen=True)
class Path:
    t: int  # number of vertices

    def validate(self):
        if self.t < 1:
            raise ParameterError(f"Path requires t >= 1, got {self}")


@dataclass(frozen=True)
class Star:
    s: int  # number of leaves

    def validate(self):
        if self.s < 0:
            raise ParameterError(f"Star requires s >= 0, got {self}")


@dataclass(frozen=True)
class Complete:
    n: int

    def validate(self):
        if self.n < 1:
            raise ParameterError(f"Complete requires n >= 1, got {self}")


@dataclass(frozen=True)
class Spider:
    """One center with legs of the given edge lengths."""

    legs: tuple

    def __init__(self, *legs):
        if len(legs) == 1 and isinstance(legs[0], (tuple, list)):
            legs = tuple(legs[0])
        object.__setattr__(self, "legs", tuple(legs))

    def validate(self):
        if not self.legs or any(t < 1 for t in self.legs):
            raise ParameterError(f"Spider requires nonempty legs >= 1, got {self}")

    @property
    def order(self):
        return 1 + sum(self.legs)

    @property
    def odd_legs(self):
        return sum(1 for t in self.legs if t % 2 == 1)

    @property
    def unit_legs(self):
        return sum(1 for t in self.legs if t == 1)


@dataclass(frozen=True)
class Broom:
    """Star K_{1,s} whose center is an end of a path P_t.  Order s+t."""

    s: int
    t: int

    def validate(self):
        if self.s < 1 or self.t < 1:
            raise ParameterError(f"Broom requires s,t >= 1, got {self}")


@dataclass(frozen=True)
class GeneralizedBroom:
    """Path P_t with s pendant edges at its ell-th vertex.  Order s+t."""

    s: int
    t: int
    ell: int

    def validate(self):
        if self.s < 1 or not 1 <= self.ell <= self.t:
            raise ParameterError(
                f"GeneralizedBroom requires s >= 1, 1 <= ell <= t, got {self}"
            )


@dataclass(frozen=True)
class Explicit:
    n: int
    edges: tuple = field(default_factory=tuple)

    def validate(self):
        pass  # Graph.from_edges rejects loops/duplicates


FAMILY_TYPES = (
    CompleteSplit,
    CompleteSplitPlus,
    Path,
    Star,
    Complete,
    Spider,
    Broom,
    GeneralizedBroom,
    Explicit,
)


def build_family(spec):
    """Construct the concrete graph of a family spec."""
    spec.validate()
    if isinstance(spec, CompleteSplit):
        return join(build_family(Complete(spec.k)), empty_graph(spec.n - spec.k))
    if isinstance(spec, CompleteSplitPlus):
        g = join(build_family(Complete(spec.k)), empty_graph(spec.n - spec.k))
        return g.with_edge(spec.k, spec.k + 1)
    if isinstance(spec, Path):
        return Graph.from_edges(spec.t, [(i, i + 1) for i in range(spec.t - 1)])
    if isinstance(spec, Star):
        return Graph.from_edges(spec.s + 1, [(0, i) for i in range(1, spec.s + 1)])
    if isinstance(spec, Complete):
        return Graph.from_edges(
            spec.n, [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
        )
    if isinstance(spec, Spider):
        # vertex 0 is the center; legs laid out consecutively
        edges = []
        nxt = 1
        for t in spec.legs:
            prev = 0
            for _ in range(t):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        return Graph.from_edges(nxt, edges)
    if isinstance(spec, Broom):
        # B_{s,t} = path on t vertices with s pendants at its last vertex
        return build_family(GeneralizedBroom(spec.s, spec.t, spec.t))
    if isinstance(spec, GeneralizedBroom):
        edges = [(i, i + 1) for i in range(spec.t - 1)]
        edges += [(spec.ell - 1, spec.t + i) for i in range(spec.s)]
        return Graph.from_edges(spec.s + spec.t, edges)
    if isinstance(spec, Explicit):
        return Graph.from_edges(spec.n, spec.edges)
    raise ParameterError(f"unknown family spec {spec!r}")


def empty_graph(n):
    return Graph(n, (0,) * n, 0)


# -- graph operations ------------------------------------------------------


def disjoint_union(g, h):
    if g.n + h.n > MAX_VERTICES:
        raise ParameterError(f"union order {g.n + h.n} exceeds cap {MAX_VERTICES}")
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(g.n + h.n, tuple(rows), g.e + h.e)


def join(g, h):
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = ((1 << u.n) - 1) ^ gmask
    rows = [r | hmask for r in u.rows[: g.n]] + [r | gmask for r in u.rows[g.n :]]
    return Graph(u.n, tuple(rows), u.e + g.n * h.n)


def m_copies(g, m):
    if m < 1:
        raise ParameterError(f"m_copies requires m >= 1, got {m}")
    out = g
    for _ in range(m - 1):
        out = disjoint_union(out, g)
    return out


def neighborhood_shells(g, u):
    """Vertex sets N^1(u), N^2(u), ... as a list of sets."""
    return [set(bits(m)) for m in g.bfs_shells(u)]


# -- graph6 ----------------------------------------------------------------


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))  # to graph6's digits


def _graph6(n, body):
    """The graph6 string of an n-vertex graph whose upper-triangle bits,
    read column by column, are the integer `body`, after n's 18 or 36 bits
    above n=62.  graph6 cuts bits into sextets as base64 does, so binascii
    writes them, in linear time, and a translation maps its digits."""
    nbits = n * (n - 1) // 2
    if n <= 62:
        head = chr(63 + n)
    else:
        head, field = ("~", 18) if n <= 258047 else ("~~", 36)
        body |= n << nbits
        nbits += field
    pad = -nbits % 24
    data = (body << pad).to_bytes((nbits + pad) // 8, "big")
    digits = binascii.b2a_base64(data, newline=False).translate(_FROM_BASE64)
    return head + digits[: -(-nbits // 6)].decode()


def encode_graph6(g):
    """Byte-exact graph6 encoding (standard long forms above n=62)."""
    n, rows = g.n, g.rows
    # column j is bits 0..j-1 of rows[j]; bin() writes them from bit j - 1
    # down, so the columns go last first and the text is reversed once
    text = "".join([bin(rows[j] | 1 << j)[-j:] for j in range(n - 1, 0, -1)])
    return _graph6(n, int(text[::-1] or "0", 2))


_SIX_BITS = {63 + c: format(c, "06b") for c in range(64)}


def decode_graph6(text):
    """Decode a graph6 string, rejecting malformed input with its offset.

    Strict: it accepts exactly the strings `encode_graph6` writes, after an
    optional ">>graph6<<" header and trailing newlines, and orders up to
    MAX_VERTICES."""
    s = text.rstrip("\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    digits = s.translate(_SIX_BITS)
    if len(digits) != 6 * len(s):  # translate keeps a character not in the table
        i = next(i for i, ch in enumerate(s) if not "?" <= ch <= "~")
        raise Graph6Error(f"character {s[i]!r} outside graph6 alphabet", i)
    # the order field: one digit, or "~" and 3 digits, or "~~" and 6
    tildes = 0 if s[0] != "~" else 1 if s[1:2] != "~" else 2
    head = (1, 4, 8)[tildes]
    if len(s) < head:
        raise Graph6Error("truncated order", len(s))
    n = int(digits[6 * tildes : 6 * head], 2)
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} exceeds cap {MAX_VERTICES}", 0)
    # the shortest form: a digit up to 62, "~" and 18 bits above (the cap
    # is far below the 258048 that needs "~~")
    if tildes != (n > 62):
        raise Graph6Error(f"order {n} written in a longer form than it needs", 0)
    need = n * (n - 1) // 2
    body = digits[6 * head :]
    if len(body) < need:
        raise Graph6Error(f"need {need} adjacency bits, found {len(body)}", len(s))
    if len(body) >= need + 6:
        raise Graph6Error("trailing bytes after adjacency bits", head + -(-need // 6))
    if "1" in body[need:]:
        raise Graph6Error("non-zero padding bits", len(s) - 1)
    # the adjacency matrix as text, row v's bit u at character v * w + u,
    # each row ended by a space: each column is written twice, as its row's
    # prefix and down its column, so the bit work is linear in the body at
    # every density; reversed, the rows read from their highest bit
    bits = body[:need].encode()
    w = n + 1
    grid = bytearray(b"0" * n + b" ") * n
    t = 0
    for j in range(1, n):
        column = bits[t : t + j]  # character i is the pair (i, j)
        t += j
        grid[j * w : j * w + j] = column
        grid[j : j * w : w] = column
    rows = reversed(grid[::-1].split())
    return Graph(n, tuple(map(int, rows, itertools.repeat(2))), body.count("1"))


def _read_keys(keys):
    """The graphs of a nonempty sequence of graph6 keys of one order
    n <= 62, as `_graph6` writes them, each equal to `decode_graph6(key)`,
    as a tuple.

    For each body digit a table gives, for each of its 64 values, the
    digit's share of the adjacency matrix as one int, with row v at bits
    n*v onward.  The shares of a key's digits are disjoint, so their sum
    is the matrix.  Only each key's length and order digit are checked:
    outside text goes through `decode_graph6`."""
    head = ord(keys[0][0])
    n = head - 63
    if not 0 <= n <= 62:
        raise ParameterError(f"key {keys[0]!r} has no one-digit order")
    # each pair's bits, in graph6 order, then zeros for the padding
    pairs = [1 << n * i + j | 1 << n * j + i for j in range(1, n) for i in range(j)]
    pairs += [0] * (-len(pairs) % 6)
    tables = [[0] * 127]  # the order digit adds nothing
    for d in range(0, len(pairs), 6):
        share = [0]
        for bit in pairs[d : d + 6]:
            share = [x | y for x in share for y in (0, bit)]
        tables.append([0] * 63 + share)  # indexed by the digit's byte
    shifts = range(0, n * n, n)
    mask = (1 << n) - 1

    def read(key):
        data = key.encode()
        if len(data) != len(tables) or data[0] != head:
            raise ParameterError(f"key {key!r} is not a graph6 key of order {n}")
        packed = sum(map(getitem, tables, data))
        rows = tuple([packed >> s & mask for s in shifts])
        return Graph(n, rows, packed.bit_count() // 2)

    # map, not a list: a list of the graphs and the tuple copied from it
    # would both be live, 2.2 MB more peak memory at n = 9
    return tuple(map(read, keys))


# -- edge-list text format -------------------------------------------------


def write_edge_list(g):
    lines = [f"{g.n} {g.e}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty edge-list input")
    try:
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    except ValueError as exc:
        raise ParameterError(f"malformed edge-list input: {exc}") from exc
    for ln, edge in zip(lines[1:], edges):
        if len(edge) != 2:
            raise ParameterError(f"edge-list line {ln.strip()!r} needs exactly two vertex ids")
    if len(edges) != m:
        raise ParameterError(f"header promises {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


# -- adjacency stacks --------------------------------------------------------

# Matrix entries per batched numpy pass: every stack of n-vertex graphs
# (`_graph_stacks` and the enumeration's `_child_stacks`) holds
# `_slice_size(n)` graphs, 256 at n = 8 and 10 at n = 40.  Bounding entries
# rather than graphs keeps the transient arrays small at every order.
#
# The functions below import numpy when they run.  This module is the
# package's first import, and loading numpy from here instead of from
# `spectral` raised the peak RSS of every `bench/run.py` workload by about
# 0.15-0.2 MB, with the same modules loaded.
#
# The keying code keeps to float arithmetic, comparisons, np.where and
# matrix-vector products, which spectral_mus maps into memory anyway:
# each further kind of numpy kernel maps 64 KB or more of the library (a
# stable argsort of the colours mapped 128 KB, read from /proc/self/pagemap).
# So `_batch_minimum` multiplies as a batch of matrix-vector products,
# (members, L) times (P, L, 1): the same minimum as one (members, L) times
# (L, P) matrix product, which runs another BLAS kernel and read 0.25 MB
# more peak RSS on the n = 8 campaign.  And the keying code imports no
# module the package does not load anyway: the array module alone added
# about 150 KB.
BATCH_ENTRIES = 1 << 14


def _bit_rows(values, n):
    """The (len, n) uint8 array of the low n bits of each of the ints
    `values`, little-endian, as adjacency rows unpack from bitset rows."""
    import numpy as np

    width = max(1, -(-n // 8))
    # bytes() from ints where they fit a byte: bytes.join takes an 80-byte
    # buffer view per item, and freeing that block (585 KB for the 7,308
    # rows of n = 7) raises glibc's mmap threshold, which left the n = 8
    # key dict's table on the heap, 0.65 MB above what it would have used
    if width == 1:
        packed = bytes(values)
    else:
        packed = b"".join([r.to_bytes(width, "little") for r in values])
    raw = np.frombuffer(packed, np.uint8).reshape(-1, width)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def _adjacency_stack(graphs):
    """The (m, n, n) float stack of the graphs' adjacency matrices,
    unpacked from the bitset rows."""
    n = graphs[0].n
    rows = _bit_rows(itertools.chain.from_iterable(g.rows for g in graphs), n)
    return rows.reshape(len(graphs), n, n).astype(float)


def _slice_size(n):
    """Graphs per stack of n-vertex graphs (see BATCH_ENTRIES)."""
    return max(1, BATCH_ENTRIES // n**2)


def _graph_stacks(graphs):
    """The float adjacency stacks of a list of graphs of one order, in
    slices of `_slice_size(n)`; a batch of mixed orders is rejected here,
    before any stack is built."""
    orders = {g.n for g in graphs}
    if len(orders) > 1:
        raise ParameterError(f"a batch needs one order, got {sorted(orders)}")
    size = _slice_size(max({1, *orders}))
    return (_adjacency_stack(graphs[s : s + size]) for s in range(0, len(graphs), size))


# -- canonical form --------------------------------------------------------

CANONICAL_CAP = 10
# The keyer's float arithmetic is exact below 2^53.  The refinement's
# signature codes, below (n - 1)(n + 1)^n, stay there up to n = 12, so no
# cap reaches past it; the graph6 codes, of n(n - 1)/2 bits, up to n = 10.
_REFINE_EXACT = 12
_CODES_EXACT = 10


def twin_classes(rows, vertices):
    """Split `vertices` into classes of twins, each in input order: u and v
    are twins iff N(u) - {v} == N(v) - {u}, and swapping them is then an
    automorphism."""
    classes = []
    for v in vertices:
        rv = rows[v]
        for cls in classes:
            u = cls[0]
            if (rows[u] ^ rv) & ~(1 << u | 1 << v) == 0:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def _ranks_below(values):
    """Per row of an (m, n) float array, the number of entries below each
    entry: equal entries share a rank, and the ranks keep the entries'
    order.  Pairwise, since n <= _REFINE_EXACT."""
    import numpy as np

    return np.where(values[:, :, None] > values[:, None, :], 1.0, 0.0).sum(axis=2)


def _refine_color_stack(adj):
    """The stable 1-WL colouring of every graph in an (m, n, n) 0/1 float
    stack, as an (m, n) float array whose order is isomorphism-invariant.
    The first colour is the degree, and each round recolours a vertex by
    its signature (c, sorted neighbour colours), coded as c * B^n - sum of
    B^(n-1-colour(u)) over the neighbours u, B = n + 1: vertices of one
    colour have one degree, so the neighbour lists compared have one
    length, and the codes sort as the tuples do.  The codes stay below
    2^53 for n <= _REFINE_EXACT, so they are exact.

    The rounds colour each vertex by the number of signatures below its
    own, which splits and orders the classes as dense ranks of the
    signatures would.  Every reader uses only the colours' order and
    ties, so they are returned as they are.  A split raises the colour of
    some vertex and lowers none, so a row whose colour sum holds is
    stable; a row whose sum is n(n - 1)/2 is discrete.  Either keeps its
    colours in later rounds."""
    import numpy as np

    n = adj.shape[1]
    base = n + 1
    powers = np.array([float(base ** (n - 1 - c)) for c in range(n)])
    discrete = n * (n - 1) / 2
    colors = _ranks_below(adj.sum(axis=2))
    total = colors.sum(axis=1)
    while True:
        weights = powers[colors.astype(int)]
        sigs = base**n * colors - (adj @ weights[:, :, None])[:, :, 0]
        colors = _ranks_below(sigs)
        new = colors.sum(axis=1)
        if np.minimum(new - total, discrete - new).max() == 0:
            return colors
        total = new


@lru_cache(maxsize=None)
def _graph6_pairs(n):
    """The vertex pairs (i, j), i < j, in graph6 bit order, column by
    column, as two index arrays, cached per order."""
    import numpy as np

    return np.array([(i, j) for j in range(1, n) for i in range(j)]).T


def _ordering_weights(sizes):
    """For graphs whose colour classes, in colour order, have the given
    sizes: a (P, L) float matrix with one row per colour-respecting
    ordering, which weighs each pair of base positions (the vertices by
    colour and then by index) with the value of the pair's bit in that
    ordering's graph6 code.  A graph's L base-order pair bits times its
    transpose are the graph's P codes, exact below 2^53."""
    import numpy as np

    n = sum(sizes)
    upper_i, upper_j = _graph6_pairs(n)
    value = np.zeros((n, n))
    value[upper_i, upper_j] = [2.0**t for t in range(len(upper_i) - 1, -1, -1)]
    value += value.T
    ends = list(itertools.accumulate(sizes))
    blocks = [itertools.permutations(range(e - s, e)) for s, e in zip(sizes, ends)]
    # place[q, a]: the position at which ordering q puts base position a
    place = np.array([sum(parts, ()) for parts in itertools.product(*blocks)])
    return value[place[:, upper_i], place[:, upper_j]]


def _search(rows, colors):
    """The graph6 body (see `_graph6`) of the minimum upper-triangle bit
    code over all vertex orderings consistent with the colour classes,
    found by branch-and-bound that explores one vertex of each set of
    twins at a search node and compares the codes column by column."""
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]

    n = len(rows)
    best = None  # list of column codes (ints), one per position 0..n-1
    seq = []
    cols = []

    def rec(bi, remaining, shared):
        """Search below the placed prefix cols, which matches best in its
        first `shared` codes (-1 before any leaf); returns that length
        again once the subtree is done.  cols never exceeds best, so a
        shorter match means cols is already smaller and nothing below it
        is pruned."""
        nonlocal best
        if bi == len(blocks):
            if shared < n:
                best = list(cols)
                return n
            return shared
        block = blocks[bi] if remaining is None else remaining
        pos = len(seq)
        # one vertex per twin class: swapping twins is an automorphism that
        # fixes the placed prefix, so the others give the same codes
        for cls in twin_classes(rows, block) if len(block) > 1 else (block,):
            v = cls[0]
            rv = rows[v]
            col = 0
            for u in seq:
                col = col << 1 | (rv >> u & 1)
            below = shared
            if shared == pos:
                b = best[pos]
                if col > b:
                    continue
                if col == b:
                    below = pos + 1
            seq.append(v)
            cols.append(col)
            rest = [u for u in block if u != v]
            if rest:
                below = rec(bi, rest, below)
            else:
                below = rec(bi + 1, None, below)
            seq.pop()
            cols.pop()
            shared = below if below < pos else pos
        return shared

    # first position: column code is empty, so recursion handles ordering
    rec(0, None, -1)
    body = 0
    for j in range(1, n):
        body = body << j | best[j]
    return body


def canonical_key(g, cap=CANONICAL_CAP):
    """Canonical graph6 string: identical iff graphs are isomorphic.  The
    key of g as a batch of one (see `canonical_keys`)."""
    return canonical_keys([g], cap)[0]


def canonical_keys(graphs, cap=CANONICAL_CAP):
    """The canonical key of each of the graphs, which have one order
    n <= cap, in input order: the minimum upper-triangle bit code over all
    vertex orderings consistent with the stable 1-WL colour classes, as a
    graph6 string.  Their `_graph_stacks` are keyed by `_stack_keys`; an
    order above _REFINE_EXACT is refused whatever the cap."""
    graphs = list(graphs)
    stacks = _graph_stacks(graphs)
    if not graphs:
        return []
    n = graphs[0].n
    limit = min(cap, _REFINE_EXACT)
    if n > limit:
        raise CapExceededError(f"canonical form capped at n={limit}, got n={n}")
    if n <= 1:
        return [encode_graph6(g) for g in graphs]
    return list(_stack_keys(stacks))


# Colour-respecting orderings up to which a graph takes the minimum code
# over all of them in numpy, as the definition of the key reads, instead of
# the scalar search.
_BATCH_ORDERINGS = 64


def _stack_keys(stacks):
    """The canonical_key of each graph of a stream of (m, n, n) 0/1 float
    adjacency stacks of one order 2 <= n <= _REFINE_EXACT, in stream order.

    Each stack is refined at once, and each graph takes its path from P,
    the number of its colour-respecting orderings: the product of the
    factorials of its colour-class sizes.  A discrete colouring (P = 1)
    has one ordering, the vertices by colour, so the key is its code.  The
    graphs of a stack with 1 < P <= _BATCH_ORDERINGS are grouped by
    colour-class-size composition, and each group takes the minimum code
    over all its orderings in `_batch_minimum`.  The rest, and every graph
    of an order above _CODES_EXACT, whose codes floats do not hold
    exactly, are searched one by one from their batch colours, with bitset
    rows read off the stack.
    Each composition's `_ordering_weights` is computed once per stream."""
    import numpy as np

    weights = {}  # class sizes -> _ordering_weights(class sizes)
    for adj in stacks:
        m, n, _ = adj.shape
        if not weights:
            upper_i, upper_j = _graph6_pairs(n)
            # the one ordering of n singleton classes: the base order
            base = weights[(1,) * n] = _ordering_weights((1,) * n)
            bit = np.array([float(1 << v) for v in range(n)])
            shades = np.arange(n, dtype=float)
        colors = _refine_color_stack(adj)
        # each graph with its vertices ordered by colour and then by index
        place = _ranks_below(colors * n + shades).astype(int)
        ordered = np.empty_like(adj)
        ordered[np.arange(m)[:, None, None], place[:, :, None], place[:, None, :]] = adj
        pairs = ordered[:, upper_i, upper_j]
        # each graph's code in the base order, its key's code when P = 1
        codes = (pairs @ base[0][:, None])[:, 0].tolist()
        sizes = np.where(colors[:, :, None] == shades, 1.0, 0.0).sum(axis=1).tolist()
        groups = {}  # class sizes -> indices in the stack
        for i in range(m):
            # a tuple of known length: tuple() of a generator resizes it,
            # and the freed tuples then pile up on the interpreter's
            # freelists
            composition = tuple([int(k) for k in sizes[i] if k])
            orderings = math.prod(map(math.factorial, composition))
            if orderings > _BATCH_ORDERINGS or n > _CODES_EXACT:
                rows = [int(r) for r in (adj[i] @ bit).tolist()]
                codes[i] = _search(rows, colors[i].tolist())
            elif orderings > 1:
                groups.setdefault(composition, []).append(i)
        for composition, members in groups.items():
            if composition not in weights:
                weights[composition] = _ordering_weights(composition)
            for i, code in zip(members, _batch_minimum(pairs, members, weights[composition])):
                codes[i] = code
        for code in codes:
            yield _graph6(n, int(code))


def _batch_minimum(pairs, members, weights):
    """The minimum code over all colour-respecting orderings of the graphs
    `members` of a stack, from the stack's base-order pair bits and their
    composition's `_ordering_weights`: one matrix-vector product per
    ordering, batched (see BATCH_ENTRIES)."""
    return (pairs[members] @ weights[:, :, None]).min(axis=0)[:, 0].tolist()


# -- structural isomorphism tests for the extremal families ---------------


def is_complete_split(g, k):
    """Exact test for g == S_{n,k} up to isomorphism: its degree sequence
    is k times n-1 and n-k times k.  When k < n-1 exactly k vertices are
    adjacent to all others; each other vertex is adjacent to them and, of
    degree k, to nothing else.  When k = n-1, g is K_n."""
    n = g.n
    return 1 <= k <= n - 1 and sorted(g.degrees()) == [k] * (n - k) + [n - 1] * k


def is_complete_split_plus(g, k):
    """Exact test for g == S+_{n,k} up to isomorphism: its degree sequence
    is k times n-1, twice k+1 and n-k-2 times k.  When k < n-2 exactly k
    vertices are adjacent to all others and each other vertex is adjacent
    to them; the two of degree k+1 each have one more neighbour, which can
    only be the other.  When k = n-2, g is K_n."""
    n = g.n
    degrees = sorted(g.degrees())
    return 1 <= k <= n - 2 and degrees == [k] * (n - k - 2) + [k + 1] * 2 + [n - 1] * k
