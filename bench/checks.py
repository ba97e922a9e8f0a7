"""Correctness checks for campaign reports, independent of the production path.

The graph6 codec and the spectral-radius oracle here are written from the
format definition and `numpy.linalg.eigvalsh`; they share no code with
`spectree`.  Each check returns a list of problems; an empty list means the
report is accepted.

Only outputs that every correct implementation produces are checked: the
enumeration counts, the ordered n=8 canonical key list, `graphs_scanned`,
every mu against the oracle, classifications away from the threshold band
and the exact lemmas' zero violations.  The boundary count and the
conjecture violation counts are deliberately not pinned: an exact threshold
comparison may legitimately move graphs out of the boundary bucket.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

ENUMERATION_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
# sha256 of the canonical graph6 keys of all 12,346 graphs on 8 vertices,
# in enumeration order, joined by "\n".
N8_KEYS_SHA256 = "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5"
MU_TOL = 1e-8  # relative to max(1, mu)
BAND = 1e-6  # |mu - threshold| below which any classification is accepted
CLASSIFICATIONS = ("qualifying", "non_qualifying", "boundary", "excluded_exceptional")


def g6_encode(n, edges):
    """graph6 string of a graph on n <= 62 vertices."""
    if not 0 <= n <= 62:
        raise ValueError(f"g6_encode supports 0 <= n <= 62, got {n}")
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for p in range(0, len(bits), 6):
        val = 0
        for b in bits[p : p + 6]:
            val = val << 1 | b
        out.append(chr(63 + val))
    return "".join(out)


def g6_decode(text):
    """(n, adjacency matrix) of a graph6 string with n <= 62."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"g6_decode supports n <= 62, got {text!r}")
    need = n * (n - 1) // 2
    if len(text) - 1 != (need + 5) // 6:
        raise ValueError(f"graph6 length mismatch in {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"character outside graph6 alphabet in {text!r}")
        bits.extend(val >> s & 1 for s in range(5, -1, -1))
    a = np.zeros((n, n))
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                a[i, j] = a[j, i] = 1.0
            pos += 1
    return n, a


def keys_digest(keys):
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def graph_key(g):
    """Oracle graph6 of a spectree Graph, via its public edge list."""
    return g6_encode(g.n, g.edges())


class MuOracle:
    """Largest adjacency eigenvalue by LAPACK, memoised per graph6 key."""

    def __init__(self):
        self._memo = {}
        self._thresholds = {}

    def __call__(self, key):
        mu = self._memo.get(key)
        if mu is None:
            n, a = g6_decode(key)
            mu = float(np.linalg.eigvalsh(a)[-1]) if n else 0.0
            self._memo[key] = mu
        return mu

    def threshold(self, campaign, n, k):
        """mu(S_{n,k}) for conjecture_a, mu(S+_{n,k}) for conjecture_b."""
        key = (campaign, n, k)
        theta = self._thresholds.get(key)
        if theta is None:
            if campaign == "conjecture_a":
                theta = mu_complete_split(n, k)
            else:
                theta = float(np.linalg.eigvalsh(complete_split_plus_matrix(n, k))[-1])
            self._thresholds[key] = theta
        return theta


def mu_complete_split(n, k):
    """Largest root of x^2 - (k-1)x - k(n-k): the spectral radius of S_{n,k}."""
    return ((k - 1) + math.sqrt((k - 1) ** 2 + 4 * k * (n - k))) / 2


def complete_split_plus_matrix(n, k):
    """Adjacency of S+_{n,k}: k hubs joined to everything, one extra edge."""
    a = np.zeros((n, n))
    a[:k, :] = 1.0
    a[:, :k] = 1.0
    np.fill_diagonal(a, 0.0)
    a[k, k + 1] = a[k + 1, k] = 1.0
    return a


def check_enumeration(counts, n8_graphs):
    problems = []
    if tuple(counts) != ENUMERATION_COUNTS:
        problems.append(f"enumeration counts {tuple(counts)} != {ENUMERATION_COUNTS}")
    digest = keys_digest(graph_key(g) for g in n8_graphs)
    if digest != N8_KEYS_SHA256:
        problems.append(f"n=8 canonical key digest {digest} != pinned")
    return problems


def check_report(wl, report, oracle):
    """Problems found in one campaign report of workload `wl`."""
    problems = []
    verdicts = report.verdicts
    totals = report.totals
    if totals.get("graphs_scanned") != wl.expected_scanned:
        problems.append(
            f"graphs_scanned {totals.get('graphs_scanned')} != {wl.expected_scanned}"
        )
    if len(verdicts) != wl.expected_scanned:
        problems.append(f"{len(verdicts)} verdicts, expected {wl.expected_scanned}")
    if wl.source == "exhaustive" and keys_digest(v["key"] for v in verdicts) != N8_KEYS_SHA256:
        problems.append("report keys differ from the pinned n=8 canonical key list")
    order = [(v["n"], v["key"], v["index"]) for v in verdicts]
    if order != sorted(order):
        problems.append("verdicts are not in (n, key, index) order")
    per_n = {}
    for v in verdicts:
        per_n.setdefault(v["n"], []).append(v["index"])
    for n, idx in per_n.items():
        if sorted(idx) != list(range(len(idx))):
            problems.append(f"indices at n={n} are not 0..{len(idx) - 1}")

    counted = {"qualifying": 0, "boundary": 0, "violation": 0}
    for v in verdicts:
        where = f"verdict n={v['n']} index={v['index']} key={v['key']!r}"
        try:
            n, _ = g6_decode(v["key"])
            mu_ref = oracle(v["key"])
        except (ValueError, IndexError) as exc:
            problems.append(f"{where}: undecodable key ({exc})")
            continue
        if n != v["n"]:
            problems.append(f"{where}: key has {n} vertices")
        mu = v["mu"]
        if mu is None or not abs(mu - mu_ref) <= MU_TOL * max(1.0, mu_ref):
            problems.append(f"{where}: mu {mu!r} != oracle {mu_ref!r}")
        cls = v["classification"]
        if cls == "qualifying":
            counted["qualifying"] += 1
        elif cls == "boundary":
            counted["boundary"] += 1
        if v["violation"]:
            counted["violation"] += 1
        if wl.campaign == "lemma_suite":
            if cls != "qualifying" or v["violation"] or v["conclusion_holds"] is not True:
                problems.append(f"{where}: exact lemma failed ({v['missing']})")
            continue
        theta = oracle.threshold(wl.campaign, v["n"], wl.k)
        if abs(mu_ref - theta) > BAND:
            expected = "qualifying" if mu_ref > theta else "non_qualifying"
            if cls != expected:
                problems.append(f"{where}: classified {cls}, mu-theta={mu_ref - theta:.3e}")
        elif cls not in CLASSIFICATIONS:
            problems.append(f"{where}: unknown classification {cls!r}")
        if cls == "qualifying":
            if v["conclusion_holds"] is not (not v["missing"]):
                problems.append(f"{where}: conclusion_holds disagrees with missing")
            if v["violation"] is not bool(v["missing"]):
                problems.append(f"{where}: violation disagrees with missing")
        elif v["conclusion_holds"] is not None or v["violation"] or v["missing"]:
            problems.append(f"{where}: conclusion recorded for a {cls} graph")

    if totals.get("hypothesis_satisfying") != counted["qualifying"]:
        problems.append("hypothesis_satisfying disagrees with the verdicts")
    if totals.get("boundary_classified") != counted["boundary"] or len(report.boundary) != counted["boundary"]:
        problems.append("boundary totals disagree with the verdicts")
    if totals.get("violations") != counted["violation"] or len(report.violations) != counted["violation"]:
        problems.append("violation totals disagree with the verdicts")
    if wl.campaign == "lemma_suite" and totals.get("violations") != 0:
        problems.append(f"exact lemmas report {totals.get('violations')} violations")
    return problems
