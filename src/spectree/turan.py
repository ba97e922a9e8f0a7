"""Edge-count bounds and per-graph lemma verdicts.

Bounds labeled "asymptotic" only hold for sufficiently large order; the
harness treats those as advisory at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import HypothesisViolationError, ParameterError
from .graphs import (
    Broom,
    CompleteSplitPlus,
    Graph,
    Path,
    Spider,
    build_family,
    is_complete_split_plus,
)
from .embed import longest_path_stats, tree_test


@dataclass(frozen=True)
class TuranBound:
    forbidden: object  # FamilySpec or tuple of path orders
    n: int
    bound: float
    applicability: str  # "exact" | "asymptotic"


@dataclass(frozen=True)
class LemmaVerdict:
    lemma: str
    graph: Graph
    hypothesis_holds: bool
    conclusion_holds: bool
    violation: bool
    asymptotic: bool
    details: dict = field(default_factory=dict, compare=False)


def bound_path(n, t):
    """Max edges of a P_t-free graph on n vertices: (t-2)n/2.  Exact."""
    if n < 1 or t < 2:
        raise ParameterError(f"require n >= 1 and t >= 2, got n={n}, t={t}")
    return TuranBound(Path(t), n, (t - 2) * n / 2, "exact")


def bound_ell_P3(n, ell):
    """Max edges of an (ell P_3)-free graph: below (ell - 1/2)n for large n."""
    if n < 1 or ell < 2:
        raise ParameterError(f"require n >= 1 and ell >= 2, got n={n}, ell={ell}")
    return TuranBound(("P3",) * ell, n, (ell - 0.5) * n, "asymptotic")


def bound_linear_forest(n, lengths):
    """Linear-forest bound (sum of floor(a_i/2) - 1) n for large n."""
    lengths = tuple(lengths)
    if n < 1:
        raise ParameterError(f"require n >= 1, got {n}")
    if len(lengths) < 2:
        raise ParameterError("need at least 2 path components")
    if any(a < 2 for a in lengths):
        raise ParameterError(f"all path orders must be >= 2, got {lengths}")
    if all(a == 3 for a in lengths):
        raise ParameterError("the all-P3 linear forest is excluded")
    bound = (sum(a // 2 for a in lengths) - 1) * n
    return TuranBound(lengths, n, float(bound), "asymptotic")


def edge_threshold_S_plus(n, k):
    """Edge count of S+_{n,k}: the Turán threshold forcing the long broom."""
    CompleteSplitPlus(n, k).validate()
    return k * n - k * (k + 1) // 2 + 1


def partitions(total, largest=None, prefix=()):
    """The partitions of total into positive parts, each as a tuple of
    parts in falling order, in reverse lexicographic order."""
    largest = largest or total
    if total == 0:
        yield prefix
        return
    for part in range(min(largest, total), 0, -1):
        yield from partitions(total - part, part, prefix + (part,))


def three_leg_spiders(t):
    """All t-vertex spiders with three legs: partitions of t-1 into 3 parts."""
    return [Spider(*legs) for legs in sorted(p for p in partitions(t - 1) if len(p) == 3)]


def lemma_hypothesis(lemma, g, param):
    """Whether g meets the exact hypothesis of a containment lemma of
    `check_lemma`, for t = param ("spider3_erdos_sos") or k = param
    ("broom_turan", "path_turan")."""
    if lemma == "spider3_erdos_sos":
        return 2 * g.e > (param - 2) * g.n
    k = param
    holds = g.n >= k + 2 and g.e >= edge_threshold_S_plus(g.n, k) and g.is_connected()
    return holds and (lemma == "broom_turan" or not is_complete_split_plus(g, k))


@lru_cache(maxsize=16)
def lemma_trees(lemma, param):
    """The (name, tree) pairs that a containment lemma's conclusion asks
    for: the three-leg spiders on t = param vertices, named by their legs,
    or the one path or broom for k = param."""
    if lemma == "spider3_erdos_sos":
        return tuple((sp.legs, build_family(sp)) for sp in three_leg_spiders(param))
    if lemma == "path_turan":
        return ((f"path_{2 * param + 3}", build_family(Path(2 * param + 3))),)
    return ((f"broom_2_{2 * param + 1}", build_family(Broom(2, 2 * param + 1))),)


def check_lemma(g, lemma, k=None, t=None):
    """Verdict of one lemma/theorem instance on a concrete graph.

    lemma is one of:
      - "sum_longest_path": e(G) <= sum_v p_v / 2 (exact, unconditional)
      - "path_turan" (needs k): edge threshold forces P_{2k+3} for connected
        G other than S+_{n,k} (asymptotic)
      - "spider3_erdos_sos" (needs t >= 4, the fewest vertices of a 3-leg
        spider): e > (t-2)n/2 forces every t-vertex 3-leg spider (exact)
      - "broom_turan" (needs k): edge threshold forces B_{2,2k+1} in
        connected G (asymptotic)
    """
    if lemma == "sum_longest_path":
        stats = longest_path_stats(g)
        concl = g.e <= sum(stats.p) / 2
        return LemmaVerdict(
            lemma, g, True, concl, not concl, False, {"p_sum": sum(stats.p)}
        )
    spider = lemma == "spider3_erdos_sos"
    if not spider and lemma not in ("path_turan", "broom_turan"):
        raise ParameterError(f"unknown lemma id {lemma!r}")
    param = t if spider else k
    if param is None:
        raise ParameterError(f"{lemma} requires {'t' if spider else 'k'}")
    if spider and t < 4:
        raise ParameterError(f"spider3_erdos_sos requires t >= 4, got t={t}")
    if not spider and not g.is_connected():
        raise HypothesisViolationError(f"{lemma} requires a connected graph")
    hyp = lemma_hypothesis(lemma, g, param)
    missing = []
    if hyp:
        contains = tree_test(g)
        missing = [name for name, tree in lemma_trees(lemma, param) if not contains(tree)]
    concl = hyp and not missing
    details = {"missing": missing} if spider else {}
    return LemmaVerdict(lemma, g, hyp, concl, hyp and not concl, not spider, details)
