"""Campaign runner: evaluates the conjecture/theorem predicates over graph
sources, compares each spectral radius exactly with its threshold, and
builds deterministic reports.

The thresholds mu(S_{n,k}) and mu(S+_{n,k}) are the largest roots of the
integer characteristic polynomials of the families' equitable quotients.
A float comparison decides every graph whose mu is clearly apart from the
threshold; the rest are tested against the exceptional graph and then
compared exactly, so that mu >= threshold qualifies."""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, asdict
from functools import partial

from . import __version__
from .errors import BudgetExceededError, ParameterError
from .graphs import (
    Broom,
    CANONICAL_CAP,
    CompleteSplit,
    CompleteSplitPlus,
    GeneralizedBroom,
    Path,
    Spider,
    build_family,
    canonical_keys,
    encode_graph6,
    is_complete_split,
    is_complete_split_plus,
)
from .spectral import (
    LargestRoot,
    bound_edges,
    bound_min_degree,
    charpoly,
    spectral_radii,
    split_quotient,
)
from .embed import DEFAULT_BUDGET, all_trees_of_order, is_theorem_spider, tree_test
from .enumeration import _perturb, graph_order, random_graph
from .turan import check_lemma, lemma_hypothesis, lemma_trees, partitions

SCHEMA_VERSION = 1

# Relative distance |mu - theta| / max(1, theta) above which the float
# comparison stands.  eigh is backward stable, so by Weyl's inequality its
# mu is within a small multiple of the unit roundoff times ||A||_2 = mu of
# the exact value, and LargestRoot holds theta to within 2^-51 relative:
# both errors are far below this.
FLOAT_MARGIN = 1e-9


def _trees(order):
    return [(encode_graph6(t), t) for t in all_trees_of_order(order)]


# each threshold family: its name, the smallest n minus k, and its
# exceptional-graph recogniser, which a campaign reads from this module
_FAMILIES = {
    CompleteSplit: ("S_{n,k}", 1, "is_complete_split"),
    CompleteSplitPlus: ("S+_{n,k}", 2, "is_complete_split_plus"),
}


@dataclass(frozen=True)
class _Campaign:
    family: type  # a key of _FAMILIES, or None for no threshold
    # k -> the (name, tree) pairs to contain; or the `turan` lemma whose
    # hypothesis and trees to check; or None for lemma_suite's own verdict
    conclusion: object
    advisory: bool = False  # never records a violation


_TABLE = {
    "conjecture_a": _Campaign(CompleteSplit, lambda k: _trees(2 * k + 2)),
    "conjecture_b": _Campaign(CompleteSplitPlus, lambda k: _trees(2 * k + 3)),
    "theorem_path": _Campaign(CompleteSplit, lambda k: [("path", build_family(Path(2 * k + 2)))]),
    "theorem_spider": _Campaign(CompleteSplit, lambda k: [
        (f"spider_{'_'.join(map(str, sp.legs))}", build_family(sp))
        for sp in filter(is_theorem_spider, map(Spider, partitions(2 * k + 2)))
    ]),
    "theorem_brooms": _Campaign(CompleteSplit, lambda k: [
        (f"broom_{s}_{2 * k + 2 - s}", build_family(Broom(s, 2 * k + 2 - s)))
        for s in range(1, 2 * k + 2)
    ]),
    "broom_turan": _Campaign(None, "broom_turan"),
    "lemma_suite": _Campaign(None, None),
    "genbroom_explore": _Campaign(CompleteSplit, lambda k: [
        (f"genbroom_{s}_{t}_{ell}", build_family(GeneralizedBroom(s, t, ell)))
        for s, t in ((1, 2 * k + 2), (2, 2 * k + 1))
        for ell in range(2, t)
    ], advisory=True),
}
CAMPAIGNS = tuple(_TABLE)


@dataclass(frozen=True)
class Source:
    kind: str  # exhaustive | random | perturbation
    count: int = 0
    seed: int = 0
    base: object = None  # family spec for perturbation
    radius: int = 1


@dataclass(frozen=True)
class CampaignSpec:
    campaign: str
    k: int
    n_min: int
    n_max: int
    source: Source = Source("exhaustive")
    budget: int = DEFAULT_BUDGET

    def validate(self):
        if self.campaign not in CAMPAIGNS:
            raise ParameterError(f"unknown campaign {self.campaign!r}")
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        if self.n_min > self.n_max or self.n_min < 1:
            raise ParameterError(f"bad n range [{self.n_min}, {self.n_max}]")
        if self.budget < 1:
            raise ParameterError(f"search budget must be >= 1, got {self.budget}")
        row = _TABLE[self.campaign]
        if row.family is not None:
            family, above_k, _ = _FAMILIES[row.family]
            smallest = self.k + above_k
            if self.n_min < smallest:
                raise ParameterError(
                    f"{self.campaign} compares with mu({family}), which needs "
                    f"n >= {smallest} for k={self.k}; got n_min={self.n_min}"
                )
        src = self.source
        if src.kind in ("random", "perturbation") and src.count < 1:
            raise ParameterError(f"a {src.kind} source needs count >= 1, got {src.count}")
        if src.kind == "perturbation" and src.radius < 1:
            raise ParameterError(f"a perturbation source needs radius >= 1, got {src.radius}")
        if src.kind == "perturbation" and not isinstance(
            src.base, (CompleteSplit, CompleteSplitPlus)
        ):
            raise ParameterError("perturbation base must be a complete-split spec")


@dataclass
class VerificationReport:
    schema_version: int
    spec: dict
    totals: dict
    verdicts: list
    violations: list
    boundary: list
    empirical_thresholds: dict
    timings: dict
    tool_version: str


def _source(spec, n):
    """The graphs of one order as (keys, graphs, parents), three aligned
    sequences in index order.  An exhaustive order hands out the enumeration's own
    tuples: canonical graph6 keys, and the index of each graph's
    enumeration parent on n - 1 vertices.  Sampled graphs get keys that
    can repeat, from one `canonical_keys` call up to CANONICAL_CAP and
    plain graph6 above, and parent None."""
    src = spec.source
    if src.kind == "exhaustive":
        order = graph_order(n)
        return order.keys, order.graphs, order.parents
    if src.kind == "random":
        graphs = [
            random_graph(n, p=0.5, seed=src.seed * 1_000_003 + n * 101 + i)
            for i in range(src.count)
        ]
    elif src.kind == "perturbation":
        # the unperturbed base, then `count` draws per (add, remove) pair
        draws = [
            (a, r)
            for a in range(src.radius + 1)
            for r in range(src.radius + 1 - a)
            if a + r
            for _ in range(src.count)
        ]
        g = build_family(type(src.base)(n, src.base.k))
        graphs = [g] + [
            _perturb(g, a, r, src.seed * 7_654_321 + i) for i, (a, r) in enumerate(draws, start=1)
        ]
    else:
        raise ParameterError(f"unknown source kind {src.kind!r}")
    # canonical graph6 while the canonical form reaches n, plain above
    keys = canonical_keys(graphs) if n <= CANONICAL_CAP else list(map(encode_graph6, graphs))
    return keys, graphs, [None] * len(graphs)


def _patterns(spec):
    """The containment conclusion patterns of a campaign.  They depend on
    the campaign and k only, so run_campaign builds them once."""
    conclusion = _TABLE[spec.campaign].conclusion
    if isinstance(conclusion, str):
        return lemma_trees(conclusion, spec.k)
    return conclusion(spec.k) if conclusion else []


def run_campaign(spec):
    """Run one campaign, one order at a time: every graph of the order gets
    its mu from one `spectral_radii` call (none for broom_turan) and then
    its verdict; the order's verdicts are sorted by (key, index), so the
    report lists them in (n, key, index) order."""
    spec.validate()
    t_start = time.perf_counter()
    facts = _facts(spec)
    verdicts = []
    per_n_violations = {}
    for n in range(spec.n_min, spec.n_max + 1):
        keys, graphs, parents = _source(spec, n)
        # a campaign that checks a turan lemma reads no mu
        lemma = isinstance(_TABLE[spec.campaign].conclusion, str)
        mus = [None] * len(graphs) if lemma else [res.mu for res in spectral_radii(graphs)]
        check = _checker(spec, n, facts)
        rows = list(map(check, range(len(graphs)), keys, graphs, parents, mus))
        rows.sort(key=lambda v: (v["key"], v["index"]))
        per_n_violations[n] = sum(v["violation"] for v in rows)
        verdicts += rows
    violations = [v for v in verdicts if v["violation"]]
    # the threshold test is exact, so no graph is left unclassified; the
    # empty `boundary` list and its count keep the schema-1 field set
    totals = {
        "graphs_scanned": len(verdicts),
        "hypothesis_satisfying": sum(v["classification"] == "qualifying" for v in verdicts),
        "boundary_classified": 0,
        "violations": len(violations),
    }
    timings = {"wall_clock_s": round(time.perf_counter() - t_start, 6)}
    return VerificationReport(
        schema_version=SCHEMA_VERSION,
        spec=_spec_dict(spec),
        totals=totals,
        verdicts=verdicts,
        violations=violations,
        boundary=[],
        empirical_thresholds=_empirical_thresholds(per_n_violations),
        timings=timings,
        tool_version=__version__,
    )


def _spec_dict(spec):
    d = asdict(spec)
    src = d["source"]
    if src["base"] is not None:
        base = spec.source.base
        src["base"] = f"{type(base).__name__}{tuple(getattr(base, f) for f in ('n', 'k') if hasattr(base, f))}"
    return d


def _verdict(index, n, key, mu, classification, missing=None, advisory=False):
    """One report row.  Only checked rows pass `missing`, the names of the
    patterns or lemma checks that failed; an advisory campaign never
    records a violation."""
    return {
        "index": index,
        "n": n,
        "key": key,
        "mu": mu,
        "classification": classification,
        "conclusion_holds": None if missing is None else not missing,
        "missing": missing or [],
        "violation": bool(missing) and not advisory,
    }


class _Inherited:
    """Facts about the classes of the exhaustive orders, memoised by
    (order, index, fact name) for one run_campaign call.

    `rules` maps each fact name to derive(g, up, strict) -> that fact of
    graph g, where up() is the same fact of g's enumeration parent (the
    graph minus a maximum-degree vertex), or None when g has none.  A fact
    of a class that was not scanned, or whose scanned fact was not needed,
    is derived on demand with strict=False when a child asks for it.  A
    scanned fact is derived with strict=True and kept only below the top
    order, since nothing reads the top order's facts; a sampled graph
    (parent None) has nothing to inherit and keeps nothing."""

    def __init__(self, spec, rules):
        self.spec = spec
        self.rules = rules
        self.keep_below = spec.n_max if spec.source.kind == "exhaustive" else 0
        self.memo = {}

    def of(self, name, n, index):
        """Fact `name` of the index-th graph of order n, read through
        `_source`; None for index None."""
        if index is None:
            return None
        found = self.memo.get((n, index, name))
        if found is None:
            _, graphs, parents = _source(self.spec, n)
            up = partial(self.of, name, n - 1, parents[index])
            found = self.memo[n, index, name] = self.rules[name](graphs[index], up, False)
        return found

    def scanned(self, name, n, index, g, parent):
        """Fact `name` of the scanned graph g, the index-th of order n."""
        found = self.rules[name](g, partial(self.of, name, n - 1, parent), True)
        if n < self.keep_below:
            self.memo[n, index, name] = found
        return found


def _absent(patterns, budget, g, up, strict):
    """The (name, pattern) pairs that g does not contain, in pattern order.

    g contains its enumeration parent, so it contains every tree the parent
    contains: only the pairs in the parent's set up() are tested, or all of
    `patterns` when g has no parent.  One `tree_test` of g decides them,
    built only when there is a pair to test."""
    inherited = up()
    pairs = patterns if inherited is None else inherited
    if not pairs:
        return ()
    contains = tree_test(g, budget)
    out = []
    # the sets share the pairs of `patterns`, so the memo holds no copies
    for pair in pairs:
        pat = pair[1]
        try:
            if pat.n > g.n or not contains(pat):
                out.append(pair)
        except BudgetExceededError:
            # an ancestor's set may keep an undecided pattern: its
            # descendants test that pattern themselves
            if strict:
                raise
            out.append(pair)
    return tuple(out)


def _path_sum(g, up, strict):
    """Exact sum over v of p_v, the edge count of a longest path from v."""
    return check_lemma(g, "sum_longest_path").details["p_sum"]


def _path_sum_floor(parent_sum, e):
    """A lower bound on the sum of p_v over an exhaustive graph with e edges
    whose enumeration parent P has the exact sum `parent_sum`.

    P is G - w for a maximum-degree vertex w, and a path of G - w is a path
    of G, so no p_v with v != w falls.  When G has an edge, w has a
    neighbour u.  If u is isolated in G - w, p_u rises from 0 to at least
    1 and p_w >= 1; otherwise w followed by a longest path from u gives
    p_w >= 1 + p_u(G - w) >= 2.  Either way the sum gains at least 2."""
    return parent_sum + 2 * (e > 0)


def _facts(spec):
    """The campaign's `_Inherited` memo: the missing pattern set for the
    containment campaigns; for lemma_suite the exact longest-path sum and
    the missing three-leg spiders for t = 4 and 5."""
    if _TABLE[spec.campaign].conclusion is None:
        spiders = partial(lemma_trees, "spider3_erdos_sos")
        rules = {t: partial(_absent, spiders(t), spec.budget) for t in (4, 5)}
        rules["p_sum"] = _path_sum
    else:
        rules = {"missing": partial(_absent, _patterns(spec), spec.budget)}
    return _Inherited(spec, rules)


def _checker(spec, n, facts):
    """The verdict function (index, key, graph, parent, mu) -> row for an
    order-n graph, with the campaign's hypothesis test (its threshold and
    exceptional graph, or its lemma's) and `_Inherited` facts bound."""
    k = spec.k
    row = _TABLE[spec.campaign]
    if row.conclusion is None:
        return partial(_lemma_suite_verdict, n, facts)
    if row.family is None:
        def classify(g, mu):
            return "qualifying" if lemma_hypothesis(row.conclusion, g, k) else "non_qualifying"
    else:
        exceptional = globals()[_FAMILIES[row.family][2]]
        theta = LargestRoot(charpoly(split_quotient(row.family(n, k))))
        margin = FLOAT_MARGIN * max(1.0, theta.value)

        def classify(g, mu):
            if abs(mu - theta.value) > margin:
                qualifies = mu > theta.value
            elif exceptional(g, k):
                return "excluded_exceptional"
            else:
                qualifies = theta.compare(g) >= 0
            return "qualifying" if qualifies else "non_qualifying"

    def check(index, key, g, parent, mu):
        classification = classify(g, mu)
        if classification != "qualifying":
            return _verdict(index, n, key, mu, classification)
        missing = [name for name, _ in facts.scanned("missing", n, index, g, parent)]
        return _verdict(index, n, key, mu, classification, missing, row.advisory)

    return check


def _lemma_suite_verdict(n, facts, index, key, g, parent, mu):
    """The lemmas of `check_lemma` ("sum_longest_path" and
    "spider3_erdos_sos" for t = 4, 5) and the two mu bounds.  The path
    lemma runs the longest-path DP only when the parent's sum does not
    settle it; a spider lemma whose hypothesis holds tests only the
    spiders the parent misses."""
    failures = []
    up = facts.of("p_sum", n - 1, parent)
    if up is None or 2 * g.e > _path_sum_floor(up, g.e):
        if 2 * g.e > facts.scanned("p_sum", n, index, g, parent):
            failures.append("sum_longest_path")
    for t in (4, 5):
        if lemma_hypothesis("spider3_erdos_sos", g, t) and facts.scanned(t, n, index, g, parent):
            failures.append(f"spider3_t{t}")
    if mu > bound_edges(g.e) + 1e-9:
        failures.append("edge_bound")
    delta = min(g.degrees()) if g.n else 0
    if mu > bound_min_degree(g.n, g.e, delta) + 1e-9:
        failures.append("min_degree_bound")
    return _verdict(index, n, key, mu, "qualifying", failures)


def _empirical_thresholds(per_n_violations):
    """Smallest scanned n from which on no violations were seen."""
    ns = sorted(per_n_violations)
    threshold = None
    for n in reversed(ns):
        if per_n_violations[n] == 0:
            threshold = n
        else:
            break
    return {
        "per_n_violations": {str(n): per_n_violations[n] for n in ns},
        "zero_violation_from_n": threshold,
    }


# -- report serialization --------------------------------------------------


def report_to_json(report):
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


# the fields of a verdict row, in CSV column order
_ROW_FIELDS = ("n", "index", "key", "mu", "classification", "conclusion_holds", "missing", "violation")


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_ROW_FIELDS)
    for v in report.verdicts:
        writer.writerow(
            [
                v["n"],
                v["index"],
                v["key"],
                "" if v["mu"] is None else repr(v["mu"]),
                v["classification"],
                "" if v["conclusion_holds"] is None else int(v["conclusion_holds"]),
                ";".join(v["missing"]),
                int(v["violation"]),
            ]
        )
    return buf.getvalue()


def render_report(report, fmt):
    """The report as JSON or CSV text."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    raise ParameterError(f"unknown report format {fmt!r}")


def write_report(report, fmt, path):
    """Serialize a report deterministically (stable field order)."""
    payload = render_report(report, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
