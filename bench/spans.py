"""Per-layer call tracing from outside the program.

A Tracer replaces selected module attributes of `spectree` with wrappers
that record one span per call: name, start, end, parent span, a small note
about the result, and the exception class if the call raised.  Each site is
the attribute that the caller looks up at call time, so wrapping it sees
exactly that caller's calls; the function objects themselves are not
changed.  Spans stay in memory until the traced phase ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE, ERROR = range(6)


def _found(args, kwargs, result):
    return result is not None


def _spectral(args, kwargs, result):
    # (iterations, re-solve flag): the harness passes an explicit tol only
    # for its high-precision re-solve and its S+ threshold.
    return getattr(result, "iterations", 0), "tol" in kwargs or len(args) > 1


def _canonical(args, kwargs, result):
    return args[0], result


# (module, attribute, span name, note).  harness._stable_key imports
# canonical_key from spectree.graphs on every call; the harness site covers
# a future module-level import.
SITES = (
    ("spectree", "all_graphs", "enumeration.all_graphs", None),
    ("spectree", "run_campaign", "harness.run_campaign", None),
    ("spectree.harness", "all_graphs", "enumeration.all_graphs", None),
    ("spectree.enumeration", "canonical_key", "graphs.canonical_key.enum", None),
    ("spectree.enumeration", "decode_graph6", "graphs.decode_graph6", None),
    ("spectree.graphs", "canonical_key", "graphs.canonical_key.report", _canonical),
    ("spectree.harness", "canonical_key", "graphs.canonical_key.report", _canonical),
    ("spectree.harness", "_mu_s_plus_numeric", "harness.threshold", None),
    ("spectree.harness", "spectral_radius", "spectral.spectral_radius", _spectral),
    ("spectree.harness", "is_complete_split", "harness.exceptional_check", None),
    ("spectree.harness", "is_complete_split_plus", "harness.exceptional_check", None),
    ("spectree.harness", "all_trees_of_order", "embed.all_trees_of_order", None),
    ("spectree.harness", "contains_tree", "embed.contains_tree", _found),
    ("spectree.turan", "contains_tree", "embed.contains_tree", _found),
    ("spectree.turan", "longest_path_stats", "embed.longest_path_stats", None),
    ("spectree.harness", "check_lemma", "turan.check_lemma", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[ERROR] = type(exc).__name__
                raise
            span[END] = clock()
            stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site that exists; restore the originals on exit.
        A site that no longer exists is listed in `missing` and reads as
        zero calls."""
        saved = []
        try:
            for module_name, attr, name, note in SITES:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, note))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def named(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def self_times(self, name):
        """Self time of each span called `name`: its duration minus the part
        covered by its child spans.  Children of one span run one after the
        other on this single thread, so their union is the sum of their
        durations."""
        child_time = {}
        for s in self.spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        return [
            s[END] - s[START] - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s[NAME] == name
        ]


def busy_s(spans):
    """Wall time covered by the union of the spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for s in sorted(spans, key=lambda s: s[START]):
        if s[END] <= reach:
            continue
        total += s[END] - max(s[START], reach)
        reach = s[END]
    return total


def _percentile_us(spans, q):
    durations = [(s[END] - s[START]) * 1e6 for s in spans]
    if len(durations) < 2:
        return durations[0] if durations else 0.0
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(setup, campaign, classes, untraced_s, traced_s, encode):
    """Per-layer metrics from a traced set-up and one traced campaign.

    `classes` is the number of isomorphism classes the set-up enumerated and
    `encode` the graph6 encoder used to tell whether a report-side
    canonical_key call received an already canonical graph."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    enum_calls = setup.named("graphs.canonical_key.enum")
    decodes = setup.named("graphs.decode_graph6")
    put("enumeration.all_graphs.busy_s", busy_s(setup.named("enumeration.all_graphs")), "s")
    put("graphs.canonical_key.enum.calls", len(enum_calls), "count")
    put("graphs.canonical_key.enum.busy_s", busy_s(enum_calls), "s")
    put("graphs.decode_graph6.calls", len(decodes), "count")
    put("graphs.decode_graph6.busy_s", busy_s(decodes), "s")
    put("enumeration.new_class_ratio", _ratio(classes, len(enum_calls)), "ratio")

    report_keys = campaign.named("graphs.canonical_key.report")
    noops = sum(
        1 for s in report_keys if s[NOTE] is not None and encode(s[NOTE][0]) == s[NOTE][1]
    )
    put("graphs.canonical_key.report.calls", len(report_keys), "count")
    put("graphs.canonical_key.report.busy_s", busy_s(report_keys), "s")
    put("graphs.canonical_key.report.noop_ratio", _ratio(noops, len(report_keys)), "ratio")

    mu = campaign.named("spectral.spectral_radius")
    threshold_ids = {
        i for i, s in enumerate(campaign.spans) if s[NAME] == "harness.threshold"
    }
    put("spectral.spectral_radius.calls", len(mu), "count")
    put("spectral.spectral_radius.busy_s", busy_s(mu), "s")
    put("spectral.spectral_radius.p50_us", _percentile_us(mu, 50), "us")
    put("spectral.spectral_radius.p99_us", _percentile_us(mu, 99), "us")
    put("spectral.spectral_radius.iterations", sum(s[NOTE][0] for s in mu if s[NOTE]), "count")
    put("spectral.spectral_radius.failed", sum(1 for s in mu if s[ERROR]), "count")
    put(
        "spectral.spectral_radius.resolve_calls",
        sum(1 for s in mu if s[NOTE] and s[NOTE][1] and s[PARENT] not in threshold_ids),
        "count",
    )

    put("harness.exceptional_check.calls", len(campaign.named("harness.exceptional_check")), "count")

    trees = campaign.named("embed.all_trees_of_order")
    put("embed.all_trees_of_order.calls", len(trees), "count")
    put("embed.all_trees_of_order.busy_s", busy_s(trees), "s")

    search = campaign.named("embed.contains_tree")
    done = [s for s in search if not s[ERROR]]
    put("embed.contains_tree.calls", len(search), "count")
    put("embed.contains_tree.busy_s", busy_s(search), "s")
    put("embed.contains_tree.p50_us", _percentile_us(search, 50), "us")
    put("embed.contains_tree.p99_us", _percentile_us(search, 99), "us")
    put("embed.contains_tree.found_ratio", _ratio(sum(1 for s in done if s[NOTE]), len(done)), "ratio")
    put("embed.contains_tree.failed", len(search) - len(done), "count")

    paths = campaign.named("embed.longest_path_stats")
    put("embed.longest_path_stats.calls", len(paths), "count")
    put("embed.longest_path_stats.busy_s", busy_s(paths), "s")
    put("embed.longest_path_stats.p50_us", _percentile_us(paths, 50), "us")
    put("embed.longest_path_stats.p99_us", _percentile_us(paths, 99), "us")

    lemmas = campaign.named("turan.check_lemma")
    put("turan.check_lemma.calls", len(lemmas), "count")
    put("turan.check_lemma.busy_s", busy_s(lemmas), "s")
    put("turan.check_lemma.self_s", sum(campaign.self_times("turan.check_lemma")), "s")

    runs = campaign.named("harness.run_campaign")
    put("harness.run_campaign.busy_s", busy_s(runs), "s")
    put("harness.run_campaign.self_s", sum(campaign.self_times("harness.run_campaign")), "s")

    put("trace.overhead_ratio", _ratio(traced_s, untraced_s), "ratio")
    return out
