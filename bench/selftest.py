#!/usr/bin/env python3
"""Self-tests for the benchmark.

    python3 bench/selftest.py            # about six minutes on 2 vCPUs

1. The report check accepts a real exhaustive_n8 report and rejects three
   tampered copies: a key replaced by a non-canonical key of the same graph,
   a classification flipped far from the threshold, and a wrong mu.
2. Two traced runs of each workload at seed 1, each in a fresh process,
   give identical call counts, and the counts named below match.

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import run

# Traced call counts at seed 1 for the program as it stood when the
# benchmark was introduced.  A change that removes or adds calls on purpose
# moves these; the repeat check in test_traced_counts_repeat still holds.
PINNED_SEED1 = {
    "exhaustive_n8": {
        "embed.contains_tree.calls": 30888,
        "embed.all_trees_of_order.calls": 5148,
        "spectral.spectral_radius.calls": 12374,
    },
    "lemmas_n8": {"embed.all_trees_of_order.calls": 0},
    "perturb_k3": {
        "embed.contains_tree.calls": 9588,
        "embed.all_trees_of_order.calls": 204,
    },
}


def relabeled_key(checks, key):
    """graph6 of the same graph with its vertex order reversed."""
    n, a = checks.g6_decode(key)
    edges = [(n - 1 - i, n - 1 - j) for i in range(n) for j in range(i + 1, n) if a[i, j]]
    return checks.g6_encode(n, edges)


def test_check_rejects_tampering(failures):
    spectree = run.load_spectree()
    import checks

    wl = run.WORKLOADS["exhaustive_n8"]
    spec, _ = run.set_up(wl, spectree, 1)
    report, _ = run.timed_campaign(spectree, spec)
    oracle = checks.MuOracle()
    clean = checks.check_report(wl, report, oracle)
    if clean:
        failures.append(f"untampered report rejected: {clean[:3]}")

    theta = oracle.threshold(wl.campaign, 8, wl.k)
    far = [
        i
        for i, v in enumerate(report.verdicts)
        if v["classification"] == "qualifying" and v["mu"] - theta > 0.1
    ]
    i = next(i for i in far if relabeled_key(checks, report.verdicts[i]["key"]) != report.verdicts[i]["key"])

    key_swap = copy.deepcopy(report)
    key_swap.verdicts[i]["key"] = relabeled_key(checks, report.verdicts[i]["key"])

    flipped = copy.deepcopy(report)
    v = flipped.verdicts[far[0]]
    v.update(classification="non_qualifying", conclusion_holds=None, missing=[], violation=False)
    flipped.totals["hypothesis_satisfying"] -= 1

    wrong_mu = copy.deepcopy(report)
    wrong_mu.verdicts[far[0]]["mu"] += 1e-3

    for label, tampered, expect in (
        ("changed key", key_swap, "pinned"),
        ("flipped classification", flipped, "classified non_qualifying"),
        ("wrong mu", wrong_mu, "oracle"),
    ):
        problems = checks.check_report(wl, tampered, oracle)
        if not any(expect in p for p in problems):
            failures.append(f"{label}: not rejected for the right reason ({problems[:3]})")
        else:
            print(f"ok  check rejects a report with a {label}")


def traced_counts(name):
    cmd = [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "0.001", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{name}: traced run failed its check:\n{out.stdout}")
    # Counts, and ratios of counts, are exact; times are not.
    return {
        k: m["value"]
        for k, m in result["metrics"].items()
        if m["unit"] == "count" or (m["unit"] == "ratio" and k != "trace.overhead_ratio")
    }


def test_traced_counts_repeat(failures):
    for name in run.WORKLOADS:
        before = len(failures)
        first, second = traced_counts(name), traced_counts(name)
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second.get(k)}
            failures.append(f"{name}: traced counts differ between runs: {diff}")
        for metric, want in PINNED_SEED1[name].items():
            if first.get(metric) != want:
                failures.append(f"{name}: {metric} = {first.get(metric)}, pinned {want}")
        if len(failures) == before:
            print(f"ok  {name}: {len(first)} traced counts repeat and match the pinned ones")


def main():
    failures = []
    test_check_rejects_tampering(failures)
    test_traced_counts_repeat(failures)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
