#!/usr/bin/env python3
"""Campaign benchmark for spectree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, one process each

Run from the repository root; the package is imported from ./src.  Each
workload is a closed loop with one caller in one process and no worker
threads: set up once, then run the workload's campaign back to back until
`--seconds` of campaign wall time have been measured (at least one call),
and check every report against independent oracles.  Times are reported in
reference seconds, adjusted for the shared host's speed (see hostspeed.py);
the wall times are printed beside them.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the set-up and one extra campaign run are
traced and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import os

# One caller, no worker threads: keep BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys

sys.dont_write_bytecode = True

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import spans
from hostspeed import Timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: str
    k: int
    n_min: int
    n_max: int
    source: str  # "exhaustive" (set-up enumerates n = 1..n_max) or "perturbation"
    expected_scanned: int

    def spec(self, spectree, seed):
        if self.source == "exhaustive":
            source = spectree.Source("exhaustive")
        else:
            source = spectree.Source(
                "perturbation",
                count=6,
                seed=seed,
                base=spectree.CompleteSplitPlus(self.n_min, self.k),
                radius=2,
            )
        return spectree.CampaignSpec(self.campaign, self.k, self.n_min, self.n_max, source)


# Why each workload is here is recorded in BENCHMARK.json and bench/NOTES.md.
# The exhaustive inputs are fixed by n; only perturb_k3 draws from the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exhaustive_n8", "conjecture_a", 2, 8, 8, "exhaustive", 12346),
        Workload("lemmas_n8", "lemma_suite", 2, 8, 8, "exhaustive", 12346),
        # 17 orders x (1 base graph + 6 draws x 5 (add, remove) pairs) = 527
        Workload("perturb_k3", "conjecture_b", 3, 24, 40, "perturbation", 527),
    )
}


def load_spectree():
    """Import the package from ./src."""
    sys.path.insert(0, str(SRC))
    return importlib.import_module("spectree")


def set_up(wl, spectree, seed):
    """Input generation and cold enumeration.  Returns (spec, graphs by n)."""
    spec = wl.spec(spectree, seed)
    if wl.source != "exhaustive":
        return spec, []
    return spec, [spectree.all_graphs(n) for n in range(1, wl.n_max + 1)]


def timed_campaign(spectree, spec, sample=True):
    gc.collect()
    with Timed(sample) as timer:
        report = spectree.run_campaign(spec)
    return report, timer


class Repetitions:
    """Attempted and failed campaign calls with their times and problems."""

    def __init__(self, check, sample):
        self.check = check
        self.sample = sample
        self.wall_s = []
        self.ref_s = []
        self.spent = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_once(self, spectree, spec, tracer=None):
        """One checked campaign call.  Returns its timer, or None if it raised."""
        self.attempted += 1
        t0 = clock()
        try:
            with tracer.installed() if tracer else nullcontext():
                report, timer = timed_campaign(spectree, spec, self.sample)
        except Exception as exc:  # any raise is a failed call
            self.spent += clock() - t0
            self.failed += 1
            self.problems.append(f"run_campaign raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.spent += timer.wall_s
        problems = self.check(report)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:10])
        return timer

    def run_for(self, spectree, spec, seconds):
        while self.attempted == 0 or self.spent < seconds:
            timer = self.run_once(spectree, spec)
            if timer:
                self.wall_s.append(timer.wall_s)
                self.ref_s.append(timer.ref_s)

    def median(self, times):
        return statistics.median(times) if times else self.spent


def run_workload(wl, seed, seconds, trace):
    # Traced runs take no host-speed samples, so that probes stay out of spans.
    setup_tracer = spans.Tracer()
    with Timed(sample=not trace) as setup_timer:
        spectree = load_spectree()
        with setup_tracer.installed() if trace else nullcontext():
            spec, enumerated = set_up(wl, spectree, seed)
    import checks  # after spectree, so that numpy's import counts in set-up

    oracle = checks.MuOracle()
    problems = []
    if enumerated:
        problems += checks.check_enumeration([len(g) for g in enumerated], enumerated[-1])
    reps = Repetitions(lambda report: checks.check_report(wl, report, oracle), not trace)
    reps.run_for(spectree, spec, seconds)
    campaign_s = reps.median(reps.ref_s)
    if trace:
        tracer = spans.Tracer()
        traced = reps.run_once(spectree, spec, tracer)
    error_rate = reps.failed / reps.attempted

    lines = [f"workload {wl.name}  seed {seed}  trace {int(trace)}"]
    lines.append(f"setup_s      {setup_timer.ref_s:12.4f} s      (wall {setup_timer.wall_s:.4f} s)")
    lines.append(
        f"campaign_s   {campaign_s:12.4f} s      (median of {len(reps.ref_s)}; "
        f"wall {reps.median(reps.wall_s):.4f} s)"
    )
    if trace:
        metrics = spans.per_layer_metrics(
            setup_tracer,
            tracer,
            sum(len(g) for g in enumerated),
            campaign_s,
            traced.wall_s if traced else 0.0,
            checks.graph_key,
        )
        missing = sorted(set(setup_tracer.missing + tracer.missing))
        if missing:
            lines.append("sites not found (reported as 0 calls): " + ", ".join(missing))
    else:
        metrics = {
            "setup_s": {"value": setup_timer.ref_s, "unit": "s"},
            "campaign_s": {"value": campaign_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "success_rate": {"value": 1 - error_rate, "unit": "ratio"},
        }
        lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:12.1f} MB")
    lines.append(
        f"error_rate   {error_rate:12.4f} ratio  "
        f"({reps.failed} failed of {reps.attempted} attempted)"
    )
    if trace:
        lines += [f"{name:40s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    problems += reps.problems
    lines += [f"CHECK FAILED: {p}" for p in problems]
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spectree" / "__init__.py").is_file():
        print(f"error: no spectree package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
