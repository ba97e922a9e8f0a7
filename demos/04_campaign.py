"""Exhaustive desk-scale campaign for the order-(2k+2) tree conjecture.

Scans every isomorphism class on n vertices, compares each spectral radius
with the threshold mu(S_{n,k}) (a float comparison where the two are
clearly apart, an exact polynomial test where they are not), excludes
S_{n,k} itself, and checks the graphs with mu >= mu(S_{n,k}) for all trees
of order 2k+2.  The report is deterministic.

Run:  python3 demos/04_campaign.py
"""

import os
import tempfile

from spectree import CampaignSpec, Source, mu_S_closed, run_campaign, write_report
from spectree.harness import report_to_json

N, K = 8, 2
spec = CampaignSpec(
    campaign="conjecture_a", k=K, n_min=N, n_max=N, source=Source("exhaustive")
)
report = run_campaign(spec)

print("totals:", report.totals)
print("per-n violations:", report.empirical_thresholds["per_n_violations"])

excluded = [v for v in report.verdicts if v["classification"] == "excluded_exceptional"]
print("exceptional graph S_{n,k}:", [v["key"] for v in excluded])

# qualifying graphs this close to the threshold were decided exactly: their
# mu equals mu(S_{n,k}) (= 4 for n = 8, k = 2)
theta = mu_S_closed(N, K)
equal = [
    v
    for v in report.verdicts
    if v["classification"] == "qualifying" and abs(v["mu"] - theta) < 1e-9
]
missing = {v["key"]: v["missing"] for v in equal if v["violation"]}
print(f"graphs other than S_{{n,k}} with mu = mu(S_{{n,k}}) = {theta:g}: {len(equal)},",
      f"{len(missing)} of them miss a tree of order {2 * K + 2}; the first three,",
      "with the canonical graph6 keys of the trees they miss:")
for key in list(missing)[:3]:
    print(f"  {key}: {list(missing[key])}")
print("violations:", report.totals["violations"])

path = os.path.join(tempfile.gettempdir(), f"conjecture_a_n{N}.json")
write_report(report, "json", path)
print(f"report written to {path}",
      f"({len(report_to_json(report))} bytes, schema v{report.schema_version})")
