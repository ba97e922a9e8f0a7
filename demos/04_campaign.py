"""Exhaustive desk-scale campaign for the order-(2k+2) tree conjecture.

Scans every isomorphism class on n vertices, classifies each graph against
the spectral threshold mu(S_{n,k}) with a boundary policy (exceptional-graph
check, boundary bucket), and checks qualifying
graphs for all trees of order 2k+2.  The report is deterministic.

Run:  python3 demos/04_campaign.py
"""

from spectree import CampaignSpec, Source, run_campaign, write_report
from spectree.harness import report_to_json

spec = CampaignSpec(
    campaign="conjecture_a", k=2, n_min=7, n_max=7, source=Source("exhaustive")
)
report = run_campaign(spec)

print("totals:", report.totals)
print("per-n violations:", report.empirical_thresholds["per_n_violations"])

excluded = [v for v in report.verdicts if v["classification"] == "excluded_exceptional"]
print("exceptional equality graphs:", [v["key"] for v in excluded])

boundary = [v["key"] for v in report.boundary]
print(f"boundary cases ({len(boundary)}):", boundary[:5], "..." if len(boundary) > 5 else "")

write_report(report, "json", "/tmp/conjecture_a_n7.json")
print("report written to /tmp/conjecture_a_n7.json",
      f"({len(report_to_json(report))} bytes, schema v{report.schema_version})")
