import dataclasses
import json

import pytest

from spectree.errors import ParameterError
from spectree.graphs import (
    CompleteSplit,
    CompleteSplitPlus,
    build_family,
    canonical_key,
    decode_graph6,
)
from spectree.enumeration import all_graphs
from spectree.spectral import mu_S_closed
from spectree.harness import (
    CAMPAIGNS,
    CampaignSpec,
    Source,
    VerificationReport,
    report_to_csv,
    report_to_json,
    run_campaign,
    write_report,
)


def small_spec(**kw):
    args = dict(campaign="conjecture_a", k=2, n_min=6, n_max=6, source=Source("exhaustive"))
    args.update(kw)
    return CampaignSpec(**args)


class TestSpecValidation:
    def test_unknown_campaign(self):
        with pytest.raises(ParameterError):
            small_spec(campaign="nope").validate()

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            small_spec(k=1).validate()

    def test_bad_range(self):
        with pytest.raises(ParameterError):
            small_spec(n_min=8, n_max=6).validate()

    def test_bad_epsilon(self):
        with pytest.raises(ParameterError):
            small_spec(epsilon=0.0).validate()


class TestMuCampaign:
    def test_exhaustive_n6(self):
        # order 6 = 2k+2: target trees are spanning, so disconnected dense
        # graphs (e.g. K_5 + K_1) are genuine desk-scale violations; the
        # invariants are internal consistency, not a zero count
        report = run_campaign(small_spec())
        assert report.totals["graphs_scanned"] == 156
        thr = mu_S_closed(6, 2)
        for v in report.verdicts:
            if v["classification"] == "qualifying":
                assert v["mu"] >= thr + 1e-9
                assert v["conclusion_holds"] == (not v["missing"])
                assert v["violation"] == bool(v["missing"])
        assert report.totals["violations"] == len(report.violations)
        assert all(v["missing"] for v in report.violations)

    def test_violations_carry_witness_keys(self):
        # e.g. the octahedron qualifies but has max degree 4, so the 5-star
        # is genuinely missing; violations must name their graphs stably
        report = run_campaign(small_spec())
        for v in report.violations:
            assert v["key"] and v["classification"] == "qualifying"

    def test_extremal_graph_excluded(self):
        report = run_campaign(small_spec())
        excluded = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        assert len(excluded) == 1
        assert excluded[0]["key"] == canonical_key(build_family(CompleteSplit(6, 2)))

    def test_conjecture_b_excludes_augmented_extremal(self):
        spec = small_spec(campaign="conjecture_b")
        report = run_campaign(spec)
        excluded = [
            v for v in report.verdicts if v["classification"] == "excluded_exceptional"
        ]
        keys = {v["key"] for v in excluded}
        assert canonical_key(build_family(CompleteSplitPlus(6, 2))) in keys

    def test_random_source_deterministic(self):
        # 30 draws on 4 vertices (11 classes) repeat keys; verdicts come in
        # (n, key, index) order and two runs agree byte for byte outside
        # the timings
        spec = small_spec(n_min=4, n_max=5, source=Source("random", count=30, seed=9))
        a = run_campaign(spec)
        b = run_campaign(spec)
        order = [(v["n"], v["key"], v["index"]) for v in a.verdicts]
        assert len({(n, key) for n, key, _ in order}) < len(order)
        assert order == sorted(order)
        assert a.verdicts == b.verdicts
        assert a.totals == b.totals
        strip = lambda r: report_to_json(dataclasses.replace(r, timings={}))
        assert strip(a) == strip(b)

    def test_perturbation_source(self):
        spec = small_spec(
            n_min=10,
            n_max=10,
            source=Source("perturbation", count=5, seed=4, base=CompleteSplit(10, 2), radius=1),
        )
        report = run_campaign(spec)
        # the unperturbed base is index 0 and sits exactly on its threshold
        base = next(v for v in report.verdicts if v["index"] == 0)
        assert base["classification"] == "excluded_exceptional"
        assert report.totals["graphs_scanned"] == 11

    def test_theorem_path_campaign(self):
        report = run_campaign(small_spec(campaign="theorem_path", n_min=7, n_max=7))
        assert report.totals["hypothesis_satisfying"] > 0
        # every violation names the missing path pattern
        assert all(v["missing"] == ["path"] for v in report.violations)


class TestOtherCampaigns:
    def test_lemma_suite_clean_n5(self):
        report = run_campaign(small_spec(campaign="lemma_suite", n_min=5, n_max=5))
        assert report.totals["graphs_scanned"] == 34
        assert report.totals["violations"] == 0

    def test_broom_turan_small(self):
        report = run_campaign(small_spec(campaign="broom_turan", n_min=7, n_max=7))
        # the threshold is asymptotic; per-n counts are still reported
        assert "per_n_violations" in report.empirical_thresholds
        for v in report.verdicts:
            if v["classification"] == "qualifying" and not v["violation"]:
                assert v["conclusion_holds"] is True

    def test_genbroom_explore_is_advisory(self):
        report = run_campaign(small_spec(campaign="genbroom_explore", n_min=7, n_max=7))
        assert report.totals["violations"] == 0  # advisory: never hard-fails

    def test_campaign_registry(self):
        assert "conjecture_a" in CAMPAIGNS and "lemma_suite" in CAMPAIGNS


class TestExhaustiveKeys:
    # exhaustive graphs carry the canonical graph6 key they were decoded
    # from; the report keys must be exactly what canonicalising would give
    @pytest.mark.parametrize(
        "campaign, n_min",
        # mu(S_{n,2}) needs n >= 3
        [("conjecture_a", 3), ("lemma_suite", 1), ("broom_turan", 1)],
    )
    def test_keys_are_canonical(self, campaign, n_min):
        report = run_campaign(small_spec(campaign=campaign, n_min=n_min, n_max=7))
        for v in report.verdicts:
            assert v["key"] == canonical_key(decode_graph6(v["key"]))
        for n in range(n_min, 8):
            keys = [v["key"] for v in report.verdicts if v["n"] == n]
            assert keys == [canonical_key(g) for g in all_graphs(n)], n


class TestReports:
    def test_json_roundtrip(self):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        data = json.loads(report_to_json(report))
        again = VerificationReport(**data)
        assert report_to_json(again) == report_to_json(report)
        assert data["schema_version"] == 1
        assert set(data) == {
            "schema_version",
            "spec",
            "totals",
            "verdicts",
            "violations",
            "boundary",
            "empirical_thresholds",
            "timings",
            "tool_version",
        }

    def test_csv_shape(self):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        lines = report_to_csv(report).splitlines()
        assert lines[0].startswith("n,index,key,mu,")
        assert len(lines) == 1 + len(report.verdicts)

    def test_write_deterministic(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_report(report, "json", p1)
        write_report(report, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_bad_format(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        with pytest.raises(ParameterError):
            write_report(report, "xml", tmp_path / "r.xml")

    def test_write_bad_path(self, tmp_path):
        report = run_campaign(small_spec(n_min=5, n_max=5))
        with pytest.raises(OSError):
            write_report(report, "json", tmp_path / "no" / "dir" / "r.json")
