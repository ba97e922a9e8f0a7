import io
import json
import os
import subprocess
import sys

import pytest

from spectree import cli
from spectree.cli import main, parse_family
from spectree.errors import Graph6Error, ParameterError
from spectree.graphs import (
    Broom,
    CompleteSplit,
    Path,
    Spider,
    build_family,
    canonical_key,
    decode_graph6,
    encode_graph6,
)
from spectree.harness import CAMPAIGNS, Source


class TestParseFamily:
    def test_tokens(self):
        assert parse_family("S", n=10, k=2) == CompleteSplit(10, 2)
        assert parse_family("path:6") == Path(6)
        assert parse_family("spider:1,1,3") == Spider(1, 1, 3)
        assert parse_family("broom:2,5") == Broom(2, 5)

    def test_unknown(self):
        with pytest.raises(ParameterError):
            parse_family("mobius")

    def test_no_family_token_is_graph6(self):
        # a host argument is read as graph6 first, then as a family token
        names = [*cli._SPLIT_FAMILIES, *cli._PARAM_FAMILIES, "spider"]
        for token in names + [name.upper() for name in names]:
            with pytest.raises(Graph6Error):
                decode_graph6(token)


class TestExitCodes:
    def test_family_ok(self, capsys):
        assert main(["family", "S", "--n", "8", "--k", "2"]) == 0
        out = capsys.readouterr().out.strip()
        g = decode_graph6(out)
        assert (g.n, g.e) == (8, 13)

    def test_usage_error_bad_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_usage_error_bad_family(self, capsys):
        assert main(["family", "mobius", "--n", "5"]) == 2

    def test_usage_error_bad_params(self, capsys):
        assert main(["family", "S", "--n", "5", "--k", "5"]) == 2

    def test_cap_error(self, capsys):
        assert main(["enumerate", "graphs", "--n", "9"]) == 3

    def test_budget_error(self, capsys):
        # a path host has no split certificate, so the search needs a
        # second budget unit
        g6 = encode_graph6(build_family(Path(8)))
        assert main(["contains", g6, "path:5", "--budget", "1"]) == 3

    def test_cap_error_pattern_too_long_for_the_search(self, capsys):
        assert main(["contains", "path:1200", "path:1100"]) == 3
        assert capsys.readouterr().err == (
            "error: tree search of 1100 positions passes the recursion limit\n"
        )

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_usage_error_budget_below_one(self, capsys, budget):
        assert main(["contains", "E?~o", "path:3", "--budget", budget]) == 2
        assert "budget must be >= 1" in capsys.readouterr().err

    def test_verify_range_below_threshold_family(self, capsys, tmp_path):
        # mu(S_{1,2}) does not exist: rejected before any graph is scanned
        out = tmp_path / "r.json"
        code = main(["verify", "theorem_spider", "--k", "2", "--n", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: theorem_spider ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "theorem_spider", "--k", "2", "--n", "1"], 2),
            (["verify", "conjecture_a", "--source", "random", "--count", "0"], 2),
            (["verify", "conjecture_a", "--n", "3", "--n-max", "2"], 2),
            (["verify", "no_such_campaign"], 2),
            (["enumerate", "trees", "--n", "13"], 3),
            (["report", "missing.json"], 2),
        ],
    )
    def test_rejected_command_writes_no_out_file(
        self, capsys, tmp_path, monkeypatch, argv, code
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "r.json"]) == code
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_verify_zero_on_clean_run(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["verify", "lemma_suite", "--k", "2", "--n", "5", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["totals"]["violations"] == 0

    @pytest.mark.parametrize("campaign", CAMPAIGNS)
    def test_verify_every_campaign(self, capsys, tmp_path, campaign):
        # from the smallest n for k = 2 to 6: mu(S_{n,2}) needs n >= 3,
        # mu(S+_{n,2}) needs n >= 4, and the two campaigns without a
        # threshold start at 1; most campaigns have violations by n = 6
        n = {"conjecture_b": 4, "lemma_suite": 1, "broom_turan": 1}.get(campaign, 3)
        out = tmp_path / "r.json"
        argv = ["verify", campaign, "--k", "2", "--n", str(n), "--n-max", "6"]
        code = main(argv + ["--out", str(out)])
        data = json.loads(out.read_text())
        assert code == (1 if data["violations"] else 0)
        assert data["spec"]["campaign"] == campaign
        assert (data["spec"]["k"], data["spec"]["n_min"], data["spec"]["n_max"]) == (2, n, 6)

    @pytest.mark.parametrize(
        "line, named",
        # a missing file, values of the wrong type, unknown keys (epsilon
        # was removed with the float threshold band)
        [
            (None, ""),
            ("k=two", "'k'"),
            ("n = 4.5", "'n'"),
            ("epslion=0.5", "'epslion'"),
            ("epsilon = 1e-6", "'epsilon'"),
        ],
    )
    def test_usage_error_bad_config(self, capsys, tmp_path, line, named):
        cfg = tmp_path / "c.cfg"
        if line is not None:
            cfg.write_text(f"campaign = lemma_suite\nn = 4\n{line}\n")
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and str(cfg) in err

    # every report field but the verdicts
    REPORT_FIELDS = (
        '"schema_version": 1, "spec": {}, "totals": {}, "violations": [], "boundary": [], '
        '"empirical_thresholds": {}, "timings": {}, "tool_version": "0"'
    )

    # a verdict row with one field left to fill in
    ROW = (
        '{"n": 5, "index": 0, "key": "D??", "classification": "below", '
        '"conclusion_holds": null, "violation": false, %s}'
    )

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "not json {",
            '{"schema_version": 1}',
            '{"verdicts": [{"n": 1}], ' + REPORT_FIELDS + "}",
            '{"verdicts": "abc", ' + REPORT_FIELDS + "}",
            '{"verdicts": [' + ROW % '"mu": 1.0, "missing": 5' + "], " + REPORT_FIELDS + "}",
            '{"verdicts": [' + ROW % '"mu": "abc", "missing": []' + "], " + REPORT_FIELDS + "}",
        ],
    )
    def test_usage_error_bad_report(self, capsys, tmp_path, content):
        # a missing file, non-JSON, JSON missing report fields, verdicts
        # that are not rows of the eight row fields, and rows holding a
        # value of the wrong type; nothing is written
        path = tmp_path / "r.json"
        out = tmp_path / "out.txt"
        if content is not None:
            path.write_text(content)
        for fmt in ("csv", "json"):
            assert main(["report", str(path), "--format", fmt, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("error:") and str(path) in captured.err

    @pytest.mark.parametrize(
        "argv, token",
        # a non-integer parameter, S without --n/--k (as a family and as a
        # host), and a broom with one parameter
        [
            (["family", "path:x"], "'path:x'"),
            (["family", "S"], "'S'"),
            (["contains", "S", "path:5", "--n", "6"], "'S'"),
            (["family", "broom:3"], "'broom:3'"),
        ],
    )
    def test_usage_error_bad_family_token(self, capsys, argv, token):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and token in err

    @pytest.mark.parametrize(
        "argv, offset",
        # neither graph6 nor a family name: the reader's error is shown
        [
            (["contains", "A`", "path:3"], 1),
            (["certify", "D?}", "--k", "2"], 2),
        ],
    )
    def test_usage_error_bad_graph6_host(self, capsys, argv, offset):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-zero padding bits")
        assert f"offset {offset}" in err

    def test_usage_error_bad_graph6_on_stdin(self, capsys, monkeypatch):
        # "-" is read as graph6 only, so the reader's error is the one shown
        monkeypatch.setattr("sys.stdin", io.StringIO("D?\n"))
        assert main(["contains", "-", "path:3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "need 10 adjacency bits" in err

    @pytest.mark.parametrize(
        "extra, named",
        # a removed option, and sampled sources with no draws or radius < 1
        [
            (["--epsilon", "1e-6"], "--epsilon"),
            (["--source", "random", "--count", "-3"], "count"),
            (["--source", "perturbation", "--count", "0"], "count"),
            (["--source", "perturbation", "--radius", "-1"], "radius"),
            (["--budget", "0"], "budget"),
        ],
    )
    def test_usage_error_bad_verify_option(self, capsys, tmp_path, extra, named):
        out = tmp_path / "r.json"
        code = main(["verify", "conjecture_a", "--n", "6", "--out", str(out)] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert named in err

    def test_usage_error_unwritable_out(self, capsys, tmp_path, monkeypatch):
        # the --out path is checked before the campaign runs
        ran = []
        monkeypatch.setattr(cli, "run_campaign", ran.append)
        out = tmp_path / "missing_dir" / "r.json"
        assert main(["verify", "lemma_suite", "--n", "4", "--out", str(out)]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "lemma_suite", "--k", "2", "--n", "4"],
            ["family", "S", "--n", "8", "--k", "2"],
        ],
    )
    def test_usage_error_failed_write(self, capsys, argv):
        # the work completes, then the write fails: exit 2, one error line
        assert main(argv + ["--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write /dev/full") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "S", "--n", "8", "--k", "2"],
            ["mu", "Bw"],
            ["contains", "S", "path:4", "--n", "8", "--k", "2"],
            ["certify", "S", "--n", "8", "--k", "2"],
            ["enumerate", "trees", "--n", "6"],
        ],
    )
    def test_usage_error_failed_stdout_write(self, argv):
        # a separate process, since the exit-time flush of standard output
        # must not fail again: exit 2 and one error line, no traceback
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "spectree.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write standard output")
        assert done.stderr.count("\n") == 1

    def test_verify_one_on_violations(self, capsys, tmp_path):
        # order 2k+2 = n: spanning-tree targets fail for dense disconnected
        # graphs, so the exhaustive n=6 scan reports violations
        out = tmp_path / "r.json"
        code = main(
            ["verify", "conjecture_a", "--k", "2", "--n", "6", "--out", str(out)]
        )
        assert code == 1
        data = json.loads(out.read_text())
        assert data["totals"]["violations"] > 0


class TestSubcommands:
    def test_mu(self, capsys):
        g6 = encode_graph6(build_family(CompleteSplit(5, 2)))
        assert main(["mu", g6]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mu 3.0000000000")
        assert "iterations" not in out

    def test_contains_positive(self, capsys):
        assert main(["contains", "S+", "--n", "10", "--k", "2", "broom:2,5"]) == 0
        assert capsys.readouterr().out.startswith("contained")

    def test_contains_negative(self, capsys):
        assert main(["contains", "S", "--n", "10", "--k", "2", "broom:2,5"]) == 0
        assert capsys.readouterr().out.strip() == "not-contained"

    def test_certify(self, capsys):
        assert main(["certify", "S", "--n", "8", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "proves_equality" in out and "4.0000000000" in out

    def test_enumerate_trees(self, capsys):
        assert main(["enumerate", "trees", "--n", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        # each tree is printed in its canonical labelling, in key order
        assert lines == sorted(lines)
        assert all(canonical_key(decode_graph6(line)) == line for line in lines)

    def test_enumerate_one_vertex_tree(self, capsys):
        assert main(["enumerate", "trees", "--n", "1"]) == 0
        assert capsys.readouterr().out == "@\n"
        assert main(["enumerate", "trees", "--n", "0"]) == 2

    def test_enumerate_connected(self, capsys):
        assert main(["enumerate", "graphs", "--n", "5", "--connected"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21

    def test_family_edge_format(self, capsys):
        assert main(["family", "path:4", "--format", "edges"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "4 3"

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("campaign = lemma_suite\nk = 2\nn = 4\n# comment\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 0

    def test_report_rerender(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "lemma_suite", "--k", "2", "--n", "4", "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,index,key,")
        assert len(lines) == 1 + 11

    def test_report_rewrites_its_own_file(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "lemma_suite", "--k", "2", "--n", "4", "--out", str(out)])
        before = out.read_text()
        assert main(["report", str(out), "--format", "json", "--out", str(out)]) == 0
        assert out.read_text() == before

    def test_report_rejects_other_schema_version(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "lemma_suite", "--k", "2", "--n", "4", "--out", str(out)])
        data = json.loads(out.read_text())
        data["schema_version"] = 99
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema_version 99" in captured.err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_report_rejects_schema_version_equal_to_one(self, capsys, tmp_path, version):
        # true and 1.0 compare equal to 1 but are not the integer 1
        out = tmp_path / "r.json"
        main(["verify", "lemma_suite", "--k", "2", "--n", "4", "--out", str(out)])
        data = json.loads(out.read_text())
        data["schema_version"] = version
        before = json.dumps(data)
        out.write_text(before)
        capsys.readouterr()
        assert main(["report", str(out), "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"schema_version {version!r}" in captured.err
        assert out.read_text() == before

    def test_config_values_override_flags(self, tmp_path):
        # the config's k and source win over the flags; n_max falls back to
        # the config's n when neither gives it
        cfg = tmp_path / "c.cfg"
        cfg.write_text("campaign = lemma_suite\nk = 3\nn = 5\nsource = random\nseed = 4\n")
        argv = ["verify", "conjecture_a", "--config", str(cfg), "--k", "2", "--n", "7"]
        spec = cli._campaign_spec_from_args(cli.build_parser().parse_args(argv + ["--count", "9"]))
        assert (spec.campaign, spec.k, spec.n_min, spec.n_max) == ("lemma_suite", 3, 5, 5)
        assert spec.source == Source("random", count=9, seed=4)
        spec = cli._campaign_spec_from_args(cli.build_parser().parse_args(argv + ["--n-max", "6"]))
        assert (spec.n_min, spec.n_max) == (5, 6)
