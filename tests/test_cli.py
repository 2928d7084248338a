import json

import pytest

from ordrank import cli


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "space_w": write(tmp_path, "space_w.json", {"type": "ordinal_space", "gamma": "w"}),
        "space_w2": write(
            tmp_path, "space_w2.json", {"type": "ordinal_space", "gamma": "w^2"}
        ),
        "space_big": write(
            tmp_path, "space_big.json", {"type": "ordinal_space", "gamma": "w^5"}
        ),
        "golden": write(
            tmp_path,
            "golden.json",
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]},
        ),
        "full": write(
            tmp_path,
            "full.json",
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": []},
        ),
        "forbid01": write(
            tmp_path,
            "forbid01.json",
            {"type": "sft", "alphabet": ["0", "1"], "forbidden": ["01"]},
        ),
        "relation": write(
            tmp_path,
            "relation.json",
            {
                "type": "finite_relation",
                "points": ["a", "b", "c"],
                "pairs": [["a", "b"]],
            },
        ),
        "equivalence": write(
            tmp_path,
            "equivalence.json",
            {
                "type": "finite_relation",
                "points": ["a", "b"],
                "pairs": [["a", "a"], ["b", "b"]],
            },
        ),
        "code_ok": write(
            tmp_path,
            "code_ok.json",
            {"type": "order_code", "elements": [0, 3, 5], "order": [0, 3, 5]},
        ),
        "code_bad": write(
            tmp_path,
            "code_bad.json",
            {"type": "order_code", "elements": [0, 1], "order": [1, 0]},
        ),
        "cert_good": write(
            tmp_path,
            "cert_good.json",
            {
                "type": "certificate",
                "mode": "R",
                "order": {"elements": [0, 1], "order": [0, 1]},
                "target": {
                    "instance": {"type": "ordinal_space", "gamma": "w^2"},
                    "operator": "succ_expansion",
                    "start": "1",
                },
                "assignment": {"0": "1", "1": "w"},
            },
        ),
        "cert_bad": write(
            tmp_path,
            "cert_bad.json",
            {
                "type": "certificate",
                "mode": "R",
                "order": {"elements": [0, 1], "order": [0, 1]},
                "target": {
                    "instance": {"type": "ordinal_space", "gamma": "w^2"},
                    "operator": "succ_expansion",
                    "start": "1",
                },
                "assignment": {"0": "1", "1": "1"},
            },
        ),
        "bad_schema": write(
            tmp_path, "bad_schema.json", {"type": "sft", "alphabet": ["0"], "oops": 1}
        ),
        "bad_type": write(tmp_path, "bad_type.json", {"type": "martian"}),
    }


def run(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_success_is_zero(self, capsys, files):
        code, out = run(capsys, ["rank", files["space_w"]])
        assert code == 0
        assert json.loads(out)["rank"] == "2"

    def test_rejection_is_one(self, capsys, files):
        code, out = run(capsys, ["cert", "verify", files["cert_bad"]])
        assert code == 1
        assert json.loads(out)["accepted"] is False

    def test_budget_exhaustion_is_two(self, capsys, files):
        code, out = run(capsys, ["rank", files["space_big"], "--budget", "2"])
        assert code == 2
        report = json.loads(out)
        assert report["rank_is_lower_bound"] is True
        assert report["rank"] == "2"

    def test_input_error_is_three(self, capsys, files):
        code, out = run(capsys, ["rank", files["bad_type"]])
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "input"

    def test_not_cpe_is_one(self, capsys, files):
        code, out = run(capsys, ["subshift", "cpe-report", files["forbid01"]])
        assert code == 1
        assert json.loads(out)["verdict"] == "certified not CPE at evidence"

    def test_indeterminate_cpe_is_two(self, capsys, files):
        code, out = run(
            capsys, ["subshift", "cpe-report", files["golden"], "--budget", "1"]
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "indeterminate"


class TestRank:
    def test_closed_form_default_and_verified(self, capsys, files):
        code, out = run(capsys, ["rank", files["space_w2"]])
        report = json.loads(out)
        assert (code, report["mode"]) == (0, "closed-form")
        assert report["rank"] == "3"
        assert report["verified"] is True
        assert report["stable_part_is_bottom"] is True

    def test_step_mode_exact(self, capsys, files):
        code, out = run(capsys, ["rank", files["space_w2"], "--budget", "10"])
        report = json.loads(out)
        assert code == 0
        assert report["mode"] == "step"
        assert report["rank"] == "3"

    def test_relation_rank(self, capsys, files):
        code, out = run(capsys, ["rank", files["relation"]])
        report = json.loads(out)
        assert code == 0
        assert report["rank"] == "1"
        code, out = run(capsys, ["rank", files["equivalence"]])
        assert json.loads(out)["rank"] == "0"

    def test_relation_closed_form_is_input_error(self, capsys, files):
        code, out = run(capsys, ["rank", files["relation"], "--closed-form"])
        assert code == 3

    def test_trace_csv(self, capsys, files, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run(
            capsys, ["rank", files["space_w"], "--budget", "10", "--trace", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "stage_index,size_metric,is_fixpoint"
        assert len(lines) == 5  # stages 0..3 recorded
        closed = tmp_path / "closed.csv"
        code, _ = run(capsys, ["rank", files["space_w"], "--trace", str(closed)])
        assert code == 0
        rows = closed.read_text().strip().splitlines()
        assert rows[0] == "stage_index,size_metric,is_fixpoint"
        assert any(row.endswith("true") for row in rows[1:])


class TestGamma:
    def test_stage_listing(self, capsys, files):
        code, out = run(capsys, ["gamma", files["relation"]])
        report = json.loads(out)
        assert code == 0
        assert report["rank"] == "1"
        assert report["stages"][0]["pairs"] == 1
        assert report["stages"][-1]["is_fixpoint"] is True
        assert report["reaches_all_pairs"] is False


class TestSubshiftCommands:
    def test_words(self, capsys, files):
        code, out = run(capsys, ["subshift", "words", files["golden"], "--n", "5"])
        assert code == 0
        assert json.loads(out)["count"] == 13

    def test_entropy(self, capsys, files):
        import math

        code, out = run(capsys, ["subshift", "entropy", files["full"]])
        report = json.loads(out)
        assert code == 0
        assert report["estimate"] == pytest.approx(math.log(2))
        assert report["spectral"] == pytest.approx(math.log(2), abs=1e-9)

    def test_ie_listing(self, capsys, files):
        code, out = run(
            capsys,
            ["subshift", "ie", files["forbid01"], "--n", "1", "--horizon", "8"],
        )
        report = json.loads(out)
        assert code == 0
        assert ["0", "1"] not in report["upper"]
        assert ["0", "0"] in report["lower"]
        diagonal = [c for c in report["certified"] if c["diagonal"]]
        assert {c["pair"][0] for c in diagonal} == {"0", "1"}

    def test_cpe_consistent(self, capsys, files):
        code, out = run(
            capsys,
            [
                "subshift", "cpe-report", files["golden"],
                "--n", "2", "--horizon", "8", "--density", "0.5",
            ],
        )
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "CPE-consistent at evidence"
        assert all(l["stabilization_stage"] == "1" for l in report["levels"])
        assert report["params"] == {
            "budget": 16, "density": "1/2", "horizon": 8, "n_max": 2,
        }

    def test_node_budget_leaves_unknown_pairs_in_upper_only(self, capsys, files):
        code, out = run(
            capsys, ["subshift", "ie", files["golden"], "--node-budget", "1"]
        )
        report = json.loads(out)
        assert code == 2
        assert report["node_budget"] == 1
        assert report["unknown"]
        for pair in report["unknown"]:
            assert pair in report["upper"]
            assert pair not in report["lower"]
        code, out = run(
            capsys, ["subshift", "cpe-report", files["golden"], "--node-budget", "1"]
        )
        assert code == 2
        report = json.loads(out)
        assert report["verdict"] == "indeterminate"
        assert report["params"]["node_budget"] == 1
        code, out = run(
            capsys, ["subshift", "ie", files["golden"], "--node-budget", "-1"]
        )
        assert code == 3
        assert json.loads(out)["error"]["path"] == "--node-budget"

    def test_ample_node_budget_matches_unlimited(self, capsys, files):
        argv = ["subshift", "ie", files["golden"]]
        _, unlimited = run(capsys, argv)
        code, out = run(capsys, argv + ["--node-budget", "1000"])
        assert code == 0
        assert "node_budget" not in json.loads(unlimited)
        report = json.loads(out)
        assert report.pop("node_budget") == 1000
        assert report.pop("unknown") == []
        assert report == json.loads(unlimited)


class TestCertCommands:
    def test_verify_good(self, capsys, files):
        code, out = run(capsys, ["cert", "verify", files["cert_good"]])
        report = json.loads(out)
        assert code == 0
        assert report["accepted"] is True
        assert report["order_type"] == "2"

    def test_order_code_files(self, capsys, files):
        code, out = run(capsys, ["cert", "verify", files["code_ok"]])
        report = json.loads(out)
        assert (code, report["valid"], report["order_type"]) == (0, True, "3")
        code, out = run(capsys, ["cert", "verify", files["code_bad"]])
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_make_then_verify_round_trip(self, capsys, files, tmp_path):
        code, out = run(
            capsys, ["cert", "make", files["space_w2"], "-k", "2", "--start", "1"]
        )
        assert code == 0
        document = json.loads(out)
        path = tmp_path / "made.json"
        path.write_text(json.dumps(document))
        code, out = run(capsys, ["cert", "verify", str(path)])
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_make_mode_s(self, capsys, files, tmp_path):
        code, out = run(
            capsys,
            ["cert", "make", files["space_w2"], "-k", "2", "--mode", "S"],
        )
        document = json.loads(out)
        path = tmp_path / "made_s.json"
        path.write_text(json.dumps(document))
        code, out = run(capsys, ["cert", "verify", str(path)])
        assert code == 0

    def test_make_refusal(self, capsys, files):
        code, out = run(capsys, ["cert", "make", files["space_w2"], "-k", "5"])
        assert code == 1
        assert json.loads(out)["refused"] is True


class TestEmission:
    def test_byte_identical_reports(self, capsys, files):
        argvs = [
            ["rank", files["space_w2"]],
            ["subshift", "cpe-report", files["golden"]],
            ["subshift", "ie", files["full"]],
            ["gamma", files["relation"]],
            ["ordinal", "eval", "w^2+w+w"],
        ]
        for argv in argvs:
            _, first = run(capsys, argv)
            _, second = run(capsys, argv)
            assert first == second

    def test_report_round_trip(self, capsys, files):
        _, out = run(capsys, ["subshift", "cpe-report", files["golden"]])
        report = json.loads(out)
        assert json.loads(cli.emit_report(report)) == report

    def test_text_format(self, capsys, files):
        code, out = run(capsys, ["--format", "text", "rank", files["space_w"]])
        assert code == 0
        assert "rank: 2" in out
        assert "{" not in out

    def test_schema_error_names_path(self, capsys, files):
        code, out = run(capsys, ["subshift", "words", files["bad_schema"], "--n", "1"])
        assert code == 3
        assert json.loads(out)["error"]["path"] == "/oops"

    def test_sft_schema_error_names_path_once(self, capsys, tmp_path):
        path = write(
            tmp_path, "empty_word.json", {"type": "sft", "alphabet": ["0"], "forbidden": [""]}
        )
        code, out = run(capsys, ["subshift", "words", path, "--n", "1"])
        assert code == 3
        error = json.loads(out)["error"]
        assert error["path"] == "/forbidden/0"
        assert error["message"] == (
            "/forbidden/0: forbidden words must be non-empty strings"
        )

    def test_negative_samples_is_input_error(self, capsys, files):
        code, out = run(capsys, ["rank", files["space_w"], "--samples", "-1"])
        assert code == 3
        error = json.loads(out)["error"]
        assert (error["kind"], error["path"]) == ("input", "--samples")

    def test_unknown_field_in_relation(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "rel_bad.json",
            {"type": "finite_relation", "points": ["a"], "pairs": [["a", "zzz"]]},
        )
        code, out = run(capsys, ["gamma", path])
        assert code == 3
        assert json.loads(out)["error"]["path"] == "/pairs/0"

    def test_ordinal_eval_syntax_error(self, capsys):
        code, out = run(capsys, ["ordinal", "eval", "w^"])
        assert code == 3
        assert "position" in json.loads(out)["error"]["message"]

    def test_unwritable_trace_is_input_error(self, capsys, files, tmp_path):
        trace = tmp_path / "missing" / "x.csv"
        for argv in (
            ["rank", files["space_w"], "--trace", str(trace)],
            ["rank", files["space_w"], "--budget", "4", "--trace", str(trace)],
            ["gamma", files["relation"], "--trace", str(trace)],
        ):
            code, out = run(capsys, argv)
            assert code == 3
            error = json.loads(out)["error"]
            assert (error["kind"], error["path"]) == ("input", "--trace")

    def test_zero_denominator_density_is_input_error(self, capsys, files):
        for command in ("ie", "cpe-report"):
            argv = ["subshift", command, files["golden"], "--density", "1/0"]
            code, out = run(capsys, argv)
            assert code == 3
            error = json.loads(out)["error"]
            assert error["kind"] == "input"
            assert "zero denominator" in error["message"]

    def test_non_finite_tolerance_is_input_error(self, capsys, files):
        for tol in ("inf", "nan", "-inf", "0"):
            argv = ["subshift", "entropy", files["golden"], f"--tol={tol}"]
            code, out = run(capsys, argv)
            assert code == 3
            assert json.loads(out)["error"]["message"].startswith("tol must be")

    def test_deep_exponent_tower_is_input_error(self, capsys):
        code, out = run(capsys, ["ordinal", "eval", "^".join(["w"] * 3000)])
        assert code == 3
        assert "exponent tower" in json.loads(out)["error"]["message"]

    def test_usage_errors_are_json_input_errors(self, capsys, files):
        for argv, message in (
            (["subshift", "words", files["golden"]], "required: --n"),
            (["subshift", "ie", files["golden"], "--density", "-1/2"], "--density"),
            (["subshift", "words", files["golden"], "--n", "x"], "invalid int"),
            (["rank", files["space_w"], "--no-such-flag"], "unrecognized"),
            (["martian"], "invalid choice"),
            ([], "required: command"),
        ):
            code, out = run(capsys, argv)
            assert code == 3
            error = json.loads(out)["error"]
            assert error["kind"] == "input"
            assert message in error["message"]

    def test_help_is_left_alone(self, capsys):
        code, out = run(capsys, ["--help"])
        assert code == 0
        assert out.startswith("usage: ordrank")

    def test_parser_is_built_once(self, capsys, files):
        parser = cli._build_parser()
        run(capsys, ["subshift", "words", files["golden"], "--n", "3"])
        run(capsys, ["subshift", "words", files["golden"]])
        assert cli._build_parser() is parser
        code, out = run(capsys, ["subshift", "words", files["golden"], "--n", "5"])
        assert (code, json.loads(out)["count"]) == (0, 13)
