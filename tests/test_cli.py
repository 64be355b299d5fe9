"""CLI harness: exit codes, determinism, and artifact shapes."""

import csv
import json

import pytest

from discweights.cli import (
    EXIT_CERT_VIOLATION,
    EXIT_OK,
    EXIT_PRECONDITION,
    PreconditionError,
    main,
    run,
    write_artifacts,
)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestRunApi:
    def test_selftest_passes(self):
        report = run("selftest")
        assert report.ok
        assert len(report.certificates) == 10
        assert report.command == "selftest"
        assert report.version

    def test_unknown_command(self):
        with pytest.raises(PreconditionError, match="unknown command"):
            run("renormalize")

    def test_config_must_be_object(self):
        with pytest.raises(PreconditionError, match="JSON object"):
            run("selftest", config=[1, 2])

    def test_unknown_config_key_named(self):
        with pytest.raises(PreconditionError, match="unknown config keys.*typo"):
            run("selftest", config={"typo": 1})

    def test_randomized_command_requires_seed(self):
        with pytest.raises(PreconditionError, match="seed"):
            run("constants", config={"count": 2, "depth": 5})

    def test_constants_duality(self):
        report = run("constants", config={"count": 3, "depth": 6, "seed": 1})
        assert report.ok
        assert report.results["max_duality_gap"] <= 1e-10
        assert report.results["unit_weight_gap"] == 0.0

    def test_config_echoed(self):
        cfg = {"count": 2, "depth": 5, "seed": 9}
        payload = run("constants", config=cfg).report_payload()
        assert payload["config"] == cfg

    def test_module_errors_are_value_errors(self):
        # surfaced with context so main() can map them to exit 3
        with pytest.raises(ValueError, match="increase"):
            run("counterexample", config={"thresholds": [3.0, 2.0, 4.0, 5.0]})


class TestExitCodes:
    def test_selftest_ok(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == EXIT_OK
        assert "selftest: ok" in capsys.readouterr().out

    def test_certificate_violation(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gamma_min": 5.0}')
        code = main(["azuma", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CERT_VIOLATION
        out = capsys.readouterr().out
        assert "certificate violation" in out and "fitted_gamma" in out
        # the report is still written, with the failure recorded
        report = read_report(tmp_path / "o")
        assert not report["ok"]

    def test_bad_command(self, tmp_path, capsys):
        assert main(["nonsense", "--out", str(tmp_path)]) == EXIT_PRECONDITION
        assert "precondition failure" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["selftest", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert "not found" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["selftest", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert "malformed" in capsys.readouterr().err

    def test_config_must_be_object_cli(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code = main(["selftest", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION

    def test_seed_flag_satisfies_requirement(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": 2, "depth": 5}')
        code = main(["constants", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        assert read_report(tmp_path / "o")["config"]["seed"] == 7

    def test_depth_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": 2, "depth": 8, "seed": 1}')
        code = main(["constants", "--config", str(cfg), "--depth", "5",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_OK
        report = read_report(tmp_path / "o")
        assert report["config"]["depth"] == 5
        assert report["results"]["depth"] == 5

    def test_module_error_maps_to_precondition(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"thresholds": [3.0, 2.0, 4.0, 5.0]}')
        code = main(["counterexample", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_PRECONDITION
        assert "increase" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, key", [
        ("constants", '{"p_grid": [NaN], "seed": 1}', "p_grid"),
        ("factorize", '{"p": NaN}', "p"),
        ("extend-dyadic", '{"p": NaN, "seed": 1}', "p"),
        ("extend-dyadic", '{"q": Infinity, "seed": 1}', "q"),
    ])
    def test_non_finite_exponent_names_the_key(self, tmp_path, capsys,
                                               command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "finite" in err

    @pytest.mark.parametrize("config, message", [
        ('{"p": NaN}', "config key 'p'"),
        ('{"q": Infinity}', "config key 'q'"),
        ('{"p": 0.5}', "config key 'p'"),
        ('{"theta_count": 0}', "config key 'theta_count'"),
        ('{"depth": 0}', "no good nodes"),
    ])
    def test_extend_continuous_bad_input_is_precondition(self, tmp_path, capsys,
                                                         config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = main(["extend-continuous", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert message in capsys.readouterr().err


class TestArtifacts:
    def test_reports_byte_identical_for_same_inputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": 3, "depth": 6}')
        for name in ("a", "b"):
            assert main(["constants", "--config", str(cfg), "--seed", "42",
                         "--out", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "a/report.json").read_bytes() == \
               (tmp_path / "b/report.json").read_bytes()
        assert (tmp_path / "a/constants.csv").read_bytes() == \
               (tmp_path / "b/constants.csv").read_bytes()

    def test_seed_changes_the_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": 3, "depth": 6}')
        for name, seed in (("a", "1"), ("b", "2")):
            main(["constants", "--config", str(cfg), "--seed", seed,
                  "--out", str(tmp_path / name)])
        assert (tmp_path / "a/report.json").read_bytes() != \
               (tmp_path / "b/report.json").read_bytes()

    def test_wall_clock_only_in_meta(self, tmp_path):
        report = run("selftest")
        write_artifacts(report, tmp_path)
        assert "wall_clock" not in (tmp_path / "report.json").read_text()
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["wall_clock_s"] > 0
        assert "report.json" in meta["written"]

    def test_csv_headers_match_documented_columns(self, tmp_path):
        report = run("counterexample", config={"scale": 0.7})
        write_artifacts(report, tmp_path)
        payload = read_report(tmp_path)
        for name, table in payload["tables"].items():
            with open(tmp_path / table["file"], newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [c["name"] for c in table["columns"]]
            assert len(rows) - 1 == table["row_count"]
            for c in table["columns"]:
                assert c["description"].strip()

    def test_report_round_trips_through_json(self):
        report = run("trace", config={"sequence": {"kind": "radial_chain",
                                                   "depth": 8}})
        text = report.report_json()
        assert json.loads(text)["command"] == "trace"


class TestCommands:
    def test_factorize_fixture(self):
        report = run("factorize", config={"depth": 6})
        assert report.ok
        assert report.results["max_residual"] <= 1e-10
        assert report.results["source"] == "fixture"

    def test_factorize_rejects_bad_source(self):
        with pytest.raises(PreconditionError, match="source"):
            run("factorize", config={"source": "telepathy"})

    def test_extend_dyadic_b1_and_b2(self):
        for p in (1.0, 2.0):
            report = run("extend-dyadic",
                         config={"p": p, "count": 3, "depth": 5, "seed": 11})
            assert report.ok
            assert report.results["failed_certificates"] == 0

    def test_extend_continuous_small(self):
        report = run("extend-continuous",
                     config={"theta_count": 4, "depth": 5, "family_depth": 3})
        assert report.ok
        constants = report.results["pair_overlap"]["constants"]
        assert constants["continuous_b1"] >= 1.0 - 1e-9

    def test_extend_continuous_threads_flag_has_no_effect(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"theta_count": 4, "depth": 5, "family_depth": 3}')
        for name, extra in (("plain", []), ("threads", ["--threads", "4"])):
            assert main(["extend-continuous", "--config", str(cfg),
                         "--out", str(tmp_path / name), *extra]) == EXIT_OK
        plain, threads = read_report(tmp_path / "plain"), read_report(tmp_path / "threads")
        assert threads["config"]["threads"] == 4
        assert threads["results"] == plain["results"]
        assert threads["certificates"] == plain["certificates"]
        assert (tmp_path / "threads/per_theta.csv").read_bytes() == \
               (tmp_path / "plain/per_theta.csv").read_bytes()

    def test_extend_continuous_unknown_fixture(self):
        with pytest.raises(PreconditionError, match="unknown fixture"):
            run("extend-continuous", config={"fixture": "bagel"})

    def test_average_small(self):
        report = run("average", config={"arcs": 30, "pairs": 30, "seed": 3})
        assert report.ok
        assert report.results["sum_violations"] == 0
        assert report.results["bucket_ratio_max"] <= 1.0

    def test_trace_radial_chain(self):
        report = run("trace", config={"lambda": 0.05})
        assert report.ok
        assert report.results["trace_sup"]["finite"]
        assert len(report.tables["by_radius"].rows) == 12

    def test_trace_rejects_bad_sequence(self):
        with pytest.raises(PreconditionError, match="sequence"):
            run("trace", config={"sequence": {"kind": "spiral"}})

    def test_azuma_random_pm1_preconditions(self):
        with pytest.raises(PreconditionError, match="seed"):
            run("azuma", config={"kind": "random_pm1", "depth": 12, "k_max": 8})
        with pytest.raises(PreconditionError, match="depth"):
            run("azuma", config={"kind": "random_pm1", "seed": 1, "k_max": 8})
        with pytest.raises(PreconditionError, match="cannot reach"):
            run("azuma", config={"kind": "random_pm1", "seed": 1, "depth": 6,
                                 "k_max": 8})

    def test_azuma_random_pm1_runs(self):
        report = run("azuma", config={"kind": "random_pm1", "seed": 5,
                                      "depth": 12, "k_max": 12,
                                      "eps_grid": [0.25, 0.5]})
        assert report.ok
        assert report.results["gamma"] > 0.05

    def test_counterexample_defaults_report_honest_stall(self):
        report = run("counterexample")
        assert report.ok  # nothing failed: completion is reported, not required
        assert report.results["build"]["completed_generations"] == 1
        notes = [row[-1] for row in report.tables["parents"].rows if row[-1]]
        assert any("quarter window" in n for n in notes)

    def test_counterexample_completion_can_be_required(self):
        report = run("counterexample", config={"require_generations": 4})
        assert not report.ok
        failed = [c["quantity"] for c in report.certificates if not c["passed"]]
        assert failed == ["completed_generations"]

    def test_counterexample_gentle_scale_fully_certified(self):
        report = run("counterexample",
                     config={"scale": 0.7, "require_generations": 4,
                             "lambdas": [0.5, 1.0, 2.0]})
        assert report.ok
        assert report.results["build"]["complete"]
        assert report.results["weak_l1"]["finite"]
        div = report.tables["divergence"].rows
        assert len(div) == 12  # 3 lambdas x 4 generations
