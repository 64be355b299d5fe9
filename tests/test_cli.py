"""CLI harness: exit codes, determinism, and artifact shapes."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from discweights import cli
from discweights.cli import (
    COMMANDS,
    EXIT_CERT_VIOLATION,
    EXIT_OK,
    EXIT_PRECONDITION,
    SCHEMAS,
    PreconditionError,
    main,
    run,
    write_artifacts,
)
from discweights.weights import TreeWeight

from helpers import loop_average_rows, per_weight_constants

# One value per (command, key) that the key's schema spec must refuse: a
# bool, a fraction where an integer goes, NaN, a string, or a value below
# the minimum.  Every key of every schema has an entry.
BAD_VALUES = {
    "constants": {"depth": 2.5, "count": -1, "p_grid": [1.5, "2"], "sigma": float("nan"),
                  "seed": -1, "tol": float("nan")},
    "factorize": {"source": "telepathy", "p": 1.0, "depth": True, "count": 0,
                  "sigma": -0.1, "seed": 2.5, "terms": -5, "residual_tol": float("inf")},
    "extend-dyadic": {"p": 0.5, "q": 1, "depth": -1, "count": 2.5, "density": float("nan"),
                      "sigma": "wide", "seed": True, "terms": 0},
    "extend-continuous": {"fixture": "bagel", "p": float("nan"), "q": 1.0, "depth": 2.5,
                          "theta_count": 0, "family_depth": -1, "minkowski_tol": "tight"},
    "average": {"arcs": 2.5, "pairs": 0, "seed": "s", "ratio_bound": float("nan")},
    "azuma": {"kind": "brownian", "depth": 2.5, "seed": -1, "eps_grid": [0.3, 0],
              "k_min": 2.5, "k_max": 0, "base": "012", "gamma_min": float("nan"),
              "c_max": 0},
    "trace": {"sequence": "chain", "martingale": ["kahane"], "lambda": float("nan"),
              "r_levels": 0, "probe": "2"},
    "counterexample": {"generations": 2.5, "depth_budget": 1, "scale": 0,
                       "thresholds": [1.0, float("nan")], "lambdas": [],
                       "trace_lambda": float("nan"), "node_budget": -1,
                       "require_generations": 2.5},
    "selftest": {},
}

# Values on the edge of a strict range, refused like the ones above.
EDGE_VALUES = {"average": {"ratio_bound": 0}, "azuma": {"k_max": 1024}, "trace": {"r_levels": 54}}


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
        ('{"theta_count": 2.5}', "config key 'theta_count'"),
        ('{"depth": 2.5}', "config key 'depth'"),
        ('{"depth": true}', "config key 'depth'"),
        ('{"family_depth": -1}', "config key 'family_depth'"),
        ('{"family_depth": 1.5}', "config key 'family_depth'"),
    ])
    def test_extend_continuous_bad_input_is_precondition(self, tmp_path, capsys,
                                                         config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = main(["extend-continuous", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ('{"r_levels": 2.5}', "r_levels"),
        ('{"r_levels": 0}', "r_levels"),
        ('{"r_levels": -3}', "r_levels"),
        ('{"lambda": NaN}', "lambda"),
        ('{"lambda": Infinity}', "lambda"),
        ('{"lambda": [1]}', "lambda"),
        ('{"sequence": {"kind": "radial_chain", "depth": 2.5}}', "depth"),
    ])
    def test_trace_bad_input_names_the_key(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        code = main(["trace", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert f"config key {key!r}" in capsys.readouterr().err

    # explicit ids, fixed at the names their list positions once gave, so
    # adding or removing a case renames no other
    @pytest.mark.parametrize("config, key", [
        pytest.param({"martingale": {"kind": "random_walk", "depth": "x"}}, "depth",
                     id="config0-depth"),
        pytest.param({"martingale": {"kind": "random_pm1", "depth": 4.7, "seed": 1}}, "depth",
                     id="config1-depth"),
        pytest.param({"martingale": {"kind": "random_pm1", "seed": 1}}, "depth",
                     id="config2-depth"),
        pytest.param({"martingale": {"kind": "random_pm1", "depth": 4, "seed": -1}}, "seed",
                     id="config3-seed"),
        pytest.param({"martingale": {"kind": "kahane", "seed": 1}}, "['seed']",
                     id="config4-['seed']"),
        pytest.param({"martingale": {"kind": "brownian"}}, "kind",
                     id="config5-kind"),
        pytest.param({"martingale": {"depth": 4}}, "kind",
                     id="config6-kind"),
        pytest.param({"martingale": {"kind": "materialized", "values": [0.0, 1.0]}}, "values",
                     id="config7-values"),
        pytest.param({"martingale": {"kind": "materialized", "values": [[0.0], [1.0, {}]]}},
                     "values", id="config8-values"),
        pytest.param({"sequence": {"entries": 3}}, "entries",
                     id="config9-entries"),
        pytest.param({"sequence": {"entries": [{"address": "012"}]}}, "entries",
                     id="config10-entries"),
        pytest.param({"sequence": {"entries": [{"address": "01", "generation": -1}]}}, "entries",
                     id="config11-entries"),
        pytest.param({"sequence": {"grid_theta": "1/0", "entries": []}}, "grid_theta",
                     id="config12-grid_theta"),
        pytest.param({"martingale": {"kind": "materialized", "depth": 9,
                                     "values": [[0.0], [1.0, -1.0]]}},
                     "depth", id="config13-depth"),
        pytest.param({"sequence": {"grid_theta": 0, "entries": []}}, "entries",
                     id="config14-entries"),
    ])
    def test_trace_nested_objects_name_the_key(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["trace", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err or f"unknown config keys {key}" in err

    def test_trace_materialized_martingale_runs(self):
        values = [[0.0], [1.0, -1.0], [2.0, 0.0, 0.0, -2.0]]
        report = run("trace", config={
            "sequence": {"grid_theta": "1/3", "entries": [{"address": "01"}, {"address": "1"}]},
            "martingale": {"kind": "materialized", "depth": 2, "values": values}})
        assert report.ok and report.results["points"] == 2

    def test_azuma_declared_depth_must_reach(self, tmp_path, capsys):
        # kahane(3) refuses addresses below level 3, so counts to k_max 20 do too
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kind": "kahane", "depth": 3}')
        code = main(["azuma", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "config key 'depth' 3 cannot reach k_max 20" in capsys.readouterr().err
        assert run("azuma", config={"kind": "kahane", "depth": 20}).ok

    @pytest.mark.parametrize("sequence", [
        {"grid_theta": "0", "entries": [{"address": "0" * 539}]},
        {"kind": "radial_chain", "depth": 600},
    ])
    def test_trace_too_deep_names_the_level(self, tmp_path, capsys, sequence):
        # |1 - conj(z) w|^2 underflows to 0 for an anchor of level 539 and itself
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sequence": sequence}))
        code = main(["trace", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "level 539" in capsys.readouterr().err

    # configs inside the schemas whose arithmetic leaves the float range:
    # a conjugate exponent that rounds to 1 is refused, a bound or term
    # that overflows reads +inf, and no RuntimeWarning is printed
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, config, exit_code", [
        ("factorize", {"p": 1e300}, EXIT_PRECONDITION),
        ("extend-dyadic", {"seed": 1, "p": 1e300}, EXIT_PRECONDITION),
        ("extend-continuous", {"p": 1e16}, EXIT_PRECONDITION),
        ("factorize", {"p": 1.0000000001}, EXIT_CERT_VIOLATION),
        ("extend-dyadic", {"seed": 1, "p": 1.0000000001}, EXIT_CERT_VIOLATION),
        ("extend-continuous", {"p": 1.0000000001}, EXIT_CERT_VIOLATION),
        ("extend-dyadic", {"seed": 1, "sigma": 50}, EXIT_OK),
        ("counterexample", {"lambdas": [1e300]}, EXIT_OK),
    ])
    def test_float_range_edges_exit_cleanly(self, tmp_path, capsys, command, config, exit_code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == exit_code
        if exit_code == EXIT_PRECONDITION:
            assert "conjugate p/(p-1) rounds to 1" in capsys.readouterr().err

    # a sigma whose step range 2 sigma is not finite is refused by name; a
    # weight, power or factor past the float range is refused by the
    # positivity check, silently
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, config, message", [
        ("constants", {"seed": 1, "sigma": 1.7e308}, "sigma = 1.7e+308 is too large"),
        ("extend-dyadic", {"seed": 1, "sigma": 1.7e308}, "sigma = 1.7e+308 is too large"),
        ("constants", {"seed": 1, "sigma": 1e16}, "weight values must be positive and finite"),
        ("extend-dyadic", {"seed": 1, "sigma": 1e16}, "weight values must be positive and finite"),
        ("extend-dyadic", {"seed": 1, "q": 1e16}, "weight values must be positive and finite"),
        ("extend-continuous", {"p": 1e15}, "weight values must be positive and finite"),
    ])
    def test_float_range_refusals(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert message in capsys.readouterr().err

    def test_bad_values_cover_every_schema_key(self):
        assert {c: set(keys) for c, keys in BAD_VALUES.items()} == \
               {c: set(SCHEMAS[c]) for c in COMMANDS}

    @pytest.mark.parametrize("command, key, value", [
        pytest.param(command, key, value,
                     id=f"{command}-{key}-{'list' if isinstance(value, list) else value}")
        for command, keys in BAD_VALUES.items()
        for key, value in [*keys.items(), *EDGE_VALUES.get(command, {}).items()]
    ])
    def test_bad_value_names_the_key(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"config key {key!r} needs" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, config, allocator, key", [
        ("azuma", {"kind": "random_pm1", "seed": 1, "depth": 40}, "martingale_from_spec",
         "'depth'"),
        # 64 x 2^18 cells: each key alone stays within the cap at the other's default
        ("extend-continuous", {"depth": 17, "theta_count": 64}, "extend_continuous",
         "'depth' with 'theta_count'"),
        ("factorize", {"source": "random", "seed": 1, "depth": 16, "count": 64},
         "random_log_walk", "'depth' with 'count'"),
        ("trace", {"sequence": {"kind": "radial_chain", "depth": 3000}}, "radial_chain",
         "'depth'"),
        ("trace", {"sequence": {"kind": "radial_chain", "depth": 2896}}, "radial_chain",
         "'depth'"),
        ("trace", {"martingale": {"kind": "random_pm1", "depth": 40}}, "martingale_from_spec",
         "'depth'"),
        ("extend-continuous", {"family_depth": 30}, "extend_continuous",
         "'family_depth' with 'theta_count'"),
    ])
    def test_footprint_cap_refuses_before_allocating(self, tmp_path, capsys, monkeypatch,
                                                     command, config, allocator, key):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{allocator} reached past the footprint check")

        monkeypatch.setattr(cli, allocator, unreachable)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"config key {key}" in err and "over the cap" in err

    def test_radial_chain_at_the_cap_is_built(self, monkeypatch):
        # depth 2895 holds 2895 * 2896 / 2 <= 2^22 address digits
        def reached(depth):
            raise LookupError(depth)

        monkeypatch.setattr(cli, "radial_chain", reached)
        with pytest.raises(LookupError, match="2895"):
            run("trace", {"sequence": {"kind": "radial_chain", "depth": 2895}})

    @pytest.mark.parametrize("command", [
        "constants", "factorize", "extend-dyadic", "extend-continuous",
    ])
    def test_tree_footprint_over_the_cap_names_the_key(self, tmp_path, capsys, command):
        # 2^41 cells per tree: refused before anything is allocated
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"depth": 40, "seed": 1}' if command != "extend-continuous"
                       else '{"depth": 40}')
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "config key 'depth'" in err and "over the cap" in err


class ScriptedDraws:
    """A seeded generator whose integer draws are `values`, in order,
    whether taken one scalar call at a time or as one array call; its
    uniform draws are the seeded generator's."""

    def __init__(self, seed, values, make=np.random.default_rng):
        self.rng, self.values = make(seed), list(values)

    def integers(self, lo, hi):
        n = np.size(lo)
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out) if np.ndim(lo) else out[0]

    def uniform(self, *args):
        return self.rng.uniform(*args)


class TestAverageBlocks:
    """The average command draws and measures its arcs in blocks of arrays
    and draws its pairs in one call; every row, result and report byte is
    the per-arc and per-pair loop's, drawn in the same order."""

    @staticmethod
    def assert_equals_loop(cfg, tmp_path, rng=None):
        report = run("average", cfg)
        arc_rows, beta_rows, results = loop_average_rows(cfg, rng)
        assert report.results == results
        for name, want in (("arcs", arc_rows), ("beta_pairs", beta_rows)):
            got = report.tables[name].rows
            assert list(got) == want
            assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
        measured = {c["quantity"]: c["measured"] for c in report.certificates}
        assert measured["spectrum_sum_violations"] == results["sum_violations"]
        assert measured["bucket_ratio_max"] == results["bucket_ratio_max"]
        loop = dataclasses.replace(report, results=results, tables={
            "arcs": cli.Table(report.tables["arcs"].columns, arc_rows),
            "beta_pairs": cli.Table(report.tables["beta_pairs"].columns, beta_rows)})
        written = write_artifacts(report, tmp_path / "blocks")
        write_artifacts(loop, tmp_path / "loop")
        for path in written[:-1]:  # not run_meta.json, which holds the wall clock
            assert path.read_bytes() == (tmp_path / "loop" / path.name).read_bytes()
        return report

    @pytest.mark.parametrize("cfg", [
        {"seed": 1}, {"seed": 5}, {"seed": 12345}, {"seed": 2 ** 31 - 7},
        {"seed": 3, "arcs": 1, "pairs": 1}, {"seed": 3, "arcs": 7, "pairs": 3},
        {"seed": 3, "arcs": 8, "pairs": 4},
    ])
    def test_matches_per_item_loop(self, cfg, tmp_path):
        self.assert_equals_loop({"arcs": 1000, "pairs": 1000, **cfg}, tmp_path)

    def test_blocks_continue_the_stream(self, monkeypatch, tmp_path):
        # three arcs per block: full blocks, a partial last block, then the
        # pairs drawn after the last block
        monkeypatch.setattr(cli, "AVERAGE_BLOCK", 3)
        self.assert_equals_loop({"seed": 9, "arcs": 10, "pairs": 7}, tmp_path)

    def test_full_and_dyadic_lengths(self, monkeypatch, tmp_path):
        grid = 1 << 20
        lengths = [grid, grid // 2, 1 << 7, 1, 3, grid - 1, 6 << 10, grid // 3]
        values = [v for i, n in enumerate(lengths) for v in ((i * 40503) % grid, n)]
        cfg = {"seed": 4, "arcs": len(lengths), "pairs": 2}
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: ScriptedDraws(seed, values, make))
        report = self.assert_equals_loop(cfg, tmp_path, ScriptedDraws(4, values, make))
        rows = report.tables["arcs"].rows
        # the full circle: all mass at the key 0; half a circle: all at the key 1
        assert rows[0][3:] == (1, 0.25) and rows[1][3:] == (2, 0.5)


class TestConstantsStacks:
    """The constants command measures its weights in stacks of at most
    CONSTANTS_CHUNK rows; every row, gap and the worst gap are the
    per-weight loop's, drawn in the same order."""

    @pytest.mark.parametrize("count, depth, p_grid", [
        (1, 8, [1.5, 2.0, 3.0]), (16, 8, [1.5, 2.0, 3.0]), (17, 8, [1.5, 2.0, 3.0]),
        (100, 8, [1.5, 2.0, 3.0]),
        # p' = p / (p - 1) rounds to 1 at p = 1e17, so the dual route is B_1
        (17, 5, [1.25, 1e17]), (3, 0, [2.0]),
    ])
    def test_matches_per_weight_loop(self, count, depth, p_grid):
        report = run("constants", {"count": count, "depth": depth, "p_grid": p_grid,
                                   "seed": 26, "sigma": 0.8})
        rows, worst = per_weight_constants(depth, count, p_grid, 0.8, 26)
        assert report.tables["constants"].rows == rows
        assert report.results["max_duality_gap"] == worst

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_positive_dual_is_refused(self):
        """w^{-1/(p-1)} overflowing to inf is refused as TreeWeight refuses it."""
        with pytest.raises(ValueError, match="^weight values must be positive and finite$"):
            run("constants", {"count": 20, "depth": 6, "p_grid": [1.001], "sigma": 60.0,
                              "seed": 1})

    def test_chunk_sizes(self):
        assert cli.CONSTANTS_CHUNK == 16
        assert [cli._constants_chunk(8, count) for count in (1, 16, 17, 100)] == [1, 16, 16, 16]
        # 2 x 2^21 and 1 x 2^22 cells fill the cap; past it one row is refused
        assert [cli._constants_chunk(d, 100) for d in (19, 20, 21, 22, 40)] == [4, 2, 1, 1, 1]

    def test_footprint_counts_the_chunk(self, monkeypatch):
        calls = []
        real = cli._check_footprint

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_check_footprint", spy)
        run("constants", {"count": 20, "depth": 4, "seed": 1})
        assert calls == [("constants", "'depth'", 16, 5)]

    def test_depth_at_the_cap_is_accepted(self, monkeypatch):
        """depth 21 holds 2^22 cells per tree, the cap: accepted as before,
        with one row per stack; depth 22 is refused before any allocation."""
        def reached(cls, value, depth, theta=0):
            raise LookupError(depth)

        monkeypatch.setattr(TreeWeight, "constant", classmethod(reached))
        with pytest.raises(LookupError, match="21"):
            run("constants", {"depth": 21, "count": 100, "seed": 1})
        with pytest.raises(PreconditionError, match=r"'depth' asks for 1 x 2\^23 cells"):
            run("constants", {"depth": 22, "count": 100, "seed": 1})


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

    def test_extend_continuous_threads_flag_and_key_are_refused(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["extend-continuous", "--threads", "4", "--out", out]) == EXIT_PRECONDITION
        assert "--threads" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"threads": 4}')
        code = main(["extend-continuous", "--config", str(cfg), "--out", out])
        assert code == EXIT_PRECONDITION
        assert "unknown config keys ['threads']" in capsys.readouterr().err

    def test_extend_continuous_unknown_fixture(self):
        with pytest.raises(PreconditionError, match="config key 'fixture'"):
            run("extend-continuous", config={"fixture": "bagel"})

    def test_average_small(self):
        report = run("average", config={"arcs": 30, "pairs": 30, "seed": 3})
        assert report.ok
        assert report.results["sum_violations"] == 0
        assert report.results["bucket_ratio_max"] <= 1.0

    def test_average_default_is_exact_only(self):
        report = run("average", config={"arcs": 5, "pairs": 50, "seed": 3})
        assert report.ok
        assert "max_sample_gap" not in report.results
        cert = next(c for c in report.certificates if c["quantity"] == "avg_beta_max_ratio")
        assert cert["inputs"] == {}

    def test_average_refuses_resolution_bits(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3, "resolution_bits": 8}')
        code = main(["average", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "unknown config keys ['resolution_bits']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_azuma_k_max_within_float_range(self, tmp_path, capsys):
        # 2^1024 is past float range: the fit and its envelope could not run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "random_walk", "k_min": 1025, "k_max": 1030,
                                   "eps_grid": [0.05, 0.1]}))
        code = main(["azuma", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_PRECONDITION
        assert "config key 'k_max' needs to be <= 1023" in capsys.readouterr().err
        report = run("azuma", config={"kind": "random_walk", "k_min": 1023, "k_max": 1023,
                                      "eps_grid": [0.05, 0.1]})
        assert report.ok and report.results["points"] == 2

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


class TestDocs:
    @staticmethod
    def readme_tables():
        """{command: keys listed in the README's table for that command}."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tables = {}
        for section in re.split(r"^#### ", text, flags=re.M)[1:]:
            heading, body = section.split("\n", 1)
            body = body.split("\n#", 1)[0]
            if heading.startswith("`") and heading.endswith("` keys"):
                tables[heading[1:-len("` keys")]] = re.findall(r"^\| `([^`]+)` \|", body,
                                                              flags=re.M)
        return tables

    @staticmethod
    def readme_martingale_kinds():
        """{kind: keys} from the README's table of trace martingale kinds."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        body = text.split("#### `trace` martingale kinds\n", 1)[1].split("\n#", 1)[0]
        return {kind: sorted(re.findall(r"`([^`]+)`:", keys))
                for kind, keys in re.findall(r"^\| `([^`]+)` \| (.*) \|$", body, flags=re.M)}

    def test_readme_tables_list_every_schema_key(self):
        tables = self.readme_tables()
        assert sorted(tables) == sorted(COMMANDS)
        for command in COMMANDS:
            assert sorted(tables[command]) == sorted(SCHEMAS[command]), command
        assert self.readme_martingale_kinds() == {
            kind: sorted(schema) for kind, schema in cli.MARTINGALE_SCHEMAS.items()}
