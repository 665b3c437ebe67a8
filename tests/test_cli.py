"""CLI subcommands: outputs, schemas, exit statuses, trace export."""

import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import tlexplain
from tlexplain import cli, config, product
from tlexplain.config import SCHEMA_VERSION

NAV_CONFIG = {
    "seed": 3,
    "environment": {"type": "nav", "map_text": "S..G\n....\n.V..\n", "horizon": 40},
    "predicates": [
        {"name": "psi0", "feature": "d_goal", "threshold": 1.0},
        {"name": "psi1", "feature": "d_vase", "threshold": 1.0},
    ],
    "trainer": {"mode": "exact-soft-vi", "tau": 0.01},
    "metric": {"sample_size": 8},
    "search": {"n_search": 3, "top_k": 5},
    "target": {"explanation": "F(psi0) & G(!psi1)"},
}

PSI0, PSI1 = NAV_CONFIG["predicates"]
CTF_ENVIRONMENT = {"type": "ctf", "map_text": "Bbbrr\nbbbrR\n", "horizon": 40}

REFERENCE_CONFIG = str(Path(__file__).resolve().parent.parent
                       / "configs" / "ctf_reference.yaml")
# oracle.csv and results.csv of the reference config, as written before the
# evaluator's exact shortcuts (acceptance pre-filter, product reuse) existed
GOLDEN = Path(__file__).resolve().parent / "data" / "ctf_reference"
# the reference run trained by Q-learning, with results.csv and trace.jsonl
# as written when its draws still went through numpy's scalar calls
QLEARN = Path(__file__).resolve().parent / "data" / "ctf_qlearn"


def _write_config(tmp_path, cfg=None, name="run.yaml"):
    cfg = dict(cfg or NAV_CONFIG)
    cfg.setdefault("output", str(tmp_path / "out"))
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestSearchCommand:
    def test_outputs_and_schema(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert cli.main(["search", "--config", str(config)]) == cli.EXIT_OK
        out_dir = tmp_path / "out"
        with (out_dir / "results.csv").open() as results:
            rows = list(csv.reader(results))
        assert tuple(rows[0]) == cli.RESULT_COLUMNS
        assert len(rows) > 1
        top = dict(zip(rows[0], rows[1]))
        assert top["explanation"] == "F(psi0) & G(!psi1)"
        assert float(top["wkl"]) == 0.0
        manifest = yaml.safe_load((out_dir / "manifest.yaml").read_text())
        assert manifest["environment"]["map_text"].startswith("S..G")
        for line in (out_dir / "trace.jsonl").read_text().splitlines():
            node = json.loads(line)
            assert node["schema_version"] == SCHEMA_VERSION
        assert "rank" in capsys.readouterr().out

    def test_rerun_from_manifest_byte_identical(self, tmp_path):
        config = _write_config(tmp_path)
        cli.main(["search", "--config", str(config), "--out", str(tmp_path / "a")])
        manifest = tmp_path / "a" / "manifest.yaml"
        cli.main(["search", "--config", str(manifest), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()
        assert (tmp_path / "a" / "trace.jsonl").read_bytes() == \
            (tmp_path / "b" / "trace.jsonl").read_bytes()

    def test_seed_override_lands_in_manifest(self, tmp_path):
        config = _write_config(tmp_path)
        cli.main(["search", "--config", str(config), "--seed", "99"])
        manifest = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
        assert manifest["seed"] == 99

    def test_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--config", str(config), "--seed", "-1"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "argument --seed: seed must be a non-negative integer, got '-1'" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "ghost.yaml"
        assert cli.main(["search", "--config", str(missing)]) == cli.EXIT_CONFIG
        assert "ghost.yaml" in capsys.readouterr().err

    def test_removed_n_ep_setting_is_config_error(self, tmp_path, capsys):
        # the return filter is exact, so an episode count is a stale setting
        cfg = dict(NAV_CONFIG)
        cfg["search"] = {**NAV_CONFIG["search"], "n_ep": 200}
        config = _write_config(tmp_path, cfg)
        assert cli.main(["search", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "n_ep" in capsys.readouterr().err

    def test_missing_map_names_path(self, tmp_path, capsys):
        cfg = dict(NAV_CONFIG)
        cfg["environment"] = {"type": "nav", "map": "maps/ghost_map.txt"}
        config = _write_config(tmp_path, cfg)
        assert cli.main(["search", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "ghost_map.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, message", [
        ("environment", {"type": "ctf", "map_text": "BXR\n"}, "unknown map character 'X'"),
        ("environment", {"type": "ctf", "map_text": "B#R\n"}, "no passable neighbour"),
        ("predicates", NAV_CONFIG["predicates"][:1], "at least two"),
        ("trainer", {"tau": 0.01, "max_iterations": 2}, "2 sweeps"),
        ("reward", {"beta": 1.5}, "reward.beta must be in [0, 1)"),
        ("reward", {"gamma": 1.0}, "reward.gamma must be in [0, 1)"),
        ("reward", {"mode": "bogus"}, "reward.mode must be"),
        ("reward", {"rho_max": 1000.0}, "reward.rho_max is not a setting"),
        ("reward", {"gama": 0.5}, "reward.gama is not a setting"),
        ("trainer", {"mode": "sarsa"}, "trainer.mode must be"),
        ("trainer", {"temperature": 0.1}, "trainer.temperature is not a setting"),
        # YAML reads 1e-2 and 1e4 as strings: float() takes the first, int() not the second
        ("trainer", {"tau": "1e-2", "max_iterations": "1e4"},
         "trainer.max_iterations must be int, got '1e4'"),
        ("environment", {**NAV_CONFIG["environment"], "horizon": "abc"},
         "environment.horizon must be int"),
        ("environment", {**NAV_CONFIG["environment"], "horizon": -3},
         "environment.horizon must be >= 1"),
        ("environment", {**NAV_CONFIG["environment"], "hoirzon": 40},
         "environment.hoirzon is not a setting"),
        ("environment", {**NAV_CONFIG["environment"], "map": "maps/ghost_map.txt"},
         "'map' path or an inline 'map_text', not both"),
        ("metric", {"sample_size": 0}, "metric.sample_size must be >= 1"),
        ("metric", {"replicate_mode": "bogus"}, "metric.replicate_mode is not a setting"),
        ("metric", {"sample_sise": 8}, "metric.sample_sise is not a setting"),
        ("search", {"return_threshold": "x"}, "search.return_threshold must be a finite float"),
        ("search", {"n_serach": 3}, "search.n_serach is not a setting"),
        ("workers", 2, "workers is not a setting"),
        ("target", {"explanation": "F(psi0) & G(!psi1)", "note": "x"},
         "target.note is not a setting"),
        ("target", {"policy_path": "malformed_policy.txt"}, "target.policy_path"),
        ("predicates", [1, 2], "predicates[0] must be a mapping"),
        ("predicates", [{**PSI0, "comment": "x"}, PSI1], "predicates[0] must be a mapping"),
        ("predicates", [PSI0, {**PSI1, "name": "psi0"}], "predicates: duplicate predicate names"),
        ("predicates", [PSI0, {**PSI1, "threshold": "x"}],
         "predicates[1].threshold must be a finite float, got 'x'"),
        ("predicates", [PSI0, {**PSI1, "threshold": float("inf")}],
         "predicates[1].threshold must be a finite float, got inf"),
        ("trainer", {"mode": "q-learning", "episodes": 0}, "trainer.episodes must be >= 1"),
        ("trainer", {"mode": "q-learning", "learning_rate": 5.0},
         "trainer.learning_rate must be in (0, 1]"),
        ("trainer", {"epsilon_start": 1.5}, "trainer.epsilon_start must be in [0, 1]"),
        ("trainer", {"epsilon_end": -0.1}, "trainer.epsilon_end must be in [0, 1]"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("search", {"extension_enabled": False}, "search.extension_enabled is not a setting"),
        ("environment", {**NAV_CONFIG["environment"], "horizon": 10**9},
         "environment.horizon must be <= 10000, got 1000000000"),
        ("metric", {"sample_size": 10**12},
         "metric.sample_size must be <= 100000, got 1000000000000"),
        # a bool is never a number, and int() would truncate a fraction
        ("environment", {**NAV_CONFIG["environment"], "horizon": True},
         "environment.horizon must be int, got True"),
        ("environment", {**NAV_CONFIG["environment"], "horizon": 99.9},
         "environment.horizon must be int, got 99.9"),
        ("seed", False, "seed must be int, got False"),
        ("search", {"n_search": 2.5}, "search.n_search must be int, got 2.5"),
        ("trainer", {"tau": True}, "trainer.tau must be a finite float, got True"),
        ("predicates", [PSI0, {**PSI1, "threshold": True}],
         "predicates[1].threshold must be a finite float, got True"),
        # one start and one goal, and no start setting that would do nothing
        ("environment", {**NAV_CONFIG["environment"], "map_text": "S.S\n...\n..G\n"},
         "bad nav map: map needs exactly one S cell, got 2"),
        ("environment", {**NAV_CONFIG["environment"], "random_starts": True},
         "environment.random_starts is a ctf setting"),
        ("environment", {**NAV_CONFIG["environment"], "blue_start": [0, 1]},
         "environment.blue_start is a ctf setting"),
        ("environment", {**NAV_CONFIG["environment"], "red_start": [0, 1]},
         "environment.red_start is a ctf setting"),
        ("environment", {**CTF_ENVIRONMENT, "random_starts": True, "blue_start": [0, 1]},
         "environment.blue_start cannot be set with random_starts: true"),
        ("environment", {**CTF_ENVIRONMENT, "blue_start": [True, False]},
         "environment.blue_start must be a [row, column] pair, got [True, False]"),
    ])
    def test_bad_input_is_config_error(self, tmp_path, capsys, section, value, message):
        (tmp_path / "malformed_policy.txt").write_text("not a policy\n")
        config = _write_config(tmp_path, {**NAV_CONFIG, section: value})
        assert cli.main(["search", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_no_convergence_names_residual_and_hint(self, tmp_path, capsys):
        cfg = {**NAV_CONFIG, "trainer": {"tau": 0.01, "max_iterations": 2}}
        config = _write_config(tmp_path, cfg)
        assert cli.main(["search", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "target policy" in err and "final residual" in err
        assert "trainer.tau" in err and "trainer.max_iterations" in err


class TestOracleCommand:
    def test_writes_ranked_csv_with_footer(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert cli.main(["oracle", "--config", str(config)]) == cli.EXIT_OK
        text = (tmp_path / "out" / "oracle.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "rank,explanation,wkl,utility,mean_return"
        assert lines[-1].startswith("# filtered:")
        ranked = len(lines) - 2
        filtered = int(lines[-1].split(":")[1])
        assert ranked + filtered == 8  # canonical count for two predicates

    def test_cap_below_predicate_count_is_refused(self, tmp_path, capsys):
        config = _write_config(tmp_path, {**NAV_CONFIG, "search": {"enumeration_cap": 1}})
        assert cli.main(["oracle", "--config", str(config)]) == cli.EXIT_REFUSED
        assert "exceeds the enumeration cap 1" in capsys.readouterr().err


class TestEnumerateCommand:
    def test_reference_count(self, capsys):
        assert cli.main(["enumerate", "--config", REFERENCE_CONFIG]) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == "96"

    def test_cap_below_predicate_count_is_refused(self, tmp_path, capsys):
        config = _write_config(tmp_path, {**NAV_CONFIG, "search": {"enumeration_cap": 1}})
        assert cli.main(["enumerate", "--config", str(config)]) == cli.EXIT_REFUSED
        assert "exceeds the enumeration cap 1" in capsys.readouterr().err

    def test_list_prints_every_explanation(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert cli.main(["enumerate", "--config", str(config), "--list"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "8" and len(lines) == 9


class TestEvalCommand:
    def test_scores_target_explanation(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = cli.main(["eval", "--config", str(config), "F(psi0) & G(!psi1)"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "wKL:          0" in out

    def test_reports_filtered(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = cli.main(["eval", "--config", str(config), "F(psi1) & G(psi0)"])
        assert code == cli.EXIT_OK
        assert "filtered" in capsys.readouterr().out

    def test_parse_error_is_config_error(self, tmp_path):
        config = _write_config(tmp_path)
        assert cli.main(["eval", "--config", str(config), "F(psi0)"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("explanation, reason", [
        ("F(!psi_ba_bt) & G(psi_ba_rf & psi_ba_ra)", "acceptance unreachable"),
        ("F(psi_ba_rf) & G(psi_ba_ra | psi_ba_bt)", "failed the return filter"),
    ])
    def test_names_why_filtered(self, tmp_path, capsys, explanation, reason):
        args = ["eval", "--config", REFERENCE_CONFIG, "--out", str(tmp_path), explanation]
        assert cli.main(args) == cli.EXIT_OK
        assert f"filtered:     true ({reason})" in capsys.readouterr().out


    def test_state_space_over_cap_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(config, "build_env_model",
                            functools.partial(product.build_env_model, cap=50))
        args = ["eval", "--config", REFERENCE_CONFIG, "--out", str(tmp_path),
                "F(psi_ba_rf) & G(!psi_ba_ra | psi_ba_bt)"]
        assert cli.main(args) == cli.EXIT_REFUSED
        assert capsys.readouterr().err == "refused: more than 50 reachable states\n"


class TestGoldenOutputs:
    @pytest.mark.parametrize("command, name, summary", [
        ("oracle", "oracle.csv", "96 evaluations: 52 without training "
         "(acceptance unreachable), 5 reused a trained product"),
        ("search", "results.csv", "86 evaluations: 44 without training "
         "(acceptance unreachable), 5 reused a trained product"),
    ])
    def test_reference_output_is_byte_identical(self, tmp_path, capsys, command, name,
                                                summary):
        args = [command, "--config", REFERENCE_CONFIG, "--out", str(tmp_path)]
        assert cli.main(args) == cli.EXIT_OK
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        assert capsys.readouterr().out.splitlines()[-1] == summary

    def test_q_learning_search_is_byte_identical(self, tmp_path, capsys):
        args = ["search", "--config", str(QLEARN / "config.yaml"), "--out", str(tmp_path)]
        assert cli.main(args) == cli.EXIT_OK
        for name in ("results.csv", "trace.jsonl"):
            assert (tmp_path / name).read_bytes() == (QLEARN / name).read_bytes(), name
        assert capsys.readouterr().out.splitlines()[-1] == (
            "81 evaluations: 40 without training (acceptance unreachable), "
            "0 reused a trained product")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this tlexplain."""
    src = str(Path(tlexplain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestRuntimeWithoutScipy:
    """scipy is a test dependency only: the package neither imports it nor
    needs it to reproduce the reference search."""

    def test_import_loads_no_scipy(self):
        run = _python("import sys, tlexplain; "
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_reference_search_without_scipy(self, tmp_path):
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from tlexplain import cli\n"
                "sys.exit(cli.main(['search', '--config', sys.argv[1], '--out', sys.argv[2]]))")
        run = _python(code, REFERENCE_CONFIG, str(tmp_path))
        assert run.returncode == cli.EXIT_OK, run.stderr
        assert (tmp_path / "results.csv").read_bytes() == (GOLDEN / "results.csv").read_bytes()


# one well-formed trace node, as the search command writes it
NODE = {"filtered": False, "key": "F(psi0) & G(!psi1)", "move": "init", "node_id": 0,
        "parent": None, "restart": 0, "schema_version": SCHEMA_VERSION, "step": 0,
        "utility": -0.5}


class TestTraceDotCommand:
    def _trace_from_search(self, tmp_path):
        config = _write_config(tmp_path)
        cli.main(["search", "--config", str(config)])
        return tmp_path / "out" / "trace.jsonl"

    def test_node_count_matches_lines(self, tmp_path, capsys):
        trace = self._trace_from_search(tmp_path)
        assert cli.main(["trace-dot", str(trace)]) == cli.EXIT_OK
        dot = capsys.readouterr().out
        n_lines = len(trace.read_text().splitlines())
        assert dot.count("[label=") == n_lines

    def test_move_styles_distinct(self, tmp_path, capsys):
        trace = self._trace_from_search(tmp_path)
        cli.main(["trace-dot", str(trace)])
        dot = capsys.readouterr().out
        assert "style=solid" in dot  # flip edges always occur

    def test_empty_trace_gives_empty_digraph(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["trace-dot", str(empty)]) == cli.EXIT_OK
        dot = capsys.readouterr().out
        assert dot.startswith("digraph") and "->" not in dot

    def test_out_flag_writes_file(self, tmp_path):
        trace = self._trace_from_search(tmp_path)
        target = tmp_path / "trace.dot"
        assert cli.main(["trace-dot", str(trace), "--out", str(target)]) == cli.EXIT_OK
        assert target.read_text().startswith("digraph")

    def test_malformed_trace_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"node_id": 0}\n')
        assert cli.main(["trace-dot", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line, message", [
        ("1", "a trace node must be a JSON object, got 1"),
        (json.dumps({**NODE, "utility": None}), "an unfiltered node needs a numeric utility"),
        (json.dumps({**NODE, "key": 5}), "key must be a string, got 5"),
    ], ids=["not-an-object", "unfiltered-null-utility", "integer-key"])
    def test_malformed_node_is_config_error(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(NODE) + "\n" + line + "\n")
        assert cli.main(["trace-dot", str(bad)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"

    def test_missing_trace_is_config_error(self, tmp_path):
        assert cli.main(["trace-dot", str(tmp_path / "nope.jsonl")]) == cli.EXIT_CONFIG
