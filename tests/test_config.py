"""Config loading, validation, and runtime assembly."""

from pathlib import Path

import numpy as np
import pytest
import yaml

from tlexplain import rl
from tlexplain.config import ConfigError, SCHEMA_VERSION, build_runtime, load_config

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ctf_reference.yaml"
NAV_CONFIG = {
    "seed": 3,
    "environment": {"type": "nav", "map_text": "S..G\n....\n.V..\n", "horizon": 40},
    "predicates": [
        {"name": "psi0", "feature": "d_goal", "threshold": 1.0},
        {"name": "psi1", "feature": "d_vase", "threshold": 1.0},
    ],
    "trainer": {"mode": "exact-soft-vi", "tau": 0.01},
    "metric": {"sample_size": 8},
    "search": {"n_search": 2, "top_k": 5},
    "target": {"explanation": "F(psi0) & G(!psi1)"},
    "output": "runs/nav_test",
}


def _write(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_map_names_path(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["environment"] = {"type": "nav", "map": "maps/ghost.txt"}
        with pytest.raises(ConfigError, match="ghost.txt"):
            load_config(_write(tmp_path, cfg))

    def test_unknown_environment(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["environment"] = {"type": "parking", "map_text": "SG\n"}
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_predicates_required(self, tmp_path):
        # an explanation needs a predicate in each of its F- and G-parts
        cfg = dict(NAV_CONFIG)
        for predicates in ([], NAV_CONFIG["predicates"][:1]):
            cfg["predicates"] = predicates
            with pytest.raises(ConfigError):
                load_config(_write(tmp_path, cfg))

    def test_exactly_one_target_variant(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["target"] = {}
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))
        cfg["target"] = {"explanation": "F(psi0) & G(psi1)", "builtin": "nav-shaped"}
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_bad_trainer_key(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["trainer"] = {"mode": "exact-soft-vi", "temperature": 0.1}
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, cfg))

    def test_manifest_round_trip(self, tmp_path):
        # YAML reads 1e-2 as a string; float() makes it 0.01.  A start cell
        # is a ctf setting: a nav map starts at its S cell
        ctf = load_config(_write(tmp_path, {
            **NAV_CONFIG, "trainer": {"tau": "1e-2"},
            "environment": {"type": "ctf", "map_text": "Bbbrr\nbbbrR\n", "blue_start": [0, 1]}}))
        assert ctf.trainer.tau == 0.01 and ctf.environment.blue_start == (0, 1)
        # a nav manifest writes the ctf settings at their defaults, which load
        nav = load_config(_write(tmp_path, NAV_CONFIG, "nav.yaml"))
        for cfg in (ctf, nav, load_config(REFERENCE_CONFIG)):
            manifest = _write(tmp_path, cfg.to_dict(), "manifest.yaml")
            assert load_config(manifest).to_dict() == cfg.to_dict()

    def test_integral_floats_and_numeric_strings_are_ints(self, tmp_path):
        # an integral float (YAML reads 1.0e+4 as 10000.0) and numeric strings
        path = _write(tmp_path, {**NAV_CONFIG, "seed": "5",
                                 "trainer": {"max_iterations": 1.0e+4},
                                 "environment": {**NAV_CONFIG["environment"], "horizon": "40"}})
        cfg = load_config(path)
        assert (cfg.seed, cfg.trainer.max_iterations, cfg.environment.horizon) == (5, 10_000, 40)
        assert all(type(v) is int for v in (cfg.seed, cfg.trainer.max_iterations,
                                            cfg.environment.horizon))

    def test_manifest_inlines_map(self, tmp_path):
        cfg = load_config(_write(tmp_path, NAV_CONFIG))
        manifest = cfg.to_dict()
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["environment"]["map_text"].startswith("S..G")
        assert "map" not in manifest["environment"]


class TestBuildRuntime:
    def test_nav_runtime(self, tmp_path):
        runtime = build_runtime(load_config(_write(tmp_path, NAV_CONFIG)))
        ev = runtime.evaluator
        assert runtime.target_key == "F(psi0) & G(!psi1)"
        assert ev.target.probs.shape == (ev.model.n_rows, 5)
        record = ev.evaluate(
            __import__("tlexplain").formula.parse_explanation(
                runtime.target_key, ev.predicates))
        assert record.wkl == 0.0

    def test_policy_path_target(self, tmp_path):
        runtime = build_runtime(load_config(_write(tmp_path, NAV_CONFIG)))
        policy_file = tmp_path / "target_policy.txt"
        runtime.evaluator.target.save(policy_file)
        cfg = dict(NAV_CONFIG)
        cfg["target"] = {"policy_path": "target_policy.txt"}
        runtime2 = build_runtime(load_config(_write(tmp_path, cfg, "run2.yaml")))
        assert runtime2.target_key is None
        assert np.array_equal(runtime2.evaluator.target.probs,
                              runtime.evaluator.target.probs)

    def test_policy_shape_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad_policy.txt"
        policy = rl.TabularPolicy(np.full((2, 5), 0.2), tau=0.1, trainer="t")
        policy.save(bad)
        cfg = dict(NAV_CONFIG)
        cfg["target"] = {"policy_path": "bad_policy.txt"}
        with pytest.raises(ConfigError):
            build_runtime(load_config(_write(tmp_path, cfg)))

    def test_builtin_nav_shaped_target(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["target"] = {"builtin": "nav-shaped"}
        runtime = build_runtime(load_config(_write(tmp_path, cfg)))
        assert runtime.target_key is None
        # the shaped target heads toward the goal from the start cell
        ev = runtime.evaluator
        start_row = int(ev.model.start_rows[0])
        assert ev.target.probs[start_row].argmax() == 3  # "right"

    def test_builtin_requires_nav_env(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["environment"] = {
            "type": "ctf", "map_text": "Bbrr\nbbrR\n", "horizon": 20}
        cfg["predicates"] = [
            {"name": "psi0", "feature": "d_ba_rf", "threshold": 1.0},
            {"name": "psi1", "feature": "d_ba_ra", "threshold": 1.5},
        ]
        cfg["target"] = {"builtin": "nav-shaped"}
        with pytest.raises(ConfigError):
            build_runtime(load_config(_write(tmp_path, cfg)))

    def test_unknown_builtin_rejected(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["target"] = {"builtin": "parking-shaped"}
        with pytest.raises(ConfigError):
            build_runtime(load_config(_write(tmp_path, cfg)))

    def test_unknown_feature_name_rejected(self, tmp_path):
        cfg = dict(NAV_CONFIG)
        cfg["predicates"] = [
            {"name": "psi0", "feature": "d_goal", "threshold": 1.0},
            {"name": "psi1", "feature": "d_red_flag", "threshold": 1.0},
        ]
        with pytest.raises((ConfigError, KeyError)):
            build_runtime(load_config(_write(tmp_path, cfg)))
