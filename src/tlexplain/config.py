"""Run configuration: YAML schema, validation, and runtime assembly.

A run config is a single YAML file whose sections mirror the library
modules (environment, predicates, reward, trainer, metric, search, target).
``resolve`` inlines any referenced files (the map) so that the dumped
manifest alone reproduces a run byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import yaml

from . import formula as fm
from . import metrics, rl
from .envs import CtfEnv, GridMap, MapFormatError, NavEnv, NavMap
from .product import EnvModel, ProductMdp, TransitionTable, build_env_model
from .search import Evaluator, SearchParams, _key_stream

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int
    env_type: str
    map_text: str
    horizon: int
    random_starts: bool
    blue_start: tuple | None
    red_start: tuple | None
    predicates: list[dict]
    reward_mode: str
    beta: float
    gamma: float
    rho_max: float
    trainer: rl.TrainerConfig
    sample_size: int
    kl_eps: float
    replicate_mode: str
    search: SearchParams
    target: dict
    output: str

    def to_dict(self) -> dict:
        """Manifest form: fully resolved, file references inlined."""
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "environment": {
                "type": self.env_type,
                "map_text": self.map_text,
                "horizon": self.horizon,
                "random_starts": self.random_starts,
                "blue_start": list(self.blue_start) if self.blue_start else None,
                "red_start": list(self.red_start) if self.red_start else None,
            },
            "predicates": self.predicates,
            "reward": {"mode": self.reward_mode, "beta": self.beta,
                       "gamma": self.gamma, "rho_max": self.rho_max},
            "trainer": asdict(self.trainer),
            "metric": {"sample_size": self.sample_size, "kl_eps": self.kl_eps,
                       "weights_enabled": self.search.weights_enabled,
                       "replicate_mode": self.replicate_mode},
            "search": {k: v for k, v in asdict(self.search).items()
                       if k not in ("weights_enabled", "seed")},
            "target": self.target,
            "output": self.output,
        }


def _section(raw: dict, name: str, default=None) -> dict:
    value = raw.get(name, default if default is not None else {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return value


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a YAML mapping")

    env = _section(raw, "environment")
    env_type = env.get("type", "ctf")
    if env_type not in ("ctf", "nav"):
        raise ConfigError(f"unknown environment type {env_type!r}")
    if "map_text" in env:
        map_text = env["map_text"]
    elif "map" in env:
        map_path = (path.parent / env["map"]).resolve()
        if not map_path.exists():
            raise ConfigError(f"map file not found: {map_path}")
        map_text = map_path.read_text()
    else:
        raise ConfigError("environment needs a 'map' path or inline 'map_text'")

    predicates = raw.get("predicates")
    if not isinstance(predicates, list) or len(predicates) < 2:
        # each explanation F(phi_F) & G(phi_G) puts at least one predicate
        # in each part, so one predicate admits no explanation at all
        raise ConfigError("config needs a 'predicates' list of at least two entries")

    reward = _section(raw, "reward")
    trainer_raw = _section(raw, "trainer")
    metric = _section(raw, "metric")
    search_raw = _section(raw, "search")

    target = raw.get("target")
    if not isinstance(target, dict):
        raise ConfigError("config needs a 'target' mapping")
    variants = [k for k in ("explanation", "policy_path", "builtin") if k in target]
    if len(variants) != 1:
        raise ConfigError(
            f"target must have exactly one of explanation/policy_path/builtin, got {variants}")
    if "policy_path" in target:
        policy_path = (path.parent / target["policy_path"]).resolve()
        if not policy_path.exists():
            raise ConfigError(f"target policy file not found: {policy_path}")
        target = {"policy_path": str(policy_path)}

    try:
        trainer = rl.TrainerConfig(**trainer_raw)
        search = SearchParams(
            seed=int(raw.get("seed", 0)),
            weights_enabled=bool(metric.get("weights_enabled", True)),
            **search_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    def cell(key):
        val = env.get(key)
        return tuple(val) if val else None

    return RunConfig(
        seed=int(raw.get("seed", 0)),
        env_type=env_type,
        map_text=map_text,
        horizon=int(env.get("horizon", 100)),
        random_starts=bool(env.get("random_starts", False)),
        blue_start=cell("blue_start"),
        red_start=cell("red_start"),
        predicates=[dict(p) for p in predicates],
        reward_mode=reward.get("mode", "sparse"),
        beta=float(reward.get("beta", 0.1)),
        gamma=float(reward.get("gamma", 0.95)),
        rho_max=float(reward.get("rho_max", 1000.0)),
        trainer=trainer,
        sample_size=int(metric.get("sample_size", 256)),
        kl_eps=float(metric.get("kl_eps", metrics.KL_EPS)),
        replicate_mode=metric.get("replicate_mode", "by-entropy"),
        search=search,
        target=target,
        output=raw.get("output", "runs/out"),
    )


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------


@dataclass
class Runtime:
    config: RunConfig
    env: object
    model: EnvModel
    predicates: tuple[fm.AtomicPredicate, ...]
    target: rl.TabularPolicy
    sample: metrics.StateSample
    evaluator: Evaluator
    target_key: str | None


def build_env(cfg: RunConfig):
    try:
        if cfg.env_type == "ctf":
            grid = GridMap.parse(cfg.map_text, blue_start=cfg.blue_start,
                                 red_start=cfg.red_start, random_starts=cfg.random_starts)
            return CtfEnv(grid)
        return NavEnv(NavMap.parse(cfg.map_text))
    except MapFormatError as exc:
        raise ConfigError(f"bad {cfg.env_type} map: {exc}") from exc


def build_predicates(cfg: RunConfig, env) -> tuple[fm.AtomicPredicate, ...]:
    feature_index = {name: i for i, name in enumerate(env.feature_names)}
    preds = []
    for i, spec in enumerate(cfg.predicates):
        try:
            feature = spec["feature"]
            preds.append(fm.AtomicPredicate(
                i, spec["name"], feature_index[feature], float(spec["threshold"])))
        except KeyError as exc:
            raise ConfigError(f"bad predicate entry {spec}: {exc}") from exc
    fm.validate_predicates(tuple(preds))
    return tuple(preds)


def _train_target(cfg: RunConfig, model: EnvModel, predicates) -> tuple[rl.TabularPolicy, str | None]:
    from .fspa import build_fspa

    if "policy_path" in cfg.target:
        policy = rl.TabularPolicy.load(cfg.target["policy_path"])
        if policy.probs.shape != (model.n_rows, model.n_actions):
            raise ConfigError(
                f"target policy shape {policy.probs.shape} does not match the "
                f"environment ({model.n_rows} states, {model.n_actions} actions)")
        return policy, None

    if "builtin" in cfg.target:
        if cfg.target["builtin"] != "nav-shaped":
            raise ConfigError(f"unknown builtin target {cfg.target['builtin']!r}")
        if cfg.env_type != "nav":
            raise ConfigError("the nav-shaped builtin target needs a nav environment")
        return _nav_shaped_target(cfg, model), None

    canon = fm.parse_explanation(cfg.target["explanation"], predicates)
    key = fm.render(canon, predicates)
    fspa = build_fspa(canon, predicates, rho_max=cfg.rho_max)
    mdp = ProductMdp(model, fspa, reward_mode=cfg.reward_mode, beta=cfg.beta,
                     gamma=cfg.gamma, horizon=cfg.horizon)
    if cfg.trainer.mode == rl.EXACT_SOFT_VI:
        return rl.train(mdp, cfg.trainer), key
    replicates = [
        rl.train(mdp, cfg.trainer, rng=_key_stream(cfg.seed, "target:" + key, rep), seed=rep)
        for rep in range(cfg.search.n_rep)
    ]
    sample_rows = list(range(model.n_rows))
    return rl.select_replicate(replicates, sample_rows), key


def _nav_shaped_target(cfg: RunConfig, model: EnvModel) -> rl.TabularPolicy:
    """Non-LTL target: goal-distance shaping plus goal/hazard bonuses."""
    env = model.env
    d_goal = model.features[:, 0]
    goal_idx = np.array([s.pos == env.map.goal for s in model.states])
    hazard_idx = np.array([s.pos in env.map.hazards for s in model.states])
    cur_d = d_goal[model.rows[model.branch_row]]
    nxt = model.branch_next
    reward = 0.1 * (cur_d - d_goal[nxt]) + np.where(goal_idx[nxt], 1.0,
                                                    np.where(hazard_idx[nxt], -1.0, 0.0))
    next_row = np.where(model.terminal[nxt], -1, model.row_of[nxt])
    table = TransitionTable(model.n_rows, model.n_actions, model.branch_row,
                            model.branch_action, next_row, model.branch_prob,
                            reward, model.cell_offsets)
    return rl.soft_value_iteration(table, cfg.gamma, cfg.trainer)


def build_runtime(cfg: RunConfig) -> Runtime:
    env = build_env(cfg)
    model = build_env_model(env)
    predicates = build_predicates(cfg, env)
    try:
        target, target_key = _train_target(cfg, model, predicates)
    except rl.NoConvergenceError as exc:
        raise rl.NoConvergenceError(f"target policy: {exc}") from exc
    sample_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 424243]))
    sample = metrics.build_sample(model, target, cfg.sample_size, sample_rng,
                                  weights_enabled=cfg.search.weights_enabled,
                                  seed=cfg.seed)
    evaluator = Evaluator(model, predicates, target, sample, cfg.trainer,
                          cfg.search, reward_mode=cfg.reward_mode, beta=cfg.beta,
                          gamma=cfg.gamma, horizon=cfg.horizon, rho_max=cfg.rho_max,
                          kl_eps=cfg.kl_eps, replicate_mode=cfg.replicate_mode)
    return Runtime(cfg, env, model, predicates, target, sample, evaluator, target_key)
