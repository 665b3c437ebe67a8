"""Run configuration: YAML schema, validation, and runtime assembly.

A run config is a single YAML file whose sections mirror the library
modules (environment, predicates, reward, trainer, metric, search, target).
Each mapping section is one dataclass, defined in the module it configures,
whose ``__post_init__`` checks its ranges; an unknown key at any level is an
error.  ``load_config`` inlines any referenced files (the map) so that the
dumped manifest alone reproduces a run byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import formula as fm
from . import metrics, rl
from .envs import CtfEnv, EnvConfig, GridMap, MapFormatError, NavEnv, NavMap
from .product import EnvModel, RewardConfig, TransitionTable, build_env_model
from .search import Evaluator, SearchParams, explanation_policy

SCHEMA_VERSION = 5
SECTIONS = {"environment": EnvConfig, "reward": RewardConfig,
            "trainer": rl.TrainerConfig, "metric": metrics.MetricConfig,
            "search": SearchParams}
TARGET_KINDS = ("explanation", "policy_path", "builtin")
PREDICATE_FIELDS = {"name": "str", "feature": "str", "threshold": "float"}
# deepest nesting of YAML collections a config may have; the reference
# configs and the manifests nest 3 deep
MAX_DEPTH = 32


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    environment: EnvConfig
    predicates: list
    reward: RewardConfig
    trainer: rl.TrainerConfig
    metric: metrics.MetricConfig
    search: SearchParams
    target: dict
    seed: int = 0
    output: str = "runs/out"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        """Manifest form: fully resolved, file references inlined."""
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


# field annotation -> type.  Numbers accept what int()/float() accept, so
# ``1e-2``, which YAML reads as a string, is 0.01; floats must be finite.
# A bool is never a number, and an int setting takes a float only if it is
# integral: YAML reads ``1.0e+4`` as 10000.0, but int() would make 99.9 99.
_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _field(types: dict, key, value):
    """``value`` as setting ``key`` of a section whose annotations are ``types``."""
    if key not in types:
        raise ValueError(f"{key} is not a setting (known: {', '.join(types)})")
    kind = _TYPES.get(types[key])
    if kind is None:
        return value
    try:
        if kind in (int, float) and not isinstance(value, bool):
            number = kind(value)
            if isinstance(value, str) or number == value:
                value = number
        if type(value) is kind and (kind is not float or math.isfinite(value)):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} must be {'a finite float' if kind is float else types[key]}, "
                     f"got {value!r}")


def _build(cls, values: dict, where: str, types: dict | None = None):
    """``cls(**values)`` with each value passed through ``_field``; any error
    is a ConfigError naming ``where + key`` (range checks name their field
    first).  ``types`` defaults to the field annotations of dataclass ``cls``."""
    types = types or {f.name: f.type for f in fields(cls)}
    try:
        return cls(**{key: _field(types, key, value) for key, value in values.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def read_utf8(path: Path) -> str:
    """The text of the file ``path``; a ConfigError naming it if it is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from exc


def _inline_map(env: dict, base: Path) -> dict:
    """The environment section with a ``map`` file read into ``map_text``."""
    if "map" not in env:
        if "map_text" not in env:
            raise ConfigError("environment needs a 'map' path or inline 'map_text'")
        return env
    if "map_text" in env:
        raise ConfigError("environment takes a 'map' path or an inline 'map_text', not both")
    env = dict(env)
    map_path = (base / str(env.pop("map"))).resolve()
    if not map_path.is_file():
        raise ConfigError(f"map file not found: {map_path}")
    env["map_text"] = read_utf8(map_path)
    return env


def _target(target, base: Path) -> dict:
    if not isinstance(target, dict):
        raise ConfigError("config needs a 'target' mapping")
    target = _build(dict, target, "target.", dict.fromkeys(TARGET_KINDS, "str"))
    if len(target) != 1:
        raise ConfigError("target must have exactly one of "
                          f"{'/'.join(TARGET_KINDS)}, got {list(target)}")
    if "policy_path" in target:
        policy_path = (base / target["policy_path"]).resolve()
        if not policy_path.exists():
            raise ConfigError(f"target policy file not found: {policy_path}")
        target["policy_path"] = str(policy_path)
    return target


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_utf8(path)
        # the loaders compose nested collections by recursion, and libyaml's
        # overflows the C stack; the parser, which every loader shares, yields
        # its events without recursion, so the depth is checked on those
        depth = 0
        for event in yaml.parse(text, Loader=getattr(yaml, "CBaseLoader", yaml.BaseLoader)):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ConfigError(f"{path} nests collections deeper than {MAX_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
            elif isinstance(event, yaml.AliasEvent):
                # an alias adds size without adding events: 25 doubling
                # anchors stand for 2^25 elements
                raise ConfigError(f"{path} uses a YAML alias; write the value out in full")
        # libyaml's scanner when pyyaml has it; the constructor, and so the
        # objects built, are the same SafeConstructor either way
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a YAML mapping")
    raw.pop("schema_version", None)   # manifests record it; loading ignores it

    for name, cls in SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        if name == "environment":
            section = _inline_map(section, path.parent)
        raw[name] = _build(cls, section, f"{name}.")

    predicates = raw.get("predicates")
    if not isinstance(predicates, list) or len(predicates) < 2:
        # each explanation F(phi_F) & G(phi_G) puts at least one predicate
        # in each part, so one predicate admits no explanation at all
        raise ConfigError("config needs a 'predicates' list of at least two entries")
    raw["target"] = _target(raw.get("target"), path.parent)
    return _build(RunConfig, raw, "")


# ---------------------------------------------------------------------------
# Runtime assembly
# ---------------------------------------------------------------------------


@dataclass
class Runtime:
    """The evaluator (which holds the model and predicates), the target
    policy, and the target's rendered explanation, if it has one."""

    evaluator: Evaluator
    target: rl.TabularPolicy
    target_key: str | None


def build_env(cfg: RunConfig):
    env = cfg.environment
    try:
        if env.type == "ctf":
            grid = GridMap.parse(env.map_text, blue_start=env.blue_start,
                                 red_start=env.red_start, random_starts=env.random_starts)
            return CtfEnv(grid)
        return NavEnv(NavMap.parse(env.map_text))
    except MapFormatError as exc:
        raise ConfigError(f"bad {env.type} map: {exc}") from exc


def build_predicates(cfg: RunConfig, env) -> tuple[fm.AtomicPredicate, ...]:
    feature_index = {name: i for i, name in enumerate(env.feature_names)}
    preds = []
    for i, spec in enumerate(cfg.predicates):
        where = f"predicates[{i}]"
        if not isinstance(spec, dict) or set(spec) != set(PREDICATE_FIELDS):
            raise ConfigError(f"{where} must be a mapping of exactly "
                              f"{', '.join(PREDICATE_FIELDS)}, got {spec!r}")
        spec = _build(dict, spec, f"{where}.", PREDICATE_FIELDS)
        if spec["feature"] not in feature_index:
            raise ConfigError(f"{where}.feature {spec['feature']!r} is not one of "
                              f"{', '.join(feature_index)}")
        preds.append(fm.AtomicPredicate(i, spec["name"], feature_index[spec["feature"]],
                                        spec["threshold"]))
    try:
        fm.validate_predicates(tuple(preds))
    except ValueError as exc:
        raise ConfigError(f"predicates: {exc}") from exc
    return tuple(preds)


def _train_target(cfg: RunConfig, model: EnvModel, predicates) -> tuple[rl.TabularPolicy, str | None]:
    if "policy_path" in cfg.target:
        try:
            policy = rl.TabularPolicy.load(cfg.target["policy_path"])
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"target.policy_path {cfg.target['policy_path']} is not "
                              f"a policy file: {exc!r}") from exc
        if policy.probs.shape != (model.n_rows, model.n_actions):
            raise ConfigError(
                f"target policy shape {policy.probs.shape} does not match the "
                f"environment ({model.n_rows} states, {model.n_actions} actions)")
        return policy, None

    if "builtin" in cfg.target:
        if cfg.target["builtin"] != "nav-shaped":
            raise ConfigError(f"unknown builtin target {cfg.target['builtin']!r}")
        if cfg.environment.type != "nav":
            raise ConfigError("the nav-shaped builtin target needs a nav environment")
        return _nav_shaped_target(cfg, model), None

    canon = fm.parse_explanation(cfg.target["explanation"], predicates)
    key = fm.render(canon, predicates)
    return explanation_policy(model, canon, predicates, cfg, "target:" + key), key


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
    table = TransitionTable(model.n_rows, model.n_actions, model.branch_row,
                            model.branch_action, model.row_of[nxt], model.branch_prob,
                            reward)
    (_, policy), = rl.soft_value_iteration([(None, table)], cfg.reward.gamma, cfg.trainer)
    return policy


def build_runtime(cfg: RunConfig) -> Runtime:
    env = build_env(cfg)
    model = build_env_model(env)
    predicates = build_predicates(cfg, env)
    try:
        target, target_key = _train_target(cfg, model, predicates)
    except rl.NoConvergenceError as exc:
        raise rl.NoConvergenceError(f"target policy: {exc}") from exc
    sample_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 424243]))
    sample = metrics.build_sample(model, target, cfg.metric, sample_rng)
    return Runtime(Evaluator(model, predicates, sample, cfg), target, target_key)
