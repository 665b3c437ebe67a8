"""Temporal-logic explanations for tabular RL policies.

Search a connected class of F(...) & G(...) formulas for the one whose
optimized policy best matches a target policy under a weighted-KL metric.
"""

from .formula import (
    AtomicPredicate,
    CanonicalExplanation,
    ExplanationEncoding,
    decode,
    enumerate_all,
    expansion,
    neighborhood,
    parse_explanation,
    part_robustness,
    render,
)
from .fspa import build_fspa
from .envs import CtfEnv, GridMap, NavEnv, NavMap
from .product import EnvModel, ProductMdp, build_env_model
from .rl import TabularPolicy, TrainerConfig, policy_entropy, select_replicate
from .metrics import StateSample, build_sample, normalized_entropy, utility, weights
from .search import (Evaluator, SearchParams, UtilityRecord, brute_force_oracle,
                     explanation_policy, greedy_search, multi_start, train_policies)
from .config import RunConfig, Runtime, build_runtime, load_config

__version__ = "0.1.0"
