"""The benchmark's four workloads, each derived from the reference config.

Every workload starts from ``configs/ctf_reference.yaml`` and changes only
what the workload is about (map, predicates, reward, trainer, search size).
The derived config is written as YAML so that ``load_config`` parses a real
file, as a user's run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

MAPS = Path(__file__).resolve().parent / "maps"
REFERENCE = Path("configs") / "ctf_reference.yaml"
DEFAULT_SEED = 7


def _ctf5_oracle(raw: dict) -> None:
    """The reference config as it is."""


def _ctf7_search(raw: dict) -> None:
    raw["environment"]["map_text"] = (MAPS / "ctf7.txt").read_text()
    raw["environment"]["random_starts"] = True


def _nav_dense_search(raw: dict) -> None:
    env = raw["environment"]
    env.update(type="nav", map_text=(MAPS / "nav10.txt").read_text(), horizon=60)
    raw["reward"]["mode"] = "dense"
    raw["predicates"] = [
        {"name": "psi_goal", "feature": "d_goal", "threshold": 1.0},
        {"name": "psi_haz", "feature": "d_hazard", "threshold": 1.0},
        {"name": "psi_vase", "feature": "d_vase", "threshold": 1.0},
    ]
    raw["target"] = {"builtin": "nav-shaped"}


def _ctf5_qlearn_search(raw: dict) -> None:
    # ten restarts, like the other searches: with two, the number of
    # evaluations ranged 35-75 between seeds and dominated the run-to-run
    # spread; 200 episodes keep one solve near the others' length
    raw["trainer"] = {"mode": "q-learning", "tau": 0.01, "episodes": 200}
    raw["search"].update(n_rep=2)


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str                      # "oracle" or "search"
    edit: Callable[[dict], None]     # changes to the reference config

    def config_dict(self, root: Path, seed: int) -> dict:
        ref = root / REFERENCE
        raw = yaml.safe_load(ref.read_text())
        env = raw["environment"]
        env["map_text"] = (ref.parent / env.pop("map")).read_text()
        raw["seed"] = int(seed)
        self.edit(raw)
        return raw

    def write_config(self, root: Path, seed: int, out_dir: Path) -> Path:
        path = out_dir / f"{self.name}.yaml"
        path.write_text(yaml.safe_dump(self.config_dict(root, seed), sort_keys=False))
        return path


WORKLOADS = {w.name: w for w in (
    Workload("ctf5-oracle", "oracle", _ctf5_oracle),
    Workload("ctf7-search", "search", _ctf7_search),
    Workload("nav-dense-search", "search", _nav_dense_search),
    Workload("ctf5-qlearn-search", "search", _ctf5_qlearn_search),
)}
