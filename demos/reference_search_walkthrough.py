"""Walk through the reference capture-the-flag run end to end.

Builds the reference runtime (5x5 map, three predicates), ranks all 96
explanations by brute force, then runs the 10-restart greedy search and shows
that it recovers the brute-force optimum while touching well under the full
class.  Takes a few seconds.

Run from the repository root::

    python3 demos/reference_search_walkthrough.py
"""

import time
from pathlib import Path

from tlexplain.config import build_runtime, load_config
from tlexplain.search import brute_force_oracle, multi_start

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ctf_reference.yaml"


def main() -> None:
    cfg = load_config(CONFIG)
    runtime = build_runtime(cfg)
    print(f"target explanation: {runtime.target_key}")
    model = runtime.evaluator.model
    print(f"product model: {model.n_rows} policy rows, {model.n_actions} actions\n")

    t0 = time.perf_counter()
    ranked, filtered = brute_force_oracle(runtime.evaluator)
    print(f"brute force: {len(ranked)} ranked + {len(filtered)} filtered "
          f"explanations in {time.perf_counter() - t0:.1f}s")
    print("top 5 by weighted KL (lower is a better match):")
    for rank, rec in enumerate(ranked[:5], start=1):
        print(f"  {rank}. wKL={rec.wkl:<8.4g} {rec.key}")
    print(f"  ... worst ranked: wKL={ranked[-1].wkl:.4g} {ranked[-1].key}\n")

    t0 = time.perf_counter()
    result = multi_start(runtime.evaluator, cfg.search)
    print(f"greedy search: {cfg.search.n_search} restarts in "
          f"{time.perf_counter() - t0:.1f}s")
    for rank, res in enumerate(result.results[:5], start=1):
        print(f"  {rank}. wKL={res.record.wkl:<8.4g} "
              f"searched {100 * res.searched_frac:.1f}%  {res.key}")
    best = result.results[0]
    print(f"\nsearch best == oracle best: {best.key == ranked[0].key}")
    print(f"largest single-restart coverage: "
          f"{100 * max(r.searched_frac for r in result.results):.1f}% of 96")


if __name__ == "__main__":
    main()
