"""Dissect the policy-similarity metric on three explanations.

Scores the true target explanation, a one-bit-flip neighbor, and a loose
"catch-all" explanation against the reference target policy, then unpacks the
weighted-KL utility: the per-state KL divergences, the entropy-derived
weights, and the return filter.

Run from the repository root::

    python3 demos/metric_anatomy.py
"""

from pathlib import Path

import numpy as np

from tlexplain import formula as fm
from tlexplain import metrics, search
from tlexplain.config import build_runtime, load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ctf_reference.yaml"

CANDIDATES = (
    "F(psi_ba_rf) & G(!psi_ba_ra | psi_ba_bt)",   # the target itself
    "F(psi_ba_rf) & G(psi_ba_ra | psi_ba_bt)",    # one negation flipped
    "F(!psi_ba_rf | !psi_ba_ra) & G(psi_ba_bt)",  # catch-all: loose everywhere
)


def main() -> None:
    runtime = build_runtime(load_config(CONFIG))
    ev = runtime.evaluator
    sample = ev.sample
    print(f"state sample: {len(sample.rows)} non-trap product states")
    w = np.asarray(sample.weights)
    print(f"entropy weights: min={w.min():.2e} max={w.max():.2e} "
          f"(decisive target states dominate)\n")

    for key in CANDIDATES:
        canon = fm.parse_explanation(key, ev.predicates)
        rec = ev.evaluate(canon)
        line = f"mean return {rec.mean_return:7.3f}"
        if rec.filtered:
            print(f"{key}\n  {line}  -> filtered by the return threshold\n")
            continue
        print(f"{key}\n  {line}  wKL {rec.wkl:.4f}  utility {rec.utility:.4f}")
        cand = search.explanation_policy(ev.model, canon, ev.predicates, ev.cfg, key)
        rows = list(sample.rows)[:3]
        kls = metrics.kl_rows(cand.probs[rows], runtime.target.probs[rows])
        print(f"  first 3 sampled-state KLs: {np.array2string(kls, precision=3)}")
        print()

    print("the catch-all passes the return filter (it is easy to satisfy) but")
    print("its near-uniform policy diverges from the decisive target policy,")
    print("so the weighted KL rejects it.")


if __name__ == "__main__":
    main()
