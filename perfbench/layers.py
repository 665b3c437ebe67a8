"""Per-layer metrics of one traced instance, derived from its spans.

The worker opens two phase spans per instance: ``setup`` (``load_config`` +
``build_runtime``) and ``solve`` (oracle or ``multi_start``).  Layer times
are summed over the spans of one phase; each is inclusive of its children
unless the name says self time.
"""

from __future__ import annotations

from statistics import median

from tracer import Tracer

TRAIN = ("rl.vi", "rl.qlearn")


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples above it: sample
    n - 10 of n, sorted; the median when there are too few samples."""
    n = len(values)
    if n == 0:
        return 0.0
    return sorted(values)[max(n - 10, (n + 1) // 2) - 1]


def _descendants(tracer: Tracer, root: int) -> list[int]:
    inside = {root}
    out = []
    for i in range(root + 1, len(tracer.spans)):
        if tracer.spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, setup: int, solve: int, searched_frac: float) -> dict:
    spans = tracer.spans
    s_ids, v_ids = _descendants(tracer, setup), _descendants(tracer, solve)

    def total(ids, name, attr="duration"):
        return sum((getattr(spans[i], attr) for i in ids if spans[i].name == name), 0.0)

    def count(ids, name):
        return sum(1 for i in ids if spans[i].name == name)

    evaluates = [i for i in v_ids if spans[i].name == "search.evaluate"]
    misses = [i for i in evaluates if not spans[i].attrs["hit"]]
    evals = len(misses)
    per_eval = max(evals, 1)

    train_of = {i: 0.0 for i in misses}
    trains = []
    for i in v_ids:
        if spans[i].name in TRAIN:
            trains.append(spans[i].duration * 1e3)
            j = spans[i].parent
            while j is not None and j not in train_of:
                j = spans[j].parent
            if j is not None:
                train_of[j] += spans[i].duration
    train_total = sum(train_of.values())
    train_filtered = sum(t for i, t in train_of.items() if spans[i].attrs["filtered"])
    eval_ms = [spans[i].duration * 1e3 for i in misses]

    setup_top = [i for i in s_ids if spans[i].parent == setup]
    model = next(spans[i] for i in s_ids if spans[i].name == "envs.model")
    steps = sum(spans[i].steps for i in v_ids)

    return {
        "config.load_s": total(s_ids, "config.load"),
        "config.target_train_s": sum(
            spans[i].duration for i in setup_top
            if spans[i].name not in ("config.load", "envs.model", "metrics.sample")),
        "envs.model_s": model.duration,
        "envs.states": model.attrs["states"],
        "envs.branches": model.attrs["branches"],
        "formula.enumerate_s": total(v_ids, "formula.enumerate"),
        "fspa.build_s": total(v_ids, "fspa.build"),
        "fspa.builds_per_eval": count(v_ids, "fspa.build") / per_eval,
        "product.mdp_s": total(v_ids, "product.mdp"),
        "product.table_s": total(v_ids, "product.table"),
        "product.tables_per_eval": count(v_ids, "product.table") / per_eval,
        "product.return_s": total(v_ids, "product.return", "self_s"),
        "product.step_s": sum((spans[i].step_s for i in v_ids), 0.0),
        "product.steps": steps,
        "rl.vi_s": total(v_ids, "rl.vi"),
        "rl.qlearn_s": total(v_ids, "rl.qlearn"),
        "rl.trains": len(trains),
        "rl.train_ms_p50": median(trains) if trains else 0.0,
        "rl.train_ms_tail": tail(trains),
        "metrics.utility_s": total(v_ids, "metrics.utility"),
        "metrics.select_s": total(v_ids, "metrics.select"),
        "metrics.sample_s": total(s_ids, "metrics.sample"),
        "search.evals": evals,
        "search.cache_hit_ratio": (len(evaluates) - evals) / max(len(evaluates), 1),
        "search.filtered_ratio": train_filtered / train_total if train_total else 0.0,
        "search.eval_ms_p50": median(eval_ms) if eval_ms else 0.0,
        "search.eval_ms_tail": tail(eval_ms),
        "search.self_s": spans[solve].self_s + sum(spans[i].self_s for i in evaluates),
        "search.searched_frac": searched_frac,
    }


# name -> (unit, better) of every per-layer metric, in report order
METRICS = {
    "config.load_s": ("s", "lower"),
    "config.target_train_s": ("s", "lower"),
    "envs.model_s": ("s", "lower"),
    "envs.states": ("count", "lower"),
    "envs.branches": ("count", "lower"),
    "formula.enumerate_s": ("s", "lower"),
    "fspa.build_s": ("s", "lower"),
    "fspa.builds_per_eval": ("1/eval", "lower"),
    "product.mdp_s": ("s", "lower"),
    "product.table_s": ("s", "lower"),
    "product.tables_per_eval": ("1/eval", "lower"),
    "product.return_s": ("s", "lower"),
    "product.step_s": ("s", "lower"),
    "product.steps": ("count", "lower"),
    "rl.vi_s": ("s", "lower"),
    "rl.qlearn_s": ("s", "lower"),
    "rl.trains": ("count", "lower"),
    "rl.train_ms_p50": ("ms", "lower"),
    "rl.train_ms_tail": ("ms", "lower"),
    "metrics.utility_s": ("s", "lower"),
    "metrics.select_s": ("s", "lower"),
    "metrics.sample_s": ("s", "lower"),
    "search.evals": ("count", "lower"),
    "search.cache_hit_ratio": ("ratio", "higher"),
    "search.filtered_ratio": ("ratio", "lower"),
    "search.eval_ms_p50": ("ms", "lower"),
    "search.eval_ms_tail": ("ms", "lower"),
    "search.self_s": ("s", "lower"),
    "search.searched_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts and ratios of counts: they repeat exactly between traced runs
COUNTS = ("envs.states", "envs.branches", "fspa.builds_per_eval",
          "product.tables_per_eval", "product.steps", "rl.trains",
          "search.evals", "search.cache_hit_ratio", "search.searched_frac")
