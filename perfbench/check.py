"""Output checks: seed-independent invariants plus committed expected results.

Every solve is checked.  The invariants hold for any seed; the expected
file ``expected/<workload>.seed<N>.json`` exists only for the default seed
and pins the exact result (keys, and values to ``TOL``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from tlexplain import formula as fm
from tlexplain import rl

EXPECTED = Path(__file__).resolve().parent / "expected"
TOL = 1e-8            # wKL and utility values against the expected file
RECOVERY_WKL = 1e-9   # the oracle's target must score this close to zero
TOP_ORACLE = 10


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED / f"{workload}.seed{seed}.json"


def summarize(solver: str, runtime, out) -> dict:
    """The part of a solve's output the expected file pins."""
    if solver == "oracle":
        ranked, filtered = out
        return {"ranked": sorted(r.key for r in ranked),
                "filtered": sorted(r.key for r in filtered),
                "top": [[r.key, r.wkl] for r in ranked[:TOP_ORACLE]],
                "target_key": runtime.target_key}
    return {"top": [[r.key, r.utility] for r in out.results],
            "overall_searched_frac": out.overall_searched_frac}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=0.0, abs_tol=TOL)


def expected_problems(summary: dict, expected: dict) -> list[str]:
    problems = []
    for field in ("ranked", "filtered", "target_key", "overall_searched_frac"):
        if field in expected and summary.get(field) != expected[field]:
            problems.append(f"{field} differs from the expected result")
    got, want = summary["top"], expected["top"]
    if [k for k, _ in got] != [k for k, _ in want]:
        problems.append(f"top keys {[k for k, _ in got]} != expected {[k for k, _ in want]}")
    elif not all(_close(a, b) for (_, a), (_, b) in zip(got, want)):
        problems.append("top values differ from the expected result by more than 1e-8")
    return problems


def invariant_problems(solver: str, runtime, out) -> list[str]:
    """Properties every correct solve has, whatever the seed."""
    ev = runtime.evaluator
    class_keys = {fm.render(c, ev.predicates)
                  for c in fm.enumerate_all(ev.predicates, cap=ev.params.enumeration_cap)}
    threshold = ev.params.return_threshold
    problems = []
    if solver == "oracle":
        ranked, filtered = out
        keys = [r.key for r in ranked] + [r.key for r in filtered]
        if len(keys) != len(set(keys)) or set(keys) != class_keys:
            problems.append("oracle does not cover the class exactly once")
        order = [(-r.utility, r.key) for r in ranked]
        if order != sorted(order):
            problems.append("oracle ranking is not sorted")
        if any(r.wkl < -1e-12 or r.utility != -r.wkl for r in ranked):
            problems.append("a ranked record has negative wKL or utility != -wKL")
        if any(r.mean_return <= threshold for r in ranked) or any(
                r.mean_return > threshold or r.utility is not None for r in filtered):
            problems.append("ranked/filtered split disagrees with the return threshold")
        if runtime.target_key and ev.trainer_cfg.mode == rl.EXACT_SOFT_VI:
            # exact training is deterministic: the target trains to itself
            if not ranked or ranked[0].key != runtime.target_key or ranked[0].wkl > RECOVERY_WKL:
                problems.append("oracle does not recover the target explanation")
        return problems

    if out.denominator != len(class_keys):
        problems.append(f"denominator {out.denominator} != class size {len(class_keys)}")
    if out.overall_searched_frac != len(ev.cache) / out.denominator:
        problems.append("overall_searched_frac does not match the evaluations made")
    found = [r for r in out.results if r.key is not None]
    order = [(-r.utility, r.key) for r in found]
    if order != sorted(order) or len(out.results) > ev.params.top_k:
        problems.append("search results are not sorted best first within top_k")
    for r in found:
        record = ev.cache.get(r.key)
        if r.key not in class_keys or record is None or record.utility != r.utility:
            problems.append(f"result {r.key} is not a scored explanation of the class")
        elif r.utility > 0:
            problems.append(f"result {r.key} has positive utility")
    return problems


def check(workload: str, seed: int, solver: str, runtime, out) -> list[str]:
    """All problems with one solve's output; empty when it is correct."""
    problems = invariant_problems(solver, runtime, out)
    path = expected_path(workload, seed)
    if path.exists():
        problems += expected_problems(summarize(solver, runtime, out),
                                      json.loads(path.read_text()))
    return problems
