"""Acceptance suite: end-to-end guarantees on the reference setup.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all; failures surface through the assertion either way).
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from conftest import (build_product, dual_part, fresh_evaluator, generic_predicates,
                      sampled_successors)
from tlexplain import cli, envs, metrics
from tlexplain import formula as fm
from tlexplain import fspa as fa
from tlexplain.product import DENSE, RewardConfig, build_env_model
from tlexplain.rl import TabularPolicy
from tlexplain.search import brute_force_oracle, multi_start

TARGET_KEY = "F(psi_ba_rf) & G(!psi_ba_ra | psi_ba_bt)"
# loosest disjunctive explanation in the class: the F-part is true almost
# everywhere and the G-part holds from the start, so any near-uniform policy
# satisfies it -- the classic catch-all
CATCH_ALL = "F(!psi_ba_rf | !psi_ba_ra) & G(psi_ba_bt)"


def _report(number, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


@pytest.fixture(scope="module")
def oracle(reference_runtime):
    """Brute-force ranking of all 96 explanations, with its wall time."""
    start = time.perf_counter()
    ranked, filtered = brute_force_oracle(fresh_evaluator(reference_runtime))
    return ranked, filtered, time.perf_counter() - start


def test_criterion_01_enumeration_count(preds3):
    start = time.perf_counter()
    explanations = list(fm.enumerate_all(preds3))
    elapsed = time.perf_counter() - start
    _report(1, "3-predicate enumeration yields exactly 96 canonical "
               "explanations in under 1 s",
            len(explanations) == 96 and elapsed < 1.0)


def test_criterion_02_oracle_recovers_target(oracle):
    ranked, filtered, elapsed = oracle
    _report(2, "oracle ranks the target explanation first with wkl <= 1e-9 "
               "in under 10 min",
            len(ranked) + len(filtered) == 96
            and ranked[0].key == TARGET_KEY
            and ranked[0].wkl <= 1e-9
            and elapsed < 600.0)


def test_criterion_03_search_matches_oracle(oracle, reference_runtime):
    ranked, _, _ = oracle
    result = multi_start(fresh_evaluator(reference_runtime),
                         reference_runtime.evaluator.params)
    best = result.results[0]
    under_budget = all(r.searched_frac < 0.60 for r in result.results)
    _report(3, "10-restart search returns the oracle optimum while each "
               "restart evaluates under 60% of the class",
            best.key == ranked[0].key and under_budget)


def test_criterion_04_catch_all_rejected(oracle, reference_runtime):
    ranked, _, _ = oracle
    canon = fm.parse_explanation(CATCH_ALL, reference_runtime.evaluator.predicates)
    record = reference_runtime.evaluator.evaluate(canon)
    _report(4, "the all-disjunction catch-all scores strictly worse wkl "
               "than the target",
            not record.filtered and record.wkl > ranked[0].wkl)


def test_criterion_05_ablation_direction(oracle, reference_runtime):
    ranked, _, _ = oracle
    optimum = ranked[0].key
    base = replace(reference_runtime.evaluator.params, n_search=20, top_k=20)

    def hits(params, sample=None):
        result = multi_start(fresh_evaluator(reference_runtime, sample, search=params),
                             params)
        return sum(1 for r in result.results if r.key == optimum)

    full = hits(base)
    no_ext = hits(replace(base, n_ext=0))
    no_exp = hits(replace(base, expansion_enabled=False))
    sample = reference_runtime.evaluator.sample
    unit_sample = replace(sample, weights=np.ones(len(sample.rows)))
    no_weights = hits(base, unit_sample)
    _report(5, "over 20 restarts the full search reaches the optimum at "
               f"least as often as each ablation (full={full}, "
               f"no-ext={no_ext}, no-exp={no_exp}, no-weights={no_weights})",
            full >= no_ext and full >= no_exp and full >= no_weights)


def test_criterion_06_combat_stochasticity():
    env = envs.CtfEnv(envs.GridMap.parse("Bbbrr\n" + "bbbrr\n" * 3 + "bbbrR\n"))
    s = envs.CtfState(blue=(2, 2), red=(2, 3))  # adjacent, blue on blue turf
    rng = np.random.default_rng(0)
    stay = envs.ACTION_NAMES.index("stay")
    kills = sum(not nxt.red_alive for nxt in sampled_successors(env, s, stay, 100_000, rng))
    freq = kills / 100_000
    _report(6, f"adjacent-in-blue-territory kill frequency {freq:.4f} is "
               "within 0.75 +/- 0.01 over 1e5 steps",
            abs(freq - 0.75) <= 0.01)


def test_criterion_07_metric_properties(rng):
    ok = True
    p = np.array([0.2, 0.3, 0.5])
    ok &= metrics.kl_rows(p, p) == 0.0
    for _ in range(10_000):
        a, b = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        ok &= metrics.kl_rows(a, b) >= 0.0
    ok &= metrics.normalized_entropy(np.full(5, 0.2), np.log(5)) == pytest.approx(0.0)
    ok &= metrics.normalized_entropy(np.array([1.0, 0.0]), np.log(2)) == 1.0
    for _ in range(200):
        q = rng.dirichlet(np.ones(4))
        val = metrics.normalized_entropy(q, np.log(4))
        ok &= -1e-12 <= val <= 1.0 + 1e-12
    target = TabularPolicy(rng.dirichlet(np.ones(4), size=8))
    w = metrics.weights(target, list(range(8)))
    ok &= abs(w.sum() - 1.0) <= 1e-9
    cand = TabularPolicy(rng.dirichlet(np.ones(4), size=8))
    rows = np.arange(8)
    sample = metrics.StateSample(rows, w, metrics.clamped_rows(target, rows), metrics.KL_EPS)
    ok &= metrics.utility(cand, sample) == -float(
        np.dot(w, metrics.kl_rows(cand.probs[rows], target.probs[rows])))
    _report(7, "KL, normalized entropy, weight, and utility identities hold",
            bool(ok))


def test_criterion_08_robustness_soundness(rng):
    ok = True
    for n in (2, 3, 4):
        preds = generic_predicates(n)
        vectors = rng.uniform(0, 2, size=(100, n))
        vectors[np.abs(vectors - 1.0) < 1e-6] += 0.01
        for canon in fm.enumerate_all(preds):
            for part in (canon.f_part, canon.g_part):
                rho = fm.part_robustness(part, preds, vectors)
                strict = rho > 0
                for i in range(len(vectors)):
                    ok &= strict[i] == ref.part_holds(part, preds, vectors[i])
                # De Morgan: the dual part scores exactly the negation
                ok &= bool((fm.part_robustness(dual_part(part), preds, vectors)
                            == -rho).all())
    _report(8, "robustness sign agrees with boolean evaluation on the full "
               "<=4-predicate enumeration and De Morgan holds exactly",
            bool(ok))


def test_criterion_09_reward_cases():
    model = build_env_model(envs.NavEnv(envs.NavMap.parse("S..G\n")))
    preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
             fm.AtomicPredicate(1, "psi1", 1, 1.0))

    right = envs.ACTION_NAMES.index("right")
    rng0 = np.random.default_rng(0)

    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    mdp = build_product(model, canon, preds)
    start = mdp.initial_product_state(rng0)
    (nxt, _, r_loop) = ref.expand_transitions(mdp)[(start, right)][0]
    ok = nxt[1] == fa.Q0 and r_loop == 0.0

    trap_canon = fm.parse_explanation("F(psi0) & G(psi1)", preds)
    trap_mdp = build_product(model, trap_canon, preds)
    (nxt, _, r_trap) = ref.expand_transitions(trap_mdp)[(start, right)][0]
    x = trap_mdp.model.features[nxt[0]]
    ok &= (nxt[1] == fa.Q_TRAP
           and r_trap == pytest.approx(
               -ref.guard_robustness(trap_canon, preds, fa.Q_TRAP, x)))

    pre = next(s for s in model.states if s.pos == (0, 2))
    ps = (model.states.index(pre), fa.Q0)
    [(nxt, _, r_acc)] = ref.expand_transitions(mdp)[(ps, right)]
    x = model.features[nxt[0]]
    ok &= (nxt[1] == fa.Q_ACC
           and r_acc == pytest.approx(ref.guard_robustness(canon, preds, fa.Q_ACC, x))
           and r_acc > 0)

    dense_preds = (fm.AtomicPredicate(0, "psi0", 0, 1.5), preds[1])
    dense_canon = fm.parse_explanation("F(psi0) & G(!psi1)", dense_preds)
    dense = build_product(model, dense_canon, dense_preds,
                          RewardConfig(mode=DENSE, beta=0.1))
    [(nxt, _, r_dense)] = ref.expand_transitions(dense)[(start, right)]
    x = model.features[nxt[0]]
    q_star = ref.best_nontrap_neighbor(dense_canon, dense_preds, fa.Q0, x)
    ok &= (nxt[1] == fa.Q0
           and r_dense == pytest.approx(
               0.1 * ref.guard_robustness(dense_canon, dense_preds, q_star, x))
           and r_dense == pytest.approx(0.05))
    _report(9, "sparse rewards are (0, -rho_trap, +rho_accept) and the dense "
               "self-loop pays beta * rho(best non-trap guard)",
            bool(ok))


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = str(Path(__file__).resolve().parent.parent
                 / "configs" / "ctf_reference.yaml")
    assert cli.main(["search", "--config", config,
                     "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    manifest = str(tmp_path / "a" / "manifest.yaml")
    assert cli.main(["search", "--config", manifest,
                     "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    assert cli.main(["search", "--config", manifest,
                     "--out", str(tmp_path / "c")]) == cli.EXIT_OK
    same = all(
        (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
        and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("results.csv", "trace.jsonl"))
    _report(10, "a config run and two reruns from its manifest write "
                "byte-identical results and traces", same)
