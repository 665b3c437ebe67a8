"""Trainers: soft value iteration, Q-learning, entropy, replicate selection."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from tlexplain import envs
from tlexplain import formula as fm
from tlexplain import fspa as fa
from tlexplain import rl
from tlexplain.product import ProductMdp, TransitionTable, build_env_model

from conftest import PROPERTY, product_mdps


def _bandit(rewards=(1.0, 0.0)):
    """Single-state table whose two actions terminate with the given rewards."""
    n = len(rewards)
    table = TransitionTable(
        n_rows=1, n_actions=n,
        branch_row=np.zeros(n, dtype=int),
        branch_action=np.arange(n),
        branch_next_row=np.full(n, -1),
        branch_prob=np.ones(n),
        branch_reward=np.array(rewards, dtype=float),
        cell_offsets=np.arange(n + 1),
    )
    return table


def _corridor_mdp():
    model = build_env_model(envs.NavEnv(envs.NavMap.parse("S..G\n")))
    preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
             fm.AtomicPredicate(1, "psi1", 1, 1.0))
    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    return ProductMdp(model, fa.build_fspa(canon, preds))


def _reference_branches(mdp):
    """Flat (row, action, next row, prob, reward) arrays, built by a loop over
    :meth:`ProductMdp.expand_transitions`; next row -1 marks a terminal
    product state, whose value is zero."""
    row_of = mdp.model.row_of
    flat = []
    for (ps, a), entries in mdp.expand_transitions().items():
        for (state, q), p, r in entries:
            live = q == fa.Q0_I and row_of[state] >= 0
            flat.append((row_of[ps[0]], a, row_of[state] if live else -1, p, r))
    return tuple(map(np.array, zip(*flat)))


def _reference_backup(branches, mdp, v, tau):
    """One soft Bellman backup: accumulate Q per branch, then scipy logsumexp."""
    rows, actions, next_rows, probs, rewards = branches
    v_next = np.where(next_rows >= 0, v[next_rows], 0.0)
    q = np.zeros((mdp.model.n_rows, mdp.model.n_actions))
    np.add.at(q, (rows, actions), probs * (rewards + mdp.reward.gamma * v_next))
    return q, tau * logsumexp(q / tau, axis=1)


def _reference_soft_vi(branches, mdp, cfg):
    """Soft VI with the reference backup: (policy, values, sweeps)."""
    v = np.zeros(mdp.model.n_rows)
    for sweep in range(1, cfg.max_iterations + 1):
        q, v_new = _reference_backup(branches, mdp, v, cfg.tau)
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta < cfg.tolerance:
            return softmax(q / cfg.tau, axis=1), v, sweep
    raise AssertionError("reference soft VI did not converge")


class TestTrainerConfig:
    def test_tau_positive(self):
        with pytest.raises(ValueError):
            rl.TrainerConfig(tau=0.0)

    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            rl.TrainerConfig(tolerance=0.0)

    def test_max_iterations_positive(self):
        with pytest.raises(ValueError):
            rl.TrainerConfig(max_iterations=0)


class TestTabularPolicy:
    def test_rows_must_be_simplex(self):
        with pytest.raises(ValueError):
            rl.TabularPolicy(np.array([[0.5, 0.6]]), tau=0.1, trainer="t")
        with pytest.raises(ValueError):
            rl.TabularPolicy(np.array([[-0.1, 1.1]]), tau=0.1, trainer="t")

    def test_save_load_roundtrip(self, tmp_path):
        probs = softmax(np.random.default_rng(0).normal(size=(4, 5)), axis=1)
        policy = rl.TabularPolicy(probs, tau=0.25, trainer="exact-soft-vi")
        path = tmp_path / "policy.txt"
        policy.save(path)
        loaded = rl.TabularPolicy.load(path)
        assert np.array_equal(loaded.probs, probs)
        assert loaded.tau == 0.25 and loaded.trainer == "exact-soft-vi"

    def test_load_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tlexplain-policy states=2 actions=2 tau=0.1 trainer=t\n1.0 0.0\n")
        with pytest.raises(ValueError):
            rl.TabularPolicy.load(path)


class TestSoftValueIteration:
    def test_closed_form_softmax(self):
        policy = rl.soft_value_iteration(_bandit(), 0.9, rl.TrainerConfig(tau=1.0))
        assert policy.probs[0] == pytest.approx(softmax([1.0, 0.0]), abs=1e-9)
        assert policy.probs[0, 0] == pytest.approx(0.731, abs=1e-3)

    def test_small_tau_concentrates(self):
        policy = rl.soft_value_iteration(_bandit(), 0.9, rl.TrainerConfig(tau=0.01))
        assert policy.probs[0, 0] > 0.99

    def test_bitwise_deterministic(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1)
        p1 = rl.soft_value_iteration(mdp.table, mdp.reward.gamma, cfg)
        p2 = rl.soft_value_iteration(mdp.table, mdp.reward.gamma, cfg)
        assert np.array_equal(p1.probs, p2.probs)

    def test_fixed_point_idempotent(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1, tolerance=1e-10)
        branches = _reference_branches(mdp)
        _, v, _ = _reference_soft_vi(branches, mdp, cfg)
        q, v_again = _reference_backup(branches, mdp, v, cfg.tau)
        assert np.abs(v_again - v).max() < cfg.tolerance
        policy = rl.soft_value_iteration(mdp.table, mdp.reward.gamma, cfg)
        assert np.abs(policy.probs - softmax(q / cfg.tau, axis=1)).max() < 1e-9

    def test_no_convergence_raises(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1, tolerance=1e-15, max_iterations=2)
        with pytest.raises(rl.NoConvergenceError, match="2 sweeps.*residual"):
            rl.soft_value_iteration(mdp.table, mdp.reward.gamma, cfg)

    def test_greedy_matches_brute_force_on_two_state_mdp(self):
        """Enumerate all four deterministic policies of a 2-row chain."""
        table = TransitionTable(
            n_rows=2, n_actions=2,
            branch_row=np.array([0, 0, 1, 1]),
            branch_action=np.array([0, 1, 0, 1]),
            branch_next_row=np.array([1, -1, -1, -1]),
            branch_prob=np.ones(4),
            branch_reward=np.array([0.0, 0.2, 1.0, 0.0]),
            cell_offsets=np.arange(5),
        )
        # brute force: a0 then a0 earns 0 + 0.9*1 = 0.9 > 0.2
        policy = rl.soft_value_iteration(table, 0.9, rl.TrainerConfig(tau=0.01))
        assert policy.probs.argmax(axis=1).tolist() == [0, 0]


class TestSoftValueIterationAgainstReference:
    @PROPERTY
    @given(product_mdps(), st.sampled_from((0.05, 0.1, 0.3, 1.0)))
    def test_matches_reference_on_random_problems(self, mdp, tau):
        cfg = rl.TrainerConfig(tau=tau)
        expected, _, sweeps = _reference_soft_vi(_reference_branches(mdp), mdp, cfg)
        policy = rl.soft_value_iteration(mdp.table, mdp.reward.gamma,
                                         replace(cfg, max_iterations=sweeps))
        assert np.abs(policy.probs - expected).max() <= 1e-12
        if sweeps > 1:  # converging in exactly `sweeps`, not fewer
            with pytest.raises(rl.NoConvergenceError):
                rl.soft_value_iteration(mdp.table, mdp.reward.gamma,
                                        replace(cfg, max_iterations=sweeps - 1))

    def test_matches_reference_on_every_reference_candidate(self, reference_runtime):
        ev = reference_runtime.evaluator
        candidates = fm.enumerate_all(reference_runtime.predicates)
        assert len(candidates) == 96
        for canon in candidates:
            mdp = ev.build_mdp(canon)
            expected, _, _ = _reference_soft_vi(_reference_branches(mdp), mdp,
                                                ev.trainer_cfg)
            policy = rl.soft_value_iteration(mdp.table, mdp.reward.gamma, ev.trainer_cfg)
            assert np.abs(policy.probs - expected).max() <= 1e-9, ev.key_of(canon)


class TestQLearning:
    def _cfg(self, episodes=600):
        return rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=episodes,
                                learning_rate=0.3)

    def test_greedy_matches_value_iteration(self):
        mdp = _corridor_mdp()
        ql = rl.q_learning(mdp, self._cfg(), np.random.default_rng(0))
        vi = rl.soft_value_iteration(mdp.table, mdp.reward.gamma, rl.TrainerConfig(tau=0.01))
        assert ql.probs.argmax(axis=1).tolist() == vi.probs.argmax(axis=1).tolist()

    def test_equal_seeds_identical(self):
        mdp = _corridor_mdp()
        p1 = rl.q_learning(mdp, self._cfg(100), np.random.default_rng(3))
        p2 = rl.q_learning(mdp, self._cfg(100), np.random.default_rng(3))
        assert np.array_equal(p1.probs, p2.probs)

    def test_different_seeds_can_differ(self):
        mdp = _corridor_mdp()
        p1 = rl.q_learning(mdp, self._cfg(50), np.random.default_rng(1))
        p2 = rl.q_learning(mdp, self._cfg(50), np.random.default_rng(2))
        assert not np.array_equal(p1.probs, p2.probs)

    def test_train_dispatch(self):
        mdp = _corridor_mdp()
        with pytest.raises(ValueError):
            rl.train(mdp, rl.TrainerConfig(mode=rl.Q_LEARNING))  # rng required
        with pytest.raises(ValueError):
            rl.train(mdp, rl.TrainerConfig(mode="sarsa"))


class TestPolicyEntropy:
    def test_uniform_rows(self):
        probs = np.full((3, 4), 0.25)
        policy = rl.TabularPolicy(probs, tau=0.1, trainer="t")
        assert rl.policy_entropy(policy, [0, 1, 2]) == pytest.approx(np.log(4))

    def test_deterministic_rows(self):
        probs = np.eye(3)
        policy = rl.TabularPolicy(probs, tau=0.1, trainer="t")
        assert rl.policy_entropy(policy, [0, 1, 2]) == 0.0

    def test_mixed_rows_mean(self):
        rows = np.array([[0.5, 0.5], [0.9, 0.1]])
        policy = rl.TabularPolicy(rows, tau=0.1, trainer="t")
        expected = np.mean([-(0.5 * np.log(0.5)) * 2,
                            -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))])
        assert rl.policy_entropy(policy, [0, 1]) == pytest.approx(expected)

    def test_empty_sample_rejected(self):
        policy = rl.TabularPolicy(np.eye(2), tau=0.1, trainer="t")
        with pytest.raises(rl.EmptySampleError):
            rl.policy_entropy(policy, [])

    def test_bounds(self, rng):
        for _ in range(100):
            probs = softmax(rng.normal(size=(4, 5)), axis=1)
            policy = rl.TabularPolicy(probs, tau=0.1, trainer="t")
            h = rl.policy_entropy(policy, [0, 1, 2, 3])
            assert 0.0 <= h <= np.log(5) + 1e-12

    def test_monotone_in_temperature(self, rng):
        for _ in range(20):
            q = rng.normal(size=(3, 4))
            entropies = []
            for tau in (0.05, 0.1, 0.5, 1.0, 5.0):
                policy = rl.TabularPolicy(softmax(q / tau, axis=1), tau=tau, trainer="t")
                entropies.append(rl.policy_entropy(policy, [0, 1, 2]))
            assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))


class TestSelectReplicate:
    def _policy(self, rows):
        return rl.TabularPolicy(np.asarray(rows, dtype=float), tau=0.1, trainer="t")

    def test_single_returned_unchanged(self):
        p = self._policy([[0.5, 0.5]])
        assert rl.select_replicate([p], [0]) is p

    def test_entropy_tie_goes_to_lowest_index(self):
        low = self._policy([[1.0, 0.0]])
        high_a = self._policy([[0.5, 0.5]])
        high_b = self._policy([[0.5, 0.5]])
        assert rl.select_replicate([low, high_a, high_b], [0]) is high_a

    def test_by_utility_mode(self):
        a = self._policy([[1.0, 0.0]])
        b = self._policy([[0.0, 1.0]])
        chosen = rl.select_replicate([a, b], [0], mode="by-utility",
                                     utility_fn=lambda p: p.probs[0, 1])
        assert chosen is b

    def test_by_utility_requires_function(self):
        with pytest.raises(ValueError):
            rl.select_replicate([self._policy([[1.0, 0.0]])], [0], mode="by-utility")

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            rl.select_replicate([], [0])
