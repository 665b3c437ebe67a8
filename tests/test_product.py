"""Product MDP: reward cases, exact expansion, rollouts, exact returns."""

import math
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlexplain import envs
from tlexplain import formula as fm
from tlexplain import fspa as fa
from tlexplain import rl
from tlexplain.product import (
    DENSE,
    SPARSE,
    EnvModel,
    RewardConfig,
    TransitionTable,
    acceptance_reachable,
    build_env_model,
    row_partition,
)
from tlexplain.rl import TabularPolicy

import reference as ref
from conftest import (PROPERTY, build_product, ctf_product_mdps, evaluator_product,
                      explained_ctf_products, explained_products, full_horizon_return,
                      multi_start_product_mdps, product_mdp_pairs, product_mdps,
                      quotient_product)

CORRIDOR = "S..G\n"
WALLED = """\
S.#G
..##
....
"""

CTF_TEXT = """\
Bbbrr
bbbrr
bbbrr
bbbrr
bbbrR
"""


def _nav_model(text=CORRIDOR):
    return build_env_model(envs.NavEnv(envs.NavMap.parse(text)))


def _nav_preds(goal_threshold=1.0):
    # psi0 over d_goal; psi1 over d_hazard (never true on hazard-free maps)
    return (fm.AtomicPredicate(0, "psi0", 0, goal_threshold),
            fm.AtomicPredicate(1, "psi1", 1, 1.0))


def _mdp(model, preds, text="F(psi0) & G(!psi1)", horizon=100, **reward):
    canon = fm.parse_explanation(text, preds)
    return build_product(model, canon, preds, RewardConfig(**reward), horizon)


def _rollout(mdp, policy, rng):
    """One sampled episode through ``product_step``: (product-state
    trajectory, undiscounted return)."""
    ps = mdp.initial_product_state(rng)
    trajectory = [ps]
    total = 0.0
    for _ in range(mdp.horizon):
        probs = policy.probs[mdp.model.row_of[ps[0]]]
        a = min((rng.random() >= np.cumsum(probs)).sum(), len(probs) - 1)
        ps, reward, terminal = mdp.product_step(ps, int(a), rng)
        trajectory.append(ps)
        total += reward
        if terminal:
            break
    return trajectory, total


def _right_policy(model):
    probs = np.zeros((model.n_rows, model.n_actions))
    probs[:, envs.ACTION_NAMES.index("right")] = 1.0
    return TabularPolicy(probs)


# ---------------------------------------------------------------------------
# The environment model: one breadth-first pass
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _two_pass_env_model(env, cap: int = 2_000_000) -> dict:
    """The fields of ``build_env_model(env)`` as the two-pass builder it
    replaced computed them: a breadth-first search for the states, then
    ``transitions`` once more per row and action for the branches."""
    frontier = [s for s, _ in env.initial_states()]
    seen = dict.fromkeys(frontier)
    while frontier:
        nxt_frontier = []
        for s in frontier:
            if env.is_terminal(s):
                continue
            for a in range(env.n_actions):
                for nxt, _ in env.transitions(s, a):
                    if nxt not in seen:
                        seen[nxt] = None
                        nxt_frontier.append(nxt)
        if len(seen) > cap:
            raise envs.StateSpaceTooLargeError(f"more than {cap} reachable states")
        frontier = nxt_frontier
    states = list(seen)
    index = {s: i for i, s in enumerate(states)}
    terminal = np.array([env.is_terminal(s) for s in states])
    rows = np.flatnonzero(~terminal)
    row_of = np.full(len(states), -1, dtype=int)
    row_of[rows] = np.arange(len(rows))
    b_row, b_act, b_next, b_prob = [], [], [], []
    for r, si in enumerate(rows):
        for a in range(env.n_actions):
            for nxt, p in env.transitions(states[si], a):
                b_row.append(r)
                b_act.append(a)
                b_next.append(index[nxt])
                b_prob.append(p)
    b_row, b_act = np.array(b_row), np.array(b_act)
    counts = np.bincount(b_row * env.n_actions + b_act, minlength=len(rows) * env.n_actions)
    starts = env.initial_states()
    return dict(
        states=states, features=np.array([env.features(s) for s in states]),
        rows=rows, row_of=row_of, branch_row=b_row, branch_action=b_act,
        branch_next=np.array(b_next), branch_prob=np.array(b_prob),
        cell_offsets=np.concatenate([[0], np.cumsum(counts)]),
        start_rows=np.array([row_of[index[s]] for s, _ in starts]),
        start_probs=np.array([p for _, p in starts]))


def _assert_same_model(model, expected: dict):
    assert [f.name for f in fields(EnvModel)] == ["env", *expected]
    assert model.states == expected["states"]
    for name, want in expected.items():
        if name != "states":
            got = getattr(model, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class _CountingEnv:
    """``env`` with a count of ``transitions`` calls per (state, action)."""

    def __init__(self, env):
        self.env = env
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self.env, name)

    def transitions(self, s, a):
        self.calls[s, a] += 1
        return self.env.transitions(s, a)


def _map_env(name):
    if name == "ctf5":
        return envs.CtfEnv(envs.GridMap.parse((ROOT / "configs/maps/ctf5.txt").read_text()))
    text = (ROOT / "perfbench/maps" / f"{name}.txt").read_text()
    if name == "nav10":
        return envs.NavEnv(envs.NavMap.parse(text))
    return envs.CtfEnv(envs.GridMap.parse(text, random_starts=True))


class TestBuildEnvModel:
    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "nav10"])
    def test_equals_two_pass_builder(self, name):
        env = _map_env(name)
        _assert_same_model(build_env_model(env), _two_pass_env_model(env))

    @PROPERTY
    @given(product_mdps())
    def test_equals_two_pass_builder_on_random_maps(self, mdp):
        _assert_same_model(mdp.model, _two_pass_env_model(mdp.model.env))

    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "nav10"])
    def test_one_transitions_call_per_state_and_action(self, name):
        env = _CountingEnv(_map_env(name))
        model = build_env_model(env)
        assert env.calls == Counter({(s, a): 1 for s in model.states if not env.is_terminal(s)
                                     for a in range(env.n_actions)})

    def test_cap_is_the_largest_state_count_allowed(self):
        env = _map_env("ctf5")
        assert len(build_env_model(env, cap=502).states) == 502
        with pytest.raises(envs.StateSpaceTooLargeError, match="more than 501 reachable"):
            build_env_model(env, cap=501)

    def test_default_cap_refuses_an_endless_state_space(self):
        class Endless:  # state i always moves on to i + 1
            n_actions = 1
            initial_states = staticmethod(lambda: [(0, 1.0)])
            is_terminal = staticmethod(lambda s: False)
            transitions = staticmethod(lambda s, a: [(s + 1, 1.0)])
            features = staticmethod(lambda s: [0.0])

        with pytest.raises(envs.StateSpaceTooLargeError, match="more than 250000 reachable"):
            build_env_model(Endless())

    @pytest.mark.parametrize("probs", [(-0.5, 1.5), (math.nan, 1.0), (math.inf, 0.0),
                                       (0.5, 0.6), (0.25, 0.25)])
    def test_bad_start_probabilities_rejected(self, probs):
        env = _map_env("ctf7")
        starts = [s for s, _ in env.initial_states()][:2]
        env.initial_states = lambda: list(zip(starts, probs))
        with pytest.raises(ValueError, match="start probabilities must"):
            build_env_model(env)

    def test_terminal_start_is_not_a_size_error(self):
        env = envs.NavEnv(envs.NavMap.parse(CORRIDOR))
        env.initial_states = lambda: [(envs.NavState(env.map.goal), 1.0)]
        # a ValueError (exit 4 from the CLI), not the size error (exit 3)
        with pytest.raises(ValueError, match="start states must be non-terminal"):
            build_env_model(env)


class TestModelSizes:
    @pytest.mark.parametrize("name, states, rows, branches, start_rows", [
        ("ctf5", 502, 462, 2_617, 1),
        ("ctf7", 1_954, 1_816, 10_337, 540),   # random starts
        ("nav10", 100, 96, 480, 1),
    ])
    def test_counts(self, name, states, rows, branches, start_rows):
        model = build_env_model(_map_env(name))
        assert (len(model.states), model.n_rows, len(model.branch_prob),
                len(model.start_rows)) == (states, rows, branches, start_rows)


    @pytest.mark.parametrize("name, classes, rows", [
        ("ctf5", 126, 462),       # 375 states with red dead fall into 25 classes
        ("ctf7", 856, 1_816),     # random starts
        ("nav10", 96, 96),        # every class is one row
    ])
    def test_row_classes(self, name, classes, rows):
        model = build_env_model(_map_env(name))
        quotient, of_row = model.quotient
        assert (quotient.n_rows, model.n_rows, len(of_row)) == (classes, rows, rows)
        assert (quotient is model) == (classes == rows)

    @pytest.mark.parametrize("name, states, rows, branches, start_rows", [
        ("ctf5", 138, 126, 937, 1),
        ("ctf7", 883, 856, 5_537, 540),
        ("nav10", 100, 96, 480, 1),
    ])
    def test_quotient_counts(self, name, states, rows, branches, start_rows):
        quotient, _ = build_env_model(_map_env(name)).quotient
        assert (len(quotient.states), quotient.n_rows, len(quotient.branch_prob),
                len(quotient.start_rows)) == (states, rows, branches, start_rows)


class TestRowPartition:
    """``row_partition`` against the reference refinement, and the
    quotient model built from it."""

    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "nav10"])
    def test_matches_reference(self, name):
        model = build_env_model(_map_env(name))
        assert row_partition(model).tolist() == ref.row_partition(model)

    @PROPERTY
    @given(st.one_of(product_mdps(), ctf_product_mdps(), multi_start_product_mdps()))
    def test_matches_reference_on_random_maps(self, mdp):
        assert row_partition(mdp.model).tolist() == ref.row_partition(mdp.model)

    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "nav10"])
    def test_classes_hold_their_first_rows_branches(self, name):
        model = build_env_model(_map_env(name))
        labels = row_partition(model)
        q, of_row = model.quotient
        first = [int(np.flatnonzero(labels == k)[0]) for k in range(len(q.states))]
        assert first == sorted(first)      # numbered in order of first occurrence
        assert q.states == [model.states[i] for i in first]
        assert q.features.tobytes() == model.features[first].tobytes()
        assert np.array_equal(q.row_of >= 0, model.row_of[first] >= 0)
        assert np.array_equal(q.rows, np.flatnonzero(q.row_of >= 0))
        assert np.array_equal(q.row_of[q.rows], np.arange(q.n_rows))
        assert np.array_equal(of_row, q.row_of[labels[model.rows]])
        first_rows = model.row_of[np.array(first)[q.rows]]
        keep = np.isin(model.branch_row, first_rows)
        assert np.array_equal(q.branch_row, of_row[model.branch_row[keep]])
        assert np.array_equal(q.branch_next, labels[model.branch_next[keep]])
        for attr in ("branch_action", "branch_prob"):
            assert getattr(q, attr).tobytes() == getattr(model, attr)[keep].tobytes()
        n = model.n_actions
        assert np.array_equal(np.diff(q.cell_offsets),
                              np.diff(model.cell_offsets).reshape(-1, n)[first_rows].ravel())
        # every row's branches, renamed, are its class's, in branch order
        row = model.branch_row
        at = np.arange(len(row)) - model.cell_offsets[row * n] + q.cell_offsets[of_row[row] * n]
        assert np.array_equal(q.branch_next[at], labels[model.branch_next])
        assert q.branch_prob[at].tobytes() == model.branch_prob.tobytes()
        assert np.array_equal(q.start_rows, of_row[model.start_rows])
        assert q.start_probs.tobytes() == model.start_probs.tobytes()


class TestQuotientProducts:
    """What the evaluator's exact shortcuts read from a product on the
    model's quotient, against the same product on the model."""

    @PROPERTY
    @given(st.one_of(explained_ctf_products(2), explained_ctf_products(2, multi_start=True)))
    def test_shortcuts_read_the_same(self, products):
        """Acceptance is reachable on the quotient exactly when it is on the
        model, and two explanations' products have byte-equal ``q_next``
        and ``reward_next`` on the quotient exactly when they do on the
        model, so ``n_unreachable`` and ``n_product_hits`` do not move."""
        model = products[0][0].model
        labels = row_partition(model)
        first = np.unique(labels, return_index=True)[1]
        keys = []
        for mdp, canon, preds in products:
            classes = quotient_product(mdp, canon, preds)
            assert (acceptance_reachable(classes.model, classes.q_next)
                    == acceptance_reachable(model, mdp.q_next))
            for name in ("q_next", "reward_next"):
                on_classes, on_states = getattr(classes, name), getattr(mdp, name)
                assert on_classes.tobytes() == on_states[first].tobytes()
                assert on_classes[labels].tobytes() == on_states.tobytes()
            keys.append((mdp.q_next.tobytes() + mdp.reward_next.tobytes(),
                         classes.q_next.tobytes() + classes.reward_next.tobytes()))
        (states_a, classes_a), (states_b, classes_b) = keys
        assert (states_a == states_b) == (classes_a == classes_b)


def _assert_start_draws_match_choice(mdp, seed, draws=300):
    """``initial_product_state`` picks as ``rng.choice(start_rows, p=start_probs)``
    and leaves the generator in the same state."""
    m = mdp.model
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        row = ref.choice(m.start_rows, p=m.start_probs)
        assert mdp.initial_product_state(rng) == (m.rows[row], fa.Q0)
    assert rng.bit_generator.state == ref.bit_generator.state


class TestInitialProductState:
    def test_matches_choice_on_random_start_ctf7(self):
        model = build_env_model(_map_env("ctf7"))
        assert len(model.start_rows) == 540
        mdp = _mdp(model, (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                           fm.AtomicPredicate(1, "psi1", 2, 1.5)))
        for seed in range(3):
            _assert_start_draws_match_choice(mdp, seed, draws=2000)

    @PROPERTY
    @given(multi_start_product_mdps(), st.integers(0, 2**32))
    def test_matches_choice_on_random_multi_start_maps(self, mdp, seed):
        assert len(mdp.model.start_rows) > 1
        _assert_start_draws_match_choice(mdp, seed)


class TestConstruction:
    def test_beta_range_checked(self):
        model = _nav_model()
        with pytest.raises(ValueError):
            _mdp(model, _nav_preds(), beta=1.0)

    def test_gamma_range_checked(self):
        model = _nav_model()
        with pytest.raises(ValueError):
            _mdp(model, _nav_preds(), gamma=1.0)

    def test_unknown_reward_mode(self):
        model = _nav_model()
        with pytest.raises(ValueError):
            _mdp(model, _nav_preds(), mode="shaped")


class TestRewardCases:
    def test_sparse_self_loop_is_zero(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        start = mdp.initial_product_state(np.random.default_rng(0))
        (nxt, p, r) = ref.expand_transitions(mdp)[
            (start, envs.ACTION_NAMES.index("right"))][0]
        assert nxt[1] == fa.Q0 and r == 0.0

    def test_sparse_trap_reward_is_negative_guard_robustness(self):
        model = _nav_model()
        # G(psi1) is violated everywhere: immediate trap with reward
        # -rho(trap guard) = rho_g = 1 - d_max
        preds = _nav_preds()
        canon = fm.parse_explanation("F(psi0) & G(psi1)", preds)
        mdp = build_product(model, canon, preds)
        d_max = model.env.map.diagonal
        start = mdp.initial_product_state(np.random.default_rng(0))
        (nxt, _, r) = ref.expand_transitions(mdp)[
            (start, envs.ACTION_NAMES.index("right"))][0]
        assert nxt[1] == fa.Q_TRAP
        assert r == pytest.approx(1.0 - d_max)
        x = model.features[nxt[0]]
        assert r == pytest.approx(-ref.guard_robustness(canon, preds, fa.Q_TRAP, x))

    def test_sparse_accept_reward_is_accept_guard_robustness(self):
        model = _nav_model()
        preds = _nav_preds()
        canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
        table = ref.expand_transitions(build_product(model, canon, preds))
        # stepping right from the cell next to the goal enters q_acc
        pre = next(s for s in model.states if s.pos == (0, 2))
        ps = (model.states.index(pre), fa.Q0)
        [(nxt, _, r)] = table[(ps, envs.ACTION_NAMES.index("right"))]
        assert nxt[1] == fa.Q_ACC
        x = model.features[nxt[0]]
        assert r == pytest.approx(ref.guard_robustness(canon, preds, fa.Q_ACC, x))
        assert r == pytest.approx(1.0)  # min(rho_g, rho_f) = rho_f = 1 - 0

    def test_dense_self_loop_pays_beta_times_best_neighbor_guard(self):
        model = _nav_model()
        preds = _nav_preds(goal_threshold=1.5)
        canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
        mdp = build_product(model, canon, preds, RewardConfig(mode=DENSE, beta=0.1))
        table = ref.expand_transitions(mdp)
        start = mdp.initial_product_state(np.random.default_rng(0))
        # moving right lands on (0,1): d_goal = 2, |rho_f| = 0.5, rho_g large
        [(nxt, _, r)] = table[(start, envs.ACTION_NAMES.index("right"))]
        assert nxt[1] == fa.Q0
        assert r == pytest.approx(0.05)
        x = model.features[nxt[0]]
        q_star = ref.best_nontrap_neighbor(canon, preds, fa.Q0, x)
        assert r == pytest.approx(0.1 * ref.guard_robustness(canon, preds, q_star, x))

    @PROPERTY
    @given(explained_products())
    def test_every_state_matches_reference_semantics(self, drawn):
        """``q_next`` and ``reward_next`` on every environment state equal
        the automaton's step and guard robustness from q0 at that state."""
        mdp, canon, preds = drawn
        for s, x in enumerate(mdp.model.features):
            q = ref.step(canon, preds, fa.Q0, x)
            assert mdp.q_next[s] == q
            if q == fa.Q_TRAP:
                expected = -ref.guard_robustness(canon, preds, fa.Q_TRAP, x)
            elif q == fa.Q_ACC:
                expected = ref.guard_robustness(canon, preds, fa.Q_ACC, x)
            elif mdp.reward.mode == DENSE:
                best = ref.best_nontrap_neighbor(canon, preds, fa.Q0, x)
                expected = mdp.reward.beta * ref.guard_robustness(canon, preds, best, x)
            else:
                expected = 0.0
            assert mdp.reward_next[s] == expected

    def test_dense_terminal_cases_match_sparse(self):
        model = _nav_model()
        sparse = _mdp(model, _nav_preds(), mode=SPARSE)
        dense = _mdp(model, _nav_preds(), mode=DENSE)
        acc_or_trap = sparse.q_next != fa.Q0
        assert np.array_equal(sparse.reward_next[acc_or_trap],
                              dense.reward_next[acc_or_trap])

    def test_sparse_sign_partition(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds, text="F(psi0) & G(!psi1)")
        assert (mdp.reward_next[mdp.q_next == fa.Q_ACC] > 0).all()
        assert (mdp.reward_next[mdp.q_next == fa.Q_TRAP] < 0).all()
        assert (mdp.reward_next[mdp.q_next == fa.Q0] == 0).all()


class TestExpandTransitions:
    def test_deterministic_env_single_entries(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        for entries in ref.expand_transitions(mdp).values():
            assert len(entries) == 1 and entries[0][1] == 1.0

    def test_row_probabilities_sum_to_one(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds)
        for entries in ref.expand_transitions(mdp).values():
            assert sum(p for _, p, _ in entries) == pytest.approx(1.0, abs=1e-12)

    def test_combat_cell_has_kill_branches(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds)
        combat = envs.CtfState(blue=(2, 2), red=(2, 3))
        assert combat in model.states
        ps = (model.states.index(combat), fa.Q0)
        entries = ref.expand_transitions(mdp)[(ps, envs.ACTION_NAMES.index("stay"))]
        assert sorted(p for _, p, _ in entries) == [0.25, 0.75]

    def test_product_step_matches_table_frequencies(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds)
        combat = envs.CtfState(blue=(2, 2), red=(2, 3))
        ps = (model.states.index(combat), fa.Q0)
        a = envs.ACTION_NAMES.index("stay")
        entries = ref.expand_transitions(mdp)[(ps, a)]
        rng = np.random.default_rng(11)
        n = 20_000
        counts = {nxt: 0 for nxt, _, _ in entries}
        for _ in range(n):
            nxt, _, _ = mdp.product_step(ps, a, rng)
            counts[nxt] += 1
        for nxt, p, _ in entries:
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[nxt] / n - p) < 3 * sigma + 1e-9


class TestRollout:
    def test_optimal_policy_earns_positive_return(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        _, total = _rollout(mdp, _right_policy(model), np.random.default_rng(0))
        assert total == pytest.approx(1.0)

    def test_walled_goal_returns_nonpositive(self):
        model = _nav_model(WALLED)
        mdp = _mdp(model, _nav_preds())
        rng = np.random.default_rng(3)
        probs = np.full((model.n_rows, model.n_actions), 1.0 / model.n_actions)
        policy = TabularPolicy(probs)
        for _ in range(50):
            _, total = _rollout(mdp, policy, rng)
            assert total <= 0.0

    def test_identical_seeds_identical_trajectories(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds)
        probs = np.full((model.n_rows, model.n_actions), 1.0 / model.n_actions)
        policy = TabularPolicy(probs)
        t1, r1 = _rollout(mdp, policy, np.random.default_rng(5))
        t2, r2 = _rollout(mdp, policy, np.random.default_rng(5))
        assert t1 == t2 and r1 == r2

    def test_step_on_terminal_product_state_rejected(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        goal = next(i for i, s in enumerate(model.states) if s.pos == (0, 3))
        with pytest.raises(envs.StepOnTerminalError):
            mdp.product_step((goal, fa.Q_ACC), 0, np.random.default_rng(0))

    def test_horizon_bounds_episode_length(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds(), horizon=4)
        probs = np.zeros((model.n_rows, model.n_actions))
        probs[:, envs.ACTION_NAMES.index("stay")] = 1.0
        policy = TabularPolicy(probs)
        traj, _ = _rollout(mdp, policy, np.random.default_rng(0))
        assert len(traj) == 5  # start + horizon steps


class TestAverageReturn:
    def test_single_episode_equals_rollout(self):
        # deterministic dynamics and policy: the one episode is the expectation
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        policy = _right_policy(model)
        _, single = _rollout(mdp, policy, np.random.default_rng(0))
        assert mdp.average_return(policy) == pytest.approx(single, abs=1e-12)

    def test_constant_returns_average_exactly(self):
        model = _nav_model()
        mdp = _mdp(model, _nav_preds())
        assert mdp.average_return(_right_policy(model)) == pytest.approx(1.0, abs=1e-12)

    def test_horizon_truncates_return(self):
        # the goal is three steps away, so two steps earn nothing
        model = _nav_model()
        policy = _right_policy(model)
        assert _mdp(model, _nav_preds(), horizon=2).average_return(policy) == 0.0
        assert _mdp(model, _nav_preds(), horizon=3).average_return(policy) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_serial_rollouts_for_stochastic_env(self):
        model = build_env_model(envs.CtfEnv(envs.GridMap.parse(CTF_TEXT)))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        mdp = _mdp(model, preds)
        probs = np.full((model.n_rows, model.n_actions), 1.0 / model.n_actions)
        policy = TabularPolicy(probs)
        exact = mdp.average_return(policy)
        rng = np.random.default_rng(10)
        returns = np.array([_rollout(mdp, policy, rng)[1] for _ in range(400)])
        se = returns.std(ddof=1) / math.sqrt(len(returns))
        assert abs(returns.mean() - exact) <= 4 * se


# ---------------------------------------------------------------------------
# The exact return against the reference semantics, on random small problems
# ---------------------------------------------------------------------------


def _reference_moments(mdp, policy):
    """First and second moments of the return, by plain dict recursion.

    Walks :func:`reference.expand_transitions` only: a product state that
    is not a key of the expanded table is terminal and earns nothing more.
    """
    table = ref.expand_transitions(mdp)
    row_of = mdp.model.row_of
    m1, m2 = {}, {}
    for _ in range(mdp.horizon):
        n1, n2 = {}, {}
        for (ps, a), entries in table.items():
            pa = policy.probs[row_of[ps[0]], a]
            for nxt, p, r in entries:
                g1, g2 = m1.get(nxt, 0.0), m2.get(nxt, 0.0)
                n1[ps] = n1.get(ps, 0.0) + pa * p * (r + g1)
                n2[ps] = n2.get(ps, 0.0) + pa * p * (r * r + 2 * r * g1 + g2)
        m1, m2 = n1, n2
    starts = [((mdp.model.states.index(s), fa.Q0), p)
              for s, p in mdp.model.env.initial_states()]
    return (sum(p * m1.get(ps, 0.0) for ps, p in starts),
            sum(p * m2.get(ps, 0.0) for ps, p in starts))


@st.composite
def _problems(draw):
    """A random ``(product MDP, explanation, predicates)`` triple on a small
    nav or CtF map, plus a policy."""
    drawn = draw(explained_products())
    model = drawn[0].model
    # row-stochastic, with every action at least 0.1/n_actions likely
    seed = draw(st.integers(0, 2**32 - 1))
    raw = np.random.default_rng(seed).dirichlet(np.ones(model.n_actions),
                                                size=model.n_rows)
    probs = 0.9 * raw + 0.1 / model.n_actions
    policy = TabularPolicy(probs / probs.sum(axis=1, keepdims=True))
    return drawn, policy


class TestExactReturnProperties:
    @PROPERTY
    @given(_problems())
    def test_equals_dict_recursion_over_expanded_table(self, problem):
        (mdp, _, _), policy = problem
        mean, _ = _reference_moments(mdp, policy)
        assert mdp.average_return(policy) == pytest.approx(mean, rel=1e-12, abs=1e-12)

    @PROPERTY
    @given(_problems())
    def test_agrees_with_rollout_mean(self, problem):
        (mdp, _, _), policy = problem
        exact = mdp.average_return(policy)
        mean, second = _reference_moments(mdp, policy)
        n = 200
        rng = np.random.default_rng(0)
        sampled = np.mean([_rollout(mdp, policy, rng)[1] for _ in range(n)])
        # standard error from the exact variance: a rare return that the
        # sample misses would make the sample's own spread read zero
        se = math.sqrt(max(second - mean * mean, 0.0) / n)
        assert abs(sampled - exact) <= 4 * se + 1e-9


# ---------------------------------------------------------------------------
# The exact shortcuts: reachable acceptance, the return's fixed point, and
# products that are equal whatever their explanation
# ---------------------------------------------------------------------------


def _random_policy(model, seed):
    probs = np.random.default_rng(seed).dirichlet(np.ones(model.n_actions),
                                                  size=model.n_rows)
    return TabularPolicy(probs)


def _soft_vi(mdp, trainer_cfg):
    """The soft-VI policy of ``mdp`` under its own discount."""
    (_, policy), = rl.soft_value_iteration([mdp.table], mdp.reward.gamma, trainer_cfg)
    return policy


def _with(mdp, canon, preds, reward=None, horizon=None):
    """``mdp``, the product of ``canon``, rebuilt with another ``reward`` or
    ``horizon``."""
    return build_product(mdp.model, canon, preds, reward or mdp.reward,
                         horizon or mdp.horizon)


def _reference_acceptance_reachable(mdp):
    """Depth-first over :func:`reference.expand_transitions` from the start
    states: a product state that is not a key of the expanded table is
    terminal and leads nowhere."""
    table = ref.expand_transitions(mdp)
    n_actions = mdp.model.n_actions
    todo = [(mdp.model.states.index(s), fa.Q0) for s, _ in mdp.model.env.initial_states()]
    seen = set(todo)
    while todo:
        ps = todo.pop()
        for a in range(n_actions):
            for nxt, _, _ in table[(ps, a)]:
                if nxt[1] == fa.Q_ACC:
                    return True
                if (nxt, 0) in table and nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return False


def _reachable(mdp) -> bool:
    return acceptance_reachable(mdp.model, mdp.q_next)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestAcceptanceReachable:
    def test_walled_goal_is_unreachable(self):
        assert not _reachable(_mdp(_nav_model(WALLED), _nav_preds()))
        assert _reachable(_mdp(_nav_model(), _nav_preds()))

    def test_every_start_row_counts(self):
        """Blue's start cell (0, 0) is walled in, so from it alone the red
        flag is out of reach; from the other random starts it is not."""
        text = "b#Bbrr\nr#rrrR\n"
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),    # d_ba_rf
                 fm.AtomicPredicate(1, "psi1", 3, 0.5))    # d_ba_bt
        walled = envs.GridMap.parse(text, blue_start=(0, 0), red_start=(0, 4))
        assert not _reachable(_mdp(build_env_model(envs.CtfEnv(walled)), preds))
        anywhere = envs.GridMap.parse(text, random_starts=True)
        assert _reachable(_mdp(build_env_model(envs.CtfEnv(anywhere)), preds))

    def test_search_stops_at_the_trap(self):
        """The vase cell fails G(!psi1): the run is trapped there, even
        though the environment goes on to the goal behind it."""
        preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),    # d_goal
                 fm.AtomicPredicate(1, "psi1", 2, 0.5))    # d_vase
        assert not _reachable(_mdp(_nav_model("SVG\n"), preds))
        assert _reachable(_mdp(_nav_model("SVG\n...\n"), preds))   # a way around

    @PROPERTY
    @given(product_mdps())
    def test_matches_search_over_expanded_table(self, mdp):
        assert _reachable(mdp) == _reference_acceptance_reachable(mdp)

    @PROPERTY
    @given(explained_products(), st.integers(0, 2**32 - 1))
    def test_unreachable_bounds_every_sparse_return_by_zero(self, drawn, seed):
        mdp, canon, preds = drawn
        mdp = _with(mdp, canon, preds, reward=replace(mdp.reward, mode=SPARSE))
        if _reachable(mdp):
            return
        trained = _soft_vi(mdp, rl.TrainerConfig(tau=0.1))
        assert full_horizon_return(mdp, trained) <= 0
        assert full_horizon_return(mdp, _random_policy(mdp.model, seed)) <= 0


class TestReturnFixedPoint:
    @PROPERTY
    @given(_problems(), st.integers(1, 500), st.booleans())
    def test_equals_full_horizon_bit_for_bit(self, problem, horizon, trained):
        (mdp, canon, preds), policy = problem
        mdp = _with(mdp, canon, preds, horizon=horizon)
        if trained:
            policy = _soft_vi(mdp, rl.TrainerConfig(tau=0.01))
        assert _bits(mdp.average_return(policy)) == _bits(full_horizon_return(mdp, policy))

    @pytest.mark.parametrize("horizon", [1, 2, 100])
    def test_table_without_live_branches(self, horizon):
        # psi0 holds in every state, so every branch enters acceptance
        mdp = _mdp(_nav_model(), _nav_preds(goal_threshold=10.0), horizon=horizon)
        assert (mdp.table.branch_next_row < 0).all()
        policy = _random_policy(mdp.model, 0)
        assert _bits(mdp.average_return(policy)) == _bits(full_horizon_return(mdp, policy))
        assert mdp.average_return(policy) > 0

    def test_reference_candidates_at_long_horizon(self, reference_runtime):
        ev = reference_runtime.evaluator
        for canon in fm.enumerate_all(ev.predicates):
            mdp = _with(evaluator_product(ev, canon), canon, ev.predicates, horizon=2_000)
            policy = _soft_vi(mdp, ev.trainer_cfg)
            assert _bits(mdp.average_return(policy)) == _bits(full_horizon_return(mdp, policy))


def _same_product(a, b) -> bool:
    return np.array_equal(a.q_next, b.q_next) and np.array_equal(a.reward_next, b.reward_next)


def _assert_same_training(a, b, trainer_cfg):
    for f in fields(TransitionTable):
        assert np.array_equal(getattr(a.table, f.name), getattr(b.table, f.name)), f.name
    assert np.array_equal(_soft_vi(a, trainer_cfg).probs, _soft_vi(b, trainer_cfg).probs)


class TestEqualProducts:
    @PROPERTY
    @given(product_mdp_pairs())
    def test_equal_vectors_give_equal_tables_and_policies(self, pair):
        a, b = pair
        if _same_product(a, b):
            _assert_same_training(a, b, rl.TrainerConfig(tau=0.1))

    def test_reference_candidates(self, reference_runtime):
        ev = reference_runtime.evaluator
        mdps = [evaluator_product(ev, canon) for canon in fm.enumerate_all(ev.predicates)]
        first_of = {}
        repeats = 0
        for mdp in mdps:
            key = mdp.q_next.tobytes() + mdp.reward_next.tobytes()
            if key in first_of:
                repeats += 1
                assert _same_product(first_of[key], mdp)
                _assert_same_training(first_of[key], mdp, ev.trainer_cfg)
            else:
                first_of[key] = mdp
        assert repeats == 11
