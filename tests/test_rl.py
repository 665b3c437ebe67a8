"""Trainers: soft value iteration, Q-learning, entropy, replicate selection."""

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from tlexplain import config, envs
from tlexplain import formula as fm
from tlexplain import fspa as fa
from tlexplain import rl, search
from tlexplain.product import (DENSE, SPARSE, ProductMdp, RewardConfig, TransitionTable,
                               acceptance_reachable, average_returns, build_env_model)

from conftest import (PROPERTY, build_product, evaluator_product, explained_ctf_products,
                      full_horizon_return, product_mdp_batches, product_mdps,
                      quotient_product)
from reference import expand_transitions

ROOT = Path(__file__).resolve().parent.parent


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
    )
    return table


def _corridor_mdp():
    model = build_env_model(envs.NavEnv(envs.NavMap.parse("S..G\n")))
    preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
             fm.AtomicPredicate(1, "psi1", 1, 1.0))
    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    return build_product(model, canon, preds)


def _reference_branches(mdp):
    """Flat (row, action, next row, prob, reward) arrays, built by a loop over
    :func:`reference.expand_transitions`; next row -1 marks a terminal
    product state, whose value is zero."""
    row_of = mdp.model.row_of
    flat = []
    for (ps, a), entries in expand_transitions(mdp).items():
        for (state, q), p, r in entries:
            live = q == fa.Q0 and row_of[state] >= 0
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


def _serial_soft_vi(table, gamma, cfg):
    """Soft VI on one table, one table per loop, as it was before tables
    were trained in batches: ``rl.soft_value_iteration`` must give each
    table this policy, and this error, bit for bit."""
    n_rows, n_actions = table.n_rows, table.n_actions
    n_cells = n_rows * n_actions
    cells = table.branch_action * n_rows + table.branch_row
    base = np.bincount(cells, weights=table.branch_prob * table.branch_reward,
                       minlength=n_cells)
    live = table.branch_next_row >= 0
    live_cells = cells[live]
    live_next = table.branch_next_row[live]
    live_w = gamma * table.branch_prob[live]
    tau = cfg.tau
    v = np.zeros(n_rows)
    for _ in range(cfg.max_iterations):
        q = base + np.bincount(live_cells, weights=live_w * v[live_next],
                               minlength=n_cells)
        m, z, s = rl._action_softmax(q.reshape(n_actions, n_rows), tau)
        v_new = m + tau * np.log(s)
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta < cfg.tolerance:
            return rl.TabularPolicy(rl._policy_rows(z, s))
    raise rl.NoConvergenceError(
        f"soft value iteration did not reach tolerance {cfg.tolerance} in "
        f"{cfg.max_iterations} sweeps (final residual {delta:.3g})")


def _assert_stream_matches_serial(tables, gamma, cfg, slots=None):
    """Trained as one stream with ``slots`` slots (by default one per
    table, so that they all sweep together), each table paired with a
    sentinel of its own, every table gets its serial policy bit for bit,
    once, beside its own sentinel; if some table does not converge, the
    stream raises the serial error of the first such table, with its
    sentinel."""
    slots = slots or max(len(tables), 1)
    sentinels = [object() for _ in tables]
    place = {sentinel: i for i, sentinel in enumerate(sentinels)}   # by identity
    expected = []
    for table in tables:
        try:
            expected.append(_serial_soft_vi(table, gamma, cfg))
        except rl.NoConvergenceError as exc:
            expected.append(exc)
    failed = [i for i, e in enumerate(expected) if isinstance(e, rl.NoConvergenceError)]
    if failed:
        with pytest.raises(rl.NoConvergenceError) as excinfo:
            list(rl.soft_value_iteration(zip(sentinels, tables), gamma, cfg, slots))
        assert excinfo.value.item is sentinels[failed[0]]
        assert str(excinfo.value) == str(expected[failed[0]])
        return
    out = list(rl.soft_value_iteration(zip(sentinels, tables), gamma, cfg, slots))
    assert sorted(place[item] for item, _ in out) == list(range(len(tables)))
    for item, policy in out:
        assert item is sentinels[place[item]]
        assert policy.probs.tobytes() == expected[place[item]].probs.tobytes()


def _trainable_products(cfg):
    """The distinct products the evaluator trains for ``cfg``'s explanation
    class, built on the full model: one ``(product MDP, explanation,
    predicates)`` per product, without unreachable ones under sparse
    rewards."""
    env = config.build_env(cfg)
    model, preds = build_env_model(env), config.build_predicates(cfg, env)
    products = {}
    for canon in fm.enumerate_all(preds):
        mdp = build_product(model, canon, preds, cfg.reward, cfg.environment.horizon)
        if cfg.reward.mode == SPARSE and not acceptance_reachable(model, mdp.q_next):
            continue
        products.setdefault(mdp.q_next.tobytes() + mdp.reward_next.tobytes(),
                            (mdp, canon, preds))
    return list(products.values())


def _trainable_tables(cfg):
    """The full transition tables of ``_trainable_products``."""
    return [mdp.table for mdp, _, _ in _trainable_products(cfg)]


def _map_config(reference_config, name):
    """The reference run config on the ctf5, ctf7 (random starts) or nav10
    (dense reward, goal/hazard/vase predicates) map."""
    if name == "ctf5":
        return reference_config
    text = (ROOT / "perfbench/maps" / f"{name}.txt").read_text()
    if name == "ctf7":
        env = replace(reference_config.environment, map_text=text, random_starts=True)
        return replace(reference_config, environment=env)
    preds = [{"name": f"psi_{f}", "feature": f"d_{f}", "threshold": 1.0}
             for f in ("goal", "hazard", "vase")]
    return replace(reference_config, predicates=preds,
                   environment=envs.EnvConfig(text, type="nav", horizon=60),
                   reward=replace(reference_config.reward, mode=DENSE))


def _combat_mdp(start_probs=None):
    """A product MDP on a small CtF map with random starts and combat cells;
    ``start_probs`` replaces the uniform start distribution."""
    env = envs.CtfEnv(envs.GridMap.parse("Bbbrr\nbbbrr\nbbbrR\n", random_starts=True))
    if start_probs is not None:
        starts = [s for s, _ in env.initial_states()]
        env.initial_states = lambda: list(zip(starts, start_probs))
    preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
             fm.AtomicPredicate(1, "psi1", 2, 1.5))
    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    return build_product(build_env_model(env), canon, preds)


def _reference_product_step(mdp, product_state, action, rng):
    """One sampled transition, read from the numpy transition table: the
    draw is compared against ``np.cumsum`` of the cell's probabilities."""
    idx, q = product_state
    row = mdp.model.row_of[idx]
    if q != fa.Q0 or row < 0:
        raise envs.StepOnTerminalError(f"step on terminal product state {product_state}")
    t = mdp.table
    cell = row * t.n_actions + action
    offsets = mdp.model.cell_offsets
    lo, hi = offsets[cell], offsets[cell + 1]
    probs = t.branch_prob[lo:hi]
    k = lo + (rng.random() >= np.cumsum(probs)).sum() if hi - lo > 1 else lo
    k = min(k, hi - 1)
    nxt_state = int(mdp.model.branch_next[k])
    q2 = int(mdp.q_next[nxt_state])
    reward = float(t.branch_reward[k])
    terminal = t.branch_next_row[k] < 0
    return (nxt_state, q2), reward, terminal


def _reference_q_learning(mdp, cfg, rng):
    """Epsilon-greedy Q-learning on a numpy Q-table indexed by row, stepping
    with ``_reference_product_step``; returns the probs of the softmax over
    Q that ``q_learning`` ends with."""
    table = mdp.table
    q = np.zeros((table.n_rows, table.n_actions))
    for ep in range(cfg.episodes):
        eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * ep / max(cfg.episodes - 1, 1)
        ps = mdp.initial_product_state(rng)
        for _ in range(mdp.horizon):
            row = mdp.model.row_of[ps[0]]
            if rng.random() < eps:
                a = int(rng.integers(table.n_actions))
            else:
                a = int(np.argmax(q[row]))
            ps_next, reward, terminal = _reference_product_step(mdp, ps, a, rng)
            target = reward
            if not terminal:
                target += mdp.reward.gamma * q[mdp.model.row_of[ps_next[0]]].max()
            q[row, a] += cfg.learning_rate * (target - q[row, a])
            ps = ps_next
            if terminal:
                break
    _, z, s = rl._action_softmax(q.T, cfg.tau)
    return rl._policy_rows(z, s)


class _Walk:
    """States ``0..n`` on a line; ``n`` is terminal and the start is 0.
    ``moves[s][a]`` lists the steps right that action ``a`` may take from
    ``s``, equally likely; a step of 0 is a self-loop.  The features keep
    the explanation below in ``q0``, so only ``n`` ends an episode."""

    def __init__(self, moves):
        self.moves, self.n, self.n_actions = moves, len(moves), len(moves[0])

    def initial_states(self):
        return [(0, 1.0)]

    def is_terminal(self, s):
        return s == self.n

    def transitions(self, s, action):
        steps = self.moves[s][action]
        return [(min(s + d, self.n), 1.0 / len(steps)) for d in steps]

    def features(self, s):
        return np.array([10.0, 10.0])


@st.composite
def tie_mdps(draw):
    """A chain with self-loops whose transition rewards are drawn from
    {-1, -0.5, 0, 0.5, 1} and whose discount is dyadic: with learning rate
    1, every Q value is then exact and equal values are common."""
    n_actions = draw(st.integers(2, 4))
    moves = draw(st.lists(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=2),
                                   min_size=n_actions, max_size=n_actions),
                          min_size=1, max_size=4))
    preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
             fm.AtomicPredicate(1, "psi1", 1, 1.0))
    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    gamma = draw(st.sampled_from((0.25, 0.5, 0.75, 0.875)))
    mdp = build_product(build_env_model(_Walk(moves)), canon, preds,
                        RewardConfig(gamma=gamma), horizon=draw(st.integers(1, 20)))
    assert (mdp.q_next == fa.Q0).all()
    mdp.reward_next = np.array(draw(st.lists(
        st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
        min_size=len(mdp.model.states), max_size=len(mdp.model.states))))
    return mdp


class TestTrainerConfig:
    @pytest.mark.parametrize("field, value", [
        ("episodes", 0), ("learning_rate", 0.0), ("learning_rate", 5.0),
        ("epsilon_start", 1.5), ("epsilon_start", -0.1),
        ("epsilon_end", 1.01), ("epsilon_end", -0.5),
    ])
    def test_q_learning_settings_checked(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            rl.TrainerConfig(mode=rl.Q_LEARNING, **{field: value})

    def test_q_learning_bounds_inclusive(self):
        rl.TrainerConfig(mode=rl.Q_LEARNING, episodes=1, learning_rate=1.0,
                         epsilon_start=0.0, epsilon_end=1.0)

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
            rl.TabularPolicy(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            rl.TabularPolicy(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("row, accepted", [
        ([0.5, 0.5 + 1.0001e-5], False),
        ([0.5, 0.5 - 1.0001e-5], True),     # 1 - 1.0001e-5 rounds inside
        ([0.5, 0.5 + 1.00009e-5], True),
        ([0.5, 0.5 - 1.00009e-5], True),
        ([0.5, np.nan], False),
        ([0.5, np.inf], False),
        ([-0.25, 1.25], False),
    ])
    def test_row_check_decides_as_allclose(self, row, accepted):
        """At the edge of the row-sum tolerance, on NaN, inf and a negative
        entry, a row is accepted exactly when it has no negative entry and
        ``np.allclose(rowsum, 1.0, atol=1e-9)`` holds."""
        probs = np.array([row])
        assert accepted == (not (probs < 0).any()
                            and np.allclose(probs.sum(axis=1), 1.0, atol=1e-9))
        if accepted:
            rl.TabularPolicy(probs)
        else:
            with pytest.raises(ValueError, match="probability simplexes"):
                rl.TabularPolicy(probs)

    def test_save_load_roundtrip(self, tmp_path):
        probs = softmax(np.random.default_rng(0).normal(size=(4, 5)), axis=1)
        policy = rl.TabularPolicy(probs)
        path = tmp_path / "policy.txt"
        policy.save(path)
        assert path.read_text().startswith("tlexplain-policy states=4 actions=5\n")
        loaded = rl.TabularPolicy.load(path)
        assert np.array_equal(loaded.probs, probs)

    def test_load_reads_header_with_tau_and_trainer(self, tmp_path):
        """Files whose header also names ``tau`` and ``trainer`` still load."""
        path = tmp_path / "old.txt"
        path.write_text("tlexplain-policy states=2 actions=2 tau=0.1 trainer=t\n"
                        "1.0 0.0\n0.25 0.75\n")
        loaded = rl.TabularPolicy.load(path)
        assert np.array_equal(loaded.probs, [[1.0, 0.0], [0.25, 0.75]])

    @pytest.mark.parametrize("header", ["not-a-policy states=2 actions=2",
                                        "states=2 actions=2", ""])
    def test_load_rejects_other_header_word(self, tmp_path, header):
        """The header must start with ``tlexplain-policy``, even when the
        rows match its ``states`` and ``actions``."""
        path = tmp_path / "other.txt"
        path.write_text(f"{header}\n1.0 0.0\n0.25 0.75\n")
        with pytest.raises(ValueError, match="does not start with tlexplain-policy"):
            rl.TabularPolicy.load(path)

    def test_load_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tlexplain-policy states=2 actions=2 tau=0.1 trainer=t\n1.0 0.0\n")
        with pytest.raises(ValueError):
            rl.TabularPolicy.load(path)


class TestSoftValueIteration:
    def test_closed_form_softmax(self):
        (_, policy), = rl.soft_value_iteration([(None, _bandit())], 0.9, rl.TrainerConfig(tau=1.0))
        assert policy.probs[0] == pytest.approx(softmax([1.0, 0.0]), abs=1e-9)
        assert policy.probs[0, 0] == pytest.approx(0.731, abs=1e-3)

    def test_small_tau_concentrates(self):
        (_, policy), = rl.soft_value_iteration([(None, _bandit())], 0.9, rl.TrainerConfig(tau=0.01))
        assert policy.probs[0, 0] > 0.99

    def test_bitwise_deterministic(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1)
        (_, p1), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma, cfg)
        (_, p2), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma, cfg)
        assert np.array_equal(p1.probs, p2.probs)

    def test_fixed_point_idempotent(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1, tolerance=1e-10)
        branches = _reference_branches(mdp)
        _, v, _ = _reference_soft_vi(branches, mdp, cfg)
        q, v_again = _reference_backup(branches, mdp, v, cfg.tau)
        assert np.abs(v_again - v).max() < cfg.tolerance
        (_, policy), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma, cfg)
        assert np.abs(policy.probs - softmax(q / cfg.tau, axis=1)).max() < 1e-9

    def test_no_convergence_raises(self):
        mdp = _corridor_mdp()
        cfg = rl.TrainerConfig(tau=0.1, tolerance=1e-15, max_iterations=2)
        with pytest.raises(rl.NoConvergenceError, match="2 sweeps.*residual"):
            list(rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma, cfg))

    def test_greedy_matches_brute_force_on_two_state_mdp(self):
        """Enumerate all four deterministic policies of a 2-row chain."""
        table = TransitionTable(
            n_rows=2, n_actions=2,
            branch_row=np.array([0, 0, 1, 1]),
            branch_action=np.array([0, 1, 0, 1]),
            branch_next_row=np.array([1, -1, -1, -1]),
            branch_prob=np.ones(4),
            branch_reward=np.array([0.0, 0.2, 1.0, 0.0]),
        )
        # brute force: a0 then a0 earns 0 + 0.9*1 = 0.9 > 0.2
        (_, policy), = rl.soft_value_iteration([(None, table)], 0.9, rl.TrainerConfig(tau=0.01))
        assert policy.probs.argmax(axis=1).tolist() == [0, 0]


class TestSoftValueIterationAgainstReference:
    @PROPERTY
    @given(product_mdps(), st.sampled_from((0.05, 0.1, 0.3, 1.0)))
    def test_matches_reference_on_random_problems(self, mdp, tau):
        cfg = rl.TrainerConfig(tau=tau)
        expected, _, sweeps = _reference_soft_vi(_reference_branches(mdp), mdp, cfg)
        (_, policy), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma,
                                               replace(cfg, max_iterations=sweeps))
        assert np.abs(policy.probs - expected).max() <= 1e-12
        if sweeps > 1:  # converging in exactly `sweeps`, not fewer
            with pytest.raises(rl.NoConvergenceError):
                list(rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma,
                                             replace(cfg, max_iterations=sweeps - 1)))

    def test_matches_reference_on_every_reference_candidate(self, reference_runtime):
        ev = reference_runtime.evaluator
        candidates = list(fm.enumerate_all(ev.predicates))
        assert len(candidates) == 96
        for canon in candidates:
            mdp = evaluator_product(ev, canon)
            expected, _, _ = _reference_soft_vi(_reference_branches(mdp), mdp,
                                                ev.trainer_cfg)
            (_, policy), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma,
                                                   ev.trainer_cfg)
            assert np.abs(policy.probs - expected).max() <= 1e-9, fm.render(canon, ev.predicates)


class TestBatchedSoftValueIteration:
    """Tables trained together against ``_serial_soft_vi``, one at a time."""

    @PROPERTY
    @given(product_mdp_batches(), st.sampled_from((0.05, 0.1, 0.3, 1.0)),
           st.sampled_from((10_000, 12, 3)), st.sampled_from((None, 1, 2, 3)))
    def test_matches_serial_on_random_batches(self, batch, tau, max_iterations, slots):
        """All together (``None``) or streamed through fewer slots."""
        cfg = rl.TrainerConfig(tau=tau, max_iterations=max_iterations)
        _assert_stream_matches_serial([mdp.table for mdp in batch], batch[0].reward.gamma, cfg,
                                      slots)

    @pytest.mark.parametrize("name", ["ctf5", "ctf7", "nav10"])
    def test_matches_serial_on_every_trainable_table(self, reference_config, name):
        cfg = _map_config(reference_config, name)
        tables = _trainable_tables(cfg)
        assert len(tables) == {"ctf5": 39, "ctf7": 60, "nav10": 67}[name]
        for i in range(0, len(tables), 8):
            batch = tables[i:i + 8]
            # reversed, each table sweeps in another slot and finishes
            # beside other tables
            for slots in (batch, batch[::-1]):
                _assert_stream_matches_serial(slots, cfg.reward.gamma, cfg.trainer)

    def test_unconverged_tables_name_the_first(self, reference_runtime):
        """In 17 sweeps about half the reference tables converge: a batch
        that alternates them names its second table, and the residual the
        serial loop ends with."""
        tables = _trainable_tables(reference_runtime.evaluator.cfg)
        cfg = replace(reference_runtime.evaluator.trainer_cfg, max_iterations=17)
        converged, unconverged = [], []
        for table in tables:
            try:
                _serial_soft_vi(table, 0.95, cfg)
                converged.append(table)
            except rl.NoConvergenceError:
                unconverged.append(table)
        batch = [t for pair in zip(converged[:3], unconverged[:3]) for t in pair]
        assert len(batch) == 6
        with pytest.raises(rl.NoConvergenceError) as excinfo:
            list(rl.soft_value_iteration(enumerate(batch), 0.95, cfg, slots=len(batch)))
        assert excinfo.value.item == 1
        _assert_stream_matches_serial(batch, 0.95, cfg)

    def test_tables_without_live_branches(self):
        """Every branch ends the episode: no branch into a live row, alone,
        together, beside tables that have them, and entering refilled
        slots."""
        corridor = _corridor_mdp()
        table = corridor.table
        ends = replace(table, branch_next_row=np.full_like(table.branch_next_row, -1))
        ends_later = replace(ends, branch_reward=table.branch_reward + 0.5)
        cfg = rl.TrainerConfig(tau=0.1)
        for batch in ([ends], [ends, ends_later], [table, ends], [ends, table, ends_later]):
            _assert_stream_matches_serial(batch, corridor.reward.gamma, cfg)
        for slots in (1, 2):
            _assert_stream_matches_serial([table, ends, ends_later, table, ends],
                                          corridor.reward.gamma, cfg, slots)
        _assert_stream_matches_serial([_bandit(), _bandit((0.0, 0.5))], 0.9, cfg)

    @pytest.mark.parametrize("slots", [1, 2])
    def test_tables_must_share_their_shape(self, slots):
        """Refused as it enters a refilled slot (1) or the first batch (2)."""
        with pytest.raises(ValueError, match="share n_rows and n_actions"):
            list(rl.soft_value_iteration(enumerate([_bandit(), _bandit((1.0, 0.0, 0.5))]), 0.9,
                                         rl.TrainerConfig(), slots))

    def test_empty_batch(self):
        assert list(rl.soft_value_iteration([], 0.9, rl.TrainerConfig())) == []


class TestSoftValueIterationStream:
    """Streams of more tables than slots: a finished table's slot goes, and
    the next table enters after the others with a zero row of ``v`` while
    they sweep on."""

    @staticmethod
    def _widths(monkeypatch) -> list[int]:
        """Records the number of tables in each batched sweep."""
        widths, softmax = [], rl._action_softmax

        def recording(q, tau):
            if q.ndim == 3:          # a batch; the serial loop's q is 2-D
                widths.append(q.shape[0])
            return softmax(q, tau)

        monkeypatch.setattr(rl, "_action_softmax", recording)
        return widths

    @pytest.mark.parametrize("name, slots", [("ctf5", 3), ("ctf5", 11), ("nav10", 11)])
    def test_refilled_slots_match_serial(self, reference_config, monkeypatch, name, slots):
        """Every trainable table, in both orders, through fewer slots than
        tables: each gets its serial policy bit for bit and sweeps as often
        as alone, the slots stay full until the stream runs out, and fast
        tables finish before slow ones that entered earlier."""
        cfg = _map_config(reference_config, name)
        tables = _trainable_tables(cfg)
        widths = self._widths(monkeypatch)
        list(rl.soft_value_iteration(enumerate(tables), cfg.reward.gamma, cfg.trainer))
        table_sweeps = len(widths)      # one table at a time
        for order in (tables, tables[::-1]):
            widths.clear()
            _assert_stream_matches_serial(order, cfg.reward.gamma, cfg.trainer, slots)
            assert sum(widths) == table_sweeps and max(widths) == slots
            # a slot empties only once the stream is done
            assert widths == sorted(widths, reverse=True)
            places = [i for i, _ in rl.soft_value_iteration(
                enumerate(order), cfg.reward.gamma, cfg.trainer, slots)]
            assert places != sorted(places)

    def test_unconverged_stream_names_the_first(self, reference_runtime):
        """In 17 sweeps about half the reference tables converge.  Streams
        of both kinds through one to three slots, with the unconverged
        tables entering first, last or between converged ones, and together
        or apart: each names the first unconverged table in stream order,
        with the residual the serial loop ends with."""
        tables = _trainable_tables(reference_runtime.evaluator.cfg)
        cfg = replace(reference_runtime.evaluator.trainer_cfg, max_iterations=17)
        converged, unconverged = [], []
        for table in tables:
            try:
                _serial_soft_vi(table, 0.95, cfg)
                converged.append(table)
            except rl.NoConvergenceError:
                unconverged.append(table)
        c, u = converged[:5], unconverged[:3]
        streams = [c + u, u + c, c[:3] + u[:1] + c[3:] + u[1:],
                   [t for pair in zip(c, u) for t in pair], u[::-1]]
        for stream in streams:
            for slots in (1, 2, 3):
                _assert_stream_matches_serial(stream, 0.95, cfg, slots)

    @pytest.mark.parametrize("slots", [1, 3, 11])
    def test_holds_at_most_slots_tables(self, reference_config, slots):
        """A table is pulled from the stream only once a slot is free: never
        more than ``slots`` tables pulled and not yet yielded, and every
        slot filled."""
        tables = _trainable_tables(reference_config)
        pulled, yielded, outstanding = 0, 0, []

        def counting():
            nonlocal pulled
            for table in tables:
                pulled += 1
                outstanding.append(pulled - yielded)
                yield table

        for _ in rl.soft_value_iteration(enumerate(counting()), reference_config.reward.gamma,
                                         reference_config.trainer, slots):
            yielded += 1
        assert yielded == pulled == len(tables)
        assert max(outstanding) == slots

    def test_slots_must_be_positive(self):
        with pytest.raises(ValueError, match="slots"):
            list(rl.soft_value_iteration([(None, _bandit())], 0.9, rl.TrainerConfig(), slots=0))


def _fixed_point_pass(mdp, policy) -> int:
    """The pass on which the backward induction of ``mdp``'s return alone
    first returns its input, or its horizon when none does."""
    t = mdp.table
    w = policy.probs[t.branch_row, t.branch_action] * t.branch_prob
    r_pi = np.bincount(t.branch_row, weights=w * t.branch_reward, minlength=t.n_rows)
    live = t.branch_next_row >= 0
    v = np.zeros(t.n_rows)
    for i in range(1, mdp.horizon + 1):
        v_new = r_pi + np.bincount(t.branch_row[live], weights=w[live] * v[t.branch_next_row[live]],
                                   minlength=t.n_rows)
        if (v_new == v).all():
            return i
        v = v_new
    return mdp.horizon


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestGroupedReturn:
    """``product.average_returns`` over a group against
    ``full_horizon_return`` per product: the same bits, -0.0 included."""

    @PROPERTY
    @given(product_mdp_batches(), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_full_horizon_on_random_groups(self, batch, seed, trained):
        rng = np.random.default_rng(seed)
        if trained:
            cfg = rl.TrainerConfig(tau=0.05)
            policies = [p for _, p in sorted(rl.soft_value_iteration(
                enumerate(mdp.table for mdp in batch), batch[0].reward.gamma, cfg, len(batch)),
                key=lambda out: out[0])]
        else:
            policies = [rl.TabularPolicy(rng.dirichlet(np.ones(mdp.model.n_actions),
                                                       size=mdp.model.n_rows))
                        for mdp in batch]
        got = average_returns(batch, policies)
        assert [_bits(x) for x in got] == [_bits(full_horizon_return(mdp, policy))
                                           for mdp, policy in zip(batch, policies)]

    @pytest.mark.parametrize("name", ["ctf5", "ctf7"])
    def test_tables_that_stop_at_different_passes(self, reference_config, name):
        """The trainable products with their soft-VI policies, in groups of
        11: each group mixes tables at their fixed point within a few
        passes with tables that run the whole horizon."""
        cfg = _map_config(reference_config, name)
        mdps = [mdp for mdp, _, _ in _trainable_products(cfg)]
        policies = [_serial_soft_vi(mdp.table, mdp.reward.gamma, cfg.trainer) for mdp in mdps]
        passes = [_fixed_point_pass(mdp, policy) for mdp, policy in zip(mdps, policies)]
        for i in range(0, len(mdps), 11):
            group = slice(i, i + 11)
            assert len(set(passes[group])) > 1
            got = average_returns(mdps[group], policies[group])
            assert [_bits(x) for x in got] == [_bits(full_horizon_return(mdp, policy)) for
                                               mdp, policy in zip(mdps[group], policies[group])]
        assert min(passes) < 10 and max(passes) == cfg.environment.horizon

    def test_horizons_must_match(self):
        mdp = _corridor_mdp()
        other = ProductMdp(mdp.model, (mdp.q_next, mdp.q_next * 0.0, mdp.q_next * 0.0),
                           mdp.reward, mdp.horizon + 1)
        policy = rl.TabularPolicy(np.full((mdp.model.n_rows, mdp.model.n_actions),
                                          1.0 / mdp.model.n_actions))
        with pytest.raises(ValueError, match="horizon"):
            average_returns([mdp, other], [policy, policy])
        assert average_returns([], []) == []


class TestRowClassTraining:
    """Soft VI and the exact return on the model's quotient against the
    full table: every row gets its class's policy and return bit for bit."""

    @staticmethod
    def _assert_matches_full_table(mdp, canon, preds, cfg):
        classes = quotient_product(mdp, canon, preds)
        gamma = mdp.reward.gamma
        try:
            expected = _serial_soft_vi(mdp.table, gamma, cfg)
        except rl.NoConvergenceError as exc:
            with pytest.raises(rl.NoConvergenceError) as excinfo:
                list(rl.soft_value_iteration([(None, classes.table)], gamma, cfg))
            assert str(excinfo.value) == str(exc)
            return
        (_, policy), = rl.soft_value_iteration([(None, classes.table)], gamma, cfg)
        _, of_row = mdp.model.quotient
        assert policy.probs[of_row].tobytes() == expected.probs.tobytes()
        # the return's bits, -0.0 included
        got, want = classes.average_return(policy), full_horizon_return(mdp, expected)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @PROPERTY
    @given(explained_ctf_products(), st.sampled_from((0.05, 0.1, 1.0)),
           st.sampled_from((10_000, 20)))
    def test_matches_full_table_on_random_ctf_maps(self, products, tau, max_iterations):
        self._assert_matches_full_table(
            *products[0], rl.TrainerConfig(tau=tau, max_iterations=max_iterations))

    @pytest.mark.parametrize("name", ["ctf5", "ctf7"])
    @pytest.mark.parametrize("max_iterations", [10_000, 20])
    def test_matches_full_table_on_every_trainable_product(self, reference_config, name,
                                                           max_iterations):
        """In 20 sweeps 13 products on each map do not converge: each
        error names the full table's residual."""
        cfg = _map_config(reference_config, name)
        for mdp, canon, preds in _trainable_products(cfg):
            self._assert_matches_full_table(
                mdp, canon, preds, replace(cfg.trainer, max_iterations=max_iterations))

    def test_explanation_policy_expands_the_class_policy(self, reference_runtime):
        """The target, and any explanation's policy, trains on the quotient,
        and each row takes its class's action distribution: the full
        table's policy."""
        ev = reference_runtime.evaluator
        canon = fm.parse_explanation(reference_runtime.target_key, ev.predicates)
        mdp = evaluator_product(ev, canon)
        classes = quotient_product(mdp, canon, ev.predicates)
        assert classes.model is ev.product_model and classes.table.n_rows == 126
        expected = _serial_soft_vi(mdp.table, mdp.reward.gamma, ev.trainer_cfg)
        assert reference_runtime.target.probs.tobytes() == expected.probs.tobytes()
        policy = search.explanation_policy(ev.model, canon, ev.predicates, ev.cfg, "k")
        assert policy.probs.tobytes() == expected.probs.tobytes()
        [(_, policy)], = search.train_policies([(None, classes, "k")], ev.cfg,
                                               range(mdp.model.n_rows))
        _, of_row = mdp.model.quotient
        assert policy.probs[of_row].tobytes() == expected.probs.tobytes()


class TestQLearning:
    def _cfg(self, episodes=600):
        return rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=episodes,
                                learning_rate=0.3)

    def test_greedy_matches_value_iteration(self):
        mdp = _corridor_mdp()
        ql = rl.q_learning(mdp, self._cfg(), np.random.default_rng(0))
        (_, vi), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma,
                                           rl.TrainerConfig(tau=0.01))
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
        """``search.train_policies`` trains soft VI once per product and
        hands its policies back ``slots`` at a time; under Q-learning it
        trains ``n_rep`` replicates of each product on the streams keyed by
        its stream key, keeps the one ``rl.select_replicate`` picks and
        hands it back alone."""
        mdp = _corridor_mdp()
        rows = range(mdp.model.n_rows)
        run = SimpleNamespace(seed=0, trainer=rl.TrainerConfig(tau=0.1), reward=mdp.reward,
                              search=search.SearchParams(n_rep=3))
        (_, vi), = rl.soft_value_iteration([(None, mdp.table)], mdp.reward.gamma, run.trainer)
        got, = search.train_policies([(0, mdp, "k"), (1, mdp, "j")], run, rows, slots=2)
        assert sorted(i for i, _ in got) == [0, 1]
        assert all(np.array_equal(policy.probs, vi.probs) for _, policy in got)
        run.trainer = self._cfg(50)
        replicates = [rl.q_learning(mdp, run.trainer, search._key_stream(0, "k", rep))
                      for rep in range(3)]
        assert len({p.probs.tobytes() for p in replicates}) == 3
        expected = rl.select_replicate(replicates, rows)
        assert expected is replicates[2]
        other = rl.select_replicate(
            [rl.q_learning(mdp, run.trainer, search._key_stream(0, "j", rep))
             for rep in range(3)], rows)
        assert other.probs.tobytes() != expected.probs.tobytes()
        got = search.train_policies([(0, mdp, "k"), (1, mdp, "j")], run, rows)
        assert [[(i, p.probs.tobytes()) for i, p in group] for group in got] == [
            [(0, expected.probs.tobytes())], [(1, other.probs.tobytes())]]
        with pytest.raises(ValueError):
            rl.TrainerConfig(mode="sarsa")


class TestQLearningAgainstReference:
    """The list-based ``product_step`` and ``q_learning`` against the numpy
    reference: the same outcomes, policies and random streams, bit for bit."""

    @staticmethod
    def _assert_same_training(mdp, cfg, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        policy = rl.q_learning(mdp, cfg, rng)
        assert np.array_equal(policy.probs, _reference_q_learning(mdp, cfg, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @PROPERTY
    @given(product_mdps(), st.integers(0, 2**32))
    def test_product_step_matches_reference(self, mdp, seed):
        expanded = expand_transitions(mdp)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for (ps, a), entries in expanded.items():
            for _ in range(3):
                nxt, reward, terminal = mdp.product_step(ps, a, rng)
                ref_nxt, ref_reward, ref_terminal = _reference_product_step(mdp, ps, a, ref_rng)
                assert (nxt, reward, terminal) == (ref_nxt, ref_reward, bool(ref_terminal))
                assert any(nxt == e_nxt and reward == e_reward
                           for e_nxt, _, e_reward in entries)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_draw_past_the_last_cumulative_takes_the_last_branch(self):
        class _AtOne:  # a draw no smaller than any cell's probability sum
            def random(self):
                return 1.0

        model = build_env_model(envs.CtfEnv(envs.GridMap.parse("Bbbrr\nbbbrR\n")))
        preds = (fm.AtomicPredicate(0, "psi0", 1, 1.0),
                 fm.AtomicPredicate(1, "psi1", 2, 1.5))
        canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
        mdp = build_product(model, canon, preds)
        combat = [key for key, entries in expand_transitions(mdp).items()
                  if len(entries) > 1]
        assert combat
        for ps, a in combat:
            last = expand_transitions(mdp)[(ps, a)][-1]
            nxt, reward, _ = mdp.product_step(ps, a, _AtOne())
            assert (nxt, reward) == (last[0], last[2])
            ref = _reference_product_step(mdp, ps, a, _AtOne())
            assert (nxt, reward) == ref[:2]

    @PROPERTY
    @given(product_mdps(), st.integers(0, 2**32), st.integers(1, 30),
           st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from((0.01, 0.1, 1.0)))
    def test_matches_reference_on_random_problems(self, mdp, seed, episodes, lr,
                                                  eps_start, eps_end, tau):
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=tau, episodes=episodes,
                               learning_rate=lr, epsilon_start=eps_start,
                               epsilon_end=eps_end)
        self._assert_same_training(mdp, cfg, seed)

    @PROPERTY
    @given(tie_mdps(), st.integers(0, 2**32), st.integers(1, 30),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_matches_reference_on_exact_ties(self, mdp, seed, episodes, eps_start, eps_end):
        """Equal Q values within a row: the greedy action is the first
        maximum after every kind of write, including one that lowers the
        greedy value and one that ties it from a lower index."""
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.1, episodes=episodes,
                               learning_rate=1.0, epsilon_start=eps_start,
                               epsilon_end=eps_end)
        self._assert_same_training(mdp, cfg, seed)

    def test_matches_reference_with_random_starts_and_combat(self):
        mdp = _combat_mdp()
        assert len(mdp.model.start_rows) > 1
        assert (np.diff(mdp.model.cell_offsets) > 1).any()   # kill branches
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=40)
        for seed in range(3):
            self._assert_same_training(mdp, cfg, seed)

    def test_matches_reference_on_every_reference_candidate(self, reference_runtime):
        ev = reference_runtime.evaluator
        cfg = replace(ev.trainer_cfg, mode=rl.Q_LEARNING, episodes=8)
        candidates = list(fm.enumerate_all(ev.predicates))
        assert len(candidates) == 96
        for seed, canon in enumerate(candidates):
            self._assert_same_training(evaluator_product(ev, canon), cfg, seed)


class _NoScalarCalls:
    """A PCG64-backed stand-in for a Generator whose scalar draws raise."""

    def __init__(self, seed):
        self.bit_generator = np.random.PCG64(seed)

    def random(self, *args, **kwargs):
        raise AssertionError("q_learning called a Generator draw method")

    integers = choice = random


class _NumpyDraws:
    """numpy's ``Generator.random()`` and ``integers(n)`` for
    ``1 <= n < 2**32``, written out over the raw words of ``draws``, an
    ``rl._Pcg64Draws``: the reference for ``q_learning``'s exploring draw.

    ``integers(n)`` is Lemire's method over 32-bit halves, as numpy's
    ``buffered_bounded_lemire_uint32`` runs it: a word gives its low half
    and keeps its high half buffered, as PCG64's ``next_uint32`` does, and
    a product whose low half is below ``n`` is redrawn while it is below
    ``(2**32 - n) % n``.  ``buffered_on_rejection`` notes, at each redraw,
    whether half a word was buffered.  :meth:`close` hands the buffer to
    ``draws.close``.
    """

    def __init__(self, draws):
        self.draws, self.random = draws, draws.random
        self.has32, self.uint32 = draws._start["has_uint32"], draws._start["uinteger"]
        self.buffered_on_rejection = []

    def _next32(self):
        if self.has32:
            self.has32 = 0
            return self.uint32
        try:
            w = self.draws._pop()
        except IndexError:
            w = self.draws._refill()
        self.has32, self.uint32 = 1, w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n):
        if n == 1:
            return 0               # numpy draws nothing for a one-value range
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2 ** 32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                self.buffered_on_rejection.append(self.has32)
                m = self._next32() * n
        return m >> 32

    def close(self):
        self.draws.close(self.has32, self.uint32)


class TestPcg64Draws:
    """``rl._Pcg64Draws.random()`` and the test's ``_NumpyDraws`` copy
    numpy's algorithms; these tests pin them to the installed numpy's
    stream."""

    NUMPY = f"numpy {np.__version__}: Generator's stream differs from rl._Pcg64Draws"
    # 2**31 + 1 rejects about half its draws; above 2**31 the threshold is 2**32 - n
    RANGES = (1, 2, 3, 5, 7, 2**31 + 1, 3 * 2**30)

    @pytest.mark.parametrize("seed", range(20))
    def test_stream_matches_numpy(self, seed):
        ops = np.random.default_rng(1000 + seed)
        probs = ops.random(6)
        probs[ops.random(6) < 0.3] = 0.0
        probs[0] += 0.1
        mdp = _combat_mdp(probs / probs.sum())
        m = mdp.model
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:       # start with half a word buffered
            assert rng.integers(5) == ref.integers(5)
            assert rng.bit_generator.state["has_uint32"] == 1
        draws = _NumpyDraws(rl._Pcg64Draws(rng, block=7))
        for op, k in zip(ops.integers(3, size=20_000), ops.integers(len(self.RANGES), size=20_000)):
            if op == 0:
                assert draws.random() == ref.random(), self.NUMPY
            elif op == 1:
                n = self.RANGES[k]
                assert draws.integers(n) == ref.integers(n), self.NUMPY
            else:
                row = ref.choice(m.start_rows, p=m.start_probs)
                assert mdp.initial_product_state(draws) == (m.rows[row], fa.Q0), self.NUMPY
        assert set(draws.buffered_on_rejection) == {0, 1}
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state, self.NUMPY

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
    def test_q_learning_needs_pcg64(self, bit_generator):
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, episodes=2)
        with pytest.raises(ValueError, match=f"PCG64 bit generator, got {bit_generator.__name__}"):
            rl.q_learning(_corridor_mdp(), cfg, np.random.Generator(bit_generator(0)))

    def test_q_learning_makes_no_generator_draw_calls(self):
        mdp = _combat_mdp()
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=40)
        for seed in range(3):
            stand_in, rng = _NoScalarCalls(seed), np.random.default_rng(seed)
            policy = rl.q_learning(mdp, cfg, stand_in)
            assert np.array_equal(policy.probs, rl.q_learning(mdp, cfg, rng).probs)
            assert stand_in.bit_generator.state == rng.bit_generator.state


class _FedDraws(rl._Pcg64Draws):
    """``_Pcg64Draws`` that hands out ``words`` before the generator's own
    and notes the buffer ``close()`` is given.  ``close()`` counts the fed
    words as drawn."""

    def __init__(self, rng, words):
        super().__init__(rng)
        self._words.extend(reversed(words))
        self._fetched += len(words)

    def close(self, has32, uint32):
        self.closed_with = (has32, uint32)
        super().close(has32, uint32)


def _rejecting_words(n, seed, count=3000):
    """Raw words for an ``n``-action problem (``n`` odd, so ``n`` has an
    inverse mod 2**32) whose halves are random or, three times in ten, a
    half ``x`` with ``x * n`` mod 2**32 below ``n``: those are rejected
    below ``(2**32 - n) % n`` and accepted from it on."""
    gen = np.random.default_rng(seed)
    inverse = pow(n, -1, 2 ** 32)
    halves = gen.integers(1, 2 ** 32, size=(count, 2))
    low = gen.integers(n, size=(count, 2))
    special = gen.random((count, 2)) < 0.3
    halves[special] = low[special] * inverse % 2 ** 32
    return [hi << 32 | lo for hi, lo in halves.tolist()]


class _Chain:
    """States 0-4 on a line; 4 is terminal.  Each of ``n_actions`` actions
    stays or moves right, half each: an even action by one, an odd one by
    two.  Features: distance to 4, and a constant."""

    def __init__(self, n_actions):
        self.n_actions = n_actions

    def initial_states(self):
        return [(0, 0.5), (1, 0.5)]

    def is_terminal(self, s):
        return s == 4

    def transitions(self, s, action):
        return [(s, 0.5), (min(s + 1 + action % 2, 4), 0.5)]

    def features(self, s):
        return np.array([4.0 - s, 10.0])


def _chain_mdp(n_actions):
    preds = (fm.AtomicPredicate(0, "psi0", 0, 1.0),
             fm.AtomicPredicate(1, "psi1", 1, 1.0))
    canon = fm.parse_explanation("F(psi0) & G(!psi1)", preds)
    return build_product(build_env_model(_Chain(n_actions)), canon, preds)


class TestInlineDraws:
    """``q_learning`` makes its epsilon test and its exploring draw on the
    raw words itself; they must be ``random() < eps`` and
    ``integers(n_actions)`` on the same stream."""

    EPS = (0.0, 2.0 ** -53, 0.05, 0.5, 1.0 - 2.0 ** -53, 1.0)

    @staticmethod
    def _assert_decision(eps, w):
        if 0 <= w < 2 ** 64:
            assert (w < rl._explore_limit(eps)) == ((w >> 11) * 2 ** -53 < eps), (eps, w)

    @pytest.mark.parametrize("eps", EPS)
    def test_explore_limit_at_its_edges(self, eps):
        limit = rl._explore_limit(eps)
        for w in (limit - 1, limit):
            for near in (w - 2 ** 11, w, w + 2 ** 11):    # (w >> 11) - 1, + 0, + 1
                self._assert_decision(eps, near)
        for w in (0, 2 ** 11 - 1, 2 ** 11, 2 ** 64 - 1):
            self._assert_decision(eps, w)

    @PROPERTY
    @given(st.floats(0.0, 1.0), st.integers(0, 2 ** 64 - 1))
    def test_explore_limit_on_random_words(self, eps, w):
        self._assert_decision(eps, w)
        limit = rl._explore_limit(eps)
        self._assert_decision(eps, limit - 1)
        self._assert_decision(eps, limit)

    @staticmethod
    def _assert_same_on_words(mdp, cfg, words, seed):
        """``q_learning`` and the reference fed ``words`` before the
        generator's own: the same policy, words left, buffer and final
        generator state.  Returns the reference's rejections."""
        made = []

        def fed(rng):
            made.append(_FedDraws(rng, words))
            return made[-1]

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:       # start with half a word buffered
            assert rng.integers(5) == ref_rng.integers(5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rl, "_Pcg64Draws", fed)
            policy = rl.q_learning(mdp, cfg, rng)
        ref = _NumpyDraws(_FedDraws(ref_rng, words))
        want = _reference_q_learning(mdp, cfg, ref)
        ref.close()
        (draws,) = made
        assert np.array_equal(policy.probs, want)
        assert 0 < len(draws._words) < len(words)         # the run ends in fed words
        assert len(draws._words) == len(ref.draws._words)
        assert draws.closed_with == ref.draws.closed_with == (ref.has32, ref.uint32)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return ref.buffered_on_rejection

    @pytest.mark.parametrize("seed", range(4))
    def test_lemire_rejections_match_the_reference(self, seed):
        # for 5 actions the threshold is 1: exactly a zero half rejects, the
        # low half of a fresh word (a half stays buffered) or the buffered
        # high half (none does)
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=30,
                               epsilon_start=1.0, epsilon_end=0.5)
        rejections = self._assert_same_on_words(_combat_mdp(), cfg,
                                                _rejecting_words(5, seed), seed)
        assert set(rejections) == {0, 1}

    @pytest.mark.parametrize("n_actions", [2, 3, 7])
    def test_every_threshold_matches_numpy(self, n_actions):
        # the thresholds (2**32 - n) % n are 0, 1 and 4
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=60,
                               epsilon_start=1.0, epsilon_end=0.2)
        mdp = _chain_mdp(n_actions)
        for seed in range(4):
            TestQLearningAgainstReference._assert_same_training(mdp, cfg, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_seven_actions_on_rejecting_words(self, seed):
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=60,
                               epsilon_start=1.0, epsilon_end=0.5)
        rejections = self._assert_same_on_words(_chain_mdp(7), cfg,
                                                _rejecting_words(7, seed), seed)
        assert set(rejections) == {0, 1}

    def test_one_action_explores_without_a_draw(self):
        # integers(1) draws nothing, so an exploring step uses no word
        mdp = _chain_mdp(1)
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=20,
                               epsilon_start=1.0, epsilon_end=0.5)
        for seed in range(3):
            TestQLearningAgainstReference._assert_same_training(mdp, cfg, seed)

    def test_one_product_step_per_step(self, monkeypatch):
        calls = {"q_learning": 0, "reference": 0}
        step, ref_step = ProductMdp.product_step, _reference_product_step

        def counted(self, *args):
            calls["q_learning"] += 1
            return step(self, *args)

        def ref_counted(*args):
            calls["reference"] += 1
            return ref_step(*args)

        monkeypatch.setattr(ProductMdp, "product_step", counted)
        monkeypatch.setitem(globals(), "_reference_product_step", ref_counted)
        mdp = _combat_mdp()
        cfg = rl.TrainerConfig(mode=rl.Q_LEARNING, tau=0.05, episodes=40)
        policy = rl.q_learning(mdp, cfg, np.random.default_rng(0))
        assert np.array_equal(policy.probs,
                              _reference_q_learning(mdp, cfg, np.random.default_rng(0)))
        assert calls["q_learning"] == calls["reference"] > cfg.episodes


class TestPolicyEntropy:
    def test_uniform_rows(self):
        probs = np.full((3, 4), 0.25)
        policy = rl.TabularPolicy(probs)
        assert rl.policy_entropy(policy, [0, 1, 2]) == pytest.approx(np.log(4))

    def test_deterministic_rows(self):
        probs = np.eye(3)
        policy = rl.TabularPolicy(probs)
        assert rl.policy_entropy(policy, [0, 1, 2]) == 0.0

    def test_mixed_rows_mean(self):
        rows = np.array([[0.5, 0.5], [0.9, 0.1]])
        policy = rl.TabularPolicy(rows)
        expected = np.mean([-(0.5 * np.log(0.5)) * 2,
                            -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))])
        assert rl.policy_entropy(policy, [0, 1]) == pytest.approx(expected)

    def test_empty_sample_rejected(self):
        policy = rl.TabularPolicy(np.eye(2))
        with pytest.raises(rl.EmptySampleError):
            rl.policy_entropy(policy, [])

    def test_bounds(self, rng):
        for _ in range(100):
            probs = softmax(rng.normal(size=(4, 5)), axis=1)
            policy = rl.TabularPolicy(probs)
            h = rl.policy_entropy(policy, [0, 1, 2, 3])
            assert 0.0 <= h <= np.log(5) + 1e-12

    def test_monotone_in_temperature(self, rng):
        for _ in range(20):
            q = rng.normal(size=(3, 4))
            entropies = []
            for tau in (0.05, 0.1, 0.5, 1.0, 5.0):
                policy = rl.TabularPolicy(softmax(q / tau, axis=1))
                entropies.append(rl.policy_entropy(policy, [0, 1, 2]))
            assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))


class TestSelectReplicate:
    def _policy(self, rows):
        return rl.TabularPolicy(np.asarray(rows, dtype=float))

    def test_single_returned_unchanged(self):
        p = self._policy([[0.5, 0.5]])
        assert rl.select_replicate([p], [0]) is p

    def test_entropy_tie_goes_to_lowest_index(self):
        low = self._policy([[1.0, 0.0]])
        high_a = self._policy([[0.5, 0.5]])
        high_b = self._policy([[0.5, 0.5]])
        assert rl.select_replicate([low, high_a, high_b], [0]) is high_a

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            rl.select_replicate([], [0])
