"""Automaton-augmented product MDP over a tabular environment.

With the three-state template automaton, acceptance and trap are absorbing
and terminal, so the only product states that need actions are ``(s, q0)``
for non-terminal environment states ``s``.  Policies are therefore indexed by
the rows of the model the product is built on, one per non-terminal state:
the environment's states, or, under soft VI, the classes of states that
``EnvModel.quotient`` merges.  The automaton component shows up in
transition targets and rewards only.

The automaton consumes the post-transition environment state: after the
environment moves to ``s'``, the run advances on ``features(s')`` and the
transition reward is the (signed) robustness of the guard that fired,
evaluated at ``s'``.  The initial state is processed from ``q0`` without
consuming the start state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import fsum, isfinite, sqrt

import numpy as np

from .envs import StateSpaceTooLargeError, StepOnTerminalError
from .fspa import Q0, Q_ACC, Q_TRAP

SPARSE = "sparse"
DENSE = "dense"


@dataclass
class EnvModel:
    """Enumerated environment: states, features, and exact branch arrays.

    Shared by every candidate explanation evaluated on the same environment;
    building it once amortizes the enumeration and feature computation.
    """

    env: object
    states: list
    features: np.ndarray       # (n_states, n_features)
    rows: np.ndarray           # row -> state index, non-terminal states only
    row_of: np.ndarray         # state index -> row, -1 for terminal
    branch_row: np.ndarray     # flat branch arrays, sorted by (row, action)
    branch_action: np.ndarray
    branch_next: np.ndarray    # state index of the successor
    branch_prob: np.ndarray
    cell_offsets: np.ndarray   # CSR offsets per (row * n_actions + action)
    start_rows: np.ndarray
    start_probs: np.ndarray

    @property
    def n_actions(self) -> int:
        return self.env.n_actions

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def step_cells(self) -> list:
        """Per state, its per-action sampling cells as plain lists, or None
        for a terminal state; built on the first ``product_step``.

        A cell is ``(cums, nexts)`` for one ``(row, action)``: its branch
        probabilities summed left to right, as ``np.cumsum`` does (None for
        a single branch, which needs no draw), and its successor states.
        """
        nxt, prob = self.branch_next.tolist(), self.branch_prob.tolist()
        offsets = self.cell_offsets.tolist()
        n = self.n_actions
        cells = [None] * len(self.states)
        for r, s in enumerate(self.rows.tolist()):
            bounds = offsets[r * n:(r + 1) * n + 1]
            cells[s] = [(list(accumulate(prob[lo:hi])) if hi - lo > 1 else None,
                         nxt[lo:hi])
                        for lo, hi in zip(bounds, bounds[1:])]
        return cells

    @cached_property
    def successors(self) -> list:
        """Per state, the successor state of each of its branches, all
        actions together, as a plain list, or None for a terminal state;
        built on the first ``acceptance_reachable``."""
        nxt, offsets = self.branch_next.tolist(), self.cell_offsets[::self.n_actions].tolist()
        succ = [None] * len(self.states)
        for s, lo, hi in zip(self.rows.tolist(), offsets, offsets[1:]):
            succ[s] = nxt[lo:hi]
        return succ

    @cached_property
    def start_cdf(self) -> list:
        """Start probabilities summed and scaled to end at 1.0, as numpy's
        ``Generator.choice`` builds its CDF."""
        cdf = np.cumsum(self.start_probs)
        cdf /= cdf[-1]
        return cdf.tolist()

    @cached_property
    def start_states(self) -> list:
        """The state index of each start row, as plain ints."""
        return self.rows[self.start_rows].tolist()

    @cached_property
    def quotient(self) -> tuple[EnvModel, np.ndarray]:
        """This model with each class of ``row_partition`` merged into one
        state, and the row in it of each of this model's rows; built on the
        first soft-VI training.

        The states are the classes, in order of first occurrence, so the
        rows are the classes of rows in the order of their first rows.  A
        class takes its first state's features and its first row's
        branches, with every successor renamed to its class.  With a class
        of one state per state, the quotient is the model itself.
        """
        labels = row_partition(self)
        _, first = np.unique(labels, return_index=True)
        if len(first) == len(self.states):
            return self, np.arange(self.n_rows)
        rows = np.flatnonzero(self.row_of[first] >= 0)
        row_of = np.full(len(first), -1)
        row_of[rows] = np.arange(len(rows))
        of_row = row_of[labels[self.rows]]
        first_rows = self.row_of[first[rows]]
        keep = np.isin(self.branch_row, first_rows)
        cells = np.diff(self.cell_offsets).reshape(-1, self.n_actions)[first_rows]
        return EnvModel(self.env, [self.states[i] for i in first], self.features[first],
                        rows, row_of, of_row[self.branch_row[keep]], self.branch_action[keep],
                        labels[self.branch_next[keep]], self.branch_prob[keep],
                        np.concatenate([[0], np.cumsum(cells)]), of_row[self.start_rows],
                        self.start_probs), of_row


def _classes(signature: np.ndarray) -> tuple[int, np.ndarray]:
    """The number of distinct rows of the int64 matrix ``signature`` and
    each row's class, numbered in order of first occurrence.  The rows'
    bytes key a dict: faster than ``np.unique`` over them, and far faster
    than ``np.unique(axis=0)``."""
    keys = signature.view(np.dtype((np.void, 8 * signature.shape[1]))).ravel().tolist()
    index = {}
    labels = [index.setdefault(key, len(index)) for key in keys]
    return len(index), np.array(labels, dtype=np.int64)


def row_partition(model: EnvModel) -> np.ndarray:
    """Each state's class in the coarsest partition of ``model``'s states
    that nothing an explanation reads tells apart, numbered in order of
    first occurrence.

    Two states share a class when their features and terminal flags are
    byte-equal and, for each action, they have the same number of
    branches, with the same probabilities into the same classes, in
    branch order.  Starting from the classes of features and terminal
    flags, each round labels every state by its class and its branches'
    (class, probability) sequence, until no class splits (Givan, Dean &
    Greig 2003, exact MDP minimization).  An explanation's ``q_next`` and
    ``reward_next`` are functions of the features, so soft VI and the
    return, started from zero, give every member of a class the values of
    its class's first row, bit for bit.
    """
    n_actions, rows = model.n_actions, model.rows
    features = np.ascontiguousarray(model.features, dtype=np.float64).view(np.int64)
    n, labels = _classes(np.column_stack([features, model.row_of < 0]))
    if n == len(labels):
        return labels               # a class of one state cannot split
    row_start = model.cell_offsets[::n_actions]
    per_row = np.diff(row_start)
    width = int(per_row.max())
    # per state: its class, its per-action branch counts, its branches'
    # successor classes and their probabilities' bits, zero-padded
    signature = np.zeros((len(model.states), 1 + n_actions + 2 * width), dtype=np.int64)
    signature[rows, 1:1 + n_actions] = np.diff(model.cell_offsets).reshape(-1, n_actions)
    source = rows[model.branch_row]
    slot = 1 + n_actions + np.arange(len(source)) - np.repeat(row_start[:-1], per_row)
    signature[source, slot + width] = model.branch_prob.view(np.int64)
    while True:
        signature[:, 0] = labels
        signature[source, slot] = labels[model.branch_next]
        n_refined, labels = _classes(signature)
        if n_refined == n:
            return labels
        n = n_refined


def build_env_model(env, cap: int = 250_000) -> EnvModel:
    """Enumerate ``env`` in one breadth-first pass from its start states.

    A state gets its index when it is first reached.  Each non-terminal
    state is expanded once, in index order, with one ``transitions`` call
    per action, so its row is the next one and its branches follow the
    previous row's: the branch arrays come out sorted by (row, action).
    The start probabilities are checked as ``Generator.choice`` checks them.
    """
    starts = env.initial_states()
    if any(env.is_terminal(s) for s, _ in starts):
        raise ValueError("start states must be non-terminal")
    probs = [p for _, p in starts]
    if not all(isfinite(p) and p >= 0 for p in probs):
        raise ValueError(f"start probabilities must be finite and >= 0, got {probs}")
    if abs(fsum(probs) - 1.0) > sqrt(np.finfo(float).eps):
        raise ValueError(f"start probabilities must sum to 1, got {fsum(probs)}")
    index = {}
    for s, _ in starts:
        index.setdefault(s, len(index))
    states = list(index)
    n_actions = env.n_actions
    rows, row_of = [], []
    b_next, b_prob = [], []
    offsets = [0]
    # the loop also visits the states it appends, so it ends when every
    # reached state has been visited
    for i, s in enumerate(states):
        if len(states) > cap:
            raise StateSpaceTooLargeError(f"more than {cap} reachable states")
        if env.is_terminal(s):
            row_of.append(-1)
            continue
        row_of.append(len(rows))
        rows.append(i)
        for a in range(n_actions):
            for nxt, p in env.transitions(s, a):
                j = index.get(nxt)
                if j is None:
                    j = index[nxt] = len(states)
                    states.append(nxt)
                b_next.append(j)
                b_prob.append(p)
            offsets.append(len(b_next))

    row_of, offsets = np.array(row_of), np.array(offsets)
    # cell k = row * n_actions + action holds branches offsets[k]:offsets[k + 1]
    cell = np.repeat(np.arange(len(rows) * n_actions), np.diff(offsets))
    return EnvModel(env, states, np.array([env.features(s) for s in states]),
                    np.array(rows), row_of, cell // n_actions, cell % n_actions,
                    np.array(b_next), np.array(b_prob), offsets,
                    row_of[[index[s] for s, _ in starts]], np.array(probs))


def acceptance_reachable(model: EnvModel, q_next: np.ndarray) -> bool:
    """Whether some branch into acceptance leaves a state reachable from a
    start state while the run stays in q0.

    Depth first over ``model.successors``: a successor in q0 that is not
    terminal is entered, and the first one in ``Q_ACC`` answers True.  The
    answer reads ``q_next`` only, so no product is built for it.  When it
    is False, every run ends in the trap, a terminal environment state or
    the horizon without accepting.
    """
    q, succ = q_next.tolist(), model.successors
    seen = set(model.start_states)
    todo = list(seen)
    while todo:
        for j in succ[todo.pop()]:
            if q[j] == Q_ACC:
                return True
            if q[j] == Q0 and j not in seen and succ[j] is not None:
                seen.add(j)
                todo.append(j)
    return False


@dataclass
class TransitionTable:
    """Exact product transition model for one candidate explanation.

    ``branch_next_row`` is -1 for transitions into terminal product states
    (acceptance, trap, or a terminal environment state), whose value is zero.
    """

    n_rows: int
    n_actions: int
    branch_row: np.ndarray
    branch_action: np.ndarray
    branch_next_row: np.ndarray
    branch_prob: np.ndarray
    branch_reward: np.ndarray


@dataclass(frozen=True)
class RewardConfig:
    """The ``reward`` config section: reward shaping and discount."""

    mode: str = SPARSE
    beta: float = 0.1
    gamma: float = 0.95

    def __post_init__(self):
        if self.mode not in (SPARSE, DENSE):
            raise ValueError(f"mode must be {SPARSE!r} or {DENSE!r}, got {self.mode!r}")
        for name in ("beta", "gamma"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")


class ProductMdp:
    """FSPA-augmented MDP with sparse or dense guard-robustness rewards."""

    def __init__(self, model: EnvModel, automaton: tuple,
                 reward: RewardConfig = RewardConfig(), horizon: int = 100):
        self.model = model
        self.reward = reward
        self.horizon = horizon

        # build_fspa's automaton successor from q0 and part robustness, and
        # the transition reward, per post-transition environment state
        self.q_next, rho_f, rho_g = automaton
        r_next = np.where(
            self.q_next == Q_TRAP, rho_g,
            np.where(self.q_next == Q_ACC, np.minimum(rho_g, rho_f), 0.0))
        if reward.mode == DENSE:
            stay_bonus = reward.beta * np.minimum(rho_g, np.maximum(rho_f, -rho_f))
            r_next = np.where(self.q_next == Q0, stay_bonus, r_next)
        self.reward_next = r_next

    @cached_property
    def table(self) -> TransitionTable:
        """The transition table over the model's rows."""
        m = self.model
        nxt = m.branch_next
        keeps_going = (self.q_next[nxt] == Q0) & (m.row_of[nxt] >= 0)
        return TransitionTable(
            m.n_rows, m.n_actions, m.branch_row, m.branch_action,
            np.where(keeps_going, m.row_of[nxt], -1), m.branch_prob, self.reward_next[nxt])

    # -- stepping ----------------------------------------------------------

    def initial_product_state(self, rng):
        """A start state; with several start rows, one ``rng.random()`` picks
        the same row as ``rng.choice(start_rows, p=start_probs)``."""
        starts = self.model.start_states
        if len(starts) == 1:
            return (starts[0], Q0)
        return (starts[bisect_right(self.model.start_cdf, rng.random())], Q0)

    @cached_property
    def step_outcomes(self) -> list:
        """Per post-transition state ``s'``: ``((s', q'), reward, terminal)``,
        the outcome of every branch into ``s'``; built on the first step."""
        return [((s, q), r, q != Q0 or row < 0) for s, (q, r, row) in enumerate(
            zip(self.q_next.tolist(), self.reward_next.tolist(),
                self.model.row_of.tolist()))]

    def product_step(self, product_state, action: int, rng):
        """One sampled transition; returns (next product state, reward, terminal).

        Plain Python over ``EnvModel.step_cells`` and ``step_outcomes``: a
        cell with several branches draws one ``rng.random()`` and takes the
        first branch whose cumulative probability exceeds it; a single
        branch draws nothing.
        """
        idx, q = product_state
        actions = self.model.step_cells[idx]
        if q != Q0 or actions is None:
            raise StepOnTerminalError(f"step on terminal product state {product_state}")
        cums, nexts = actions[action]
        if cums is None:
            return self.step_outcomes[nexts[0]]
        return self.step_outcomes[nexts[min(bisect_right(cums, rng.random()), len(nexts) - 1)]]

    # -- returns -----------------------------------------------------------

    def average_return(self, policy) -> float:
        """Exact expected undiscounted return over ``horizon`` steps: the
        return of a group of one, ``average_returns([self], [policy])``."""
        return average_returns([self], [policy])[0]


def average_returns(mdps, policies) -> list[float]:
    """The exact expected undiscounted return of each product of ``mdps``
    under its policy of ``policies``, over their shared ``horizon``.

    One backward induction over all their transition tables, each table's
    rows offset by the rows of the tables before it: after pass ``i``, ``v``
    holds each row's expected return-to-go with ``i`` steps left.  A branch
    into a terminal product state earns its reward only.  A pass maps each
    table's values by its own rows alone, and is a fixed map: once it
    returns a table's values unchanged, every later pass returns them
    unchanged too.  So the loop stops once every table is at that fixed
    point, or after ``horizon`` passes, and each row sums the same terms in
    the same order as for its table alone: every return is bit for bit the
    full-horizon return of its product.
    """
    if not mdps:
        return []
    horizon = mdps[0].horizon
    if any(mdp.horizon != horizon for mdp in mdps):
        raise ValueError("returns taken together must share their horizon")
    offsets, r_pi, src, nxt, w_live = [], [], [], [], []
    n = 0
    for mdp, policy in zip(mdps, policies):
        t = mdp.table
        w = policy.probs[t.branch_row, t.branch_action] * t.branch_prob
        r_pi.append(np.bincount(t.branch_row, weights=w * t.branch_reward, minlength=t.n_rows))
        live = t.branch_next_row >= 0
        src.append(t.branch_row[live] + n)
        nxt.append(t.branch_next_row[live] + n)
        w_live.append(w[live])
        offsets.append(n)
        n += t.n_rows
    r_pi, src, nxt, w_live = map(np.concatenate, (r_pi, src, nxt, w_live))
    v = np.zeros(n)
    for _ in range(horizon):
        v_next = v.take(nxt)
        v_next *= w_live
        # out of place: with no live branch, bincount returns int64 zeros
        v_prev, v = v, r_pi + np.bincount(src, weights=v_next, minlength=n)
        if (v == v_prev).all():
            break
    return [float(mdp.model.start_probs @ v[mdp.model.start_rows + offset])
            for mdp, offset in zip(mdps, offsets)]
