"""Tabular trainers producing stochastic policies for product MDPs.

The default trainer is exact soft (entropy-regularized) value iteration: it
is deterministic, so replicate selection is trivial and whole runs are
bitwise reproducible.  A tabular Q-learning trainer is kept as the stochastic
path that makes replicate selection meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from .product import ProductMdp, TransitionTable

EXACT_SOFT_VI = "exact-soft-vi"
Q_LEARNING = "q-learning"


class NoConvergenceError(RuntimeError):
    pass


class EmptySampleError(ValueError):
    pass


@dataclass
class TrainerConfig:
    mode: str = EXACT_SOFT_VI
    tau: float = 0.1
    tolerance: float = 1e-9
    max_iterations: int = 10_000
    # q-learning only
    episodes: int = 2000
    learning_rate: float = 0.2
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05

    def __post_init__(self):
        if self.mode not in (EXACT_SOFT_VI, Q_LEARNING):
            raise ValueError(f"mode must be {EXACT_SOFT_VI!r} or {Q_LEARNING!r}, "
                             f"got {self.mode!r}")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass
class TabularPolicy:
    """Per-row action distribution over non-terminal product states."""

    probs: np.ndarray
    tau: float
    trainer: str

    def __post_init__(self):
        rowsums = self.probs.sum(axis=1)
        if (self.probs < 0).any() or not np.allclose(rowsums, 1.0, atol=1e-9):
            raise ValueError("policy rows must be probability simplexes")

    def save(self, path):
        """Plain-text tabular format: a header line then one row per state."""
        lines = [f"tlexplain-policy states={self.probs.shape[0]} "
                 f"actions={self.probs.shape[1]} tau={self.tau!r} trainer={self.trainer}"]
        for row in self.probs:
            lines.append(" ".join(repr(float(p)) for p in row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "TabularPolicy":
        lines = Path(path).read_text().splitlines()
        header = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
        probs = np.array([[float(x) for x in line.split()] for line in lines[1:]])
        if probs.shape != (int(header["states"]), int(header["actions"])):
            raise ValueError(f"policy file shape {probs.shape} does not match header")
        return cls(probs, float(header["tau"]), header["trainer"])


def _action_softmax(q: np.ndarray, tau: float):
    """Max-shifted softmax of ``q / tau`` over axis 0: ``(m, z, s)``.

    ``q`` is action-major, shape ``(n_actions, n_rows)``: with few actions,
    numpy reduces over the leading axis several times faster than over a
    short trailing one.  ``m`` is the max over actions,
    ``z = exp((q - m) / tau)`` and ``s`` its sum, so the soft value is
    ``m + tau * log(s)`` and the policy is ``(z / s).T``.
    """
    m = q.max(axis=0)
    z = q - m
    z /= tau
    np.exp(z, out=z)
    return m, z, z.sum(axis=0)


def _policy_rows(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-major ``(n_rows, n_actions)`` probabilities from ``_action_softmax``."""
    return np.ascontiguousarray((z / s).T)


def soft_value_iteration(table: TransitionTable, gamma: float,
                         cfg: TrainerConfig) -> TabularPolicy:
    """Iterate the soft Bellman backup to tolerance; seed-independent.

    Everything that does not depend on ``v`` is computed once: the flat
    action-major cell of each branch, the expected immediate reward per
    cell, and the discounted weights of branches into non-terminal rows.
    A sweep is then one ``bincount`` plus a log-sum-exp over actions.
    """
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
        m, z, s = _action_softmax(q.reshape(n_actions, n_rows), tau)
        v_new = m + tau * np.log(s)
        delta = np.abs(v_new - v).max()
        v = v_new
        if delta < cfg.tolerance:
            return TabularPolicy(_policy_rows(z, s), tau, EXACT_SOFT_VI)
    raise NoConvergenceError(
        f"soft value iteration did not reach tolerance {cfg.tolerance} in "
        f"{cfg.max_iterations} sweeps (final residual {delta:.3g})")


_BLOCK_WORDS = 1024  # raw words fetched per numpy call; larger blocks cost memory
_LOW32 = 0xFFFFFFFF


class _Pcg64Draws:
    """numpy ``Generator.random()`` and ``.integers(n)`` for ``1 <= n < 2**32``
    from blocks of ``bit_generator.random_raw``: the values and the stream of
    the scalar calls, without numpy's per-call cost.

    ``random()`` is one raw word ``w`` as ``(w >> 11) * 2**-53``.
    ``integers(n)`` is Lemire's method over 32-bit halves: a word gives its
    low half and keeps its high half buffered (``has_uint32``/``uinteger``),
    as PCG64's ``next_uint32`` does.  After :meth:`close` the generator's
    state is what the scalar calls would have left.
    """

    def __init__(self, rng: np.random.Generator, block: int = _BLOCK_WORDS):
        bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise ValueError(f"q-learning needs a PCG64 bit generator, got {type(bg).__name__}")
        self._bg, self._block, self._start = bg, block, bg.state
        self._has32, self._uint32 = self._start["has_uint32"], self._start["uinteger"]
        self._fetched = 0
        self._words = []           # the current block, reversed: pop() is the next word
        self._pop = self._words.pop

    def _refill(self) -> int:
        block = self._bg.random_raw(self._block).tolist()
        block.reverse()
        self._words.extend(block)
        self._fetched += self._block
        return self._pop()

    def random(self) -> float:
        try:
            w = self._pop()
        except IndexError:
            w = self._refill()
        return (w >> 11) * 2 ** -53

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._uint32
        try:
            w = self._pop()
        except IndexError:
            w = self._refill()
        self._has32, self._uint32 = 1, w >> 32
        return w & _LOW32

    def integers(self, n: int) -> int:
        if n == 1:
            return 0               # numpy draws nothing for a one-value range
        m = self._next32() * n
        if (m & _LOW32) < n:
            threshold = (2 ** 32 - n) % n
            while (m & _LOW32) < threshold:
                m = self._next32() * n
        return m >> 32

    def close(self):
        """Advance the generator past the words used, keeping its buffer."""
        bg = self._bg
        bg.state = self._start
        bg.advance(self._fetched - len(self._words))   # also empties the buffer
        bg.state = {**bg.state, "has_uint32": self._has32, "uinteger": self._uint32}


def q_learning(mdp: ProductMdp, cfg: TrainerConfig, rng: np.random.Generator) -> TabularPolicy:
    """Epsilon-greedy tabular Q-learning; final policy is softmax over Q.

    The Q-table is a list of lists indexed by environment state while
    training (terminal states' entries stay zero and unused), so a step is
    plain Python: the greedy action is the first maximum, as ``np.argmax``
    picks.  Per step ``random()`` then, if exploring, ``integers(n_actions)``
    is drawn before ``product_step``'s own draw; that order fixes the random
    stream and therefore the policy.  Every draw comes from
    :class:`_Pcg64Draws`, so ``rng`` must be PCG64-backed.
    """
    m = mdp.model
    n_actions = m.n_actions
    q = [[0.0] * n_actions for _ in range(len(m.states))]
    gamma, lr = mdp.reward.gamma, cfg.learning_rate
    draws = _Pcg64Draws(rng)
    step, random, integers = mdp.product_step, draws.random, draws.integers
    try:
        for ep in range(cfg.episodes):
            eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * ep / max(cfg.episodes - 1, 1)
            ps = mdp.initial_product_state(draws)
            for _ in range(mdp.horizon):
                q_s = q[ps[0]]
                if random() < eps:
                    a = integers(n_actions)
                else:
                    a = q_s.index(max(q_s))
                ps, reward, terminal = step(ps, a, draws)
                if terminal:
                    q_s[a] += lr * (reward - q_s[a])
                    break
                q_s[a] += lr * (reward + gamma * max(q[ps[0]]) - q_s[a])
    finally:
        draws.close()
    _, z, s = _action_softmax(np.array(q)[m.rows].T, cfg.tau)
    return TabularPolicy(_policy_rows(z, s), cfg.tau, Q_LEARNING)


def train(mdp: ProductMdp, cfg: TrainerConfig,
          rng: np.random.Generator | None = None) -> TabularPolicy:
    if cfg.mode == EXACT_SOFT_VI:
        return soft_value_iteration(mdp.table, mdp.reward.gamma, cfg)
    if rng is None:
        raise ValueError("q-learning needs an rng")
    return q_learning(mdp, cfg, rng)


def policy_entropy(policy: TabularPolicy, sample_rows) -> float:
    """Mean Shannon entropy (natural log) of action rows over a state sample."""
    rows = np.asarray(sample_rows, dtype=int)
    if rows.size == 0:
        raise EmptySampleError("entropy needs a nonempty state sample")
    p = policy.probs[rows]
    return float(-xlogy(p, p).sum(axis=1).mean())


def select_replicate(policies, sample_rows) -> TabularPolicy:
    """The replicate with the highest mean action entropy over the sample;
    ties go to the lowest replicate index."""
    if not policies:
        raise ValueError("no replicates to select from")
    scores = [policy_entropy(p, sample_rows) for p in policies]
    return policies[int(np.argmax(scores))]
