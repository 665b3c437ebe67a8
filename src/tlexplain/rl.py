"""Tabular trainers producing stochastic policies for product MDPs.

The default trainer is exact soft (entropy-regularized) value iteration: it
is deterministic, so replicate selection is trivial and whole runs are
bitwise reproducible.  A tabular Q-learning trainer is kept as the stochastic
path that makes replicate selection meaningful.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from math import ceil
from pathlib import Path

import numpy as np

from .metrics import xlogx
from .product import ProductMdp, TransitionTable

EXACT_SOFT_VI = "exact-soft-vi"
Q_LEARNING = "q-learning"


class NoConvergenceError(RuntimeError):
    """``item`` is the item the trained stream paired with the table that
    did not converge."""

    def __init__(self, message: str, item=None):
        super().__init__(message)
        self.item = item


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

    def __post_init__(self):
        # np.allclose(rowsums, 1.0, atol=1e-9) decides every row the same
        # way, NaN and inf included, at twice the cost
        rowsums = self.probs.sum(axis=1)
        if (self.probs < 0).any() or not (np.abs(rowsums - 1.0) <= 1e-9 + 1e-5 * 1.0).all():
            raise ValueError("policy rows must be probability simplexes")

    def save(self, path):
        """Plain-text tabular format: a header line then one row per state."""
        lines = [f"tlexplain-policy states={self.probs.shape[0]} actions={self.probs.shape[1]}"]
        for row in self.probs:
            lines.append(" ".join(repr(float(p)) for p in row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "TabularPolicy":
        """Read what :meth:`save` writes; ValueError unless the header's
        first word is ``tlexplain-policy``.  The header's other ``key=value``
        fields are ignored: older files also name ``tau`` and ``trainer``."""
        lines = Path(path).read_text().splitlines()
        words = lines[0].split()
        if words[:1] != ["tlexplain-policy"]:
            raise ValueError(f"header {lines[0]!r} does not start with tlexplain-policy")
        header = dict(kv.split("=", 1) for kv in words[1:])
        probs = np.array([[float(x) for x in line.split()] for line in lines[1:]])
        if probs.shape != (int(header["states"]), int(header["actions"])):
            raise ValueError(f"policy file shape {probs.shape} does not match header")
        return cls(probs)


def _action_softmax(q: np.ndarray, tau: float):
    """Max-shifted softmax of ``q / tau`` over axis -2: ``(m, z, s)``.

    ``q`` is action-major, shape ``(n_actions, n_rows)`` or, for a batch,
    ``(K, n_actions, n_rows)``: with few actions, numpy reduces over an
    outer axis several times faster than over a short trailing one.  ``m``
    is the max over actions, ``z = exp((q - m) / tau)`` and ``s`` its sum,
    so the soft value is ``m + tau * log(s)`` and a table's policy is
    ``(z / s).T``.  ``z`` is computed in place: ``q`` is overwritten.
    """
    m = q.max(axis=-2)
    q -= m[..., None, :]
    q /= tau
    np.exp(q, out=q)
    return m, q, q.sum(axis=-2)


def _policy_rows(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-major ``(n_rows, n_actions)`` probabilities from ``_action_softmax``."""
    return np.ascontiguousarray((z / s).T)


def soft_value_iteration(tables: Iterable[tuple[object, TransitionTable]], gamma: float,
                         cfg: TrainerConfig, slots: int = 1
                         ) -> Iterator[tuple[object, TabularPolicy]]:
    """Iterate the soft Bellman backup to tolerance on each table of the
    stream ``tables``, ``(item, table)`` pairs; yields ``(item, policy)``
    on the sweep the table's policy is out.  Policies are seed-independent.

    Up to ``slots`` tables sweep together, and they must share ``n_rows``
    and ``n_actions`` with the first.  Everything that does not depend on
    ``v`` is computed once, as a table enters, into the record of its slot:
    the action-major cell of each branch, the expected immediate reward per
    cell, and the discounted weights of branches into non-terminal rows.
    Whenever the slots change, their records are packed, slot ``k``'s cells
    and rows offset by ``k`` tables' cells and rows, so a sweep is one
    ``bincount`` plus one log-sum-exp over actions for all of them, and
    ``v`` is ``(K, n_rows)`` for ``K`` tables.  Each cell sums the same
    terms in the same order as it would for its table alone, so each
    policy is bit for bit what the table would get by itself, whatever its
    slot.

    Each table keeps its own residual and counts its own sweeps.  On the
    sweep where its residual first falls below tolerance, its record goes
    and, once the packed arrays and the sweep's temporaries are dropped,
    its policy goes out.  Only then do the stream's next tables take the
    free slots, after the others, each with a zero row of ``v``: no more
    than ``slots`` tables are pulled from the stream and not yet out.  So
    the slots hold their tables in stream order, and slot 0 is the first
    to run out of sweeps: if its table has not converged after
    ``max_iterations`` sweeps of its own, ``NoConvergenceError`` gives its
    item and its residual.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    stream = iter(tables)
    tau, tolerance, limit = cfg.tau, cfg.tolerance, cfg.max_iterations
    # one record per slot, in stream order: (item, entered, base, cells,
    # nxt, weight), the table's item, the sweep it entered after, the
    # expected immediate reward of each cell, and the cell, next row and
    # discounted weight of each branch into a non-terminal row
    held = []
    shape = None
    sweep = 0
    while True:
        kept = len(held)
        for item, t in islice(stream, slots - kept):
            if shape is None:            # the first table fixes the shape
                shape = n_rows, n_actions = t.n_rows, t.n_actions
                block, v = n_rows * n_actions, np.zeros((0, n_rows))
            elif (t.n_rows, t.n_actions) != shape:
                raise ValueError("tables trained together must share n_rows and n_actions")
            table_cells = t.branch_action * n_rows + t.branch_row
            live = t.branch_next_row >= 0
            held.append((item, sweep, np.bincount(table_cells, minlength=block,
                                                  weights=t.branch_prob * t.branch_reward),
                         table_cells[live], t.branch_next_row[live], gamma * t.branch_prob[live]))
        if not held:
            return
        v = np.concatenate([v, np.zeros((len(held) - kept, n_rows))])
        base = np.concatenate([r[2] for r in held])
        cells = np.concatenate([r[3] + k * block for k, r in enumerate(held)])
        nxt = np.concatenate([r[4] + k * n_rows for k, r in enumerate(held)])
        weight = np.concatenate([r[5] for r in held])
        deadline = held[0][1] + limit        # slot 0's last sweep
        while True:
            v_next = v.take(nxt)
            v_next *= weight
            # with no branch into a live row, bincount returns int64 zeros
            q = (np.bincount(cells, weights=v_next, minlength=base.size)
                 if cells.size else np.zeros(base.size))
            q += base
            m, z, s = _action_softmax(q.reshape(len(held), n_actions, n_rows), tau)
            v_new = np.log(s)
            v_new *= tau
            v_new += m
            diff = v_new - v
            np.abs(diff, out=diff)
            delta = diff.max(axis=1).tolist()
            v = v_new
            sweep += 1
            done = [d < tolerance for d in delta]   # a NaN residual never converges
            if any(done) or sweep == deadline:
                break
        out = [(r[0], TabularPolicy(_policy_rows(z[k], s[k])))
               for k, r in enumerate(held) if done[k]]
        v = v[[not d for d in done]]
        held, delta = ([x for x, d in zip(xs, done) if not d] for xs in (held, delta))
        del base, cells, nxt, weight, v_next, q, m, z, s, v_new, diff
        yield from out
        if held and held[0][1] + limit == sweep:     # slot 0's last sweep
            raise NoConvergenceError(
                f"soft value iteration did not reach tolerance {tolerance} in "
                f"{limit} sweeps (final residual {delta[0]:.3g})", held[0][0])


_BLOCK_WORDS = 1024  # raw words fetched per numpy call; larger blocks cost memory
_LOW32 = 0xFFFFFFFF


class _Pcg64Draws:
    """numpy ``Generator.random()`` from blocks of ``bit_generator.random_raw``:
    the values and the stream of the scalar calls, without numpy's per-call
    cost.  ``random()`` is one raw word ``w`` as ``(w >> 11) * 2**-53``.

    ``_pop`` hands out the next raw word, or raises IndexError when the
    block is used up and ``_refill`` fetches the next.  A caller that splits
    words into 32-bit halves keeps PCG64's half-word buffer
    (``has_uint32``/``uinteger``) itself and passes it to :meth:`close`,
    which leaves the generator in the state the scalar calls would have left.
    """

    def __init__(self, rng: np.random.Generator, block: int = _BLOCK_WORDS):
        bg = rng.bit_generator
        if type(bg) is not np.random.PCG64:
            raise ValueError(f"q-learning needs a PCG64 bit generator, got {type(bg).__name__}")
        self._bg, self._block, self._start = bg, block, bg.state
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

    def close(self, has32: int, uint32: int):
        """Advance the generator past the words used and set its buffer."""
        bg = self._bg
        bg.state = self._start
        bg.advance(self._fetched - len(self._words))   # also empties the buffer
        bg.state = {**bg.state, "has_uint32": has32, "uinteger": uint32}


def _explore_limit(eps: float) -> int:
    """The raw words ``w`` below this are those whose ``random()`` value
    ``(w >> 11) * 2**-53`` is below ``eps``: ``eps * 2**53`` is exact, and an
    integer is below a real number iff it is below that number's ceiling."""
    return ceil(eps * 2 ** 53) << 11


def q_learning(mdp: ProductMdp, cfg: TrainerConfig, rng: np.random.Generator) -> TabularPolicy:
    """Epsilon-greedy tabular Q-learning; final policy is softmax over Q.

    The Q-table is a list of lists indexed by environment state while
    training (terminal states' entries stay zero and unused), so a step is
    plain Python.  The greedy action is the first maximum of the row, as
    ``np.argmax`` picks, and is kept per state in ``best`` rather than
    found by scanning the row each step: the greedy step takes ``best[s]``
    and the bootstrap reads ``q_next[best[s2]]``, the float ``max(q_next)``
    returns.  A write to ``q_s[a]`` updates ``best[s]``: the row is scanned
    again only when the greedy value falls, and another action takes over
    when it exceeds the greedy value or ties it from a lower index.
    Per step ``random()`` then, if exploring, ``integers(n_actions)``
    is drawn before ``product_step``'s own draw; that order fixes the random
    stream and therefore the policy.  Every draw comes from
    :class:`_Pcg64Draws`, so ``rng`` must be PCG64-backed.

    The loop makes its own two draws on ``_Pcg64Draws``'s raw words, with
    the same values.  The epsilon test compares the word with
    :func:`_explore_limit`.  The exploring draw is numpy's buffered Lemire
    method: take a 32-bit half (the buffered one, or the low half of a
    fresh word, buffering the high half), multiply it by ``n_actions`` and
    accept when the product's low 32 bits are at least ``threshold``.
    numpy tests the threshold only when the low bits are below
    ``n_actions``, but the threshold is below ``n_actions``, so the test is
    the same.  The half-word buffer is read from the generator's state at
    entry, kept in locals and handed to ``close()``.  ``product_step`` stays
    the one sampler of transitions.
    """
    m = mdp.model
    n_actions = m.n_actions
    q = [[0.0] * n_actions for _ in range(len(m.states))]
    best = [0] * len(m.states)     # per state, the first index of its row's maximum
    gamma, lr, horizon = mdp.reward.gamma, cfg.learning_rate, mdp.horizon
    draws = _Pcg64Draws(rng)
    step, pop, refill = mdp.product_step, draws._pop, draws._refill
    has32, uint32 = draws._start["has_uint32"], draws._start["uinteger"]
    threshold = (2 ** 32 - n_actions) % n_actions
    try:
        for ep in range(cfg.episodes):
            eps = cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * ep / max(cfg.episodes - 1, 1)
            # integers(1) draws nothing and gives 0, the greedy action too
            limit = _explore_limit(eps) if n_actions > 1 else 0
            ps = mdp.initial_product_state(draws)
            s = ps[0]
            q_s = q[s]
            for _ in range(horizon):
                try:
                    w = pop()
                except IndexError:
                    w = refill()
                if w < limit:                          # random() < eps
                    while True:                        # integers(n_actions)
                        if has32:
                            has32, x = 0, uint32
                        else:
                            try:
                                w = pop()
                            except IndexError:
                                w = refill()
                            has32, uint32, x = 1, w >> 32, w & _LOW32
                        x *= n_actions
                        if x & _LOW32 >= threshold:
                            break
                    a = x >> 32
                else:
                    a = best[s]
                ps, reward, terminal = step(ps, a, draws)
                old = q_s[a]
                if terminal:
                    q_s[a] = new = old + lr * (reward - old)
                else:
                    s2 = ps[0]
                    q_next = q[s2]
                    # read before the write: a self-loop bootstraps on the old row
                    q_s[a] = new = old + lr * (reward + gamma * q_next[best[s2]] - old)
                b = best[s]
                if a == b:
                    if new < old:
                        best[s] = q_s.index(max(q_s))
                elif new > q_s[b] or (new == q_s[b] and a < b):
                    best[s] = a
                if terminal:
                    break
                s, q_s = s2, q_next
    finally:
        draws.close(has32, uint32)
    _, z, s = _action_softmax(np.array(q)[m.rows].T, cfg.tau)
    return TabularPolicy(_policy_rows(z, s))


def policy_entropy(policy: TabularPolicy, sample_rows) -> float:
    """Mean Shannon entropy (natural log) of action rows over a state sample."""
    rows = np.asarray(sample_rows, dtype=int)
    if rows.size == 0:
        raise EmptySampleError("entropy needs a nonempty state sample")
    p = policy.probs[rows]
    return float(-xlogx(p).sum(axis=1).mean())


def select_replicate(policies, sample_rows) -> TabularPolicy:
    """The replicate with the highest mean action entropy over the sample;
    ties go to the lowest replicate index."""
    if not policies:
        raise ValueError("no replicates to select from")
    scores = [policy_entropy(p, sample_rows) for p in policies]
    return policies[int(np.argmax(scores))]
