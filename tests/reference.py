"""Reference semantics: slow, one-state-at-a-time forms of what the library
computes over whole arrays, kept as the property tests' oracles.

The automaton functions take one canonical explanation, the predicates and
one feature vector.  Only q0 has guarded edges: acceptance and trap are
absorbing.  :func:`row_partition` refines an environment model's states
one state at a time.
"""

import numpy as np

from tlexplain import formula as fm
from tlexplain.fspa import Q0, Q_ACC, Q_TRAP


def part_holds(part: fm.CanonicalPart, predicates, x) -> bool:
    """Boolean satisfaction of one part at one state, with strict
    thresholds; what :func:`formula.part_robustness` is checked against."""

    def literal(lit: fm.Literal) -> bool:
        i, negated = lit
        p = predicates[i]
        return bool(x[p.feature_index] < p.threshold) != negated

    def join(values, op: str | None) -> bool:
        return all(values) if op == fm.AND else any(values)

    return join((join((literal(lit) for lit in clause), part.inner)
                 for clause in part.clauses), part.outer)


def step(canon: fm.CanonicalExplanation, predicates, q: int, x) -> int:
    """Successor of automaton state ``q`` on ``x`` under the
    strict-satisfaction tie rule."""
    if q != Q0:
        return q
    if fm.part_robustness(canon.g_part, predicates, x) <= 0:
        return Q_TRAP
    if fm.part_robustness(canon.f_part, predicates, x) > 0:
        return Q_ACC
    return Q0


def guard_robustness(canon: fm.CanonicalExplanation, predicates, q2: int, x) -> float:
    """Robustness at ``x`` of the guard on the edge from q0 to ``q2``."""
    rho_f = fm.part_robustness(canon.f_part, predicates, x)
    rho_g = fm.part_robustness(canon.g_part, predicates, x)
    if q2 == Q_TRAP:
        return -rho_g
    if q2 == Q_ACC:
        return np.minimum(rho_g, rho_f)
    return np.minimum(rho_g, -rho_f)


def best_nontrap_neighbor(canon: fm.CanonicalExplanation, predicates, q: int, x) -> int:
    """Non-trap neighbor of ``q`` with maximal guard robustness at ``x``;
    q0 wins ties."""
    if q == Q_TRAP:
        raise ValueError("trap state has no non-trap neighbors")
    if q == Q_ACC:
        return Q_ACC
    rho_stay = guard_robustness(canon, predicates, Q0, x)
    rho_acc = guard_robustness(canon, predicates, Q_ACC, x)
    return Q_ACC if rho_acc > rho_stay else Q0


def expand_transitions(mdp) -> dict:
    """Explicit table {(product state, action): [(next, prob, reward)]} of a
    ``ProductMdp``, one entry per branch of its transition table."""
    t = mdp.table
    out = {}
    for k in range(len(t.branch_row)):
        row, a = int(t.branch_row[k]), int(t.branch_action[k])
        ps = (int(mdp.model.rows[row]), Q0)
        nxt_state = int(mdp.model.branch_next[k])
        nxt = (nxt_state, int(mdp.q_next[nxt_state]))
        out.setdefault((ps, a), []).append(
            (nxt, float(t.branch_prob[k]), float(t.branch_reward[k])))
    return out


def row_partition(model) -> list[int]:
    """Each state's class in the coarsest partition of ``model``'s states
    in which members have byte-equal features and terminal flags and, for
    each action, the same branch probabilities into the same classes, in
    branch order; numbered in order of first occurrence.

    Refined from the feature classes one state at a time, with tuples as
    keys, until a round splits no class: what
    :func:`product.row_partition` is checked against.
    """
    n = len(model.states)
    offsets = model.cell_offsets.tolist()
    cells = []               # per state, per action, its (successor, probability bytes)
    for i in range(n):
        row = int(model.row_of[i])
        cells.append(() if row < 0 else tuple(
            tuple((int(model.branch_next[b]), model.branch_prob[b].tobytes())
                  for b in range(offsets[k], offsets[k + 1]))
            for k in range(row * model.n_actions, (row + 1) * model.n_actions)))

    def number(keys):
        index = {}
        return [index.setdefault(key, len(index)) for key in keys]

    labels = number((model.features[i].tobytes(), bool(model.row_of[i] < 0))
                    for i in range(n))
    while True:
        refined = number((labels[i], tuple(tuple((labels[j], p) for j, p in cell)
                                           for cell in cells[i]))
                         for i in range(n))
        if max(refined) == max(labels):
            return refined
        labels = refined
