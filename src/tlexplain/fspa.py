"""Template predicate automaton for the F(phi_F) & G(phi_G) class.

The class admits a fixed minimal three-state automaton, so no general
LTL-to-automaton translation is needed: from the initial state the run stays
put while the G-part holds and the F-part is still pending, accepts once both
hold, and falls into the absorbing trap as soon as the G-part fails.  Guard
satisfaction is strict (robustness > 0); a G-part robustness of exactly zero
routes to the trap.  The states are the int codes the product MDP stores.
"""

from __future__ import annotations

import numpy as np

from .formula import CanonicalExplanation, part_robustness

Q0, Q_ACC, Q_TRAP = 0, 1, 2


def build_fspa(canon: CanonicalExplanation, predicates, features) -> tuple:
    """``(q_next, rho_f, rho_g)`` on the rows of ``features``: the state
    entered from q0 under the strict tie rule, as int8, and the two parts'
    robustness."""
    rho_f = part_robustness(canon.f_part, predicates, features)
    rho_g = part_robustness(canon.g_part, predicates, features)
    q_next = np.full(rho_f.shape, Q0, dtype=np.int8)
    q_next[rho_f > 0] = Q_ACC
    q_next[rho_g <= 0] = Q_TRAP
    return q_next, rho_f, rho_g
