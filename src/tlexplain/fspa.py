"""Template predicate automaton for the F(phi_F) & G(phi_G) class.

The class admits a fixed minimal three-state automaton, so no general
LTL-to-automaton translation is needed: from the initial state the run stays
put while the G-part holds and the F-part is still pending, accepts once both
hold, and falls into the absorbing trap as soon as the G-part fails.  Guard
satisfaction is strict (robustness > 0); a G-part robustness of exactly zero
routes to the trap.  The states are the int codes the product MDP stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import CanonicalExplanation, CanonicalPart, part_robustness

Q0, Q_ACC, Q_TRAP = 0, 1, 2


class NoSuchEdgeError(KeyError):
    pass


@dataclass(frozen=True)
class Fspa:
    """Three-state automaton instantiated from one explanation's two parts."""

    f_part: CanonicalPart
    g_part: CanonicalPart
    predicates: tuple

    def guard_robustness(self, q: int, q2: int, features) -> float:
        """Robustness of the guard on a q0 edge; reference semantics only."""
        if q != Q0 or q2 not in (Q0, Q_ACC, Q_TRAP):
            raise NoSuchEdgeError(f"no guarded edge {q} -> {q2}")
        rho_f, rho_g = self.part_robustness(features)
        if q2 == Q_TRAP:
            return -rho_g
        if q2 == Q_ACC:
            return np.minimum(rho_g, rho_f)
        return np.minimum(rho_g, -rho_f)

    def step(self, q: int, features) -> int:
        """Successor state under the strict-satisfaction tie rule."""
        if q in (Q_ACC, Q_TRAP):
            return q
        if q != Q0:
            raise ValueError(f"unknown automaton state {q!r}")
        if part_robustness(self.g_part, self.predicates, features) <= 0:
            return Q_TRAP
        if part_robustness(self.f_part, self.predicates, features) > 0:
            return Q_ACC
        return Q0

    def best_nontrap_neighbor(self, q: int, features) -> int:
        """Non-trap neighbor with maximal guard robustness; q0 wins ties."""
        if q == Q_TRAP:
            raise ValueError("trap state has no non-trap neighbors")
        if q == Q_ACC:
            return Q_ACC
        rho_stay = self.guard_robustness(Q0, Q0, features)
        rho_acc = self.guard_robustness(Q0, Q_ACC, features)
        return Q_ACC if rho_acc > rho_stay else Q0

    # forms used by the product MDP over a feature matrix

    def part_robustness(self, features) -> tuple:
        """F- and G-part robustness: floats at one state, arrays over a matrix."""
        return (part_robustness(self.f_part, self.predicates, features),
                part_robustness(self.g_part, self.predicates, features))

    def step_codes(self, rho_f: np.ndarray, rho_g: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`step` from q0, on precomputed part robustness."""
        return np.where(rho_g <= 0, Q_TRAP, np.where(rho_f > 0, Q_ACC, Q0))


def build_fspa(canon: CanonicalExplanation, predicates) -> Fspa:
    """Instantiate the template automaton for one canonical explanation."""
    return Fspa(canon.f_part, canon.g_part, tuple(predicates))
