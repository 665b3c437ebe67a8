"""Template predicate automaton for the F(phi_F) & G(phi_G) class.

The class admits a fixed minimal three-state automaton, so no general
LTL-to-automaton translation is needed: from the initial state the run stays
put while the G-part holds and the F-part is still pending, accepts once both
hold, and falls into the absorbing trap as soon as the G-part fails.  Guard
satisfaction is strict (robustness > 0); a G-part robustness of exactly zero
routes to the trap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .formula import (
    And,
    CanonicalExplanation,
    Not,
    TOP,
    Top,
    part_formula,
    robustness_state,
)

Q0 = "q0"
Q_ACC = "q_acc"
Q_TRAP = "q_trap"
STATES = (Q0, Q_ACC, Q_TRAP)

# integer codes used by the tabular product machinery
Q0_I, Q_ACC_I, Q_TRAP_I = 0, 1, 2


class NoSuchEdgeError(KeyError):
    pass


class GuardEvaluationError(RuntimeError):
    """No outgoing guard fired; indicates a broken template construction."""


@dataclass(frozen=True)
class Fspa:
    """Three-state automaton with guards instantiated from one explanation."""

    f_formula: object
    g_formula: object
    rho_max: float = 1000.0   # TOP guards of the absorbing states; no product reads them
    guards: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self.guards.update({
            (Q0, Q0): And((self.g_formula, Not(self.f_formula))),
            (Q0, Q_ACC): And((self.g_formula, self.f_formula)),
            (Q0, Q_TRAP): Not(self.g_formula),
            (Q_ACC, Q_ACC): TOP,
            (Q_TRAP, Q_TRAP): TOP,
        })

    @property
    def states(self):
        return STATES

    def guard_robustness(self, q: str, q2: str, features) -> float:
        if (q, q2) not in self.guards:
            raise NoSuchEdgeError(f"no edge {q} -> {q2}")
        guard = self.guards[(q, q2)]
        if isinstance(guard, Top):
            return self.rho_max
        return robustness_state(guard, features)

    def step(self, q: str, features) -> str:
        """Successor state under the strict-satisfaction tie rule."""
        if q in (Q_ACC, Q_TRAP):
            return q
        if q != Q0:
            raise GuardEvaluationError(f"unknown automaton state {q!r}")
        if robustness_state(self.g_formula, features) <= 0:
            return Q_TRAP
        if robustness_state(self.f_formula, features) > 0:
            return Q_ACC
        return Q0

    def best_nontrap_neighbor(self, q: str, features) -> str:
        """Non-trap neighbor with maximal guard robustness; q0 wins ties."""
        if q == Q_TRAP:
            raise ValueError("trap state has no non-trap neighbors")
        if q == Q_ACC:
            return Q_ACC
        rho_stay = self.guard_robustness(Q0, Q0, features)
        rho_acc = self.guard_robustness(Q0, Q_ACC, features)
        return Q_ACC if rho_acc > rho_stay else Q0

    # vectorized forms used by the product MDP over a feature matrix

    def part_robustness(self, features_matrix) -> tuple[np.ndarray, np.ndarray]:
        rho_f = np.atleast_1d(robustness_state(self.f_formula, features_matrix))
        rho_g = np.atleast_1d(robustness_state(self.g_formula, features_matrix))
        return rho_f, rho_g

    def step_codes(self, rho_f: np.ndarray, rho_g: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`step` from q0, on precomputed part robustness."""
        return np.where(rho_g <= 0, Q_TRAP_I, np.where(rho_f > 0, Q_ACC_I, Q0_I))


def build_fspa(canon: CanonicalExplanation, predicates) -> Fspa:
    """Instantiate the template automaton for one canonical explanation."""
    return Fspa(
        f_formula=part_formula(canon.f_part, predicates),
        g_formula=part_formula(canon.g_part, predicates),
    )
