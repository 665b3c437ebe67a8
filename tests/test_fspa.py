"""Template automaton: guard instantiation, stepping, tie rules, runs.

The trajectory oracle re-derives acceptance from first principles: a finite
feature sequence is accepted iff some prefix keeps the G-part strictly
satisfied through a step where the F-part is strictly satisfied.
"""

import numpy as np
import pytest

from tlexplain import formula as fm
from tlexplain import fspa as fa

from conftest import generic_predicates


def _simple_fspa(n=2, text=None, preds=None):
    preds = preds or generic_predicates(n)
    text = text or "F(psi0) & G(psi1)"
    canon = fm.parse_explanation(text, preds)
    return fa.build_fspa(canon, preds), preds


def _run(fspa, feature_seq):
    """Final state after consuming a feature-vector sequence from q0."""
    q = fa.Q0
    for x in feature_seq:
        q = fspa.step(q, x)
    return q


def _run_oracle(fspa, feature_seq):
    """Independent acceptance check by explicit prefix scanning."""
    for x in feature_seq:
        if not fm.part_holds(fspa.g_part, fspa.predicates, x):
            return fa.Q_TRAP
        if fm.part_holds(fspa.f_part, fspa.predicates, x):
            return fa.Q_ACC
    return fa.Q0


class TestGuards:
    def test_only_q0_edges_have_guards(self):
        fspa, _ = _simple_fspa()
        x = np.array([0.2, 1.7])
        states = (fa.Q0, fa.Q_ACC, fa.Q_TRAP)
        answered = set()
        for q in states:
            for q2 in states:
                try:
                    rho = fspa.guard_robustness(q, q2, x)
                except fa.NoSuchEdgeError:
                    continue
                assert isinstance(rho, float)
                answered.add((q, q2))
        assert answered == {(fa.Q0, fa.Q0), (fa.Q0, fa.Q_ACC), (fa.Q0, fa.Q_TRAP)}

    def test_guard_values_f_psi0_g_not_psi1(self):
        # F(psi0) & G(!psi1): accept guard = !psi1 & psi0, trap guard = psi1
        fspa, _ = _simple_fspa(text="F(psi0) & G(!psi1)")
        x = np.array([0.2, 1.7])  # rho(psi0)=0.8, rho(psi1)=-0.7, rho(!psi1)=0.7
        assert fspa.guard_robustness(fa.Q0, fa.Q_ACC, x) == pytest.approx(0.7)
        assert fspa.guard_robustness(fa.Q0, fa.Q_TRAP, x) == pytest.approx(-0.7)
        assert fspa.guard_robustness(fa.Q0, fa.Q0, x) == pytest.approx(-0.8)

    def test_trap_guard_is_negated_g_part(self):
        # parking-style F(psi0) & G(!psi1 & !psi2): trap guard == psi1 | psi2
        preds = generic_predicates(3)
        fspa, _ = _simple_fspa(preds=preds, text="F(psi0) & G(!psi1 & !psi2)")
        for x in (np.array([0.0, 0.3, 1.9]), np.array([0.0, 1.4, 1.9]),
                  np.array([0.0, 0.2, 0.2])):
            expected = max(1.0 - x[1], 1.0 - x[2])
            assert fspa.guard_robustness(fa.Q0, fa.Q_TRAP, x) == pytest.approx(expected)

    def test_literal_guard_robustness(self):
        fspa, _ = _simple_fspa(text="F(psi1) & G(psi0)")
        x = np.array([0.4, 2.0])
        # staying guard = psi0 & !psi1, G-robustness 1 - 0.4 = 0.6 dominates min
        assert fspa.guard_robustness(fa.Q0, fa.Q0, x) == pytest.approx(0.6)

    def test_accept_guard_is_min_of_parts(self):
        fspa, _ = _simple_fspa()
        x = np.array([0.8, 2.1])  # rho_f = 0.2, rho_g = -1.1
        rho_f = fm.part_robustness(fspa.f_part, fspa.predicates, x)
        rho_g = fm.part_robustness(fspa.g_part, fspa.predicates, x)
        assert fspa.guard_robustness(fa.Q0, fa.Q_ACC, x) == pytest.approx(min(rho_f, rho_g))

    def test_missing_edge(self):
        fspa, _ = _simple_fspa()
        with pytest.raises(fa.NoSuchEdgeError):
            fspa.guard_robustness(fa.Q_ACC, fa.Q0, np.zeros(2))


class TestStep:
    def test_absorbing_states(self):
        fspa, _ = _simple_fspa()
        x = np.array([0.0, 0.0])
        assert fspa.step(fa.Q_TRAP, x) == fa.Q_TRAP
        assert fspa.step(fa.Q_ACC, x) == fa.Q_ACC

    def test_both_parts_true_accepts(self):
        fspa, _ = _simple_fspa()
        assert fspa.step(fa.Q0, np.array([0.5, 0.5])) == fa.Q_ACC

    def test_g_false_traps(self):
        fspa, _ = _simple_fspa()
        assert fspa.step(fa.Q0, np.array([0.5, 1.5])) == fa.Q_TRAP

    def test_g_robustness_zero_traps(self):
        fspa, _ = _simple_fspa()
        assert fspa.step(fa.Q0, np.array([0.5, 1.0])) == fa.Q_TRAP

    def test_pending_f_stays(self):
        fspa, _ = _simple_fspa()
        assert fspa.step(fa.Q0, np.array([1.5, 0.5])) == fa.Q0

    def test_unknown_state_rejected(self):
        fspa, _ = _simple_fspa()
        with pytest.raises(ValueError, match="unknown automaton state 3"):
            fspa.step(3, np.zeros(2))

    def test_exclusivity_of_q0_guards(self, rng):
        """At most one strict q0-guard fires, for random formulas and states."""
        preds = generic_predicates(4)
        explanations = fm.enumerate_all(preds)
        picks = rng.choice(len(explanations), size=20, replace=False)
        for k in picks:
            fspa = fa.build_fspa(explanations[k], preds)
            xs = rng.uniform(0, 2, size=(500, 4))
            for x in xs:
                fired = sum(
                    fspa.guard_robustness(fa.Q0, q2, x) > 0
                    for q2 in (fa.Q0, fa.Q_ACC, fa.Q_TRAP))
                assert fired <= 1

    def test_step_codes_agree_with_step(self, rng):
        preds = generic_predicates(3)
        for canon in fm.enumerate_all(preds)[::7]:
            fspa = fa.build_fspa(canon, preds)
            xs = rng.uniform(0, 2, size=(200, 3))
            rho_f, rho_g = fspa.part_robustness(xs)
            codes = fspa.step_codes(rho_f, rho_g)
            for i, x in enumerate(xs):
                assert codes[i] == fspa.step(fa.Q0, x)


class TestRun:
    def test_matches_prefix_oracle_on_enumerated_sequences(self):
        """Exhaustive short sequences over a coarse value grid vs the oracle."""
        import itertools

        fspa, _ = _simple_fspa(text="F(psi0) & G(!psi1)")
        levels = [np.array([a, b]) for a in (0.5, 1.5) for b in (0.5, 1.5)]
        for length in range(1, 5):
            for seq in itertools.product(levels, repeat=length):
                assert _run(fspa, seq) == _run_oracle(fspa, seq)

    def test_trap_permanence(self):
        fspa, _ = _simple_fspa()
        seq = [np.array([0.5, 1.5])] + [np.array([0.5, 0.5])] * 5
        assert _run(fspa, seq) == fa.Q_TRAP

    def test_empty_run_stays_initial(self):
        fspa, _ = _simple_fspa()
        assert _run(fspa, []) == fa.Q0


class TestBestNontrapNeighbor:
    def test_accept_wins_when_stronger(self):
        fspa, _ = _simple_fspa()
        x = np.array([0.7, 0.5])  # stay = min(0.5, -0.3) < acc = min(0.5, 0.3)
        assert fspa.best_nontrap_neighbor(fa.Q0, x) == fa.Q_ACC

    def test_tie_goes_to_q0(self):
        fspa, _ = _simple_fspa()
        x = np.array([1.0, 0.5])  # rho_f = 0: stay = acc = 0
        assert fspa.best_nontrap_neighbor(fa.Q0, x) == fa.Q0

    def test_accepting_state_returns_itself(self):
        fspa, _ = _simple_fspa()
        assert fspa.best_nontrap_neighbor(fa.Q_ACC, np.zeros(2)) == fa.Q_ACC

    def test_trap_state_rejected(self):
        fspa, _ = _simple_fspa()
        with pytest.raises(ValueError):
            fspa.best_nontrap_neighbor(fa.Q_TRAP, np.zeros(2))
