"""Template automaton: guard instantiation, stepping, tie rules, runs.

``build_fspa``'s q0 moves are checked against the scalar reference step in
``reference.py``, which the guard, step and run tests here pin down.  The
trajectory oracle re-derives acceptance from first principles: a finite
feature sequence is accepted iff some prefix keeps the G-part strictly
satisfied through a step where the F-part is strictly satisfied.
"""

import numpy as np
import pytest

from tlexplain import formula as fm
from tlexplain import fspa as fa

import reference as ref
from conftest import generic_predicates


def _simple_canon(n=2, text=None, preds=None):
    preds = preds or generic_predicates(n)
    text = text or "F(psi0) & G(psi1)"
    return fm.parse_explanation(text, preds), preds


def _run(canon, preds, feature_seq):
    """Final state after consuming a feature-vector sequence from q0."""
    q = fa.Q0
    for x in feature_seq:
        q = ref.step(canon, preds, q, x)
    return q


def _run_oracle(canon, preds, feature_seq):
    """Independent acceptance check by explicit prefix scanning."""
    for x in feature_seq:
        if not ref.part_holds(canon.g_part, preds, x):
            return fa.Q_TRAP
        if ref.part_holds(canon.f_part, preds, x):
            return fa.Q_ACC
    return fa.Q0


class TestGuards:
    def test_guard_values_f_psi0_g_not_psi1(self):
        # F(psi0) & G(!psi1): accept guard = !psi1 & psi0, trap guard = psi1
        canon, preds = _simple_canon(text="F(psi0) & G(!psi1)")
        x = np.array([0.2, 1.7])  # rho(psi0)=0.8, rho(psi1)=-0.7, rho(!psi1)=0.7
        assert ref.guard_robustness(canon, preds, fa.Q_ACC, x) == pytest.approx(0.7)
        assert ref.guard_robustness(canon, preds, fa.Q_TRAP, x) == pytest.approx(-0.7)
        assert ref.guard_robustness(canon, preds, fa.Q0, x) == pytest.approx(-0.8)

    def test_trap_guard_is_negated_g_part(self):
        # parking-style F(psi0) & G(!psi1 & !psi2): trap guard == psi1 | psi2
        canon, preds = _simple_canon(preds=generic_predicates(3),
                                     text="F(psi0) & G(!psi1 & !psi2)")
        for x in (np.array([0.0, 0.3, 1.9]), np.array([0.0, 1.4, 1.9]),
                  np.array([0.0, 0.2, 0.2])):
            expected = max(1.0 - x[1], 1.0 - x[2])
            assert ref.guard_robustness(canon, preds, fa.Q_TRAP, x) == pytest.approx(expected)

    def test_literal_guard_robustness(self):
        canon, preds = _simple_canon(text="F(psi1) & G(psi0)")
        x = np.array([0.4, 2.0])
        # staying guard = psi0 & !psi1, G-robustness 1 - 0.4 = 0.6 dominates min
        assert ref.guard_robustness(canon, preds, fa.Q0, x) == pytest.approx(0.6)

    def test_accept_guard_is_min_of_parts(self):
        canon, preds = _simple_canon()
        x = np.array([0.8, 2.1])  # rho_f = 0.2, rho_g = -1.1
        rho_f = fm.part_robustness(canon.f_part, preds, x)
        rho_g = fm.part_robustness(canon.g_part, preds, x)
        assert ref.guard_robustness(canon, preds, fa.Q_ACC, x) == pytest.approx(min(rho_f, rho_g))


class TestStep:
    def test_absorbing_states(self):
        canon, preds = _simple_canon()
        x = np.array([0.0, 0.0])
        assert ref.step(canon, preds, fa.Q_TRAP, x) == fa.Q_TRAP
        assert ref.step(canon, preds, fa.Q_ACC, x) == fa.Q_ACC

    def test_both_parts_true_accepts(self):
        canon, preds = _simple_canon()
        assert ref.step(canon, preds, fa.Q0, np.array([0.5, 0.5])) == fa.Q_ACC

    def test_g_false_traps(self):
        canon, preds = _simple_canon()
        assert ref.step(canon, preds, fa.Q0, np.array([0.5, 1.5])) == fa.Q_TRAP

    def test_g_robustness_zero_traps(self):
        canon, preds = _simple_canon()
        assert ref.step(canon, preds, fa.Q0, np.array([0.5, 1.0])) == fa.Q_TRAP

    def test_pending_f_stays(self):
        canon, preds = _simple_canon()
        assert ref.step(canon, preds, fa.Q0, np.array([1.5, 0.5])) == fa.Q0

    def test_exclusivity_of_q0_guards(self, rng):
        """At most one strict q0-guard fires, for random formulas and states."""
        preds = generic_predicates(4)
        explanations = list(fm.enumerate_all(preds))
        picks = rng.choice(len(explanations), size=20, replace=False)
        for k in picks:
            canon = explanations[k]
            xs = rng.uniform(0, 2, size=(500, 4))
            for x in xs:
                fired = sum(
                    ref.guard_robustness(canon, preds, q2, x) > 0
                    for q2 in (fa.Q0, fa.Q_ACC, fa.Q_TRAP))
                assert fired <= 1

    def test_step_codes_agree_with_step(self, rng):
        """``build_fspa``'s q0 moves equal the reference step on every row,
        with about a third of the features placed exactly on their
        threshold, so that a part's robustness is often exactly zero (or
        -0.0, for a negated literal)."""
        preds = generic_predicates(3)
        ties_f = ties_g = 0
        for canon in list(fm.enumerate_all(preds))[::7]:
            xs = rng.uniform(0, 2, size=(200, 3))
            xs[rng.random(xs.shape) < 0.3] = 1.0
            codes, rho_f, rho_g = fa.build_fspa(canon, preds, xs)
            ties_f += int((rho_f == 0).sum())
            ties_g += int((rho_g == 0).sum())
            for i, x in enumerate(xs):
                assert codes[i] == ref.step(canon, preds, fa.Q0, x)
        assert ties_f > 0 and ties_g > 0

    def test_step_codes_are_int8(self):
        canon, preds = _simple_canon()
        codes, _, _ = fa.build_fspa(canon, preds, np.array([[0.5, 0.5], [1.5, 0.5]]))
        assert codes.dtype == np.int8 and codes.tolist() == [fa.Q_ACC, fa.Q0]


class TestRun:
    def test_matches_prefix_oracle_on_enumerated_sequences(self):
        """Exhaustive short sequences over a coarse value grid vs the oracle."""
        import itertools

        canon, preds = _simple_canon(text="F(psi0) & G(!psi1)")
        levels = [np.array([a, b]) for a in (0.5, 1.5) for b in (0.5, 1.5)]
        for length in range(1, 5):
            for seq in itertools.product(levels, repeat=length):
                assert _run(canon, preds, seq) == _run_oracle(canon, preds, seq)

    def test_trap_permanence(self):
        canon, preds = _simple_canon()
        seq = [np.array([0.5, 1.5])] + [np.array([0.5, 0.5])] * 5
        assert _run(canon, preds, seq) == fa.Q_TRAP

    def test_empty_run_stays_initial(self):
        canon, preds = _simple_canon()
        assert _run(canon, preds, []) == fa.Q0


class TestBestNontrapNeighbor:
    def test_accept_wins_when_stronger(self):
        canon, preds = _simple_canon()
        x = np.array([0.7, 0.5])  # stay = min(0.5, -0.3) < acc = min(0.5, 0.3)
        assert ref.best_nontrap_neighbor(canon, preds, fa.Q0, x) == fa.Q_ACC

    def test_tie_goes_to_q0(self):
        canon, preds = _simple_canon()
        x = np.array([1.0, 0.5])  # rho_f = 0: stay = acc = 0
        assert ref.best_nontrap_neighbor(canon, preds, fa.Q0, x) == fa.Q0

    def test_accepting_state_returns_itself(self):
        canon, preds = _simple_canon()
        assert ref.best_nontrap_neighbor(canon, preds, fa.Q_ACC, np.zeros(2)) == fa.Q_ACC

    def test_trap_state_rejected(self):
        canon, preds = _simple_canon()
        with pytest.raises(ValueError):
            ref.best_nontrap_neighbor(canon, preds, fa.Q_TRAP, np.zeros(2))
