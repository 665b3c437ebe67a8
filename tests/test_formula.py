"""Formula layer: encodings, canonicalization, robustness, neighborhoods.

The canonicalization oracle is a truth-table signature: two encodings denote
the same explanation iff their F- and G-parts have identical boolean truth
tables over all predicate assignments.  Counts and neighborhood sizes below
were frozen from that oracle.
"""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlexplain import formula as fm

import reference as ref
from conftest import PROPERTY, dual_part, generic_predicates, iter_valid_encodings


def _assignment_features(assignment):
    """Feature vector making predicate i true iff assignment[i] (threshold 1)."""
    return np.array([0.5 if sat else 1.5 for sat in assignment])


def _signature(canon, n):
    """Independent boolean truth tables of both parts, from part_holds."""
    preds = generic_predicates(n)
    return tuple(
        tuple(ref.part_holds(part, preds, _assignment_features(a))
              for a in itertools.product((False, True), repeat=n))
        for part in (canon.f_part, canon.g_part))


# ---------------------------------------------------------------------------
# Encodings and decode
# ---------------------------------------------------------------------------


class TestEncoding:
    def test_bits_roundtrip(self):
        enc = fm.ExplanationEncoding((0, 1, 0), (0, 1, 1), (1, 0, 0), 1, 0)
        assert fm.ExplanationEncoding.from_bits(enc.bits()) == enc
        assert len(enc.bits()) == 3 * 3 + 2

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            fm.ExplanationEncoding.from_bits((0, 1, 0, 1))

    def test_all_temporal_equal_is_invalid(self):
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 0, 0), (0, 0, 0), 0, 0)
        assert not enc.is_valid()
        with pytest.raises(fm.InvalidEncodingError):
            fm.decode(enc)

    def test_random_encoding_always_valid(self, rng):
        for _ in range(200):
            assert fm.random_encoding(3, rng).is_valid()

    def test_random_encoding_needs_two_predicates(self, rng):
        # no valid encoding exists, so rejection sampling would never stop
        for n in (0, 1):
            with pytest.raises(ValueError):
                fm.random_encoding(n, rng)


class TestDecode:
    def test_single_clause_cnf_is_disjunction(self, preds3):
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 1, 1), (0, 0, 0), 0, 0)
        assert fm.render(fm.decode(enc), preds3) == "F(psi0) & G(psi1 | psi2)"

    def test_singleton_clauses_merge_with_outer_connective(self, preds3):
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 1, 1), (0, 0, 1), 0, 0)
        assert fm.render(fm.decode(enc), preds3) == "F(psi0) & G(psi1 & psi2)"

    def test_single_clause_dnf_is_conjunction(self, preds3):
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 1, 1), (0, 0, 0), 0, 1)
        assert fm.render(fm.decode(enc), preds3) == "F(psi0) & G(psi1 & psi2)"

    def test_clause_swap_canonicalizes_identically(self):
        base = fm.ExplanationEncoding((0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1), 0, 0)
        swapped = fm.ExplanationEncoding((0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0), 0, 0)
        assert fm.decode(base) == fm.decode(swapped)

    def test_singleton_part_ignores_form_bit(self):
        a = fm.ExplanationEncoding((0, 0), (0, 1), (0, 0), 0, 0)
        b = fm.ExplanationEncoding((0, 0), (0, 1), (0, 0), 1, 1)
        assert fm.decode(a) == fm.decode(b)

    def test_decode_matches_truth_table_oracle_n3(self):
        """decode(e1) == decode(e2) iff both parts are logically identical."""
        preds = generic_predicates(3)
        by_key, by_sig = {}, {}
        for enc in iter_valid_encodings(3):
            canon = fm.decode(enc)
            by_key.setdefault(fm.render(canon, preds), set()).add(enc)
            by_sig.setdefault(_signature(canon, 3), set()).add(enc)
        key_partition = {frozenset(e.bits() for e in group) for group in by_key.values()}
        sig_partition = {frozenset(e.bits() for e in group) for group in by_sig.values()}
        assert key_partition == sig_partition


class TestRender:
    def test_simple_parts(self):
        preds = generic_predicates(2)
        enc = fm.ExplanationEncoding((0, 1), (0, 1), (0, 0), 0, 0)
        assert fm.render(fm.decode(enc), preds) == "F(psi0) & G(!psi1)"

    def test_two_clause_dnf_parenthesized(self):
        preds = generic_predicates(5)
        enc = fm.ExplanationEncoding(
            (0, 0, 1, 0, 0), (0, 0, 1, 1, 1), (0, 0, 0, 0, 1), 0, 1)
        rendered = fm.render(fm.decode(enc), preds)
        assert rendered.endswith("G((!psi2 & psi3) | (psi4))")

    def test_ctf_paper_target(self):
        preds = (
            fm.AtomicPredicate(0, "psi_ba_rf", 1, 1.0),
            fm.AtomicPredicate(1, "psi_ra_bf", 0, 1.0),
            fm.AtomicPredicate(2, "psi_ba_ra", 2, 1.5),
            fm.AtomicPredicate(3, "psi_ba_bt", 3, 1.0),
        )
        enc = fm.ExplanationEncoding((0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 0), 1, 0)
        assert fm.render(fm.decode(enc), preds) == (
            "F(psi_ba_rf & !psi_ra_bf) & G(!psi_ba_ra | psi_ba_bt)")

    def test_render_deterministic(self, preds3, rng):
        for _ in range(50):
            enc = fm.random_encoding(3, rng)
            canon = fm.decode(enc)
            assert fm.render(canon, preds3) == fm.render(canon, preds3)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class TestEnumerateAll:
    def test_n1_empty(self):
        assert list(fm.enumerate_all(generic_predicates(1))) == []

    def test_n2_count(self):
        # frozen from the truth-table signature oracle over all 2^8 encodings
        assert len(list(fm.enumerate_all(generic_predicates(2)))) == 8

    def test_n3_count(self):
        assert len(list(fm.enumerate_all(generic_predicates(3)))) == 96

    def test_n4_count(self):
        # the canonical rewrite rules yield 1408 at N=4 (documented deviation
        # from the externally reported 640, whose dedup rules are unspecified)
        assert len(list(fm.enumerate_all(generic_predicates(4)))) == 1408

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_class_size_matches_enumeration(self, n):
        assert fm.class_size(n) == len(list(fm.enumerate_all(generic_predicates(n))))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_decoded_encodings(self, n):
        """Building from canonical parts equals decoding every valid encoding."""
        preds = generic_predicates(n)
        by_key = {}
        for enc in iter_valid_encodings(n):
            canon = fm.decode(enc)
            by_key.setdefault(fm.render(canon, preds), canon)
        enumerated = sorted(fm.enumerate_all(preds), key=lambda canon: fm.render(canon, preds))
        assert enumerated == [by_key[k] for k in sorted(by_key)]

    def test_class_size_n5(self):
        # confirmed once by full enumeration, which takes seconds at n=5
        assert fm.class_size(5) == 15360

    def test_cap_enforced(self):
        with pytest.raises(fm.CapExceededError):
            fm.enumerate_all(generic_predicates(5), cap=4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_signature_count(self, n):
        signatures = {
            _signature(fm.decode(enc), n) for enc in iter_valid_encodings(n)
        }
        assert len(list(fm.enumerate_all(generic_predicates(n)))) == len(signatures)

    def test_unique_keys(self, preds3):
        # the order is the oracle's to set (test_search.TestBruteForceOracle)
        keys = [fm.render(c, preds3) for c in fm.enumerate_all(preds3)]
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------


class TestRobustness:
    def test_literal(self):
        part = fm.CanonicalPart((((0, False),),), None, None)
        preds = generic_predicates(1)
        assert fm.part_robustness(part, preds, np.array([0.3])) == pytest.approx(0.7)

    def test_negated_literal(self):
        part = fm.CanonicalPart((((0, True),),), None, None)
        preds = generic_predicates(1)
        assert fm.part_robustness(part, preds, np.array([0.3])) == pytest.approx(-0.7)

    def test_conjunction_is_min(self):
        preds = generic_predicates(4)
        x = np.array([0.8, 1.3, 0.5, 1.1])  # rho = 0.2, -0.3, 0.5, -0.1
        clause = fm.CanonicalPart((((0, False), (1, False)),), fm.AND, None)
        assert fm.part_robustness(clause, preds, x) == pytest.approx(-0.3)
        # (psi0 | psi1) & (psi2 | psi3): the min over the clauses' maxima
        cnf = fm.CanonicalPart((((0, False), (1, False)), ((2, False), (3, False))),
                               fm.OR, fm.AND)
        assert fm.part_robustness(cnf, preds, x) == pytest.approx(0.2)

    def test_disjunction_is_max(self):
        preds = generic_predicates(4)
        x = np.array([0.8, 1.3, 0.5, 1.1])  # rho = 0.2, -0.3, 0.5, -0.1
        clause = fm.CanonicalPart((((0, False), (1, False)),), fm.OR, None)
        assert fm.part_robustness(clause, preds, x) == pytest.approx(0.2)
        # (psi0 & psi1) | (psi2 & psi3): the max over the clauses' minima
        dnf = fm.CanonicalPart((((0, False), (1, False)), ((2, False), (3, False))),
                               fm.AND, fm.OR)
        assert fm.part_robustness(dnf, preds, x) == pytest.approx(-0.1)

    def test_vectorized_matches_scalar(self, rng):
        # (a & !b) | c
        preds = (fm.AtomicPredicate(0, "a", 0, 1.0), fm.AtomicPredicate(1, "b", 1, 2.0),
                 fm.AtomicPredicate(2, "c", 2, 0.5))
        part = fm.CanonicalPart((((0, False), (1, True)), ((2, False),)), fm.AND, fm.OR)
        x = rng.normal(size=(40, 3))
        batch = fm.part_robustness(part, preds, x)
        assert batch.shape == (40,)
        for i in range(40):
            scalar = fm.part_robustness(part, preds, x[i])
            assert isinstance(scalar, float)
            assert batch[i] == scalar

    def test_de_morgan_exact(self, rng):
        """The dual part (literals negated, connectives swapped) scores
        exactly the negated robustness, on every part of the class."""
        for n in (2, 3, 4):
            preds = generic_predicates(n)
            vectors = rng.uniform(0, 2, size=(300, n))
            for canon in fm.enumerate_all(preds):
                for part in (canon.f_part, canon.g_part):
                    rho = fm.part_robustness(part, preds, vectors)
                    assert (fm.part_robustness(dual_part(part), preds, vectors) == -rho).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_soundness_against_boolean_oracle(self, n, rng):
        """rho > 0 iff the strict boolean evaluation holds, all formulas <=4 preds.

        Vectors are drawn away from the thresholds so robustness is never
        exactly zero (the boundary is settled by the strictness convention).
        """
        preds = generic_predicates(n)
        vectors = rng.uniform(0, 2, size=(100, n))
        vectors[np.abs(vectors - 1.0) < 1e-6] += 0.01
        for canon in fm.enumerate_all(preds):
            for part in (canon.f_part, canon.g_part):
                rho = fm.part_robustness(part, preds, vectors)
                for i in range(len(vectors)):
                    assert (rho[i] > 0) == ref.part_holds(part, preds, vectors[i])


# ---------------------------------------------------------------------------
# Neighborhood and expansion
# ---------------------------------------------------------------------------


def _neighborhood_oracle(enc):
    """Independent flip enumeration: every valid single-bit flip."""
    bits = list(enc.bits())
    out = []
    for i in range(len(bits)):
        cand = bits.copy()
        cand[i] ^= 1
        flipped = fm.ExplanationEncoding.from_bits(cand)
        if flipped.is_valid():
            out.append(flipped)
    return out


class TestNeighborhood:
    def test_size_with_blocked_temporal_flip(self):
        # flipping temporal bit 2 of (0,0,1) empties the G-part: 10 of 11 valid
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 0, 1), (0, 0, 0), 0, 0)
        assert len(fm.neighborhood(enc)) == 10

    def test_size_with_two_g_predicates(self):
        # temporal (0,1,1): flipping bit 0 yields all-ones, also invalid; the
        # flip-enumeration oracle gives 10 here too
        enc = fm.ExplanationEncoding((0, 0, 0), (0, 1, 1), (0, 0, 0), 0, 0)
        assert len(fm.neighborhood(enc)) == 10

    def test_form_flips_always_valid(self, rng):
        for _ in range(50):
            enc = fm.random_encoding(3, rng)
            nbh = fm.neighborhood(enc)
            forms = {(c.form_f, c.form_g) for c in nbh if c.temporal == enc.temporal
                     and c.neg == enc.neg and c.clause == enc.clause}
            assert (enc.form_f ^ 1, enc.form_g) in forms
            assert (enc.form_f, enc.form_g ^ 1) in forms

    def test_matches_flip_oracle(self, rng):
        for _ in range(100):
            enc = fm.random_encoding(3, rng)
            assert set(fm.neighborhood(enc)) == set(_neighborhood_oracle(enc))

    def test_never_contains_self(self, rng):
        for _ in range(50):
            enc = fm.random_encoding(4, rng)
            assert enc not in fm.neighborhood(enc)

    def test_symmetry(self, rng):
        for _ in range(100):
            e1 = fm.random_encoding(3, rng)
            for e2 in fm.neighborhood(e1):
                assert e1 in fm.neighborhood(e2)

    def test_connectivity_n3(self):
        """All valid N=3 encodings form one component under single-bit flips."""
        all_valid = set(iter_valid_encodings(3))
        start = next(iter(all_valid))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for enc in frontier:
                for nb in fm.neighborhood(enc):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        assert seen == all_valid


class TestExpansion:
    def test_double_form_flip(self):
        enc = fm.ExplanationEncoding((0, 0), (0, 1), (0, 0), 0, 1)
        nbh = [enc]
        [out] = fm.expansion(nbh, fm.ExplanationEncoding((1, 0), (0, 1), (0, 0), 0, 1))
        assert (out.form_f, out.form_g) == (1, 0)

    def test_involution_on_form_bits(self, rng):
        for _ in range(30):
            parent = fm.random_encoding(3, rng)
            nbh = fm.neighborhood(parent)
            once = fm.expansion(nbh, parent)
            twice = fm.expansion(once, parent)
            assert {(e.neg, e.temporal, e.clause, e.form_f, e.form_g) for e in twice} \
                <= {(e.neg, e.temporal, e.clause, e.form_f, e.form_g) for e in nbh}

    def test_never_larger_than_input(self, rng):
        for _ in range(30):
            parent = fm.random_encoding(3, rng)
            nbh = fm.neighborhood(parent)
            assert len(fm.expansion(nbh, parent)) <= len(nbh)

    def test_excludes_parent_and_nbh(self, rng):
        for _ in range(30):
            parent = fm.random_encoding(3, rng)
            nbh = fm.neighborhood(parent)
            out = fm.expansion(nbh, parent)
            assert parent not in out
            assert not set(out) & set(nbh)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParse:
    def test_roundtrip_all_n3(self, preds3):
        for canon in fm.enumerate_all(preds3):
            key = fm.render(canon, preds3)
            assert fm.parse_explanation(key, preds3) == canon

    def test_unknown_predicate(self, preds3):
        with pytest.raises(fm.ExplanationParseError):
            fm.parse_explanation("F(psi9) & G(psi1 | psi2)", preds3)

    def test_missing_predicate(self, preds3):
        with pytest.raises(fm.ExplanationParseError):
            fm.parse_explanation("F(psi0) & G(psi1)", preds3)

    def test_requires_f_then_g(self, preds3):
        with pytest.raises(fm.ExplanationParseError):
            fm.parse_explanation("G(psi0) & F(psi1 | psi2)", preds3)

    def test_mixed_connectives_rejected(self, preds3):
        with pytest.raises(fm.ExplanationParseError):
            fm.parse_explanation("F(psi0 & psi1 | psi2) & G(psi1)", preds3)

    @PROPERTY
    @given(st.integers(2, 4),
           st.lists(st.sampled_from(["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]),
                    min_size=1, max_size=8))
    def test_any_spacing_between_tokens(self, n, spaces):
        # "F(" and "G(" are one token each; every other token may be spaced
        preds = generic_predicates(n)
        for k, canon in enumerate(fm.enumerate_all(preds)):
            tokens = re.findall(r"[FG]\(|[!&|()]|\w+", fm.render(canon, preds))
            text = "".join(spaces[(k + i) % len(spaces)] + tok for i, tok in enumerate(tokens))
            assert fm.parse_explanation(text + spaces[k % len(spaces)], preds) == canon


class TestPredicateValidation:
    def test_gap_in_indices(self):
        preds = (fm.AtomicPredicate(0, "a", 0, 1.0), fm.AtomicPredicate(2, "b", 1, 1.0))
        with pytest.raises(ValueError):
            fm.validate_predicates(preds)

    def test_duplicate_names(self):
        preds = (fm.AtomicPredicate(0, "a", 0, 1.0), fm.AtomicPredicate(1, "a", 1, 1.0))
        with pytest.raises(ValueError):
            fm.validate_predicates(preds)

    def test_nonfinite_threshold(self):
        preds = (fm.AtomicPredicate(0, "a", 0, float("inf")),
                 fm.AtomicPredicate(1, "b", 1, 1.0))
        with pytest.raises(ValueError):
            fm.validate_predicates(preds)

    @pytest.mark.parametrize("name", ["!a", "x&y", "a|b", "a b", "(a)", "", "0a"])
    def test_non_identifier_name(self, name):
        # '!a' beside 'a' renders keys that collide; 'x&y' does not parse back
        preds = (fm.AtomicPredicate(0, "a", 0, 1.0), fm.AtomicPredicate(1, name, 1, 1.0))
        with pytest.raises(ValueError, match=r"predicates\[1\]\.name must be an identifier"):
            fm.validate_predicates(preds)

    @PROPERTY
    @given(st.lists(st.from_regex(r"[^\W\d]\w{0,4}", fullmatch=True).filter(str.isidentifier),
                    min_size=2, max_size=4, unique=True))
    def test_identifier_names_round_trip(self, names):
        preds = tuple(fm.AtomicPredicate(i, name, i, 1.0) for i, name in enumerate(names))
        fm.validate_predicates(preds)
        canons = list(fm.enumerate_all(preds))
        keys = {canon: fm.render(canon, preds) for canon in canons}
        assert len(set(keys.values())) == len(canons) == fm.class_size(len(names))
        for canon in canons:
            assert fm.parse_explanation(keys[canon], preds) == canon
