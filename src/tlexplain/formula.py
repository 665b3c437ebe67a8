"""Explanation class: predicates, bit-vector encodings, canonical forms,
robustness and truth of the canonical parts, and search neighborhoods.

An explanation has the fixed shape ``F(phi_F) & G(phi_G)`` where each part is
a CNF or DNF formula with at most two clauses over a shared predicate set.
Explanations are encoded as a truth-value vector of length ``3*N + 2``:
negation bits, temporal-assignment bits (F vs G), clause-assignment bits, and
one CNF/DNF form bit per part.  Distinct encodings can denote the same
formula; :func:`decode` maps encodings to a canonical representative so that
logically identical encodings compare equal.  A :class:`CanonicalPart` is the
one representation of a part, and :func:`part_robustness` scores it directly
on its clauses of literals.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

AND = "&"
OR = "|"


class InvalidEncodingError(ValueError):
    """Raised for encodings whose temporal bits are all equal."""


class CapExceededError(ValueError):
    """Raised when an enumeration request exceeds the configured predicate cap."""


@dataclass(frozen=True)
class AtomicPredicate:
    """Threshold predicate ``feature < threshold`` over an environment feature."""

    index: int
    name: str
    feature_index: int
    threshold: float


def validate_predicates(predicates: tuple[AtomicPredicate, ...]) -> None:
    indices = [p.index for p in predicates]
    if sorted(indices) != list(range(len(predicates))):
        raise ValueError(f"predicate indices must be 0..{len(predicates) - 1} without gaps: {indices}")
    names = [p.name for p in predicates]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate predicate names: {names}")
    for p in predicates:
        # parse_explanation's tokens are "F(", "G(", '!', '&', '|', '(' and ')',
        # split by spaces; only an identifier round-trips as a name
        if not p.name.isidentifier():
            raise ValueError(f"predicates[{p.index}].name must be an identifier, got {p.name!r}")
        if not np.isfinite(p.threshold):
            raise ValueError(f"non-finite threshold for {p.name}")


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplanationEncoding:
    """Raw ``3N + 2`` bit vector defining one explanation."""

    neg: tuple[int, ...]
    temporal: tuple[int, ...]
    clause: tuple[int, ...]
    form_f: int
    form_g: int

    @property
    def n(self) -> int:
        return len(self.neg)

    def bits(self) -> tuple[int, ...]:
        return self.neg + self.temporal + self.clause + (self.form_f, self.form_g)

    @classmethod
    def from_bits(cls, bits) -> "ExplanationEncoding":
        bits = tuple(int(b) for b in bits)
        if len(bits) < 5 or (len(bits) - 2) % 3 != 0:
            raise ValueError(f"bit vector length {len(bits)} is not 3N+2")
        n = (len(bits) - 2) // 3
        return cls(bits[:n], bits[n:2 * n], bits[2 * n:3 * n], bits[3 * n], bits[3 * n + 1])

    def is_valid(self) -> bool:
        bits = self.bits()
        if any(b not in (0, 1) for b in bits):
            return False
        return 0 in self.temporal and 1 in self.temporal

    def check_valid(self) -> None:
        if not self.is_valid():
            raise InvalidEncodingError(
                "each temporal part needs at least one predicate "
                f"(temporal bits {self.temporal})"
            )


def neighborhood(enc: ExplanationEncoding) -> list[ExplanationEncoding]:
    """All valid single-bit-flips of ``enc``, in bit order."""
    enc.check_valid()
    bits = list(enc.bits())
    out = []
    for i in range(len(bits)):
        flipped = bits.copy()
        flipped[i] ^= 1
        cand = ExplanationEncoding.from_bits(flipped)
        if cand.is_valid():
            out.append(cand)
    return out


def expansion(nbh, parent: ExplanationEncoding) -> list[ExplanationEncoding]:
    """Form-bit double flip of each neighborhood member, deduplicated.

    Members already present in ``nbh`` or equal to the parent are dropped.
    """
    seen = set(nbh) | {parent}
    out = []
    for enc in nbh:
        cand = ExplanationEncoding(
            enc.neg, enc.temporal, enc.clause, enc.form_f ^ 1, enc.form_g ^ 1
        )
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def random_encoding(n: int, rng: np.random.Generator) -> ExplanationEncoding:
    """Uniform draw over valid encodings (rejection on the temporal bits).

    Needs ``n >= 2``: a valid encoding sends at least one predicate to each
    of the F- and G-parts, so with fewer the rejection loop would never end.
    """
    if n < 2:
        raise ValueError(f"random_encoding needs at least 2 predicates, got {n}")
    while True:
        bits = rng.integers(0, 2, size=3 * n + 2)
        enc = ExplanationEncoding.from_bits(bits)
        if enc.is_valid():
            return enc


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

Literal = tuple[int, bool]  # (predicate index, negated)


@dataclass(frozen=True)
class CanonicalPart:
    """One or two sorted clauses plus the connective structure they carry.

    ``inner`` joins literals within a clause, ``outer`` joins the two clauses;
    ``inner`` is None only for a single singleton clause, ``outer`` is None
    whenever there is a single clause.
    """

    clauses: tuple[tuple[Literal, ...], ...]
    inner: str | None
    outer: str | None

    def literals(self) -> tuple[Literal, ...]:
        return tuple(lit for clause in self.clauses for lit in clause)


@dataclass(frozen=True)
class CanonicalExplanation:
    f_part: CanonicalPart
    g_part: CanonicalPart


def _canonical_part(first: list[Literal], second: list[Literal], dnf: bool) -> CanonicalPart:
    inner = AND if dnf else OR
    outer = OR if dnf else AND
    clauses = [tuple(sorted(c)) for c in (first, second) if c]
    if len(clauses) == 2:
        if all(len(c) == 1 for c in clauses):
            # CNF's "(a) & (b)" and DNF's "(a) | (b)" are plain two-literal
            # clauses; fold them so clause-split encodings canonicalize with
            # single-clause ones.
            merged = tuple(sorted(clauses[0] + clauses[1]))
            return CanonicalPart((merged,), outer, None)
        clauses.sort()
        return CanonicalPart(tuple(clauses), inner, outer)
    clause = clauses[0]
    if len(clause) == 1:
        return CanonicalPart((clause,), None, None)
    return CanonicalPart((clause,), inner, None)


def decode(enc: ExplanationEncoding) -> CanonicalExplanation:
    """Canonical form of an encoding; equal iff logically identical."""
    enc.check_valid()
    parts = {}
    for which in (0, 1):  # 0 -> F-part, 1 -> G-part
        first: list[Literal] = []
        second: list[Literal] = []
        for i in range(enc.n):
            if enc.temporal[i] != which:
                continue
            (second if enc.clause[i] else first).append((i, bool(enc.neg[i])))
        dnf = bool(enc.form_g if which else enc.form_f)
        parts[which] = _canonical_part(first, second, dnf)
    return CanonicalExplanation(parts[0], parts[1])


def _render_clause(clause, op, predicates) -> str:
    lits = [("!" if neg else "") + predicates[i].name for i, neg in clause]
    return f" {op} ".join(lits) if op else lits[0]


def _render_part(part: CanonicalPart, predicates) -> str:
    if part.outer is None:
        return _render_clause(part.clauses[0], part.inner, predicates)
    bodies = [f"({_render_clause(c, part.inner, predicates)})" for c in part.clauses]
    return f" {part.outer} ".join(bodies)


def render(canon: CanonicalExplanation, predicates) -> str:
    """Deterministic text form, e.g. ``F(psi0 & !psi1) & G(!psi2 | psi3)``.

    Used as the cache key and trace label for an explanation.
    """
    f_body = _render_part(canon.f_part, predicates)
    g_body = _render_part(canon.g_part, predicates)
    return f"F({f_body}) & G({g_body})"


def part_robustness(part: CanonicalPart, predicates, features):
    """Quantitative satisfaction of one temporal part at one or many states.

    ``features`` is an array whose last axis indexes environment features;
    the result drops that axis (a float for one state).  A literal scores
    ``threshold - feature``, negated if the literal is; ``&`` takes the min
    and ``|`` the max, within each clause and then over the clauses.  The
    part is (strictly) satisfied iff the result is > 0.
    """
    features = np.asarray(features, dtype=float)

    def literal(lit: Literal):
        i, negated = lit
        p = predicates[i]
        rho = p.threshold - features[..., p.feature_index]
        return -rho if negated else rho

    def join(values: list, op: str | None):
        if len(values) == 1:
            return values[0]
        return (np.minimum if op == AND else np.maximum).reduce(values)

    rho = join([join([literal(lit) for lit in clause], part.inner)
                for clause in part.clauses], part.outer)
    return float(rho) if np.ndim(rho) == 0 else rho


def _part_shapes(lits: list[Literal]) -> list[CanonicalPart]:
    """Every distinct canonical part over the literals ``lits``: each split
    of them into a first and a second clause under each form, folded by
    :func:`_canonical_part`, duplicates removed in order.  Needs a literal."""
    shapes: dict[CanonicalPart, None] = {}
    for mask in itertools.product((0, 1), repeat=len(lits)):
        first = [lit for lit, m in zip(lits, mask) if not m]
        second = [lit for lit, m in zip(lits, mask) if m]
        for dnf in (False, True):
            shapes.setdefault(_canonical_part(first, second, dnf), None)
    return list(shapes)


def class_size(n: int) -> int:
    """Number of distinct canonical explanations over ``n`` predicates.

    Closed form of how many :func:`enumerate_all` yields: each predicate has
    a negation bit and goes to the F- or G-part, and a part with ``k`` takes
    any of its :func:`_part_shapes`, whose number depends only on ``k``.
    """

    def forms(k: int) -> int:
        return len(_part_shapes([(i, False) for i in range(k)]))

    return 2 ** n * sum(math.comb(n, k) * forms(k) * forms(n - k)
                        for k in range(1, n))


def enumerate_all(predicates, cap: int = 6) -> Iterator[CanonicalExplanation]:
    """Every distinct canonical explanation over the predicate set, lazily.

    Refuses more than ``cap`` predicates at the call.  Yields by F/G split,
    then negation pattern, then F-part shape, then G-part shape; distinct
    splits, negations or shapes give distinct explanations.
    """
    n = len(predicates)
    if n > cap:
        raise CapExceededError(f"{n} predicates exceeds the enumeration cap {cap}")
    return _generate(n)


def _generate(n: int) -> Iterator[CanonicalExplanation]:
    for temporal in itertools.product((0, 1), repeat=n):
        if 0 not in temporal or 1 not in temporal:
            continue
        for neg in itertools.product((False, True), repeat=n):
            f_shapes = _part_shapes([(i, neg[i]) for i in range(n) if not temporal[i]])
            g_shapes = _part_shapes([(i, neg[i]) for i in range(n) if temporal[i]])
            for f in f_shapes:
                for g in g_shapes:
                    yield CanonicalExplanation(f, g)


# ---------------------------------------------------------------------------
# Parsing rendered explanations
# ---------------------------------------------------------------------------


class ExplanationParseError(ValueError):
    pass


# "F(" and "G(" are single tokens, so "F (" is refused; a name is any other
# run of non-space characters (an identifier with a combining mark is not \w)
_TOKEN = re.compile(r"[FG]\(|[!&|()]|[^\s!&|()]+")
_PUNCTUATION = {"F(", "G(", "!", AND, OR, "(", ")"}


def parse_explanation(text: str, predicates) -> CanonicalExplanation:
    """Inverse of :func:`render` (up to canonicalization).

    Reads, with any spacing between tokens::

        explanation := "F(" part ")" "&" "G(" part ")"
        part        := clause | "(" clause ")" op "(" clause ")"
        clause      := literal (op literal)*     one op throughout
        literal     := ["!"] predicate-name
        op          := "&" | "|"

    Two clauses need the inner op opposite the outer one (CNF or DNF).
    Every predicate of the set must appear exactly once and both temporal
    parts must be nonempty, mirroring the encoding invariants.
    """
    tokens = _TOKEN.findall(text)
    index = {p.name: p.index for p in predicates}
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(*expected: str) -> str:
        """The next token, one of ``expected`` or, with none given, a name."""
        nonlocal pos
        tok = peek()
        if tok is None or (tok not in expected if expected else tok in _PUNCTUATION):
            want = " or ".join(map(repr, expected)) if expected else "a predicate"
            raise ExplanationParseError(
                f"expected {want}, got {tok or 'end of text'!r} in {text!r}")
        pos += 1
        return tok

    def literal() -> Literal:
        negated = peek() == "!"
        if negated:
            take("!")
        name = take()
        if name not in index:
            raise ExplanationParseError(f"unknown predicate {name!r} in {text!r}")
        return index[name], negated

    def clause() -> tuple[list[Literal], str | None]:
        lits, ops = [literal()], set()
        while peek() in (AND, OR):
            ops.add(take(AND, OR))
            lits.append(literal())
        if len(ops) > 1:
            raise ExplanationParseError(f"mixed connectives inside a clause of {text!r}")
        return lits, (ops.pop() if ops else None)

    def part() -> CanonicalPart:
        if peek() != "(":
            lits, op = clause()
            # a single conjunction clause is a DNF part, a disjunction a CNF part
            return _canonical_part(lits, [], dnf=(op == AND))
        take("(")
        first, op1 = clause()
        take(")")
        dnf = take(AND, OR) == OR
        take("(")
        second, op2 = clause()
        take(")")
        if {op1, op2} - {None, AND if dnf else OR}:
            raise ExplanationParseError(f"clause structure in {text!r} is neither CNF nor DNF")
        return _canonical_part(first, second, dnf)

    take("F(")
    f_part = part()
    take(")")
    take(AND)
    take("G(")
    g_part = part()
    take(")")
    if pos < len(tokens):
        raise ExplanationParseError(f"unexpected {tokens[pos]!r} after G(...) in {text!r}")
    used = sorted(i for i, _ in f_part.literals() + g_part.literals())
    if used != list(range(len(predicates))):
        raise ExplanationParseError(
            f"explanation must use every predicate exactly once, got indices {used}"
        )
    return CanonicalExplanation(f_part, g_part)
