"""Shared fixtures: generic predicate sets, the reference CtF runtime, and
hypothesis strategies for random small product MDPs."""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from tlexplain import envs
from tlexplain import formula as fm
from tlexplain import fspa as fa
from tlexplain.config import build_runtime, load_config
from tlexplain.product import DENSE, SPARSE, ProductMdp, RewardConfig, build_env_model
from tlexplain.search import Evaluator

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def generic_predicates(n: int) -> tuple[fm.AtomicPredicate, ...]:
    """psi0..psi{n-1}, one per feature, all with threshold 1."""
    return tuple(fm.AtomicPredicate(i, f"psi{i}", i, 1.0) for i in range(n))


def dual_part(part: fm.CanonicalPart) -> fm.CanonicalPart:
    """De Morgan dual of a part: every literal negated, ``&`` and ``|``
    swapped; its robustness is the negation of the part's."""
    swap = {fm.AND: fm.OR, fm.OR: fm.AND, None: None}
    clauses = tuple(tuple((i, not neg) for i, neg in clause) for clause in part.clauses)
    return fm.CanonicalPart(clauses, swap[part.inner], swap[part.outer])


def iter_valid_encodings(n: int):
    """Every valid raw encoding over ``n`` predicates."""
    bit_tuples = list(itertools.product((0, 1), repeat=n))
    temporals = [t for t in bit_tuples if 0 in t and 1 in t]
    for neg in bit_tuples:
        for temporal in temporals:
            for clause in bit_tuples:
                for form_f, form_g in itertools.product((0, 1), repeat=2):
                    yield fm.ExplanationEncoding(neg, temporal, clause, form_f, form_g)


@pytest.fixture(scope="session")
def preds3():
    return generic_predicates(3)


@pytest.fixture(scope="session")
def preds4():
    return generic_predicates(4)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(CONFIG_DIR / "ctf_reference.yaml")


@pytest.fixture(scope="session")
def reference_runtime(reference_config):
    return build_runtime(reference_config)


def fresh_evaluator(runtime, sample=None, **sections):
    """A new evaluator (empty cache) on ``runtime``'s model and sample, which
    carries the target's side of the metric, with the given config sections
    (``search=...``, ``trainer=...``) replaced."""
    ev = runtime.evaluator
    return Evaluator(ev.model, ev.predicates, sample or ev.sample, replace(ev.cfg, **sections))


def build_product(model, canon, preds, reward=RewardConfig(), horizon: int = 100):
    """The product MDP of ``canon`` on ``model``, built as ``Evaluator``
    builds it."""
    return ProductMdp(model, fa.build_fspa(canon, preds, model.features), reward, horizon)


def evaluator_product(ev, canon):
    """The product MDP of ``canon`` on ``ev``'s full model, with its
    predicates, reward and horizon: the one ``ev`` trains under Q-learning.
    Under soft VI ``ev`` trains the product on the model's quotient, which
    gives every row the same policy and return bit for bit."""
    return build_product(ev.model, canon, ev.predicates, ev.cfg.reward,
                         ev.cfg.environment.horizon)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def sampled_successors(env, state, action: int, n: int, rng) -> list:
    """``n`` environment successors of ``state`` under ``action``, each drawn
    by ``ProductMdp.product_step``, the sampler Q-learning trains on.

    ``state`` must be reachable in ``env``; the explanation only decides
    the automaton component of each outcome, which is dropped.
    """
    model = build_env_model(env)
    preds = generic_predicates(2)
    canon = fm.parse_explanation("F(psi0) & G(psi1)", preds)
    mdp = build_product(model, canon, preds)
    ps = (model.states.index(state), fa.Q0)
    return [model.states[mdp.product_step(ps, action, rng)[0][0]] for _ in range(n)]


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _cells(draw, height, width, fill):
    return [[draw(st.sampled_from(fill)) for _ in range(width)]
            for _ in range(height)]


def _spot(draw, height, cols):
    return draw(st.integers(0, height - 1)), draw(st.sampled_from(cols))


@st.composite
def _nav_text(draw):
    height, width = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    cells = _cells(draw, height, width, ".#HV")
    start = _spot(draw, height, range(width))
    goal = draw(st.sampled_from([(r, c) for r in range(height)
                                 for c in range(width) if (r, c) != start]))
    cells[start[0]][start[1]], cells[goal[0]][goal[1]] = "S", "G"
    return "\n".join("".join(row) for row in cells) + "\n"


@st.composite
def _ctf_text(draw):
    """Blue territory left of column ``k``, red from it on, with one open
    blue/red crossing so that the blue territory has a border."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    k = draw(st.integers(1, width - 1))
    cells = [row[:k] + rest for row, rest in zip(
        _cells(draw, height, k, "b#"), _cells(draw, height, width - k, "r.#"))]
    gate = draw(st.integers(0, height - 1))
    cells[gate][k - 1], cells[gate][k] = "b", "r"
    (br, bc), (rr, rc) = _spot(draw, height, range(k)), _spot(draw, height, range(k, width))
    cells[br][bc], cells[rr][rc] = "B", "R"
    return "\n".join("".join(row) for row in cells) + "\n"


@st.composite
def _multi_start_ctf_text(draw):
    """As ``_ctf_text``, with at least three red columns and two open red
    cells past the crossing that the red flag is not drawn onto: with
    ``random_starts``, red starts on at least two cells."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(4, 5))
    k = draw(st.integers(1, width - 3))
    cells = [row[:k] + rest for row, rest in zip(
        _cells(draw, height, k, "b#"), _cells(draw, height, width - k, "r.#"))]
    gate = draw(st.integers(0, height - 1))
    cells[gate][k - 1], cells[gate][k], cells[gate][k + 1] = "b", "r", "r"
    br, bc = _spot(draw, height, range(k))
    rr, rc = draw(st.sampled_from([(r, c) for r in range(height) for c in range(k, width)
                                   if (r, c) not in ((gate, k), (gate, k + 1))]))
    cells[br][bc], cells[rr][rc] = "B", "R"
    return "\n".join("".join(row) for row in cells) + "\n"


def _draw_products(draw, count: int, multi_start: bool = False, ctf: bool = False) -> list:
    """``count`` ``(product MDP, explanation, predicates)`` triples on one
    random small nav or CtF map, sharing its predicates, reward and horizon,
    for independently drawn explanations.  With ``multi_start`` the map is
    a CtF map with random starts and at least two start states; with
    ``ctf`` it is a CtF map, with or without random starts."""
    if multi_start:
        env = envs.CtfEnv(envs.GridMap.parse(draw(_multi_start_ctf_text()),
                                             random_starts=True))
    elif not ctf and draw(st.booleans()):
        env = envs.NavEnv(envs.NavMap.parse(draw(_nav_text())))
    else:
        grid = envs.GridMap.parse(draw(_ctf_text()),
                                  random_starts=draw(st.booleans()))
        env = envs.CtfEnv(grid)
    model = build_env_model(env)
    n = draw(st.integers(2, 3))
    n_feat = len(env.feature_names)
    preds = tuple(
        fm.AtomicPredicate(i, f"psi{i}", draw(st.integers(0, n_feat - 1)),
                           draw(st.floats(0.25, 4.0)))
        for i in range(n))
    bits = lambda size: tuple(draw(st.lists(st.integers(0, 1), min_size=size,
                                            max_size=size)))
    encs = [fm.ExplanationEncoding(
        neg=bits(n), temporal=(0, 1) + bits(n - 2), clause=bits(n),
        form_f=draw(st.integers(0, 1)), form_g=draw(st.integers(0, 1)))
        for _ in range(count)]
    reward = RewardConfig(mode=draw(st.sampled_from((SPARSE, DENSE))),
                          beta=draw(st.floats(0.0, 0.5)))
    horizon = draw(st.integers(1, 12))
    return [(build_product(model, canon, preds, reward, horizon), canon, preds)
            for canon in map(fm.decode, encs)]


@st.composite
def explained_products(draw):
    """A random product MDP on a small nav or CtF map, with the explanation
    and the predicates it was built from."""
    return _draw_products(draw, 1)[0]


@st.composite
def product_mdps(draw):
    """A random product MDP on a small nav or CtF map and explanation."""
    return _draw_products(draw, 1)[0][0]


@st.composite
def ctf_product_mdps(draw):
    """A random product MDP on a small CtF map, with or without random
    starts, and a sparse or dense reward."""
    return _draw_products(draw, 1, ctf=True)[0][0]


@st.composite
def explained_ctf_products(draw, count: int = 1, multi_start: bool = False):
    """``count`` ``(product MDP, explanation, predicates)`` triples that
    differ only in their explanation, on one random small CtF map with or
    without random starts; with ``multi_start``, with several start states."""
    return _draw_products(draw, count, multi_start=multi_start, ctf=True)


def quotient_product(mdp, canon, preds):
    """The product of ``canon`` on the quotient of ``mdp``'s model, with
    ``mdp``'s reward and horizon, as the evaluator builds it under soft VI."""
    return build_product(mdp.model.quotient[0], canon, preds, mdp.reward, mdp.horizon)


@st.composite
def multi_start_product_mdps(draw):
    """A random product MDP on a small CtF map with several start states."""
    return _draw_products(draw, 1, multi_start=True)[0][0]


@st.composite
def product_mdp_pairs(draw):
    """Two random product MDPs that differ only in their explanation."""
    return tuple(mdp for mdp, _, _ in _draw_products(draw, 2))


@st.composite
def product_mdp_batches(draw):
    """One to five random product MDPs that differ only in their explanation."""
    return [mdp for mdp, _, _ in _draw_products(draw, draw(st.integers(1, 5)))]


def full_horizon_return(mdp, policy) -> float:
    """``ProductMdp.average_return`` without its early exit: backward
    induction over all ``horizon`` passes."""
    t, m = mdp.table, mdp.model
    w = policy.probs[t.branch_row, t.branch_action] * t.branch_prob
    r_pi = np.bincount(t.branch_row, weights=w * t.branch_reward, minlength=t.n_rows)
    live = t.branch_next_row >= 0
    src, nxt, w_live = t.branch_row[live], t.branch_next_row[live], w[live]
    v = np.zeros(t.n_rows)
    for _ in range(mdp.horizon):
        v = r_pi + np.bincount(src, weights=w_live * v[nxt], minlength=t.n_rows)
    return float(m.start_probs @ v[m.start_rows])
